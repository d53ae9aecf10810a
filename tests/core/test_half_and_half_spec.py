"""The Half-and-Half rule as an executable spec, checked on every small state.

:func:`spec` restates the paper's control rule (PAPER.md §1) as a pure
function, written from the paper's wording rather than from the
controller: each active transaction is running or blocked, mature or
immature, and blocking others or not; the 50% rule with tolerance δ
splits the population into three regions; and four hooks act on them:

* **arrival** — admit if a commit pre-authorised the next arrival
  (consuming that authorisation), or if the system is Underloaded;
  otherwise the arrival waits in the ready queue;
* **lock grant** — while Underloaded, admit from the ready queue until
  the region is left or the queue is empty;
* **block** — while Overloaded, abort blocked transactions that in turn
  block others, youngest first, until the region is left or no such
  transaction remains;
* **commit** — admit a replacement from the ready queue if one waits,
  otherwise pre-authorise the next arrival.

An admitted transaction enters running and immature, and an aborted one
leaves the active set; nothing else changes within one hook, which is
the surface of the stub system the controller is driven through.  The
check enumerates every age ordering of the six transaction kinds for up
to four active transactions and every multiset of them for five and
six, with zero to two queued arrivals and the carry flag off or on, and
requires :class:`HalfAndHalfController` to produce the same actions in
the same order, victims included.  δ = 0.0 and δ = 0.25 put fractions
exactly on the 0.5 and 0.75 boundaries, which the rule's strict ``>``
must leave out of the Underloaded and Overloaded regions.
"""

from __future__ import annotations

import itertools
import time

import pytest

from repro.core.half_and_half import HalfAndHalfController
from repro.core.regions import DEFAULT_DELTA

from .test_half_and_half import FakeSystem, _txn

#: (mature, blocked, blocking others).  A running transaction's blocking
#: flag is never read by the rule, so only blocked ones carry it.
KINDS = (
    (True, False, False),
    (False, False, False),
    (True, True, False),
    (True, True, True),
    (False, True, False),
    (False, True, True),
)

#: Victim orders of the configurations under test: the paper's and the
#: two ablations the benchmarks run.  (policy, blocking victims only)
CONFIGS = (("youngest", True), ("oldest", True), ("youngest", False))

DELTAS = (DEFAULT_DELTA, 0.0, 0.25)


def _states():
    """Every active set in scope, oldest transaction first."""
    for n in range(5):
        yield from itertools.product(KINDS, repeat=n)
    for n in (5, 6):
        yield from itertools.combinations_with_replacement(KINDS, n)


# ----------------------------------------------------------------------
# The spec
# ----------------------------------------------------------------------

def spec(active, queued, carry, delta, oldest_first, blocking_only):
    """The paper's actions at each hook for one state.

    ``active`` lists (mature, blocked, blocking) oldest first; the result
    maps each hook to ``(admitted on arrival or None, admissions from the
    queue, victims as age indices, carry flag afterwards)``.
    """
    bound = 0.5 + delta

    def underloaded(pop):
        # Mature and running over active; an empty system admits.
        return not pop or sum(m and not b for m, b, _ in pop) / len(pop) > bound

    def overloaded(pop):
        return bool(pop) and sum(m and b for m, b, _ in pop) / len(pop) > bound

    # Arrival.
    if carry:
        arrival = (True, 0, (), False)
    else:
        arrival = (underloaded(active), 0, (), False)

    # Lock grant: each admission adds a running, immature transaction.
    pop = list(active)
    admitted = 0
    while underloaded(pop) and admitted < queued:
        pop.append((False, False, False))
        admitted += 1
    grant = (None, admitted, (), carry)

    # Block: victims are blocked (and blocking) transactions, youngest
    # first, or oldest first in the ablation.
    alive = list(range(len(active)))
    victims = []
    while overloaded([active[i] for i in alive]):
        eligible = [i for i in alive
                    if active[i][1] and (active[i][2] or not blocking_only)]
        if not eligible:
            break
        victim = min(eligible) if oldest_first else max(eligible)
        victims.append(victim)
        alive.remove(victim)
    block = (None, 0, tuple(victims), carry)

    # Commit: replace unconditionally, or pre-authorise the next arrival.
    commit = (None, 1, (), carry) if queued else (None, 0, (), True)

    return {"arrival": arrival, "grant": grant, "block": block,
            "commit": commit}


# ----------------------------------------------------------------------
# The controller, driven through the stub system in the same state
# ----------------------------------------------------------------------

_POOL = [_txn(i) for i in range(6)]
_QUEUE = [_txn(100 + i) for i in range(2)]
_OUTSIDE = _txn(999)


def _drive(controller, active, queued, carry, hook):
    system = FakeSystem()
    tracker = system.tracker
    blocking = system.lock_table.blocking
    for txn, (mature, blocked, blocks) in zip(_POOL, active):
        tracker.add(txn, 0.0)
        if mature:
            tracker.set_mature(txn, 0.0)
        if blocked:
            tracker.set_blocked(txn, True, 0.0)
        if blocks:
            blocking.add(txn)
    system.ready = list(_QUEUE[:queued])
    controller.attach(system)
    controller._admit_next_arrival = carry
    admitted = None
    if hook == "arrival":
        admitted = controller.want_admit(_OUTSIDE)
    elif hook == "grant":
        controller.on_lock_granted(_OUTSIDE)
    elif hook == "block":
        controller.on_block(_OUTSIDE)
    else:
        controller.on_commit(_OUTSIDE)
    victims = tuple(_POOL.index(t) for t, _reason in system.aborted)
    return (admitted, len(system.admitted), victims,
            controller._admit_next_arrival)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("policy,blocking_only", CONFIGS)
def test_controller_matches_the_paper_rule(delta, policy, blocking_only):
    controller = HalfAndHalfController(
        delta=delta, victim_policy=policy,
        require_blocking_victims=blocking_only)
    started = time.perf_counter()
    checked = 0
    for active in _states():
        for queued in range(3):
            for carry in (False, True):
                expected = spec(active, queued, carry, delta,
                                policy == "oldest", blocking_only)
                for hook, want in expected.items():
                    got = _drive(controller, active, queued, carry, hook)
                    assert got == want, (hook, active, queued, carry)
                    checked += 1
    elapsed = time.perf_counter() - started
    # 2,269 active sets x 3 queue lengths x 2 carry flags x 4 hooks.
    assert checked == 54_456
    print(f"\n{checked} hook states in {elapsed:.2f} s")


def test_boundaries_are_in_scope():
    """The enumeration reaches each boundary the strict ``>`` decides."""
    fractions = set()
    for active in _states():
        if active:
            n = len(active)
            fractions.add(sum(m and not b for m, b, _ in active) / n)
            fractions.add(sum(m and b for m, b, _ in active) / n)
    assert {0.5, 0.75} <= fractions
    # Just above each δ's threshold, too.
    assert any(f > 0.5 + DEFAULT_DELTA for f in fractions)
    assert 0.8 in fractions
