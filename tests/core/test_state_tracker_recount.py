"""The tracker's incremental counters against a recount, on every small
sequence of transitions.

Every sequence of at most four transitions over three transactions is
enumerated: ``add``, ``remove``, ``set_blocked(True)``,
``set_blocked(False)`` and ``set_mature`` of each transaction.  The
test keeps its own model, ``{txn: (blocked, mature)}`` for the active
transactions, and after every step recounts Table 1's four states from
it and compares the tracker's counters, its per-transaction state, its
active and blocked iterators and the populations it last published to
the collector.

A transition that names an inactive transaction (or adds an active one)
must raise :class:`~repro.errors.InvariantViolation` with invariant
``tracker_membership``, leave every counter and the collector as they
were, and ends that branch of the enumeration.

The same sequences run against the distributed system's cluster
tracker over two home trackers: its global counts must match the
recount, and the home trackers must partition them.
"""

from __future__ import annotations

import time

import pytest

from repro.core.state_tracker import StateTracker
from repro.dbms.transaction import Transaction
from repro.distributed.system import _ClusterTracker
from repro.errors import InvariantViolation

N_TXNS = 3
MAX_STEPS = 4

#: Home tracker of each transaction's terminal in the cluster runs.
HOMES = (0, 1, 0)

TRANSITIONS = tuple((op, i) for i in range(N_TXNS)
                    for op in ("add", "remove", "block", "unblock",
                               "mature"))


class _LastPopulations:
    """A collector that keeps only what it was last told."""

    def __init__(self):
        self.calls = 0
        self.last = None

    def set_populations(self, now, n_active, n_state1, n_state2,
                        n_state3, n_state4):
        self.calls += 1
        self.last = (n_active, n_state1, n_state2, n_state3, n_state4)


def _state(blocked: bool, mature: bool) -> int:
    if blocked:
        return 3 if mature else 4
    return 1 if mature else 2


def _recount(model, ids):
    """``(n_active, n_state1..4)`` over the model's transactions in
    ``ids``."""
    counts = [0, 0, 0, 0]
    for i in ids:
        if i in model:
            counts[_state(*model[i]) - 1] += 1
    return (sum(counts), *counts)


def _counters(tracker):
    return (tracker.n_active, tracker.n_state1, tracker.n_state2,
            tracker.n_state3, tracker.n_state4)


def _snapshot(tracker, homes, collector):
    return (_counters(tracker), frozenset(tracker.active_transactions()),
            [(_counters(h), frozenset(h.active_transactions()))
             for h in homes],
            collector.calls, collector.last)


def _check(tracker, homes, collector, model, txns):
    everyone = range(N_TXNS)
    expected = _recount(model, everyone)
    assert _counters(tracker) == expected
    assert collector.last == expected
    n_active, s1, s2, s3, s4 = expected
    assert tracker.n_running == s1 + s2
    assert tracker.n_blocked == s3 + s4
    active = [txns[i] for i in model]
    listed = list(tracker.active_transactions())
    assert len(listed) == n_active and set(listed) == set(active)
    blocked = list(tracker.blocked_transactions())
    assert len(blocked) == s3 + s4
    assert set(blocked) == {txns[i] for i, (b, _) in model.items() if b}
    for i, flags in model.items():
        assert tracker.is_active(txns[i])
        assert tracker.state_of(txns[i]) == _state(*flags)
    tracker.check_invariants()
    if homes:
        total = [0] * 5
        members = set()
        for h, home in enumerate(homes):
            mine = [i for i in everyone if HOMES[i] == h]
            assert _counters(home) == _recount(model, mine)
            total = [a + b for a, b in zip(total, _counters(home))]
            listed = set(home.active_transactions())
            assert not listed & members
            members |= listed
            home.check_invariants()
        assert tuple(total) == expected
        assert members == set(active)


def _apply(tracker, op, txn, now):
    if op == "add":
        tracker.add(txn, now)
    elif op == "remove":
        tracker.remove(txn, now)
    elif op == "block":
        tracker.set_blocked(txn, True, now)
    elif op == "unblock":
        tracker.set_blocked(txn, False, now)
    else:
        tracker.set_mature(txn, now)


def _step(model, op, i):
    """The model after one transition, or ``None`` if the transition
    must be refused."""
    if (op == "add") == (i in model):
        return None
    model = dict(model)
    if op == "add":
        model[i] = (False, False)
    elif op == "remove":
        del model[i]
    elif op in ("block", "unblock"):
        model[i] = (op == "block", model[i][1])
    else:
        model[i] = (model[i][0], True)
    return model


def _sequences():
    """Every sequence of at most ``MAX_STEPS`` transitions whose steps
    are all legal except, possibly, the last."""
    def extend(prefix, model):
        if len(prefix) == MAX_STEPS:
            return
        for transition in TRANSITIONS:
            after = _step(model, *transition)
            yield prefix + (transition,)
            if after is not None:
                yield from extend(prefix + (transition,), after)
    return list(extend((), {}))


def _make(cluster: bool):
    collector = _LastPopulations()
    if not cluster:
        return StateTracker(collector), [], collector
    homes = [StateTracker(), StateTracker()]
    return (_ClusterTracker(collector, [homes[h] for h in HOMES]),
            homes, collector)


def _run(sequence, cluster: bool) -> None:
    tracker, homes, collector = _make(cluster)
    txns = [Transaction(txn_id=i, terminal_id=i, timestamp=float(i),
                        readset=[1, 2], writeset=set())
            for i in range(N_TXNS)]
    model = {}
    for now, (op, i) in enumerate(sequence, start=1):
        after = _step(model, op, i)
        if after is None:
            before = _snapshot(tracker, homes, collector)
            with pytest.raises(InvariantViolation) as exc_info:
                _apply(tracker, op, txns[i], float(now))
            assert exc_info.value.invariant == "tracker_membership"
            assert _snapshot(tracker, homes, collector) == before
            return
        _apply(tracker, op, txns[i], float(now))
        model = after
        _check(tracker, homes, collector, model, txns)


@pytest.mark.parametrize("cluster", [False, True],
                         ids=["StateTracker", "ClusterTracker"])
def test_counters_match_a_recount_after_every_transition(cluster):
    started = time.perf_counter()
    sequences = _sequences()
    for sequence in sequences:
        _run(sequence, cluster)
    elapsed = time.perf_counter() - started
    # Each state with k active transactions has 3 + 3k legal
    # transitions out of 15; a refused one ends its sequence.
    assert len(sequences) == 2_085
    print(f"\n{len(sequences)} sequences in {elapsed:.2f} s")


def test_every_transition_and_refusal_is_in_scope():
    """The enumeration reaches every transition both legally and as a
    refusal, with up to three transactions active at once."""
    legal, refused = set(), set()
    most_active = 0
    for sequence in _sequences():
        model = {}
        for op, i in sequence:
            after = _step(model, op, i)
            (legal if after is not None else refused).add((op, i))
            if after is None:
                break
            model = after
            most_active = max(most_active, len(model))
    assert legal == refused == set(TRANSITIONS)
    assert most_active == N_TXNS
