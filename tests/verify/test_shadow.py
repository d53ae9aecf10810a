"""Shadow lock table: divergence detection and the randomized soak test.

The soak test is the satellite property test: a seeded stdlib-``random``
driver issues thousands of request/upgrade/release/cancel operations
against a :class:`ShadowLockTable`, which diffs every single one against
the naive :class:`ReferenceLockTable`.  The fast pinned-seed variant is
tier-1; the multi-seed long variant is marked ``slow``.
"""

from __future__ import annotations

import random

import pytest

import repro.lockmgr.lock_table as lock_table_module
from repro.errors import LockProtocolError, ShadowDivergence
from repro.lockmgr.lock_table import Grant, RequestOutcome
from repro.lockmgr.modes import LockMode
from repro.verify.reference import _Wait
from repro.verify.shadow import ShadowLockTable, canonical_grants

S, X = LockMode.S, LockMode.X


class _Txn:
    __slots__ = ("txn_id",)

    def __init__(self, txn_id: int):
        self.txn_id = txn_id

    def __repr__(self):
        return f"T{self.txn_id}"


# ----------------------------------------------------------------------
# canonical_grants
# ----------------------------------------------------------------------

def test_canonical_grants_is_order_insensitive():
    a, b = _Txn(1), _Txn(2)
    forward = [Grant(a, "p", S, False), Grant(b, "q", X, True)]
    backward = list(reversed(forward))
    assert canonical_grants(forward) == canonical_grants(backward)
    assert canonical_grants([]) == []


# ----------------------------------------------------------------------
# Clean operation: the shadow is transparent
# ----------------------------------------------------------------------

def test_shadow_passes_through_outcomes_and_counts_checks():
    table = ShadowLockTable()
    t0, t1 = _Txn(0), _Txn(1)
    assert table.request(t0, "p", X) is RequestOutcome.GRANTED
    assert table.request(t1, "p", S) is RequestOutcome.BLOCKED
    grants = table.release_all(t0)
    assert canonical_grants(grants) == [("1", "p", "S", False)]
    assert table.ops_checked >= 3
    assert table.dump() == table.reference.snapshot()


def test_shadow_checks_protocol_errors_on_both_sides():
    table = ShadowLockTable()
    t0, t1 = _Txn(0), _Txn(1)
    table.request(t0, "p", X)
    table.request(t1, "p", S)
    before = table.ops_checked
    with pytest.raises(LockProtocolError):
        table.request(t1, "q", S)
    # The matched rejection still counts as a compared operation.
    assert table.ops_checked == before + 1
    assert table.dump() == table.reference.snapshot()


# ----------------------------------------------------------------------
# Divergence: a corrupted real table cannot hide
# ----------------------------------------------------------------------

def test_corrupted_compatibility_matrix_diverges(monkeypatch):
    # Corrupt the *real* grant path only: the reference spells out its
    # own compatibility matrix precisely so this cannot infect it.  The
    # real grant predicate is the O(1) holder-counter test inside
    # ``LockTable.request``, so the corruption swaps in a fresh-request
    # path that grants regardless of holder modes.
    real_request = lock_table_module.LockTable.request

    def corrupted_request(self, txn, page, mode):
        lock = self._locks.get(page)
        if (lock is not None and lock.holders
                and txn not in lock.holders
                and not lock.upgraders and not lock.queue):
            self.requests += 1
            self._grant(txn, page, lock, mode)
            return lock_table_module.RequestOutcome.GRANTED
        return real_request(self, txn, page, mode)

    monkeypatch.setattr(lock_table_module.LockTable, "request",
                        corrupted_request)
    table = ShadowLockTable()
    t0, t1 = _Txn(0), _Txn(1)
    table.request(t0, "p", X)
    with pytest.raises(ShadowDivergence) as exc_info:
        table.request(t1, "p", X)       # real grants it; reference blocks
    divergence = exc_info.value
    assert divergence.operation == "request"
    assert "real" in divergence.evidence
    assert "reference" in divergence.evidence
    assert (divergence.evidence["real"]
            != divergence.evidence["reference"])


def test_desynced_page_state_diverges_on_next_op():
    table = ShadowLockTable()
    t0 = _Txn(0)
    table.request(t0, "p", S)
    # Desync the reference's view of page p: the next operation touching
    # p must notice the two tables disagree.
    table.reference._holds["p"][0].mode = X
    with pytest.raises(ShadowDivergence) as exc_info:
        table.request(t0, "p", S)       # covered re-request, still checked
    assert exc_info.value.evidence["page"] == "p"


def test_untouched_page_desync_caught_by_periodic_full_compare():
    from repro.verify.shadow import FULL_COMPARE_STRIDE
    table = ShadowLockTable()
    t0 = _Txn(0)
    table.request(t0, "p", S)
    # Corrupt a page that no later operation touches: only the periodic
    # full-table comparison can see it.
    table.reference._holds.clear()
    with pytest.raises(ShadowDivergence, match="full comparison"):
        for i in range(FULL_COMPARE_STRIDE + 1):
            table.request(t0, "q%d" % i, S)


def test_full_compare_due_after_a_rejected_operation():
    # The full diff falls due on the FULL_COMPARE_STRIDE-th compared
    # operation.  When that operation is one both sides reject (counted,
    # but with no state compare), the diff must run on the next one
    # instead of slipping a whole stride.
    from repro.verify.shadow import FULL_COMPARE_STRIDE
    table = ShadowLockTable()
    t0, t1 = _Txn(0), _Txn(1)
    table.request(t0, "p", X)
    table.request(t1, "p", S)                   # t1 now waits
    for i in range(FULL_COMPARE_STRIDE - 3):
        table.request(t0, "q%d" % i, S)
    assert table.ops_checked == FULL_COMPARE_STRIDE - 1
    with pytest.raises(LockProtocolError):
        table.request(t1, "r", S)               # rejected on both sides
    assert table.ops_checked == FULL_COMPARE_STRIDE
    # Corrupt a page the next operation does not touch.
    table.reference._holds["q0"][0].mode = X
    with pytest.raises(ShadowDivergence, match="full comparison"):
        table.request(t0, "z", S)


def _stride_of_untouched_requests(table, txn):
    """Enough fresh-page requests to make the periodic full comparison
    fall due, none of them touching an existing page."""
    from repro.verify.shadow import FULL_COMPARE_STRIDE
    for i in range(FULL_COMPARE_STRIDE + 1):
        table.request(txn, "fresh%d" % i, S)


def test_stale_real_wait_record_caught_by_periodic_full_compare():
    # A real wait record for a transaction that sits in no queue: every
    # page agrees, only the waiter multiset can tell.
    from repro.lockmgr.lock_table import _WaitRecord
    table = ShadowLockTable()
    t0, ghost = _Txn(0), _Txn(1)
    table.request(t0, "p", X)
    table._waits[ghost] = _WaitRecord("p", S, False)
    with pytest.raises(ShadowDivergence, match="full comparison"):
        _stride_of_untouched_requests(table, t0)


def test_empty_real_lock_entry_caught_by_periodic_full_compare():
    # An empty _Lock left behind on a page no later operation touches:
    # the reference has no state there at all.
    from repro.lockmgr.lock_table import _Lock
    table = ShadowLockTable()
    t0 = _Txn(0)
    table.request(t0, "p", S)
    table._locks["orphan"] = _Lock()
    with pytest.raises(ShadowDivergence, match="full comparison"):
        _stride_of_untouched_requests(table, t0)


def test_untouched_same_id_impostor_caught_by_periodic_full_compare():
    # A holder replaced by another object with the same txn_id, on a
    # page no later operation touches.  The canonical dumps label
    # transactions by txn_id, so they agree here; the object compare
    # does not.
    table = ShadowLockTable()
    t0, t1 = _Txn(0), _Txn(1)
    table.request(t0, "p", S)
    table.request(t1, "p", S)
    table.reference._holds["p"][0].txn = _Txn(0)
    assert table.dump() == table.reference.snapshot()
    with pytest.raises(ShadowDivergence, match="full comparison"):
        _stride_of_untouched_requests(table, t1)


def _two_waiter_table():
    """t0 and t1 hold S on p and both wait to upgrade to X; t2 and t3
    queue behind them for S, in that order."""
    table = ShadowLockTable()
    t0, t1, t2, t3 = (_Txn(i) for i in range(4))
    table.request(t0, "p", S)
    table.request(t1, "p", S)
    table.request(t0, "p", X)
    table.request(t1, "p", X)
    table.request(t2, "p", S)
    table.request(t3, "p", S)
    return table, (t0, t1, t2, t3)


def test_swapped_queue_waiters_diverge():
    table, _txns = _two_waiter_table()
    waits = table.reference._waits["p"]
    waits[2], waits[3] = waits[3], waits[2]
    with pytest.raises(ShadowDivergence) as exc_info:
        table.request(_Txn(4), "p", S)  # queues on p on both sides
    assert exc_info.value.evidence["page"] == "p"


def test_swapped_upgraders_diverge():
    table, _txns = _two_waiter_table()
    waits = table.reference._waits["p"]
    waits[0], waits[1] = waits[1], waits[0]
    with pytest.raises(ShadowDivergence) as exc_info:
        table.request(_Txn(4), "p", S)
    assert exc_info.value.evidence["page"] == "p"


def test_queued_waiter_mode_mismatch_diverges():
    # Same waiters in the same order; only one queued request's mode
    # differs, which the canonical dumps would show but the object
    # compare must catch on its own.
    table, _txns = _two_waiter_table()
    table.reference._waits["p"][3].mode = X
    with pytest.raises(ShadowDivergence) as exc_info:
        table.request(_Txn(4), "p", S)
    assert exc_info.value.evidence["page"] == "p"


def test_dropped_upgrader_diverges():
    table, (_t0, t1, _t2, _t3) = _two_waiter_table()
    waits = table.reference._waits["p"]
    waits.remove(next(w for w in waits if w.txn is t1))
    with pytest.raises(ShadowDivergence) as exc_info:
        table.request(_Txn(4), "p", S)
    assert exc_info.value.evidence["page"] == "p"


def test_holder_replaced_by_same_id_impostor_diverges():
    # The canonical dumps label transactions by txn_id, so they cannot
    # tell these two objects apart; the per-operation compare can.
    table = ShadowLockTable()
    t0, t1 = _Txn(0), _Txn(1)
    table.request(t0, "p", S)
    table.request(t1, "p", S)
    table.reference._holds["p"][0].txn = _Txn(0)
    with pytest.raises(ShadowDivergence) as exc_info:
        table.request(t1, "p", S)
    assert exc_info.value.evidence["page"] == "p"


def test_holder_insertion_order_does_not_matter():
    table = ShadowLockTable()
    t0, t1, t2 = _Txn(0), _Txn(1), _Txn(2)
    for txn in (t0, t1, t2):
        table.request(txn, "p", S)
    table.reference._holds["p"].reverse()
    table.request(t1, "p", S)           # compared, and must still agree
    assert table.dump() == table.reference.snapshot()


# ----------------------------------------------------------------------
# The reference's per-transaction index
# ----------------------------------------------------------------------

def _assert_index_matches_lists(ref):
    """The reference's per-transaction indexes equal a rescan of its
    per-page lists, and hold no empty entries."""
    waits = {}
    for page, entries in ref._waits.items():
        for wait in entries:
            assert wait.page == page
            assert wait.txn not in waits        # one wait per transaction
            waits[wait.txn] = wait
    held = {}
    for page, holds in ref._holds.items():
        for hold in holds:
            held.setdefault(hold.txn, set()).add(page)
    assert ref._wait_by_txn == waits
    assert {txn: set(pages)
            for txn, pages in ref._held_by_txn.items()} == held
    assert all(ref._held_by_txn.values())


def test_stale_wait_index_entry_diverges():
    # The reference still indexes a wait that is in no list: it rejects
    # the transaction's next request, which the real table takes.
    table = ShadowLockTable()
    t0, t1 = _Txn(0), _Txn(1)
    table.request(t0, "p", X)
    table.request(t1, "p", S)           # t1 waits
    table.cancel_wait(t1)               # its index entry goes with it
    table.request(t1, "q", S)           # so it may request again
    _assert_index_matches_lists(table.reference)
    table.reference._wait_by_txn[t1] = _Wait(t1, "p", S, False)
    with pytest.raises(ShadowDivergence,
                       match="protocol-error divergence") as exc_info:
        table.request(t1, "r", S)
    assert exc_info.value.operation == "request"


def test_page_missing_from_held_index_diverges():
    # The reference's index lost a page t0 holds: its release_all leaves
    # that hold in place, and the page the real table released differs.
    table = ShadowLockTable()
    t0, t1 = _Txn(0), _Txn(1)
    for page in ("p", "q", "r"):
        table.request(t0, page, S)
    table.release(t0, "r")              # leaves t0's index with it
    table.request(t1, "q", S)
    _assert_index_matches_lists(table.reference)
    del table.reference._held_by_txn[t0]["q"]
    with pytest.raises(ShadowDivergence) as exc_info:
        table.release_all(t0)
    assert exc_info.value.operation == "release_all"
    assert exc_info.value.evidence["page"] == "q"


# ----------------------------------------------------------------------
# Randomized soak (satellite): thousands of shadowed operations
# ----------------------------------------------------------------------

PAGES = ["p%d" % i for i in range(8)]


def _soak(seed: int, ops: int) -> ShadowLockTable:
    """Drive a ShadowLockTable through a random protocol-respecting
    workload: transactions never issue a request while waiting, and
    blocked transactions either keep waiting, give up their wait, or
    abort (release everything).  After every step the reference's
    per-transaction index must match its lists."""
    rng = random.Random(seed)
    table = ShadowLockTable()
    txns = [_Txn(i) for i in range(10)]
    for _ in range(ops):
        txn = rng.choice(txns)
        if table.is_waiting(txn):
            roll = rng.random()
            if roll < 0.30:
                table.cancel_wait(txn)
            elif roll < 0.45:
                table.release_all(txn)      # abort while blocked
            # else: stay waiting
        else:
            roll = rng.random()
            held = sorted(table.held_pages(txn), key=str)
            if roll < 0.60:
                mode = S if rng.random() < 0.7 else X
                table.request(txn, rng.choice(PAGES), mode)
            elif roll < 0.85 and held:
                table.release(txn, rng.choice(held))
            else:
                table.release_all(txn)
            assert table.reference.snapshot() == table.dump()
        _assert_index_matches_lists(table.reference)
    return table


def test_soak_fast_pinned_seed():
    table = _soak(seed=0xC0FFEE, ops=2000)
    # Some iterations are idle (a blocked transaction keeps waiting),
    # so the checked-op count is a bit below the iteration count; the
    # floor still proves the driver exercised the interesting paths.
    assert table.ops_checked >= 1000
    assert table.blocks > 0
    assert table.upgrades_requested > 0
    assert table.dump() == table.reference.snapshot()


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 7, 20260806])
def test_soak_long_multi_seed(seed):
    table = _soak(seed=seed, ops=12000)
    assert table.ops_checked >= 6000
    assert table.dump() == table.reference.snapshot()
