"""Property-based tests: the lock table stays consistent under any
legal sequence of requests, releases, and wait-cancellations."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lockmgr.lock_table import LockTable, RequestOutcome
from repro.lockmgr.modes import LockMode, compatible


class T:
    def __init__(self, i: int):
        self.i = i

    def __repr__(self):
        return f"t{self.i}"


# Operation alphabet: (op, txn_index, page, mode_is_x)
_ops = st.lists(
    st.tuples(
        st.sampled_from(["request", "release_all", "cancel_wait"]),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=4),
        st.booleans(),
    ),
    min_size=1, max_size=60,
)


def _live_pages(table, txns):
    """Pages with a holder, an upgrader or a queued waiter, from the
    per-transaction indexes rather than the page entries."""
    pages = set()
    for txn in txns:
        pages |= table.held_pages(txn)
        waited = table.waiting_on(txn)
        if waited is not None:
            pages.add(waited)
    return pages


@settings(max_examples=150, deadline=None)
@given(_ops)
@example([("request", 0, 0, True), ("release_all", 0, 0, False),
          ("request", 1, 0, False), ("request", 2, 0, True),
          ("release_all", 1, 0, False), ("release_all", 2, 0, False),
          ("request", 3, 1, True), ("request", 0, 0, False)])
def test_property_lock_table_invariants_hold(ops):
    """After every operation the table is consistent and reports as
    locked exactly the pages someone holds or waits for; a request on a
    page nobody holds or waits for (possibly on an entry reused after a
    full release) is granted as that page's only holder."""
    table = LockTable()
    txns = [T(i) for i in range(6)]
    for op, ti, page, is_x in ops:
        txn = txns[ti]
        if op == "request":
            if table.is_waiting(txn):
                continue  # illegal while waiting; skip
            mode = LockMode.X if is_x else LockMode.S
            was_free = page not in table.locked_pages()
            outcome = table.request(txn, page, mode)
            if was_free:
                assert outcome is RequestOutcome.GRANTED
                assert table.holders(page) == {txn: mode}
                lock = table._locks[page]
                assert lock.num_s + lock.num_x == 1
        elif op == "release_all":
            table.release_all(txn)
        else:
            table.cancel_wait(txn)
        table.check_invariants()
        locked = table.locked_pages()
        assert len(locked) == len(set(locked)) == table.num_locked_pages()
        assert set(locked) == _live_pages(table, txns)


@settings(max_examples=150, deadline=None)
@given(_ops)
def test_property_no_incompatible_holders_ever(ops):
    table = LockTable()
    txns = [T(i) for i in range(6)]
    pages_seen = set()
    for op, ti, page, is_x in ops:
        txn = txns[ti]
        pages_seen.add(page)
        if op == "request":
            if table.is_waiting(txn):
                continue
            table.request(txn, page, LockMode.X if is_x else LockMode.S)
        elif op == "release_all":
            table.release_all(txn)
        else:
            table.cancel_wait(txn)
        for p in pages_seen:
            modes = list(table.holders(p).values())
            for i, m1 in enumerate(modes):
                for m2 in modes[i + 1:]:
                    assert compatible(m1, m2)


@settings(max_examples=100, deadline=None)
@given(_ops)
def test_property_waiters_eventually_granted_after_release_all(ops):
    """If every holder releases everything, no one is left waiting."""
    table = LockTable()
    txns = [T(i) for i in range(6)]
    for op, ti, page, is_x in ops:
        txn = txns[ti]
        if op == "request" and not table.is_waiting(txn):
            table.request(txn, page, LockMode.X if is_x else LockMode.S)
    # Drain: repeatedly release everything non-waiting; when only a
    # deadlock remains (every lock holder is itself waiting), abort one
    # victim, exactly as the deadlock detector would.
    for _ in range(len(txns) * 10):
        waiting = [t for t in txns if table.is_waiting(t)]
        if not waiting:
            break
        released_any = False
        for txn in txns:
            if not table.is_waiting(txn) and table.held_pages(txn):
                table.release_all(txn)
                released_any = True
        if not released_any:
            table.release_all(waiting[0])   # break the deadlock
    assert all(not table.is_waiting(t) for t in txns)
    table.check_invariants()


@settings(max_examples=100, deadline=None)
@given(_ops)
def test_property_blocked_outcome_iff_wait_recorded(ops):
    table = LockTable()
    txns = [T(i) for i in range(6)]
    for op, ti, page, is_x in ops:
        txn = txns[ti]
        if op == "request":
            if table.is_waiting(txn):
                continue
            out = table.request(txn, page,
                                LockMode.X if is_x else LockMode.S)
            assert (out is RequestOutcome.BLOCKED) == table.is_waiting(txn)
        elif op == "release_all":
            table.release_all(txn)
            assert not table.is_waiting(txn)
        else:
            table.cancel_wait(txn)
            assert not table.is_waiting(txn)


@settings(max_examples=150, deadline=None)
@given(_ops)
@example([("request", 0, 0, False), ("request", 1, 0, False),
          ("request", 2, 0, False), ("request", 0, 0, True),
          ("request", 3, 0, False), ("request", 4, 0, True),
          ("request", 1, 0, True), ("cancel_wait", 0, 0, False),
          ("release_all", 2, 0, False)])
def test_property_blocking_order_is_blocking_set(ops):
    """After every operation, each waiter's deterministic blocking order
    (upgraders' included) lists its blocking set exactly once and never
    the waiter itself."""
    table = LockTable()
    txns = [T(i) for i in range(6)]
    for op, ti, page, is_x in ops:
        txn = txns[ti]
        if op == "request":
            if table.is_waiting(txn):
                continue
            table.request(txn, page, LockMode.X if is_x else LockMode.S)
        elif op == "release_all":
            table.release_all(txn)
        else:
            table.cancel_wait(txn)
        for waiter in table.waiting_transactions():
            order = table.blocking_order(waiter)
            assert len(order) == len(set(order)), order
            assert waiter not in order
            assert set(order) == table.blocking_set(waiter)
