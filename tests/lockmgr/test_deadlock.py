"""Unit tests for deadlock detection and victim selection."""

from __future__ import annotations

from repro.lockmgr.deadlock import choose_victim, find_cycle, resolve_deadlocks
from repro.lockmgr.lock_table import LockTable
from repro.lockmgr.modes import LockMode


class T:
    def __init__(self, name: str, ts: float):
        self.name = name
        self.timestamp = ts

    def __repr__(self):
        return self.name


def _ts(t):
    return t.timestamp


def test_no_cycle_for_simple_wait():
    table = LockTable()
    a, b = T("a", 1), T("b", 2)
    table.request(a, 1, LockMode.X)
    table.request(b, 1, LockMode.S)
    assert find_cycle(table, b) is None


def test_two_transaction_cycle_detected():
    table = LockTable()
    a, b = T("a", 1), T("b", 2)
    table.request(a, 1, LockMode.X)
    table.request(b, 2, LockMode.X)
    table.request(a, 2, LockMode.S)      # a waits for b
    table.request(b, 1, LockMode.S)      # b waits for a -> cycle
    cycle = find_cycle(table, b)
    assert cycle is not None
    assert set(cycle) == {a, b}


def test_three_transaction_cycle_detected():
    table = LockTable()
    a, b, c = T("a", 1), T("b", 2), T("c", 3)
    table.request(a, 1, LockMode.X)
    table.request(b, 2, LockMode.X)
    table.request(c, 3, LockMode.X)
    table.request(a, 2, LockMode.X)   # a -> b
    table.request(b, 3, LockMode.X)   # b -> c
    table.request(c, 1, LockMode.X)   # c -> a: closes the cycle
    cycle = find_cycle(table, c)
    assert cycle is not None
    assert set(cycle) == {a, b, c}


def test_upgrade_deadlock_between_two_upgraders():
    """Two readers that both upgrade deadlock on each other."""
    table = LockTable()
    a, b = T("a", 1), T("b", 2)
    table.request(a, 1, LockMode.S)
    table.request(b, 1, LockMode.S)
    table.request(a, 1, LockMode.X)   # a waits for b's S
    table.request(b, 1, LockMode.X)   # b waits for a's S -> deadlock
    cycle = find_cycle(table, b)
    assert cycle is not None
    assert set(cycle) == {a, b}


def test_no_false_positive_on_shared_chain():
    table = LockTable()
    a, b, c = T("a", 1), T("b", 2), T("c", 3)
    table.request(a, 1, LockMode.S)
    table.request(b, 1, LockMode.S)
    table.request(c, 1, LockMode.X)
    assert find_cycle(table, c) is None


def test_choose_victim_picks_youngest():
    a, b, c = T("a", 10.0), T("b", 30.0), T("c", 20.0)
    assert choose_victim([a, b, c], _ts) is b


def test_choose_victim_tie_is_deterministic():
    # Equal keys go to the first in cycle order, whatever the objects'
    # addresses, so a tie picks the same victim in every process.
    a, b = T("a", 5.0), T("b", 5.0)
    assert choose_victim([a, b], _ts) is a
    assert choose_victim([b, a], _ts) is b


def test_resolve_deadlocks_aborts_youngest_and_unblocks():
    table = LockTable()
    a, b = T("a", 1.0), T("b", 2.0)
    table.request(a, 1, LockMode.X)
    table.request(b, 2, LockMode.X)
    table.request(a, 2, LockMode.S)
    table.request(b, 1, LockMode.S)

    aborted = []

    def do_abort(victim):
        aborted.append(victim)
        table.release_all(victim)

    victims = resolve_deadlocks(table, b, _ts, do_abort)
    assert victims == [b]          # b is younger
    assert aborted == [b]
    assert not table.is_waiting(a)  # a was granted by b's release
    assert table.holds(a, 2, LockMode.S)


def test_resolve_deadlocks_victim_can_be_older_partys_start():
    """If the start transaction is youngest, it victimizes itself."""
    table = LockTable()
    a, b = T("a", 2.0), T("b", 1.0)   # a is younger
    table.request(a, 1, LockMode.X)
    table.request(b, 2, LockMode.X)
    table.request(b, 1, LockMode.S)   # b waits for a (no cycle yet)
    victims_seen = []

    def do_abort(victim):
        victims_seen.append(victim)
        table.release_all(victim)

    table.request(a, 2, LockMode.S)   # a waits for b -> cycle, a youngest
    victims = resolve_deadlocks(table, a, _ts, do_abort)
    assert victims == [a]
    assert not table.is_waiting(b)    # b granted page 1 after a's release


def test_resolve_no_deadlock_returns_empty():
    table = LockTable()
    a, b = T("a", 1.0), T("b", 2.0)
    table.request(a, 1, LockMode.X)
    table.request(b, 1, LockMode.S)
    assert resolve_deadlocks(table, b, _ts, lambda v: None) == []
    assert table.is_waiting(b)


def test_resolve_handles_multiple_cycles_through_start():
    """Start blocked by two independent cycles: both must be broken."""
    table = LockTable()
    a = T("a", 1.0)
    b = T("b", 2.0)
    c = T("c", 3.0)
    # b and c each hold a page; a holds a page both b and c want.
    table.request(b, 10, LockMode.X)
    table.request(c, 11, LockMode.X)
    table.request(a, 12, LockMode.X)
    table.request(b, 12, LockMode.S)    # b -> a
    table.request(c, 12, LockMode.S)    # c -> a

    def do_abort(victim):
        table.release_all(victim)

    # a now requests a page held (S) by both b and c?  Use two X holders
    # is impossible; instead request b's page then the cycle a->b->a,
    # resolve, then the later request would hit c.  Here we just check
    # the loop terminates and leaves no cycle through a.
    table.request(a, 10, LockMode.S)    # a -> b -> a : cycle
    victims = resolve_deadlocks(table, a, _ts, do_abort)
    assert victims  # someone was aborted
    assert find_cycle(table, a) is None or not table.is_waiting(a)
