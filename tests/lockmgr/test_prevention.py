"""Unit and integration tests for wound-wait / wait-die prevention."""

from __future__ import annotations

import pytest

from repro.control.no_control import NoControlController
from repro.dbms.config import SimulationParameters
from repro.dbms.system import DBMSSystem
from repro.experiments.runner import run_simulation
from repro.lockmgr.lock_table import LockTable
from repro.lockmgr.modes import LockMode
from repro.lockmgr.prevention import (
    DeadlockStrategy,
    wait_die_should_die,
    wound_wait_victims,
)


class T:
    def __init__(self, name, ts):
        self.name = name
        self.timestamp = ts

    def __repr__(self):
        return self.name


def _age(t):
    return t.timestamp


def test_wait_die_younger_requester_dies():
    table = LockTable()
    old, young = T("old", 1.0), T("young", 2.0)
    table.request(old, 1, LockMode.X)
    table.request(young, 1, LockMode.S)    # young blocks behind old
    assert wait_die_should_die(table, young, _age)


def test_wait_die_older_requester_waits():
    table = LockTable()
    old, young = T("old", 1.0), T("young", 2.0)
    table.request(young, 1, LockMode.X)
    table.request(old, 1, LockMode.S)
    assert not wait_die_should_die(table, old, _age)


def test_wait_die_mixed_blockers():
    """The requester dies if ANY blocker is older."""
    table = LockTable()
    a, b, c = T("a", 1.0), T("b", 3.0), T("c", 2.0)
    table.request(a, 1, LockMode.S)
    table.request(b, 1, LockMode.S)
    table.request(c, 1, LockMode.X)    # blocked by a (older) and b
    assert wait_die_should_die(table, c, _age)


def test_wound_wait_wounds_younger_holders_only():
    table = LockTable()
    old, mid, young = T("old", 1.0), T("mid", 2.0), T("young", 3.0)
    table.request(old, 1, LockMode.S)
    table.request(young, 1, LockMode.S)
    table.request(mid, 1, LockMode.X)   # blocked by old and young
    victims = wound_wait_victims(table, mid, _age)
    assert victims == [young]


def test_wound_wait_oldest_requester_wounds_everyone():
    table = LockTable()
    a, b, old = T("a", 2.0), T("b", 3.0), T("old", 1.0)
    table.request(a, 1, LockMode.S)
    table.request(b, 1, LockMode.S)
    table.request(old, 1, LockMode.X)
    assert set(wound_wait_victims(table, old, _age)) == {a, b}


def test_youngest_requester_wounds_nobody():
    table = LockTable()
    a, young = T("a", 1.0), T("young", 9.0)
    table.request(a, 1, LockMode.X)
    table.request(young, 1, LockMode.S)
    assert wound_wait_victims(table, young, _age) == []


@pytest.mark.parametrize("strategy", [DeadlockStrategy.WAIT_DIE,
                                      DeadlockStrategy.WOUND_WAIT])
def test_prevention_never_deadlocks_end_to_end(strategy):
    params = SimulationParameters(num_terms=25, db_size=60, tran_size=6,
                                  write_prob=0.8, warmup_time=2.0,
                                  num_batches=2, batch_time=10.0)
    result = run_simulation(params, NoControlController(),
                            deadlock_strategy=strategy)
    assert result.aborts_by_reason.get("deadlock", 0) == 0
    assert result.aborts_by_reason.get(strategy.value, 0) > 0
    assert result.commits > 0


@pytest.mark.parametrize("strategy", list(DeadlockStrategy))
def test_strategies_preserve_invariants_and_conservation(strategy):
    params = SimulationParameters(num_terms=20, db_size=80, tran_size=5,
                                  write_prob=0.6, warmup_time=1.0,
                                  num_batches=2, batch_time=6.0)
    system = DBMSSystem(params=params, controller=NoControlController(),
                        deadlock_strategy=strategy)
    system.start()
    system.sim.run(until=params.total_time)
    system.check_invariants()
    assert (system.total_generated - system.collector.commits
            <= params.num_terms)


def test_prevention_is_deterministic():
    params = SimulationParameters(num_terms=15, db_size=50, tran_size=5,
                                  write_prob=0.8, warmup_time=1.0,
                                  num_batches=2, batch_time=8.0)
    runs = []
    for _ in range(2):
        r = run_simulation(params, NoControlController(),
                           deadlock_strategy=DeadlockStrategy.WOUND_WAIT)
        runs.append((r.commits, r.aborts))
    assert runs[0] == runs[1]


def test_wounded_flag_reset_on_restart():
    from repro.dbms.transaction import Transaction
    txn = Transaction(txn_id=1, terminal_id=0, timestamp=0.0,
                      readset=[1], writeset=set())
    txn.killed = True           # what a wound sets
    txn.reset_for_restart()
    assert not txn.killed


@pytest.mark.parametrize("doom_first", [False, True])
def test_doomed_wins_over_wounded_at_checkpoint(doom_first):
    """A running transaction flagged by both causes aborts once, at its
    next checkpoint, with the doomed reason -- whichever flag came
    first."""
    from repro.metrics.collector import AbortReason
    params = SimulationParameters(num_terms=4, db_size=400, tran_size=4,
                                  write_prob=0.5, warmup_time=0.0,
                                  num_batches=1, batch_time=2.0)
    system = DBMSSystem(params=params, controller=NoControlController(),
                        deadlock_strategy=DeadlockStrategy.WOUND_WAIT)
    aborts = []
    abort_transaction = system.abort_transaction

    def recording_abort(txn, reason):
        aborts.append((txn, reason))
        abort_transaction(txn, reason)

    system.abort_transaction = recording_abort
    system.start()
    victim = None
    while victim is None:
        assert system.sim.run(max_events=1) == 1
        victim = next((t for t in system.tracker.active_transactions()
                       if t.locks_completed
                       and not system.lock_table.is_waiting(t)), None)
    if doom_first:
        victim.doom(AbortReason.SITE_CRASH)
        assert victim.killed
    system._wound(victim)
    assert victim.killed
    if not doom_first:
        victim.doom(AbortReason.SITE_CRASH)
    system.sim.run(until=params.total_time)
    assert [reason for txn, reason in aborts if txn is victim][:1] == [
        AbortReason.SITE_CRASH]
    system.check_invariants()
