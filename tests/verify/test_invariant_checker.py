"""Runtime invariant oracle: clean runs stay silent, corruption is caught.

Includes the PR's acceptance-criterion test: an intentionally corrupted
grant path (test-injected ``compatible`` that approves everything) must
be detected by *both* independent oracles — the invariant checker's
conflict-freedom scan and the shadow ``ReferenceLockTable``.
"""

from __future__ import annotations

import json

import pytest

import repro.lockmgr.lock_table as lock_table_module
from repro.control.fixed_mpl import FixedMPLController
from repro.core.half_and_half import HalfAndHalfController
from repro.dbms.system import DBMSSystem
from repro.errors import (InvariantViolation, ReproError, ShadowDivergence,
                          VerificationError)
from repro.experiments.runner import run_simulation
from repro.verify import InvariantChecker, VerifyConfig


def _verified_system(params, cadence, **overrides):
    config = VerifyConfig(cadence=cadence, sample_events=64, **overrides)
    system = DBMSSystem(params=params,
                        controller=HalfAndHalfController())
    checker = InvariantChecker(config)
    checker.attach(system)
    return system, checker


# ----------------------------------------------------------------------
# Clean runs: silent at every cadence
# ----------------------------------------------------------------------

@pytest.mark.parametrize("cadence", ["every", "sampled", "commit"])
def test_clean_run_has_zero_violations(tiny_params, cadence):
    system, checker = _verified_system(tiny_params, cadence)
    system.start()
    system.sim.run(until=tiny_params.total_time)
    assert checker.violations == 0
    assert checker.checks_run > 0
    if cadence in ("every", "sampled"):
        assert checker.events_seen > 0
        assert system.sim.monitor is checker
    assert system.invariants is checker


def test_commit_cadence_only_checks_at_commits(tiny_params):
    system, checker = _verified_system(tiny_params, "commit")
    system.start()
    system.sim.run(until=tiny_params.total_time)
    # No per-event hook installed, so no events were counted.
    assert system.sim.monitor is None
    assert checker.events_seen == 0
    assert checker.checks_run == system.collector.commits


@pytest.mark.parametrize("cadence, stride", [("every", 1),
                                             ("sampled", 64)])
def test_per_event_cadences_run_the_catalog_once_per_stride(
        tiny_params, cadence, stride):
    system, checker = _verified_system(tiny_params, cadence)
    ran_at = []
    check_all = checker.check_all

    def recording_check_all(context=""):
        ran_at.append(checker.events_seen)
        check_all(context=context)

    checker.check_all = recording_check_all
    system.start()
    system.sim.run(until=tiny_params.total_time)
    assert checker.events_seen > stride
    assert checker.checks_run == checker.events_seen // stride
    assert ran_at == list(range(stride, checker.events_seen + 1, stride))


def test_lock_table_self_check_reads_the_live_compatibility_predicate(
        monkeypatch):
    # check_invariants asks compatible() once per pass, when the pass
    # runs: a predicate corrupted after import (S no longer compatible
    # with S, so nothing is) still turns two readers into incompatible
    # holders.
    from repro.lockmgr.lock_table import LockTable
    from repro.lockmgr.modes import LockMode
    table = LockTable()
    a, b = object(), object()
    table.request(a, 1, LockMode.S)
    table.request(b, 1, LockMode.S)
    table.check_invariants()
    monkeypatch.setattr(lock_table_module, "compatible",
                        lambda held, requested: False)
    with pytest.raises(InvariantViolation,
                       match="incompatible holders on page 1"):
        table.check_invariants()


def test_end_to_end_verified_run_is_clean(tiny_params):
    results = run_simulation(tiny_params, HalfAndHalfController(),
                             verify=VerifyConfig(sample_events=64))
    assert results.commits > 0


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------

def test_verification_errors_are_repro_errors():
    assert issubclass(InvariantViolation, VerificationError)
    assert issubclass(ShadowDivergence, VerificationError)
    assert issubclass(VerificationError, ReproError)


# ----------------------------------------------------------------------
# Detection: injected corruption cannot survive a check
# ----------------------------------------------------------------------

def test_corrupted_tracker_bucket_is_caught_with_context(tiny_params):
    system, checker = _verified_system(tiny_params, "sampled")
    system.start()
    system.sim.run(until=2.0)
    system.tracker.n_state1 += 1      # lose/duplicate a state transition
    with pytest.raises(InvariantViolation) as exc_info:
        checker.check_all(context="injected corruption")
    violation = exc_info.value
    assert violation.invariant == "tracker_bucket_conservation"
    assert violation.context == "injected corruption"
    assert checker.violations == 1
    # The enriched evidence carries the full cross-subsystem snapshot.
    state = violation.evidence["state"]
    assert state["sim_time"] == system.sim.now
    assert "populations" in state and "lock_table" in state


def test_corrupted_collector_gauge_is_caught(tiny_params):
    system, checker = _verified_system(tiny_params, "sampled")
    system.start()
    system.sim.run(until=2.0)
    system.collector.active.update(99, system.sim.now)
    with pytest.raises(InvariantViolation) as exc_info:
        checker.check_all()
    assert exc_info.value.invariant == "ready_queue_accounting"


def test_population_leak_is_caught(tiny_params):
    system, checker = _verified_system(tiny_params, "sampled")
    system.start()
    system.sim.run(until=2.0)
    # Vanish an active transaction without scheduling its terminal's
    # next submission: the closed system now undercounts.  Pick one that
    # is neither waiting nor blocking anyone, so removing it perturbs
    # only the population count (set iteration order is hash-randomized,
    # hence the deterministic min-by-id over the eligible ones).
    table = system.lock_table
    txn = min((t for t in system.tracker.active_transactions()
               if not table.is_waiting(t)
               and not table.is_blocking_others(t)),
              key=lambda t: t.txn_id)
    table.release_all(txn)
    system.tracker.remove(txn, system.sim.now)
    with pytest.raises(InvariantViolation) as exc_info:
        checker.check_all()
    assert exc_info.value.invariant == "population_conservation"


def test_evidence_snapshot_written_to_dir(tiny_params, tmp_path):
    system, checker = _verified_system(tiny_params, "sampled",
                                       evidence_dir=str(tmp_path))
    system.start()
    system.sim.run(until=2.0)
    system.tracker.n_state1 += 1
    with pytest.raises(InvariantViolation) as exc_info:
        checker.check_all(context="evidence test")
    files = list(tmp_path.glob("violation-*.json"))
    assert len(files) == 1
    assert "tracker_bucket_conservation" in files[0].name
    payload = json.loads(files[0].read_text())
    assert payload["invariant"] == "tracker_bucket_conservation"
    assert payload["context"] == "evidence test"
    assert payload["sim_time"] == system.sim.now
    assert "evidence" in payload
    assert exc_info.value.evidence["evidence_path"] == str(files[0])


# ----------------------------------------------------------------------
# Acceptance criterion: corrupted grant path caught by BOTH oracles
# ----------------------------------------------------------------------

def _corrupt_grant_path(monkeypatch):
    """Make the real lock table approve every mode combination.

    The hot-path grant predicate is the O(1) holder-counter test inside
    ``LockTable.request``, so the corruption replaces the fresh-request
    path with one that grants regardless of holder modes (with coherent
    counter bookkeeping, so the table's own counter recount stays
    blind).  ``compatible`` is corrupted too, blinding the table's
    pairwise structural self-checks.  The reference table and the
    checker's conflict-freedom scan both spell out their own mode
    logic, so neither inherits either corruption."""
    monkeypatch.setattr(lock_table_module, "compatible",
                        lambda held, requested: True)
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


def test_conflicting_holders_reported_with_dump_evidence(tiny_params):
    # Inject an X and an S holder on one page behind the lock table's
    # back; the evidence names them the way the canonical dump does.
    from repro.lockmgr.lock_table import _Lock
    from repro.lockmgr.modes import LockMode
    system, checker = _verified_system(tiny_params, "sampled")
    a, b = (system.workload.make_transaction(900 + i, 0, 0.0)
            for i in range(2))
    lock = _Lock()
    lock.holders[a] = LockMode.X
    lock.holders[b] = LockMode.S
    system.lock_table._locks[7] = lock
    with pytest.raises(InvariantViolation) as exc_info:
        checker._check_conflict_freedom()
    violation = exc_info.value
    assert violation.invariant == "lock_conflict_freedom"
    assert violation.evidence["page"] == "7"
    assert violation.evidence["holders"] == {"900": "X", "901": "S"}
    assert violation.evidence["holders"] == \
        system.lock_table.dump()["pages"]["7"]["holders"]
    assert "page 7 has 2 holders but one holds X" in str(violation)


@pytest.mark.parametrize("first, second", [("S", "X"), ("X", "S")])
def test_conflicting_holders_with_consistent_counters_reported(
        tiny_params, first, second):
    # The holders' counters agree with their modes, so only a walk of
    # the modes themselves sees the conflict, whichever was granted
    # first.
    from repro.lockmgr.lock_table import _Lock
    from repro.lockmgr.modes import LockMode
    system, checker = _verified_system(tiny_params, "sampled")
    a, b = (system.workload.make_transaction(900 + i, 0, 0.0)
            for i in range(2))
    lock = _Lock()
    lock.holders[a] = LockMode[first]
    lock.holders[b] = LockMode[second]
    lock.num_s = lock.num_x = 1
    system.lock_table._locks[7] = lock
    with pytest.raises(InvariantViolation) as exc_info:
        checker._check_conflict_freedom()
    violation = exc_info.value
    assert violation.invariant == "lock_conflict_freedom"
    assert violation.evidence["holders"] == {"900": first, "901": second}


def test_conflicting_holders_reported_on_a_cluster():
    # The distributed union view answers for the page's owning site.
    from repro.distributed.config import DistributedParameters
    from repro.distributed.controllers import make_no_control_sites
    from repro.distributed.system import DistributedSystem
    from repro.lockmgr.lock_table import _Lock
    from repro.lockmgr.modes import LockMode
    params = DistributedParameters(num_sites=2, num_terms=4, db_size=40)
    system = DistributedSystem(params, make_no_control_sites(2))
    checker = InvariantChecker(VerifyConfig(cadence="sampled"))
    checker.attach(system)
    a, b = (system.workload.make_transaction(900 + i, 0, 0.0)
            for i in range(2))
    lock = _Lock()
    lock.holders[a] = LockMode.S
    lock.holders[b] = LockMode.X
    lock.num_s = lock.num_x = 1
    system.sites[1].lock_table._locks[30] = lock
    with pytest.raises(InvariantViolation) as exc_info:
        checker._check_conflict_freedom()
    assert exc_info.value.evidence == {"page": "30",
                                       "holders": {"900": "S", "901": "X"}}


def test_corrupted_grant_path_caught_by_invariant_checker(
        tiny_params, monkeypatch):
    _corrupt_grant_path(monkeypatch)
    config = VerifyConfig(cadence="every", shadow_lock_table=False)
    with pytest.raises(InvariantViolation) as exc_info:
        run_simulation(tiny_params, FixedMPLController(8), verify=config)
    assert exc_info.value.invariant == "lock_conflict_freedom"
    assert exc_info.value.sim_time is not None


def test_corrupted_grant_path_caught_by_shadow_reference(
        tiny_params, monkeypatch):
    _corrupt_grant_path(monkeypatch)
    config = VerifyConfig(cadence="sampled", shadow_lock_table=True)
    with pytest.raises(ShadowDivergence) as exc_info:
        run_simulation(tiny_params, FixedMPLController(8), verify=config)
    assert "real" in exc_info.value.evidence
    assert "reference" in exc_info.value.evidence


# ----------------------------------------------------------------------
# Parked (cold-set) accounting: a controller that loses a passivated
# transaction cannot survive a check
# ----------------------------------------------------------------------

def _parked_system(cadence="sampled"):
    """A verified Malthusian system run hot until the cold set fills."""
    from repro.control.malthusian import MalthusianController
    from repro.dbms.config import SimulationParameters

    params = SimulationParameters(num_terms=40, db_size=150,
                                  write_prob=0.5, warmup_time=2.0,
                                  num_batches=2, batch_time=5.0)
    config = VerifyConfig(cadence=cadence, sample_events=64)
    system = DBMSSystem(params=params, controller=MalthusianController())
    checker = InvariantChecker(config)
    checker.attach(system)
    system.start()
    deadline = params.total_time
    now = 0.0
    while not system.parked and now < deadline:
        now += 0.5
        system.sim.run(until=now)
    assert system.parked, "expected passivation under this contention"
    return system, checker


def test_losing_parked_txn_breaks_gauge_accounting():
    system, checker = _parked_system()
    system.parked.pop()        # a broken controller "loses" a parked txn
    with pytest.raises(InvariantViolation) as exc_info:
        checker.check_all(context="lost parked txn")
    violation = exc_info.value
    assert violation.invariant == "parked_accounting"
    assert violation.context == "lost parked txn"
    assert violation.evidence["gauge"] == violation.evidence["actual"] + 1


def test_losing_parked_txn_breaks_population_conservation():
    system, checker = _parked_system()
    # Cover the tracks at the gauge level too: the population ledger
    # still notices that a terminal's transaction no longer exists
    # anywhere, and its evidence must break out the parked bucket.
    system.parked.pop()
    system.collector.set_parked_count(system.sim.now,
                                      len(system.parked))
    with pytest.raises(InvariantViolation) as exc_info:
        checker.check_all()
    violation = exc_info.value
    assert violation.invariant == "population_conservation"
    assert "parked" in violation.evidence
    assert violation.evidence["parked"] == len(system.parked)


def test_parked_txn_left_in_tracker_is_caught():
    system, checker = _parked_system()
    # The inverse corruption: a transaction recorded as both parked and
    # active.  The system's own structural sweep rejects it.
    victim = system.parked[-1]
    system.tracker.add(victim, system.sim.now)
    with pytest.raises(InvariantViolation) as exc_info:
        checker.check_all()
    assert exc_info.value.invariant == "parked_not_active"
