"""Tests for the distributed invariant oracle and quiesce checks."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.distributed.config import DistributedParameters
from repro.distributed.controllers import make_half_and_half_sites
from repro.distributed.failures import SiteFaultPlan
from repro.distributed.system import DistributedSystem
from repro.errors import InvariantViolation
from repro.metrics.collector import Collector
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.verify import VerifyConfig
from repro.verify.distributed import (
    DistributedInvariantChecker,
    check_quiesce,
)

PLAN = SiteFaultPlan.parse("crash@1:8:4; part@8:4:0-1|2")


def _run_checked(fault_plan=None, cadence="sampled", until=None):
    params = DistributedParameters(
        num_sites=3, num_terms=30, db_size=300,
        warmup_time=3.0, num_batches=2, batch_time=8.0,
        failure_model=True, msg_loss_prob=0.02)
    sim = Simulator()
    system = DistributedSystem(
        params=params, controllers=make_half_and_half_sites(3),
        collector=Collector(), sim=sim,
        streams=RandomStreams(params.seed), fault_plan=fault_plan)
    checker = DistributedInvariantChecker(
        VerifyConfig(cadence=cadence, sample_events=128))
    checker.attach(system)
    system.start()
    sim.run(until=params.total_time if until is None else until)
    return system, checker


def test_clean_run_passes_full_catalog():
    system, checker = _run_checked()
    assert checker.checks_run > 0
    assert checker.violations == 0
    checker.check_all(context="end of run")
    check_quiesce(system)


def test_faulted_run_passes_full_catalog():
    system, checker = _run_checked(fault_plan=PLAN)
    assert checker.checks_run > 0
    checker.check_all(context="end of run")
    check_quiesce(system)


def test_default_config_is_usable():
    # VerifyConfig() enables the (single-site) shadow lock table; the
    # distributed checker must ignore that switch, not reject it.
    checker = DistributedInvariantChecker(VerifyConfig())
    assert checker.config.shadow_lock_table


def test_population_leak_is_caught():
    system, checker = _run_checked()
    # A parked terminal from nowhere: the closed population now sums
    # to num_terms + 1.
    system._parked_terminals.setdefault(0, []).append(999)
    with pytest.raises(InvariantViolation) as exc:
        checker.check_all()
    assert exc.value.invariant == "population_conservation"
    assert exc.value.sim_time == system.sim.now


def test_network_overcounting_is_caught():
    system, checker = _run_checked()
    system.network.delivered += system.network.sent + 1
    with pytest.raises(InvariantViolation) as exc:
        checker.check_all()
    assert exc.value.invariant == "network_accounting"


def test_orphan_decision_record_is_caught():
    system, checker = _run_checked()
    system.decision_record[999999] = "commit"
    system._decision_waiters[999999] = 2    # but no in-doubt entries
    with pytest.raises(InvariantViolation) as exc:
        checker.check_all()
    assert exc.value.invariant == "decision_record_accounting"


# Runs as a script, so it can run under ``python -O`` as well.
_DESYNC_BLOCKED_FLAG = """
from repro.distributed.config import DistributedParameters
from repro.distributed.controllers import make_half_and_half_sites
from repro.distributed.system import DistributedSystem
from repro.errors import InvariantViolation
from repro.metrics.collector import Collector
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.verify.config import VerifyConfig
from repro.verify.distributed import DistributedInvariantChecker

params = DistributedParameters(
    num_sites=3, num_terms=30, db_size=300, warmup_time=3.0,
    num_batches=2, batch_time=8.0, failure_model=True)
sim = Simulator()
system = DistributedSystem(
    params=params, controllers=make_half_and_half_sites(3),
    collector=Collector(), sim=sim, streams=RandomStreams(params.seed))
checker = DistributedInvariantChecker(VerifyConfig())
checker.attach(system)
system.start()
sim.run(until=5.0)
txn = next(t for t in system.tracker.active_transactions()
           if not t.is_blocked)
# Flagged blocked (consistently in every tracker), waiting nowhere.
system.tracker.set_blocked(txn, True, sim.now)
try:
    checker.check_all(context="desynced")
except InvariantViolation as exc:
    print(exc.invariant, exc.evidence["txn_id"] == txn.txn_id,
          exc.context, checker.violations)
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_desynced_blocked_flag_is_a_typed_violation(optimize):
    # The system-level checks are real exceptions, so they survive
    # ``python -O``, which strips ``assert`` statements.
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, *(["-O"] if optimize else []), "-c",
         _DESYNC_BLOCKED_FLAG],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["blocked_flag_sync", "True",
                                   "desynced", "1"]


def test_quiesce_rejects_parked_work_when_all_sites_up():
    system, _ = _run_checked()
    system._parked_terminals.setdefault(1, []).append(7)
    with pytest.raises(InvariantViolation) as exc:
        check_quiesce(system)
    assert exc.value.invariant == "quiesce_no_parked_work"


def test_quiesce_is_not_binding_while_a_site_is_down():
    # End the run inside the crash window: parked work is legitimate.
    system, _ = _run_checked(fault_plan=PLAN, until=10.0)
    assert not all(system._site_up)
    check_quiesce(system)                   # must not raise


def test_every_cadence_checks_every_event():
    _, checker = _run_checked(cadence="every", until=5.0)
    assert checker.checks_run == checker.events_seen
