"""Tests for the failure-realistic distributed layer: fault plans,
crash/recovery semantics, degraded-mode admission, and the
zero-cost-off contract."""

from __future__ import annotations

import pytest

from repro.control.fixed_mpl import FixedMPLController
from repro.control.no_control import NoControlController
from repro.core.half_and_half import HalfAndHalfController
from repro.distributed.config import DistributedParameters
from repro.distributed.controllers import (
    make_fixed_mpl_sites,
    make_half_and_half_sites,
    make_no_control_sites,
)
from repro.distributed.failures import (
    NetworkPartition,
    SiteCrash,
    SiteFaultPlan,
)
from repro.distributed.runner import run_distributed_simulation
from repro.errors import ConfigurationError
from repro.lockmgr.prevention import DeadlockStrategy
from repro.metrics.collector import AbortReason
from repro.metrics.trace import Tracer
from repro.verify.config import VerifyConfig


def _params(**overrides):
    defaults = dict(num_sites=3, num_terms=30, db_size=300,
                    warmup_time=3.0, num_batches=2, batch_time=8.0)
    defaults.update(overrides)
    return DistributedParameters(**defaults)


def _failure_params(**overrides):
    return _params(failure_model=True, msg_loss_prob=0.02,
                   msg_jitter=0.0005, **overrides)


# One crash + partition window in the middle of the measurement window
# of `_params` (warmup 3 + 2x8 = horizon 19).
PLAN = SiteFaultPlan.parse("crash@1:8:4; part@8:4:0-1|2")


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------

def test_plan_parse_round_trips_through_str():
    plan = SiteFaultPlan.parse("crash@1:40:15; part@40:15:0-1|2-3")
    assert str(plan) == "crash@1:40:15; part@40:15:0-1|2-3"
    assert plan.crashes[0].recover_at == 55.0
    assert plan.partitions[0].end == 55.0


@pytest.mark.parametrize("spec", [
    "melt@1:40:15",              # unknown kind
    "crash@1:40",                # missing duration
    "crash@1:40:-1",             # non-positive duration
    "part@40:15:0-1",            # missing second group
    "part@40:15:0-1|1-2",        # overlapping groups
    "crash@x:40:15",             # non-integer site
])
def test_plan_parse_rejects_bad_specs(spec):
    with pytest.raises(ConfigurationError):
        SiteFaultPlan.parse(spec)


def test_plan_rejects_overlapping_crash_windows():
    with pytest.raises(ConfigurationError):
        SiteFaultPlan(crashes=(SiteCrash(site=0, at=5.0, duration=10.0),
                               SiteCrash(site=0, at=12.0, duration=3.0)))


def test_plan_validates_site_bounds():
    plan = SiteFaultPlan(crashes=(SiteCrash(site=5, at=1.0, duration=1.0),))
    with pytest.raises(ConfigurationError):
        plan.validate_for(3)
    with pytest.raises(ConfigurationError):
        run_distributed_simulation(_failure_params(),
                                   make_no_control_sites(3),
                                   fault_plan=plan)


def test_partition_severs_only_during_window():
    part = NetworkPartition(start=10.0, duration=5.0,
                            group_a=(0, 1), group_b=(2,))
    assert part.severs(0, 2, 12.0)
    assert part.severs(2, 1, 12.0)
    assert not part.severs(0, 1, 12.0)     # same side
    assert not part.severs(0, 2, 9.0)      # before
    assert not part.severs(0, 2, 15.0)     # window is half-open


# ----------------------------------------------------------------------
# The zero-cost-off contract
# ----------------------------------------------------------------------

def test_failures_off_reproduces_pinned_trajectories():
    """With the failure model off, the refactored network/commit paths
    must reproduce the original pure-delay model's trajectories.  These
    values were pinned before the failure layer landed."""
    nc = run_distributed_simulation(_params(), make_no_control_sites(3))
    assert (nc.commits, nc.aborts, nc.page_throughput.mean) == \
        (211, 34, 131.1875)
    hh = run_distributed_simulation(_params(),
                                    make_half_and_half_sites(3))
    assert (hh.commits, hh.aborts, hh.page_throughput.mean) == \
        (304, 74, 188.75)


# Contention hot enough for the prevention schemes to fire often.
_HOT = dict(num_terms=30, db_size=60, tran_size=6, write_prob=0.8,
            locality=0.3)


@pytest.mark.parametrize("make_params, controllers, strategy, plan, pinned", [
    pytest.param(_failure_params, make_half_and_half_sites, None, PLAN,
                 (166, 75, 104.5,
                  {"deadlock": 4, "load_control": 56, "site_crash": 15}),
                 id="plan-hh"),
    pytest.param(_failure_params, make_no_control_sites, None, PLAN,
                 (137, 36, 88.375, {"deadlock": 11, "site_crash": 25}),
                 id="plan-nc"),
    pytest.param(lambda: _params(**_HOT), make_no_control_sites,
                 DeadlockStrategy.WAIT_DIE, None,
                 (64, 4722, 42.5625, {"wait_die": 4722}),
                 id="hot-nc-wait_die"),
    pytest.param(lambda: _params(**_HOT), make_no_control_sites,
                 DeadlockStrategy.WOUND_WAIT, None,
                 (72, 706, 48.3125, {"wound_wait": 706}),
                 id="hot-nc-wound_wait"),
    pytest.param(lambda: _failure_params(**_HOT), make_half_and_half_sites,
                 DeadlockStrategy.WAIT_DIE, PLAN,
                 (37, 636, 23.9375,
                  {"load_control": 2, "site_crash": 13, "wait_die": 621}),
                 id="hot-plan-hh-wait_die"),
    pytest.param(lambda: _failure_params(**_HOT), make_half_and_half_sites,
                 DeadlockStrategy.WOUND_WAIT, PLAN,
                 (44, 198, 29.625,
                  {"load_control": 5, "site_crash": 6, "wound_wait": 187}),
                 id="hot-plan-hh-wound_wait"),
])
def test_pinned_trajectories(make_params, controllers, strategy, plan,
                             pinned):
    """Failure-mode and prevention-scheme trajectories, pinned so that a
    refactor of the lifecycle or the transport cannot move them."""
    kwargs = {"fault_plan": plan}
    if strategy is not None:
        kwargs["deadlock_strategy"] = strategy
    r = run_distributed_simulation(make_params(), controllers(3), **kwargs)
    reasons = {k: v for k, v in r.aborts_by_reason.items() if v}
    assert (r.commits, r.aborts, r.page_throughput.mean, reasons) == pinned


def test_same_seed_and_plan_is_bit_identical():
    runs = []
    for _ in range(2):
        r = run_distributed_simulation(_failure_params(),
                                       make_half_and_half_sites(3),
                                       fault_plan=PLAN)
        runs.append((r.commits, r.aborts, r.page_throughput.mean,
                     tuple(sorted(r.aborts_by_reason.items()))))
    assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# Crash and recovery semantics
# ----------------------------------------------------------------------

def test_crash_aborts_dependents_and_cluster_recovers():
    result = run_distributed_simulation(_failure_params(),
                                        make_half_and_half_sites(3),
                                        fault_plan=PLAN,
                                        verify=VerifyConfig())
    assert result.commits > 0
    assert result.aborts_by_reason.get(AbortReason.SITE_CRASH, 0) > 0
    # The crash site contributes commits again after recovery: its
    # per-class stats show committed work despite the outage.
    assert result.per_class["site1"].commits > 0


def test_lossy_network_retransmits_and_still_commits():
    result = run_distributed_simulation(
        _params(failure_model=True, msg_loss_prob=0.05, locality=0.3),
        make_no_control_sites(3), verify=VerifyConfig())
    assert result.commits > 0


def test_degraded_admission_clamps_surviving_sites():
    """During the crash window the surviving sites' admitted population
    must fall toward ``safe_mode_mpl``; with the clamp disabled a fixed
    controller keeps its static limit."""
    from repro.distributed.system import DistributedSystem
    from repro.metrics.collector import Collector
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams
    from repro.telemetry.sites import DistributedProbeScheduler

    def run(degraded_admission):
        # Full locality: transactions finish without cross-site work,
        # so the admitted population actually drains to the clamp
        # instead of stalling at its pre-crash level on remote
        # timeouts.  Heartbeats still cross sites, so the crash and
        # partition still flip the survivors to degraded.
        params = _failure_params(num_terms=60, locality=1.0,
                                 degraded_admission=degraded_admission)
        sim = Simulator()
        system = DistributedSystem(
            params=params, controllers=make_fixed_mpl_sites(3, 12),
            collector=Collector(), sim=sim,
            streams=RandomStreams(params.seed), fault_plan=PLAN)
        probes = DistributedProbeScheduler(system, interval=0.5)
        probes.start()
        system.start()
        sim.run(until=params.total_time)
        return probes.site_samples

    clamped = run(degraded_admission=True)
    unclamped = run(degraded_admission=False)

    def late_window_admitted(samples):
        # Admitted population at surviving sites late in the fault
        # window (t in [11, 12)), after the pre-crash population drained.
        return [s.n_active for s in samples
                if s.site != 1 and s.up and 11.0 <= s.time < 12.0]

    params = _failure_params()
    assert clamped and unclamped
    assert any(s.degraded for s in clamped)
    assert max(late_window_admitted(clamped)) <= params.safe_mode_mpl
    assert max(late_window_admitted(unclamped)) > params.safe_mode_mpl


def test_quiesce_invariants_hold_after_recovery():
    """A run whose faults all end before the horizon must quiesce: no
    parked work, every in-doubt entry on a live resolution path."""
    from repro.distributed.system import DistributedSystem
    from repro.metrics.collector import Collector
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams
    from repro.verify.distributed import (
        DistributedInvariantChecker,
        check_quiesce,
    )

    params = _failure_params()
    sim = Simulator()
    system = DistributedSystem(
        params=params, controllers=make_half_and_half_sites(3),
        collector=Collector(), sim=sim,
        streams=RandomStreams(params.seed), fault_plan=PLAN)
    checker = DistributedInvariantChecker(VerifyConfig(cadence="sampled"))
    checker.attach(system)
    system.start()
    sim.run(until=params.total_time)
    assert checker.checks_run > 0
    checker.check_all(context="end of run")
    check_quiesce(system)


# ----------------------------------------------------------------------
# Single-site equivalence
# ----------------------------------------------------------------------

def test_one_site_system_equals_centralized_model():
    """A 1-site distributed system with zero message delay must produce
    the same trajectory as the centralized DBMSSystem driven by the
    same workload generator."""
    from repro.core.half_and_half import HalfAndHalfController
    from repro.dbms.system import DBMSSystem
    from repro.distributed.partition import RangePartition
    from repro.distributed.system import DistributedSystem
    from repro.distributed.workload import DistributedWorkload
    from repro.metrics.collector import Collector
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams

    params = DistributedParameters(num_sites=1, msg_delay=0.0,
                                   num_terms=25, db_size=500, seed=7)
    sim1 = Simulator()
    streams1 = RandomStreams(params.seed)
    collector1 = Collector()
    dist = DistributedSystem(params=params,
                             controllers=make_half_and_half_sites(1),
                             collector=collector1, sim=sim1,
                             streams=streams1)
    dist.start()
    sim1.run(until=19.0)

    sim2 = Simulator()
    streams2 = RandomStreams(params.seed)
    collector2 = Collector()
    workload = DistributedWorkload(streams2, params,
                                   RangePartition(params.db_size, 1))
    cent = DBMSSystem(params=params, controller=HalfAndHalfController(),
                      workload=workload, collector=collector2,
                      sim=sim2, streams=streams2)
    cent.start()
    sim2.run(until=19.0)

    assert (collector1.commits, collector1.aborts, collector1.raw_pages) \
        == (collector2.commits, collector2.aborts, collector2.raw_pages)
    assert (collector1.commits, collector1.aborts, collector1.raw_pages) \
        == (210, 5, 2244)


def _traced_run(system, until):
    system.tracer = Tracer(capacity=None)
    system.start()
    system.sim.run(until=until)
    return system.sim.events_executed, list(system.tracer)


@pytest.mark.parametrize("strategy", list(DeadlockStrategy),
                         ids=lambda s: s.value)
@pytest.mark.parametrize("make_controller", [
    pytest.param(HalfAndHalfController, id="hh"),
    pytest.param(NoControlController, id="nc"),
    pytest.param(lambda: FixedMPLController(8), id="mpl8"),
])
def test_one_site_system_traces_equal_centralized_model(make_controller,
                                                        strategy):
    """One site, zero delay: the distributed system runs the centralized
    lifecycle, so the calendar and every traced lifecycle event match
    ``DBMSSystem`` driven by the same workload generator."""
    from repro.dbms.system import DBMSSystem
    from repro.distributed.controllers import PerSiteControllerSet
    from repro.distributed.partition import RangePartition
    from repro.distributed.system import DistributedSystem
    from repro.distributed.workload import DistributedWorkload
    from repro.sim.rng import RandomStreams

    params = DistributedParameters(num_sites=1, msg_delay=0.0, seed=7,
                                   num_terms=30, db_size=60, tran_size=6,
                                   write_prob=0.8)
    dist = DistributedSystem(
        params=params,
        controllers=PerSiteControllerSet([make_controller()]),
        deadlock_strategy=strategy)
    streams = RandomStreams(params.seed)
    cent = DBMSSystem(
        params=params, controller=make_controller(),
        workload=DistributedWorkload(streams, params,
                                     RangePartition(params.db_size, 1)),
        streams=streams, deadlock_strategy=strategy)
    dist_events, dist_records = _traced_run(dist, 19.0)
    cent_events, cent_records = _traced_run(cent, 19.0)
    assert dist_events == cent_events
    assert dist_records == cent_records
    assert dist.collector.commits > 0 and dist.collector.aborts > 0


# ----------------------------------------------------------------------
# Soak
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_soak_repeated_faults_with_full_verification():
    """Long run, repeated crash + partition windows, loss, invariants
    checked densely; the cluster must keep committing and quiesce."""
    plan = SiteFaultPlan.parse(
        "crash@1:10:5; crash@2:25:5; crash@1:40:6; "
        "part@10:5:0-1|2-3; part@40:6:0-2|1-3")
    params = DistributedParameters(
        num_sites=4, num_terms=80, db_size=400, locality=0.6,
        warmup_time=5.0, num_batches=5, batch_time=10.0,
        failure_model=True, msg_loss_prob=0.03, msg_jitter=0.001)
    result = run_distributed_simulation(
        params, make_half_and_half_sites(4), fault_plan=plan,
        verify=VerifyConfig(cadence="sampled", sample_events=64))
    assert result.commits > 0
    assert result.aborts_by_reason.get(AbortReason.SITE_CRASH, 0) > 0
    for site in range(4):
        assert result.per_class[f"site{site}"].commits > 0
