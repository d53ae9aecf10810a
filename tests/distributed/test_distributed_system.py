"""Integration tests for the distributed DBMS model."""

from __future__ import annotations

import pytest

from repro.distributed.config import DistributedParameters
from repro.distributed.controllers import (
    PerSiteControllerSet,
    make_half_and_half_sites,
    make_no_control_sites,
)
from repro.distributed.runner import run_distributed_simulation
from repro.distributed.system import DistributedSystem
from repro.errors import ConfigurationError
from repro.lockmgr.prevention import DeadlockStrategy


def _params(**overrides):
    defaults = dict(num_sites=3, num_terms=30, db_size=300,
                    warmup_time=3.0, num_batches=2, batch_time=8.0)
    defaults.update(overrides)
    return DistributedParameters(**defaults)


def _run_system(params, controllers, **kwargs):
    system = DistributedSystem(params=params, controllers=controllers,
                               **kwargs)
    system.start()
    system.sim.run(until=params.total_time)
    return system


def test_controller_count_must_match_sites():
    with pytest.raises(ConfigurationError):
        DistributedSystem(params=_params(num_sites=3),
                          controllers=make_no_control_sites(2))


def test_basic_run_commits(capfd):
    system = _run_system(_params(), make_no_control_sites(3))
    assert system.collector.commits > 0
    system.check_invariants()


def test_remote_accesses_happen():
    system = _run_system(_params(locality=0.3), make_no_control_sites(3))
    assert system.remote_accesses > 0
    assert system.local_accesses > 0
    assert 0.4 < system.remote_fraction() < 0.95


def test_full_locality_means_no_remote_accesses():
    system = _run_system(_params(locality=1.0), make_no_control_sites(3))
    assert system.remote_accesses == 0


def test_single_site_degenerates_to_centralized_shape():
    """One site with zero delay should behave like the central model."""
    params = _params(num_sites=1, msg_delay=0.0, locality=1.0)
    system = _run_system(params, make_no_control_sites(1))
    assert system.collector.commits > 0
    assert system.remote_accesses == 0


def test_conservation_and_invariants():
    system = _run_system(_params(num_terms=40, db_size=150),
                         make_half_and_half_sites(3))
    system.check_invariants()
    queued = sum(len(v.ready_queue) for v in system.site_views)
    accounted = (system.collector.commits
                 + system.tracker.n_active + queued)
    assert accounted <= system.total_generated
    assert (system.total_generated - system.collector.commits
            <= system.params.num_terms)


def test_determinism_by_seed():
    runs = []
    for _ in range(2):
        r = run_distributed_simulation(_params(),
                                       make_no_control_sites(3))
        runs.append((r.commits, r.aborts, r.page_throughput.mean))
    assert runs[0] == runs[1]


def test_distributed_deadlocks_detected_and_resolved():
    """Cross-site deadlocks must be found by the global detector."""
    params = _params(num_terms=30, db_size=60, tran_size=6,
                     write_prob=0.8, locality=0.3)
    system = _run_system(params, make_no_control_sites(3))
    assert system.collector.aborts_by_reason.get("deadlock", 0) > 0
    assert system.collector.commits > 0


@pytest.mark.parametrize("strategy", [DeadlockStrategy.WAIT_DIE,
                                      DeadlockStrategy.WOUND_WAIT])
def test_prevention_strategies_work_across_sites(strategy):
    params = _params(num_terms=30, db_size=60, tran_size=6,
                     write_prob=0.8, locality=0.3)
    result = run_distributed_simulation(
        params, make_no_control_sites(3), deadlock_strategy=strategy)
    assert result.aborts_by_reason.get("deadlock", 0) == 0
    assert result.aborts_by_reason.get(strategy.value, 0) > 0
    assert result.commits > 0


def test_per_site_half_and_half_prevents_thrashing():
    """The headline claim of the extension: per-site load control holds
    throughput at heavy load while no-control collapses."""
    params = _params(num_sites=4, num_terms=200, db_size=1000,
                     warmup_time=10.0, num_batches=3, batch_time=20.0)
    raw = run_distributed_simulation(params, make_no_control_sites(4))
    hh = run_distributed_simulation(params, make_half_and_half_sites(4))
    assert hh.page_throughput.mean > 1.5 * raw.page_throughput.mean
    assert hh.avg_mpl < raw.avg_mpl


def test_msg_delay_slows_remote_work():
    fast = run_distributed_simulation(
        _params(msg_delay=0.0, locality=0.2), make_no_control_sites(3))
    slow = run_distributed_simulation(
        _params(msg_delay=0.02, locality=0.2), make_no_control_sites(3))
    assert slow.page_throughput.mean < fast.page_throughput.mean


def test_two_phase_commit_adds_latency():
    with_2pc = run_distributed_simulation(
        _params(two_phase_commit=True, msg_delay=0.01, locality=0.2,
                num_terms=10),
        make_no_control_sites(3))
    without = run_distributed_simulation(
        _params(two_phase_commit=False, msg_delay=0.01, locality=0.2,
                num_terms=10),
        make_no_control_sites(3))
    assert with_2pc.avg_response_time > without.avg_response_time


def test_per_class_stats_track_sites():
    result = run_distributed_simulation(_params(),
                                        make_no_control_sites(3))
    # Every site's class shows up with commits.
    assert {"site0", "site1", "site2"} <= set(result.per_class)


def test_start_twice_rejected():
    system = DistributedSystem(params=_params(),
                               controllers=make_no_control_sites(3))
    system.start()
    with pytest.raises(Exception):
        system.start()


def test_site_stats_reporting():
    system = _run_system(_params(locality=0.5), make_no_control_sites(3))
    stats = system.site_stats()
    assert len(stats) == 3
    for entry in stats:
        assert 0.0 <= entry["cpu_utilization"] <= 1.0
        assert 0.0 <= entry["disk_utilization"] <= 1.0
        assert entry["lock_requests"] > 0
    # Uniform remote access spreads lock traffic over all sites.
    assert all(e["lock_requests"] > 0 for e in stats)


def test_remote_work_lands_on_owning_sites():
    """With zero locality, home sites still issue work but the pages
    live elsewhere: every site's disks see traffic."""
    system = _run_system(_params(locality=0.0), make_no_control_sites(3))
    for entry in system.site_stats():
        assert entry["disk_utilization"] > 0.0


@pytest.mark.parametrize("inherited", [{"buf_size": 30}, {"cc_cpu": 0.002},
                                       {"lock_upgrades": False}],
                         ids=lambda d: next(iter(d)))
def test_inherited_parameters_take_effect(inherited):
    """Per-site buffer pools, CC CPU cost on the owning site, and
    immediate X locking all run through the shared lifecycle."""
    base = dict(num_sites=2, num_terms=40, db_size=200, seed=3,
                warmup_time=2.0, num_batches=2, batch_time=5.0)

    def run(**extra):
        r = run_distributed_simulation(
            DistributedParameters(**base, **extra),
            make_half_and_half_sites(2))
        return r.commits, r.aborts, r.page_throughput.mean

    baseline = run()
    assert baseline == (137, 57, 135.2)
    assert run(**inherited) != baseline
