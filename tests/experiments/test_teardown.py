"""A finished run frees its own object graph.

``measure`` tears a run down once its results are built: the calendar,
the resource wait queues, the page→site table, the hook slots and the
controller's link to the system are cleared, so reference counting
frees the run as soon as its caller lets go.  These tests run
with the cyclic collector switched off and require it to find nothing
afterwards, and require the post-run reads callers rely on to keep
working.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.half_and_half import HalfAndHalfController
from repro.dbms.config import SimulationParameters
from repro.dbms.system import DBMSSystem
from repro.experiments.runner import run_simulation
from repro.sim.engine import Simulator

PARAMS = SimulationParameters(num_terms=40, db_size=150, write_prob=0.5,
                              warmup_time=2.0, num_batches=2,
                              batch_time=4.0)


@pytest.fixture
def capture_system(monkeypatch):
    """Record each system as it starts, weakly: a strong reference
    would keep the run alive and hide its cycles."""
    refs = []
    start = DBMSSystem.start

    def recording_start(self):
        refs.append(weakref.ref(self))
        start(self)

    monkeypatch.setattr(DBMSSystem, "start", recording_start)
    return refs


def _cyclic_garbage(run) -> int:
    """Objects the cyclic collector finds after ``run()``, with the
    collector off during the run (first-use imports and caches are
    warmed by one run beforehand)."""
    run()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_plain_run_leaves_no_cyclic_garbage(capture_system):
    sims = []

    def run():
        sims.append(Simulator())
        run_simulation(PARAMS, HalfAndHalfController(), sim=sims[-1])

    assert _cyclic_garbage(run) == 0
    assert capture_system[-1]() is None      # freed by reference counting
    # The simulator the caller passed in stays readable.
    sim = sims[-1]
    assert sim.now == PARAMS.total_time
    assert sim.events_executed > 0
    assert sim.pending() == 0


def test_observed_run_leaves_no_cyclic_garbage(capture_system, tmp_path):
    from repro.telemetry import TelemetrySession
    from repro.verify import VerifyConfig
    sessions = []

    def run():
        session = TelemetrySession(tmp_path / f"run{len(sessions)}",
                                   spans=True, contention=True,
                                   online=True)
        run_simulation(PARAMS, HalfAndHalfController(),
                       telemetry=session, verify=VerifyConfig())
        sessions.append(session)

    assert _cyclic_garbage(run) == 0
    # The session's records stay readable; the observers still point
    # at the system, so it lives exactly as long as the session does.
    session = sessions.pop()
    assert len(session.tracer) > 0
    assert len(list(session.spans)) == len(session.spans) > 0
    assert session.contention.summary()
    assert session.probes.samples
    sessions.clear()
    del session
    assert capture_system[-1]() is None      # freed by reference counting


def test_post_run_reads_still_work():
    from repro.experiments.runner import measure
    from time import perf_counter
    system = DBMSSystem(params=PARAMS, controller=HalfAndHalfController())
    results = measure(system, perf_counter())
    elapsed = system.sim.now
    assert elapsed == PARAMS.total_time
    assert system.sim.events_executed > 0
    assert system.collector.commits >= results.commits > 0
    assert 0.0 < system.cpu.utilization(elapsed) <= 1.0
    assert 0.0 < system.disks.utilization(elapsed) <= 1.0
    assert system.controller.system is None


@pytest.mark.parametrize("verified, observed",
                         [(False, False), (True, False), (True, True)],
                         ids=["plain", "verified", "observed"])
def test_distributed_run_leaves_no_cyclic_garbage(capture_system, tmp_path,
                                                  verified, observed):
    from repro.distributed.config import DistributedParameters
    from repro.distributed.controllers import make_half_and_half_sites
    from repro.distributed.runner import run_distributed_simulation
    from repro.telemetry import TelemetrySession
    from repro.verify import VerifyConfig
    params = DistributedParameters(
        num_sites=3, locality=0.8, failure_model=True, num_terms=30,
        db_size=300, warmup_time=2.0, num_batches=2, batch_time=4.0)
    verify = VerifyConfig() if verified else None
    runs = []

    def run():
        # Every observer: spans (on every home ready queue), contention,
        # online, the checker and every site's shadow lock table.
        session = (TelemetrySession(tmp_path / f"run{len(runs)}",
                                    spans=True, contention=True,
                                    online=True)
                   if observed else None)
        run_distributed_simulation(params, make_half_and_half_sites(3),
                                   telemetry=session, verify=verify)
        runs.append(session)

    assert _cyclic_garbage(run) == 0
    runs.clear()
    assert capture_system[-1]() is None


def test_distributed_post_run_reads_still_work():
    from time import perf_counter
    from repro.distributed.config import DistributedParameters
    from repro.distributed.controllers import make_half_and_half_sites
    from repro.distributed.system import DistributedSystem
    from repro.experiments.runner import measure
    params = DistributedParameters(
        num_sites=3, locality=0.8, failure_model=True, num_terms=30,
        db_size=300, warmup_time=2.0, num_batches=2, batch_time=4.0)
    system = DistributedSystem(params=params,
                               controllers=make_half_and_half_sites(3))
    measure(system, perf_counter())
    assert system.sim.now == params.total_time
    rows = system.site_stats()
    assert len(rows) == 3
    assert all(0.0 < row["cpu_utilization"] <= 1.0 for row in rows)
    assert sum(row["home_commits"] for row in rows) \
        == system.collector.commits
    assert 0.0 < system.remote_fraction() < 1.0
    stats = system.network.stats()
    assert stats["sent"] > 0 and stats["delivered"] > 0


def test_serial_run_specs_leaves_no_cyclic_garbage():
    from repro.control.fixed_mpl import FixedMPLController
    from repro.experiments.parallel import RunSpec, run_specs
    specs = [RunSpec(params=PARAMS, controller_factory=HalfAndHalfController),
             RunSpec(params=PARAMS, controller_factory=FixedMPLController,
                     controller_args=(8,))]

    def run():
        outcomes = run_specs(specs, jobs=1, progress=False)
        assert len(outcomes) == 2

    assert _cyclic_garbage(run) == 0


def test_a_run_that_raises_keeps_its_state(monkeypatch):
    # Post-mortem inspection needs the calendar and the back-links.
    from time import perf_counter
    from repro.experiments.runner import measure
    system = DBMSSystem(params=PARAMS, controller=HalfAndHalfController())

    def failing_check():
        raise RuntimeError("end-of-run check failed")

    with pytest.raises(RuntimeError):
        measure(system, perf_counter(), check_end=failing_check)
    assert system.sim.pending() > 0
    assert system.controller.system is system
