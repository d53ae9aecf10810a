"""Zero-cost-off dispatch: observers never change a trajectory.

Every hook site in ``DBMSSystem`` is one ``is None`` guard on its slot
(``tracer``, ``spans``, ``contention``, ``invariants``), and the
simulator's single event loop guards its ``profiler`` and ``monitor``
slots the same way.  These tests pin the contract that matters: a
hooks-off run produces results *identical* to a fully observed run of
the same configuration, on every branch of the state machine, and an
observer attached mid-run records from that point on.
"""

from __future__ import annotations

import pytest

from repro.control.malthusian import MalthusianController
from repro.core.half_and_half import HalfAndHalfController
from repro.dbms.config import SimulationParameters
from repro.dbms.system import DBMSSystem
from repro.experiments.runner import run_simulation
from repro.lockmgr.prevention import DeadlockStrategy
from repro.lockmgr.wait_policy import BoundedWaitPolicy
from repro.metrics.trace import TraceEventType, Tracer
from repro.verify.config import VerifyConfig


@pytest.fixture
def dispatch_params() -> SimulationParameters:
    # Small but contended enough to reach every state transition:
    # blocks, deadlock aborts, deferred writes, and restarts.
    return SimulationParameters(
        num_terms=25, db_size=60, tran_size=6, write_prob=0.4,
        warmup_time=2.0, num_batches=2, batch_time=5.0, seed=7)


# One case per state-machine branch: (parameter overrides, extra
# run_simulation keywords built fresh per run, controller class).
BRANCHES = {
    "base": ({}, dict, HalfAndHalfController),
    "cc_cpu": ({"cc_cpu": 0.001}, dict, HalfAndHalfController),
    "buffered": ({"buf_size": 30}, dict, HalfAndHalfController),
    "immediate_x": ({"lock_upgrades": False}, dict, HalfAndHalfController),
    "no_locking": ({"locking_enabled": False}, dict,
                   HalfAndHalfController),
    "wait_die": ({}, lambda: {"deadlock_strategy":
                              DeadlockStrategy.WAIT_DIE},
                 HalfAndHalfController),
    "wound_wait": ({}, lambda: {"deadlock_strategy":
                                DeadlockStrategy.WOUND_WAIT},
                   HalfAndHalfController),
    "bounded_wait": ({}, lambda: {"wait_policy": BoundedWaitPolicy(1)},
                     HalfAndHalfController),
    "think_time": ({"think_time": 0.5}, dict, HalfAndHalfController),
    "malthusian": ({}, dict, MalthusianController),
}


def test_observer_attached_mid_run_records(dispatch_params):
    from repro.telemetry.contention import ContentionMonitor
    system = DBMSSystem(params=dispatch_params,
                        controller=HalfAndHalfController())
    system.start()
    system.sim.run(until=1.0)
    tracer = Tracer()
    system.tracer = tracer
    monitor = ContentionMonitor()
    monitor.attach(system)
    system.sim.run(until=5.0)
    # No attach-order rule: hooks attached after start() still fire.
    assert len(tracer) > 0
    assert monitor.total_conflicts > 0


def test_contention_monitored_results_identical_to_fast_path(
        dispatch_params, tmp_path):
    """Bit-equivalence regression: contention monitoring on follows the
    exact trajectory of the unobserved run."""
    from repro.telemetry import TelemetrySession
    plain = run_simulation(dispatch_params, HalfAndHalfController())
    session = TelemetrySession(tmp_path / "run", contention=True)
    monitored = run_simulation(dispatch_params, HalfAndHalfController(),
                               telemetry=session)
    assert plain == monitored
    # ... and the monitor genuinely observed the run.
    assert session.contention.total_conflicts > 0


@pytest.mark.parametrize("branch", list(BRANCHES))
def test_hooks_off_results_identical_to_observed_run(
        dispatch_params, tmp_path, branch):
    from repro.telemetry import TelemetrySession
    overrides, extra, controller_cls = BRANCHES[branch]
    params = dispatch_params.replace(**overrides)
    plain = run_simulation(params, controller_cls(), **extra())
    session = TelemetrySession(tmp_path / "run", spans=True,
                               contention=True, online=True)
    observed = run_simulation(params, controller_cls(),
                              telemetry=session, verify=VerifyConfig(),
                              **extra())
    # Bit-identical trajectories: every measured statistic matches
    # exactly, not approximately.
    assert plain == observed
    # ... and the observed run genuinely took the hooked paths.
    counts = session.tracer.counts()
    assert counts.get(TraceEventType.COMMIT, 0) > 0
    if branch == "malthusian":
        assert counts.get(TraceEventType.PARK, 0) > 0


def test_hooks_off_results_identical_to_traced_run(dispatch_params):
    plain = run_simulation(dispatch_params, HalfAndHalfController())
    tracer = Tracer()
    hooked = run_simulation(dispatch_params, HalfAndHalfController(),
                            tracer=tracer)
    assert plain == hooked
    assert len(tracer) > 0


def test_hooks_off_results_identical_to_verified_run(dispatch_params):
    plain = run_simulation(dispatch_params, HalfAndHalfController())
    verified = run_simulation(dispatch_params, HalfAndHalfController(),
                              verify=VerifyConfig())
    assert plain == verified


def test_traced_run_exercises_the_lifecycle_hooks(dispatch_params):
    tracer = Tracer()
    run_simulation(dispatch_params, HalfAndHalfController(),
                   tracer=tracer)
    seen = set(tracer.counts())
    # The contended configuration drives every major transition the
    # hooked paths record; if one goes missing, a hook was dropped.
    for required in (TraceEventType.ARRIVAL, TraceEventType.ADMIT,
                     TraceEventType.LOCK_GRANT, TraceEventType.BLOCK,
                     TraceEventType.UNBLOCK, TraceEventType.COMMIT,
                     TraceEventType.RESTART):
        assert required in seen, f"hooked run never recorded {required}"
