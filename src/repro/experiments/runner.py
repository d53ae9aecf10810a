"""Simulation runner: warmup, batch-means measurement, result assembly.

:func:`run_simulation` is the single entry point every experiment,
example, and benchmark uses.  It builds a fresh system, runs the warmup
period, then snapshots the collector at every batch boundary and reduces
the snapshots to a :class:`SimulationResults`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, Optional

from repro.control.base import LoadController
from repro.core.maturity import MaturityRule
from repro.dbms.config import SimulationParameters
from repro.dbms.system import DBMSSystem
from repro.lockmgr.wait_policy import WaitPolicy
from repro.metrics.results import SimulationResults, build_results
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.base import WorkloadGenerator

__all__ = ["run_simulation", "WorkloadFactory", "ControllerFactory"]

# A workload factory receives the run's random streams and parameters and
# returns a fresh generator (generators are stateful, so each run needs
# its own instance).
WorkloadFactory = Callable[[RandomStreams, SimulationParameters],
                           WorkloadGenerator]
ControllerFactory = Callable[[], LoadController]


def run_simulation(params: SimulationParameters,
                   controller: LoadController,
                   workload_factory: Optional[WorkloadFactory] = None,
                   wait_policy: Optional[WaitPolicy] = None,
                   maturity_rule: Optional[MaturityRule] = None,
                   tracer=None,
                   admission_order=None,
                   deadlock_strategy=None,
                   telemetry=None,
                   fault_schedule=None,
                   profiler=None,
                   verify=None,
                   sim: Optional[Simulator] = None,
                   ) -> SimulationResults:
    """Run one complete simulation and return its measured results.

    Args:
        params: all model parameters, including the measurement window.
        controller: a *fresh* load-controller instance (controllers hold
            per-run state and must not be reused across runs).
        workload_factory: optional; defaults to the homogeneous workload
            described by ``params``.
        wait_policy: optional lock-wait policy (default: unbounded 2PL).
        maturity_rule: maturity definition for state tracking (default:
            the paper's 25% rule).
        tracer: optional :class:`repro.metrics.trace.Tracer` recording
            per-transaction lifecycle events.
        telemetry: optional
            :class:`repro.telemetry.TelemetrySession`; installs the
            full observability stack (tracer, probe scheduler, decision
            log, event-loop profiler) and exports JSONL + manifest into
            the session's directory when the run completes.  Mutually
            exclusive with ``tracer`` (the session brings its own).
        fault_schedule: optional
            :class:`repro.faultinject.FaultSchedule`; its disturbance
            windows are installed on the simulation calendar before the
            system starts, so the run is disturbed deterministically.
        profiler: optional
            :class:`repro.telemetry.EngineProfiler` attached to the
            event loop (the bench harness measures events/sec with
            one).  Mutually exclusive with ``telemetry``, which brings
            its own.
        sim: optional pre-built :class:`repro.sim.engine.Simulator` to
            run on.  Callers that need kernel-level counters afterwards
            (e.g. the bench harness reading ``sim.events_executed``)
            pass their own; everyone else lets the runner build one.
        verify: optional :class:`repro.verify.VerifyConfig`; installs
            the runtime :class:`repro.verify.InvariantChecker` (and,
            unless disabled, swaps the lock table for a
            :class:`repro.verify.ShadowLockTable` diffed against the
            naive reference on every operation).  Verification is
            strictly observational — a verified run produces bit-for-bit
            the same results as an unverified one, or raises.

    Returns:
        A :class:`SimulationResults` with batch-means statistics over the
        post-warmup window.
    """
    if telemetry is not None and tracer is not None:
        raise ValueError(
            "pass either telemetry= or tracer=, not both: a telemetry "
            "session installs its own tracer")
    wall_start = perf_counter()
    streams = RandomStreams(params.seed)
    workload = (workload_factory(streams, params)
                if workload_factory is not None else None)
    system = DBMSSystem(params=params, controller=controller,
                        workload=workload, wait_policy=wait_policy,
                        maturity_rule=maturity_rule, sim=sim, streams=streams,
                        tracer=tracer, admission_order=admission_order,
                        **({"deadlock_strategy": deadlock_strategy}
                           if deadlock_strategy is not None else {}))
    if telemetry is not None:
        telemetry.install(system)
    if fault_schedule is not None:
        fault_schedule.install(system)
    check_end = None
    if verify is not None:
        # Imported lazily: repro.verify.golden drives this runner, so a
        # top-level import would be circular — and unverified runs never
        # pay the import.
        from repro.verify.invariants import attach_verifier
        check_end = attach_verifier(system, verify)
    return measure(system, wall_start, telemetry=telemetry,
                   profiler=profiler, check_end=check_end)


def measure(system, wall_start: float, telemetry=None, profiler=None,
            check_end: Optional[Callable[[], None]] = None,
            extra: Optional[Dict[str, Any]] = None) -> SimulationResults:
    """Start a fully assembled system, run the warmup and the batches,
    and reduce the batch snapshots to :class:`SimulationResults`.

    The measurement loop both runners share.  ``check_end`` runs after
    the results are built and before the telemetry session (if any)
    exports, together with ``extra`` manifest fields.  Then the system
    is torn down (:meth:`DBMSSystem.teardown`), so the finished run's
    object graph is freed by reference counting instead of lingering
    as cyclic garbage until the next collection.
    """
    sim, params, collector = system.sim, system.params, system.collector
    if profiler is not None:
        if telemetry is not None:
            raise ValueError(
                "pass either telemetry= or profiler=, not both: a "
                "telemetry session installs its own profiler")
        sim.profiler = profiler
    system.start()

    # Phase marks for the attribution profiler (duck-typed: the plain
    # EngineProfiler has no set_phase and most runs have no profiler at
    # all — one getattr per run, nothing per event).
    set_phase = getattr(sim.profiler, "set_phase", None)
    if set_phase is not None:
        set_phase("warmup")
    sim.run(until=params.warmup_time)
    snapshots = [collector.snapshot(sim.now)]
    aborts_at_start = collector.aborts
    reasons_at_start = dict(collector.aborts_by_reason)
    if set_phase is not None:
        set_phase("measure")
    for batch in range(1, params.num_batches + 1):
        sim.run(until=params.warmup_time + batch * params.batch_time)
        snapshots.append(collector.snapshot(sim.now))

    window_reasons = {
        reason: count - reasons_at_start.get(reason, 0)
        for reason, count in collector.aborts_by_reason.items()
    }
    results = build_results(
        snapshots=snapshots,
        controller_name=system.controller.name,
        workload_name=system.workload.name,
        commits=collector.commits,
        aborts=collector.aborts - aborts_at_start,
        aborts_by_reason=window_reasons,
        response_time_sum=collector.response_time_sum,
        restarts_of_committed=collector.restarts_of_committed,
        max_mpl=collector.active.max_value,
        per_class=collector.per_class,
    )
    if check_end is not None:
        check_end()
    if telemetry is not None:
        telemetry.finalize(
            params=params,
            controller_name=system.controller.name,
            workload_name=system.workload.name,
            sim_time=sim.now,
            wall_time=perf_counter() - wall_start,
            extra=extra,
        )
    # Only a run that got this far is torn down: one that raised keeps
    # its state for post-mortem inspection.
    system.teardown()
    return results
