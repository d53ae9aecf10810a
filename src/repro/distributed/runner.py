"""Runner for distributed simulations: builds a
:class:`~repro.distributed.system.DistributedSystem` and measures it
with the single-site runner's loop
(:func:`repro.experiments.runner.measure`).  A telemetry session and
verification attach exactly as on a centralized run: one
:meth:`~repro.telemetry.TelemetrySession.install`, and
:func:`~repro.verify.invariants.attach_verifier`."""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from repro.core.maturity import MaturityRule
from repro.distributed.config import DistributedParameters
from repro.distributed.controllers import PerSiteControllerSet
from repro.distributed.failures import SiteFaultPlan
from repro.distributed.system import DistributedSystem
from repro.experiments.runner import measure
from repro.lockmgr.prevention import DeadlockStrategy
from repro.metrics.results import SimulationResults

__all__ = ["run_distributed_simulation"]


def run_distributed_simulation(
        params: DistributedParameters,
        controllers: PerSiteControllerSet,
        maturity_rule: Optional[MaturityRule] = None,
        deadlock_strategy: DeadlockStrategy = DeadlockStrategy.DETECTION,
        admission_order=None,
        fault_plan: Optional[SiteFaultPlan] = None,
        fault_schedule=None,
        telemetry=None,
        profiler=None,
        verify=None) -> SimulationResults:
    """Run one multi-site simulation and return batch-means results.

    Args:
        fault_plan: optional
            :class:`repro.distributed.failures.SiteFaultPlan`; installs
            deterministic site crash/recovery and partition windows and
            switches the system into failure-realistic mode.
        fault_schedule: optional
            :class:`repro.faultinject.FaultSchedule`; its windows scale
            per-site (``site=N``) or cluster-wide (``site=None``)
            CPU/disk service times.  Orthogonal to ``fault_plan`` —
            degradation vs. outage — and usable without failure mode.
        telemetry: optional :class:`repro.telemetry.TelemetrySession`;
            installed as on a centralized run (every observer it
            switches on; one decision log shared by the site controllers,
            each tagged ``@siteN``, and the system's failure events),
            exported as the standard session plus ``site_probes.jsonl``.
            Mutually exclusive with ``profiler`` (the session brings its
            own).
        profiler: optional :class:`repro.telemetry.EngineProfiler`
            attached to the event loop.
        verify: optional :class:`repro.verify.VerifyConfig`; verified as
            a centralized run is (:func:`repro.verify.invariants.
            attach_verifier`): every site's lock table shadowed unless
            switched off, the one invariant catalog, and the end-of-run
            quiesce obligations.
    """
    wall_start = perf_counter()
    system = DistributedSystem(
        params=params, controllers=controllers,
        maturity_rule=maturity_rule, deadlock_strategy=deadlock_strategy,
        admission_order=admission_order, fault_plan=fault_plan)
    if telemetry is not None:
        telemetry.install(system)
    check_end = None
    if verify is not None:
        # Lazy import: repro.verify pulls in the golden-run machinery,
        # which drives runners — a top-level import would be circular.
        from repro.verify.invariants import attach_verifier
        check_end = attach_verifier(system, verify)
    if fault_schedule is not None:
        fault_schedule.install(system)
    return measure(system, wall_start, telemetry=telemetry,
                   profiler=profiler, check_end=check_end,
                   extra={"fault_plan": str(fault_plan)} if fault_plan
                   else None)
