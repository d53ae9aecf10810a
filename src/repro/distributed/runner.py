"""Runner for distributed simulations: builds a
:class:`~repro.distributed.system.DistributedSystem` and measures it
with the single-site runner's loop
(:func:`repro.experiments.runner.measure`)."""

from __future__ import annotations

import functools
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
            installed via its distributed entry point (aggregate +
            per-site probes, one decision log shared by the site
            controllers and the system's failure events, event-loop
            profiler), exported as the standard JSONL session plus
            ``site_probes.jsonl``.  Mutually exclusive with
            ``profiler`` (the session brings its own).
        profiler: optional :class:`repro.telemetry.EngineProfiler`
            attached to the event loop.
        verify: optional :class:`repro.verify.VerifyConfig`; attaches
            the :class:`repro.verify.DistributedInvariantChecker`
            (purely observational — no shadow lock table in the
            distributed model).
    """
    wall_start = perf_counter()
    system = DistributedSystem(
        params=params, controllers=controllers,
        maturity_rule=maturity_rule, deadlock_strategy=deadlock_strategy,
        admission_order=admission_order, fault_plan=fault_plan)
    if telemetry is not None:
        telemetry.install_distributed(system)
    check_end = None
    if verify is not None:
        # Lazy import: repro.verify pulls in the golden-run machinery,
        # which drives runners — a top-level import would be circular.
        from repro.verify.distributed import (DistributedInvariantChecker,
                                              check_quiesce)
        DistributedInvariantChecker(verify).attach(system)
        # Quiesce-time sweep: with every site up, nothing may remain in
        # doubt forever.
        check_end = functools.partial(check_quiesce, system)
    if fault_schedule is not None:
        fault_schedule.install(system)
    return measure(system, wall_start, telemetry=telemetry,
                   profiler=profiler, check_end=check_end,
                   extra={"fault_plan": str(fault_plan)} if fault_plan
                   else None)
