"""Deterministic, seed-free fault injection at both layers of the stack.

Two very different things can fail: the *harness* that fans simulation
runs out over worker processes, and the *simulated system* whose
behaviour under disturbance the paper's controllers are supposed to
manage.  This package injects faults into both, deterministically — a
fault fires at a configured spec index or simulated time, never from a
wall-clock race — so resilience is testable in CI and recovery is
measurable as a figure.

Harness faults (:class:`HarnessFaultPlan`): crash, hang, slow-down, or
raise inside a worker at chosen spec indices/attempts, plus a simulated
SIGINT between specs.  These exist to exercise
:mod:`repro.resilience` + :func:`repro.experiments.parallel.run_specs`.

Simulated-system faults (:class:`FaultSchedule` of
:class:`FaultWindow`): transient disk-slowdown and CPU-degradation
windows applied to the simulated resources, annotated in the telemetry
decision log.  :class:`FaultyWorkload` disturbs the offered load the
same way: demand surges (larger transactions) and contention spikes
(accesses concentrated on a database prefix) inside simulated-time
windows.  Both are plain picklable data carried by the
:class:`~repro.experiments.parallel.RunSpec`, so faulted runs cache
and fan out like any other.
"""

from repro._lazy import lazy_exports

__all__ = [
    "HarnessFault",
    "HarnessFaultKind",
    "HarnessFaultPlan",
    "apply_worker_fault",
    "FaultSchedule",
    "FaultWindow",
    "SystemFaultKind",
    "FaultyWorkload",
    "FaultyWorkloadFactory",
    "WorkloadDisturbance",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.faultinject.harness": ("HarnessFault", "HarnessFaultKind",
                                  "HarnessFaultPlan", "apply_worker_fault"),
    "repro.faultinject.system": ("FaultSchedule", "FaultWindow",
                                 "SystemFaultKind"),
    "repro.faultinject.workload": ("FaultyWorkload", "FaultyWorkloadFactory",
                                   "WorkloadDisturbance"),
})
