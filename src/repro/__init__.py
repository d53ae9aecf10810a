"""repro — reproduction of "Load Control for Locking: The 'Half-and-Half'
Approach" (Carey, Krishnamurthi & Livny, 1990).

The package implements the paper's complete simulation study:

* a discrete-event simulation of a centralized DBMS (CPU pool, disk
  array, 2PL lock manager with deadlock detection, deferred updates);
* the Half-and-Half adaptive load controller and every baseline the
  paper compares against (fixed MPL, Tay's rule of thumb, bounded wait
  queues, no control);
* workload generators (homogeneous, multi-class, time-varying) and an
  optional LRU buffer manager;
* batch-means measurement of page throughput and raw page rate;
* an experiment harness that regenerates every figure in the paper.

Quickstart::

    from repro import (SimulationParameters, HalfAndHalfController,
                       run_simulation)

    params = SimulationParameters(num_terms=100, num_batches=5,
                                  batch_time=50.0)
    results = run_simulation(params, HalfAndHalfController())
    print(results.summary_line())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "AnalyticMPCController",
    "BufferAwareAdmission",
    "BlockedFractionController",
    "ClassPriorityPolicy",
    "CompositeController",
    "ConflictRatioController",
    "FixedMPLController",
    "HalfAndHalfController",
    "LoadController",
    "MalthusianController",
    "NoControlController",
    "TayRuleController",
    "predict_throughput",
    "MaturityRule",
    "Region",
    "classify_region",
    "DBMSSystem",
    "SimulationParameters",
    "Transaction",
    "ConfigurationError",
    "ExperimentError",
    "InvariantViolation",
    "LockManagerError",
    "ReproError",
    "ShadowDivergence",
    "SimulationError",
    "VerificationError",
    "WorkloadError",
    "VerifyConfig",
    "InvariantChecker",
    "ReferenceLockTable",
    "ShadowLockTable",
    "reference_classify_region",
    "run_simulation",
    "BoundedWaitPolicy",
    "NoWaitPolicy",
    "LockMode",
    "LockProtocol",
    "LockTable",
    "UnboundedWaitPolicy",
    "BatchStatistics",
    "SimulationResults",
    "TraceEvent",
    "TraceEventType",
    "Tracer",
    "ControllerDecision",
    "DecisionLog",
    "ProbeSample",
    "ProbeScheduler",
    "TelemetryConfig",
    "TelemetrySession",
    "HomogeneousWorkload",
    "HotspotWorkload",
    "MixedWorkload",
    "TimeVaryingWorkload",
    "TransactionClass",
    "paper_mixed_classes",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.control.analytic": ("AnalyticMPCController",
                               "predict_throughput"),
    "repro.control.base": ("LoadController",),
    "repro.control.blocked_fraction": ("BlockedFractionController",),
    "repro.control.class_priority": ("ClassPriorityPolicy",),
    "repro.control.composite": ("BufferAwareAdmission",
                                "CompositeController"),
    "repro.control.conflict_ratio": ("ConflictRatioController",),
    "repro.control.fixed_mpl": ("FixedMPLController",),
    "repro.control.malthusian": ("MalthusianController",),
    "repro.control.no_control": ("NoControlController",),
    "repro.control.tay": ("TayRuleController",),
    "repro.core.half_and_half": ("HalfAndHalfController",),
    "repro.core.maturity": ("MaturityRule",),
    "repro.core.regions": ("Region", "classify_region"),
    "repro.dbms.config": ("SimulationParameters",),
    "repro.dbms.system": ("DBMSSystem",),
    "repro.dbms.transaction": ("Transaction",),
    "repro.errors": ("ConfigurationError", "ExperimentError",
                     "InvariantViolation", "LockManagerError",
                     "ReproError", "ShadowDivergence", "SimulationError",
                     "VerificationError", "WorkloadError"),
    "repro.experiments.runner": ("run_simulation",),
    "repro.lockmgr.lock_table": ("LockTable",),
    "repro.lockmgr.modes": ("LockMode",),
    "repro.lockmgr.prevention": ("DeadlockStrategy",),
    "repro.lockmgr.protocols": ("LockProtocol",),
    "repro.lockmgr.wait_policy": ("BoundedWaitPolicy", "NoWaitPolicy",
                                  "UnboundedWaitPolicy"),
    "repro.metrics.batch_means": ("BatchStatistics",),
    "repro.metrics.results": ("SimulationResults",),
    "repro.metrics.trace": ("TraceEvent", "TraceEventType", "Tracer"),
    "repro.telemetry.decisions": ("ControllerDecision", "DecisionLog"),
    "repro.telemetry.export": ("TelemetryConfig", "TelemetrySession"),
    "repro.telemetry.probes": ("ProbeSample", "ProbeScheduler"),
    "repro.verify.config": ("VerifyConfig",),
    "repro.verify.invariants": ("InvariantChecker",),
    "repro.verify.reference": ("ReferenceLockTable",
                               "reference_classify_region"),
    "repro.verify.shadow": ("ShadowLockTable",),
    "repro.workload.homogeneous": ("HomogeneousWorkload",),
    "repro.workload.hotspot": ("HotspotWorkload",),
    "repro.workload.mixed": ("MixedWorkload", "TransactionClass",
                             "paper_mixed_classes"),
    "repro.workload.time_varying": ("TimeVaryingWorkload",),
})
