"""Workload generators: homogeneous, multi-class, and time-varying."""

from repro._lazy import lazy_exports

__all__ = [
    "WorkloadGenerator",
    "sample_page_sets",
    "sample_readset_size",
    "HomogeneousWorkload",
    "HotspotWorkload",
    "effective_db_size_for_skew",
    "MixedWorkload",
    "TransactionClass",
    "paper_mixed_classes",
    "TimeVaryingWorkload",
    "SLOW_PHASE_LENGTHS",
    "FAST_PHASE_LENGTHS",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workload.base": ("WorkloadGenerator", "sample_page_sets",
                            "sample_readset_size"),
    "repro.workload.homogeneous": ("HomogeneousWorkload",),
    "repro.workload.hotspot": ("HotspotWorkload",
                               "effective_db_size_for_skew"),
    "repro.workload.mixed": ("MixedWorkload", "TransactionClass",
                             "paper_mixed_classes"),
    "repro.workload.time_varying": ("FAST_PHASE_LENGTHS", "SLOW_PHASE_LENGTHS",
                                    "TimeVaryingWorkload"),
})
