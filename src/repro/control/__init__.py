"""Load controllers: the interface and the baseline policies.

The Half-and-Half controller itself lives in :mod:`repro.core` (it is the
paper's contribution); it is re-exported here for convenience so callers
can import every controller from one place.
"""

from repro._lazy import lazy_exports

__all__ = [
    "LoadController",
    "AnalyticMPCController",
    "BlockedFractionController",
    "ClassPriorityPolicy",
    "BufferAwareAdmission",
    "CompositeController",
    "ConflictRatioController",
    "FixedMPLController",
    "MalthusianController",
    "NoControlController",
    "TayRuleController",
    "conflict_coefficient",
    "effective_db_size",
    "optimal_mpl",
    "predict_throughput",
    "tay_mpl",
    "HalfAndHalfController",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.control.analytic": ("AnalyticMPCController", "conflict_coefficient",
                               "optimal_mpl", "predict_throughput"),
    "repro.control.base": ("LoadController",),
    "repro.control.blocked_fraction": ("BlockedFractionController",),
    "repro.control.class_priority": ("ClassPriorityPolicy",),
    "repro.control.composite": ("BufferAwareAdmission", "CompositeController"),
    "repro.control.conflict_ratio": ("ConflictRatioController",),
    "repro.control.fixed_mpl": ("FixedMPLController",),
    "repro.control.malthusian": ("MalthusianController",),
    "repro.control.no_control": ("NoControlController",),
    "repro.control.tay": ("TayRuleController", "effective_db_size", "tay_mpl"),
    "repro.core.half_and_half": ("HalfAndHalfController",),
})
