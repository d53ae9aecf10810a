"""Analytic companions to the simulation: resource bounds and the
contention approximations behind Tay's rule of thumb."""

from repro._lazy import lazy_exports

__all__ = [
    "cpu_bound_page_rate",
    "disk_bound_page_rate",
    "resource_ceiling",
    "blocking_probability",
    "conflict_ratio",
    "deadlock_probability",
    "max_safe_mpl",
    "predicts_thrashing",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.bounds": ("cpu_bound_page_rate", "disk_bound_page_rate",
                              "resource_ceiling"),
    "repro.analysis.contention": ("blocking_probability", "conflict_ratio",
                                  "deadlock_probability", "max_safe_mpl",
                                  "predicts_thrashing"),
})
