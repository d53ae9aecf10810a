"""The paper's primary contribution: Half-and-Half load control."""

from repro._lazy import lazy_exports

__all__ = [
    "HalfAndHalfController",
    "MaturityRule",
    "DEFAULT_DELTA",
    "Region",
    "classify_region",
    "StateTracker",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.half_and_half": ("HalfAndHalfController",),
    "repro.core.maturity": ("MaturityRule",),
    "repro.core.regions": ("DEFAULT_DELTA", "Region", "classify_region"),
    "repro.core.state_tracker": ("StateTracker",),
})
