"""Discrete-event simulation substrate.

Provides the event-calendar kernel (:class:`Simulator`), reproducible named
random streams (:class:`RandomStreams`), and the physical resource models
(:class:`CpuPool`, :class:`DiskArray`) used by the DBMS model.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Event",
    "Simulator",
    "RandomStreams",
    "CpuPool",
    "DiskArray",
    "Priority",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.engine": ("Event", "Simulator"),
    "repro.sim.resources": ("CpuPool", "DiskArray", "Priority"),
    "repro.sim.rng": ("RandomStreams",),
})
