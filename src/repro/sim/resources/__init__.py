"""Physical resource models (CPU pool and disk array).

These implement the physical queuing model of the paper's Figure 6: a pool
of CPU servers shared through a single FCFS queue in which concurrency
control requests have priority, and a collection of disks each with its own
FCFS queue.
"""

from repro._lazy import lazy_exports

__all__ = ["CpuPool", "Priority", "DiskArray"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.resources.cpu": ("CpuPool", "Priority"),
    "repro.sim.resources.disk": ("DiskArray",),
})
