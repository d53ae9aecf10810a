"""Simulated-system faults: transient resource-degradation windows.

A :class:`FaultSchedule` injects disturbances *inside* the simulated
DBMS — the disks transiently slow down, the CPUs transiently degrade —
so the load controllers can be measured on the paper's real claim:
holding the operating point through a disturbance, not just at steady
state.  Windows are fixed simulated-time intervals, installed as
ordinary calendar events, so a faulted run is exactly as deterministic
(and cacheable) as a clean one.

Mechanically a window scales the affected resource's
``service_scale`` — every service demand issued while the window is
open takes ``severity`` times longer.  Overlapping windows compose
multiplicatively.  Window transitions are annotated in the telemetry
decision log (actions ``fault_begin`` / ``fault_end``) so exported
runs show exactly when the disturbance held.

Windows also install onto a
:class:`~repro.distributed.system.DistributedSystem`: a window with
``site=N`` scales that one site's CPU pool or disk array, a window
with ``site=None`` scales every site's — modelling cluster-wide vs.
single-site degradation.  ``site=`` on a single-site system is a
configuration error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import ExperimentError
from repro.telemetry.decisions import DecisionAction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dbms.system import DBMSSystem

__all__ = ["SystemFaultKind", "FaultWindow", "FaultSchedule"]


class SystemFaultKind:
    """The injectable simulated-resource disturbances."""

    DISK_SLOWDOWN = "disk_slowdown"
    CPU_DEGRADATION = "cpu_degradation"

    ALL = (DISK_SLOWDOWN, CPU_DEGRADATION)


@dataclass(frozen=True)
class FaultWindow:
    """One disturbance: ``kind`` at ``severity`` over [start, end).

    ``severity`` is the service-time multiplier while the window is
    open: 2.0 means disk accesses (or CPU bursts) take twice as long.
    ``severity == 1.0`` is a no-op window (useful as a sweep baseline).
    ``site`` targets one site of a distributed system (``None`` means
    the whole system — every site, when distributed).
    """

    kind: str
    start: float
    duration: float
    severity: float = 2.0
    site: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in SystemFaultKind.ALL:
            raise ExperimentError(
                f"unknown system fault kind {self.kind!r}; "
                f"known: {', '.join(SystemFaultKind.ALL)}")
        if self.start < 0.0:
            raise ExperimentError(
                f"fault window start must be >= 0, got {self.start}")
        if self.duration <= 0.0:
            raise ExperimentError(
                f"fault window duration must be > 0, got {self.duration}")
        if self.severity <= 0.0:
            raise ExperimentError(
                f"fault severity must be > 0, got {self.severity}")
        if self.site is not None and self.site < 0:
            raise ExperimentError(
                f"fault window site must be >= 0, got {self.site}")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def __str__(self) -> str:
        where = f"site{self.site}:" if self.site is not None else ""
        return (f"{where}{self.kind}×{self.severity:g} "
                f"@[{self.start:g},{self.end:g})")


@dataclass(frozen=True)
class FaultSchedule:
    """A picklable set of fault windows, installed onto one system.

    Carried by :class:`~repro.experiments.parallel.RunSpec` (and part
    of its cache key), handed to
    :func:`~repro.experiments.runner.run_simulation`, which calls
    :meth:`install` after the system is built and before it starts.
    """

    windows: Tuple[FaultWindow, ...] = ()

    def install(self, system: "DBMSSystem") -> None:
        """Schedule begin/end events for every window.

        ``system`` is a single-site :class:`~repro.dbms.system.
        DBMSSystem` or a :class:`~repro.distributed.system.
        DistributedSystem` (duck-typed on its ``site_views``).
        Site-targeted windows are validated here, before anything is
        scheduled.
        """
        for window in self.windows:
            if window.site is not None:
                if not hasattr(system, "site_views"):
                    raise ExperimentError(
                        f"{window} targets a site, but the system is "
                        f"single-site")
                if window.site >= len(system.sites):
                    raise ExperimentError(
                        f"{window} targets site {window.site}; the "
                        f"system has {len(system.sites)} sites")
        for window in self.windows:
            system.sim.schedule_at(window.start, self._begin,
                                   system, window)
            system.sim.schedule_at(window.end, self._end, system, window)

    def _resources(self, system, window: FaultWindow) -> List:
        disk = window.kind == SystemFaultKind.DISK_SLOWDOWN
        if hasattr(system, "site_views"):
            sites = (system.sites if window.site is None
                     else [system.sites[window.site]])
            return [s.disks if disk else s.cpu for s in sites]
        return [system.disks if disk else system.cpu]

    def _log(self, system, window: FaultWindow, action: str,
             detail: str) -> None:
        if hasattr(system, "site_views"):
            # Attributed to the faulted site (or "network"-style
            # cluster-wide pseudo-controller when site is None).
            system._log_site_event(window.site, action,
                                   measure=window.severity,
                                   detail=detail)
        else:
            system.controller.log_decision(action,
                                           measure=window.severity,
                                           detail=detail)

    def _begin(self, system, window: FaultWindow) -> None:
        for resource in self._resources(system, window):
            resource.service_scale *= window.severity
            scale = resource.service_scale
        self._log(system, window, DecisionAction.FAULT_BEGIN,
                  f"{window} open; service_scale={scale:g}")

    def _end(self, system, window: FaultWindow) -> None:
        for resource in self._resources(system, window):
            resource.service_scale /= window.severity
            scale = resource.service_scale
        self._log(system, window, DecisionAction.FAULT_END,
                  f"{window} closed; service_scale={scale:g}")

    def __bool__(self) -> bool:
        return bool(self.windows)

    def __str__(self) -> str:
        return "; ".join(str(w) for w in self.windows) or "no-faults"
