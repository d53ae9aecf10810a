"""Wall-clock profiling of the simulation event loop.

An :class:`EngineProfiler` attached to a
:class:`~repro.sim.engine.Simulator` (``sim.profiler = EngineProfiler()``)
receives every executed event's callback and its ``time.perf_counter``
duration.  Events are bucketed two ways:

* by the callback's defining module — the *subsystem* — so a profile
  answers "where does the wall time go: the DBMS state machine, the
  lock manager, the resources, the controller?";
* by the callback's *canonical qualname* — the logical event type —
  so it also answers "which transition is hot: ``_page_read_done``,
  ``_next_operation``, a disk completion?".

Every run, observed or not, dispatches through the same state-machine
methods, so one transition always keys the same way across
configurations.

The profiler measures *wall* time and is therefore intentionally kept
out of the deterministic telemetry files; its summary lands in the
non-deterministic ``profile.json``.  The richer attribution profiler
(per-phase logical stacks, flamegraph export, allocation probes) lives
in :mod:`repro.telemetry.perf` and builds on this module.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Tuple

__all__ = ["EngineProfiler", "subsystem_of", "canonical_qualname"]

_PACKAGE_PREFIX = "repro."


def subsystem_of(callback: Callable[..., Any]) -> str:
    """The subsystem bucket for one event callback.

    The callback's defining module, minus the package prefix — e.g.
    ``DBMSSystem._page_read_done`` buckets under ``dbms.system`` and a
    disk completion under ``sim.resources.disk``.
    """
    module = getattr(callback, "__module__", None) or "<unknown>"
    if module.startswith(_PACKAGE_PREFIX):
        module = module[len(_PACKAGE_PREFIX):]
    return module


def canonical_qualname(callback: Callable[..., Any]) -> str:
    """The logical event-type key for one event callback.

    The callback's ``__qualname__``; callables without one (rare:
    partials, C callables) key as their ``__name__`` or type name.
    """
    qual = getattr(callback, "__qualname__", None)
    if qual is None:
        qual = getattr(callback, "__name__", None)
        if qual is None:
            qual = type(callback).__name__
    return qual


class EngineProfiler:
    """Per-subsystem and per-event-type counts and wall-clock timings.

    The simulator calls :meth:`record` once per executed event; the
    profiler also keeps its own ``perf_counter`` epoch so
    :meth:`summary` can report events per wall-second including loop
    overhead, not just callback time.
    """

    def __init__(self) -> None:
        self.events = 0
        self.callback_seconds = 0.0
        # subsystem -> [event count, callback seconds]
        self.by_subsystem: Dict[str, list] = {}
        # canonical "subsystem.Class.method" -> [count, seconds]
        self.by_event_type: Dict[str, list] = {}
        # (module, raw qualname) -> (subsystem, canonical event key);
        # bound methods are fresh objects per attribute access, so the
        # memo keys on the underlying names, not the callback object.
        self._names: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self._epoch = time.perf_counter()

    def _names_of(self, callback: Callable[..., Any]) -> Tuple[str, str]:
        """Memoized ``(subsystem, canonical event key)`` of a callback."""
        raw = (getattr(callback, "__module__", None) or "<unknown>",
               getattr(callback, "__qualname__", None) or "<callable>")
        names = self._names.get(raw)
        if names is None:
            subsystem = subsystem_of(callback)
            names = (subsystem,
                     f"{subsystem}.{canonical_qualname(callback)}")
            self._names[raw] = names
        return names

    def record(self, callback: Callable[..., Any], elapsed: float,
               args: tuple = ()) -> None:
        """Credit one executed event to its subsystem and event type.

        ``args`` is the event's argument tuple; this profiler ignores
        it, but subclasses (the attribution profiler) use it for
        page-class attribution, and the simulator always passes it.
        """
        self.events += 1
        self.callback_seconds += elapsed
        subsystem, event_key = self._names_of(callback)
        bucket = self.by_subsystem.get(subsystem)
        if bucket is None:
            bucket = self.by_subsystem[subsystem] = [0, 0.0]
        bucket[0] += 1
        bucket[1] += elapsed
        bucket = self.by_event_type.get(event_key)
        if bucket is None:
            bucket = self.by_event_type[event_key] = [0, 0.0]
        bucket[0] += 1
        bucket[1] += elapsed

    @property
    def wall_seconds(self) -> float:
        """Wall time since the profiler was created."""
        return time.perf_counter() - self._epoch

    @property
    def events_per_second(self) -> float:
        wall = self.wall_seconds
        return self.events / wall if wall > 0.0 else 0.0

    def summary(self) -> Dict[str, Any]:
        """JSON-serializable profile (the profile.json payload)."""
        subsystems = {
            name: {"events": count, "seconds": seconds}
            for name, (count, seconds) in sorted(self.by_subsystem.items())
        }
        event_types = {
            name: {"events": count, "seconds": seconds}
            for name, (count, seconds) in sorted(self.by_event_type.items())
        }
        return {
            "events": self.events,
            "wall_seconds": self.wall_seconds,
            "callback_seconds": self.callback_seconds,
            "events_per_second": self.events_per_second,
            "subsystems": subsystems,
            "event_types": event_types,
        }

    def format(self) -> str:
        """Human-readable profile table."""
        lines = [f"{self.events} events in {self.wall_seconds:.2f}s wall "
                 f"({self.events_per_second:,.0f} events/s)"]
        total = self.callback_seconds or 1.0
        ranked = sorted(self.by_subsystem.items(),
                        key=lambda kv: kv[1][1], reverse=True)
        for name, (count, seconds) in ranked:
            lines.append(f"  {name:<24} {count:>10} events "
                         f"{seconds:8.3f}s ({100.0 * seconds / total:5.1f}%)")
        return "\n".join(lines)
