"""Event-loop profiling: event counts per subsystem and event type.

An :class:`EngineProfiler` attached to a
:class:`~repro.sim.engine.Simulator` (``sim.profiler = EngineProfiler()``)
counts every executed event, bucketed two ways:

* by the callback's defining module — the *subsystem* — so a profile
  answers "where do the events go: the DBMS state machine, the lock
  manager, the resources, the controller?";
* by the callback's *canonical qualname* — the logical event type —
  so it also answers "which transition is hot: ``_page_read_done``,
  ``_next_operation``, a disk completion?".

Every run, observed or not, dispatches through the same state-machine
methods, so one transition always keys the same way across
configurations, and two runs of one seed count the same.

The counting profiler times the event loop as a whole, once per
``Simulator.run``, not each event: a ``perf_counter`` pair per event
cost more than the counting.  Per-event wall time is the business of
the attribution profiler (:class:`repro.telemetry.perf.PerfProfiler`,
selected by ``--perf``), which sets :attr:`EngineProfiler.timed` and
receives each event through :meth:`EngineProfiler.record`.  Its
per-phase logical stacks, flamegraph export and allocation probes live
in :mod:`repro.telemetry.perf`.

The loop time makes the summary wall-clock, so it lands in the
non-deterministic ``profile.json``, outside the deterministic telemetry
files.
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
    """Per-subsystem and per-event-type event counts, plus the event
    loop's wall time.

    The simulator's side of the protocol (see ``Simulator.run``):

    * unless :attr:`timed` is set, it adds one to ``tally[callback]``
      per executed event — a dict increment, no call — and
      :meth:`end_run` folds the tally into the name buckets;
    * when :attr:`timed` is set (the attribution profiler), it times
      each event and calls :meth:`record` instead;
    * either way it calls :meth:`end_run` once per ``run`` with the
      loop's wall seconds.

    Buckets are ``[count, callback seconds]``; the seconds stay 0.0
    unless events arrive through :meth:`record`.
    """

    #: True when the simulator should time every event and call
    #: :meth:`record`; the counting profiler leaves it off.
    timed = False

    def __init__(self) -> None:
        self.events = 0
        self.callback_seconds = 0.0
        # Wall seconds inside Simulator.run, summed over runs.
        self.loop_seconds = 0.0
        # subsystem -> [event count, callback seconds]
        self.by_subsystem: Dict[str, list] = {}
        # canonical "subsystem.Class.method" -> [count, seconds]
        self.by_event_type: Dict[str, list] = {}
        # callback -> events since the last fold.  Bound methods compare
        # equal per (instance, function) and hash by the instance's
        # identity, so a method scheduled many times is one key, whatever
        # its instance's own __eq__/__hash__ (a callable object without
        # a hash could not be counted).  end_run empties it, so no
        # callback outlives its run here.
        self.tally: Dict[Callable[..., Any], int] = {}
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

    def _credit(self, callback: Callable[..., Any], count: int,
                seconds: float) -> None:
        """Credit ``count`` events of one callback to its buckets."""
        self.events += count
        subsystem, event_key = self._names_of(callback)
        bucket = self.by_subsystem.get(subsystem)
        if bucket is None:
            bucket = self.by_subsystem[subsystem] = [0, 0.0]
        bucket[0] += count
        bucket[1] += seconds
        bucket = self.by_event_type.get(event_key)
        if bucket is None:
            bucket = self.by_event_type[event_key] = [0, 0.0]
        bucket[0] += count
        bucket[1] += seconds

    def record(self, callback: Callable[..., Any], elapsed: float,
               args: tuple = ()) -> None:
        """Credit one timed event to its subsystem and event type.

        ``args`` is the event's argument tuple; this profiler ignores
        it, but subclasses (the attribution profiler) use it for
        page-class attribution, and the simulator always passes it.
        """
        self.callback_seconds += elapsed
        self._credit(callback, 1, elapsed)

    def end_run(self, seconds: float) -> None:
        """Account one ``Simulator.run``: its loop wall time, and the
        tallied events folded into the buckets."""
        self.loop_seconds += seconds
        for callback, count in self.tally.items():
            self._credit(callback, count, 0.0)
        self.tally.clear()

    @property
    def wall_seconds(self) -> float:
        """Wall time since the profiler was created."""
        return time.perf_counter() - self._epoch

    @property
    def events_per_second(self) -> float:
        """Events per wall second of the event loop."""
        loop = self.loop_seconds
        return self.events / loop if loop > 0.0 else 0.0

    def summary(self) -> Dict[str, Any]:
        """JSON-serializable profile (the profile.json payload).

        ``wall_seconds`` is the event loop's wall time.  Per-bucket
        ``seconds`` and the total ``callback_seconds`` appear only for
        a :attr:`timed` profiler; the counts are deterministic.
        """
        timed = self.timed

        def buckets(table: Dict[str, list]) -> Dict[str, Any]:
            return {
                name: ({"events": count, "seconds": seconds} if timed
                       else {"events": count})
                for name, (count, seconds) in sorted(table.items())
            }

        summary: Dict[str, Any] = {
            "events": self.events,
            "wall_seconds": self.loop_seconds,
            "events_per_second": self.events_per_second,
        }
        if timed:
            summary["callback_seconds"] = self.callback_seconds
        summary["subsystems"] = buckets(self.by_subsystem)
        summary["event_types"] = buckets(self.by_event_type)
        return summary

    def format(self) -> str:
        """Human-readable profile table: subsystems ranked by callback
        time when timed, else by event count."""
        lines = [f"{self.events} events in {self.loop_seconds:.2f}s of "
                 f"event loop ({self.events_per_second:,.0f} events/s)"]
        column = 1 if self.timed else 0
        total = sum(bucket[column]
                    for bucket in self.by_subsystem.values()) or 1.0
        ranked = sorted(self.by_subsystem.items(),
                        key=lambda kv: (-kv[1][column], kv[0]))
        for name, (count, seconds) in ranked:
            share = 100.0 * (seconds if self.timed else count) / total
            timing = f"{seconds:8.3f}s " if self.timed else ""
            lines.append(f"  {name:<24} {count:>10} events "
                         f"{timing}({share:5.1f}%)")
        return "\n".join(lines)
