"""Hot-path attribution profiling and flamegraph / trace export.

The coarse :class:`~repro.telemetry.profiling.EngineProfiler` answers
"which subsystem is slow"; this module answers "which *transition* is
slow, in which run phase, doing what kind of page work" — the
attribution the ROADMAP's kernel-speed campaign needs to pick its next
target.  Three pieces:

* :class:`PerfProfiler` — an :class:`EngineProfiler` subclass that
  additionally buckets every event under a four-frame logical stack
  ``phase → subsystem → event type → page class``.  Phases are set by
  the caller (:func:`~repro.experiments.runner.run_simulation` marks
  ``warmup`` and ``measure``); the page class is derived from the
  event's first argument when it is a transaction (reading its
  position in the read set — strictly read-only, no model impact).
  The profiler also rides the probe event as a listener, recording a
  wall-clock events/sec tick per probe sample.
* :class:`AllocationProbe` — optional ``tracemalloc`` + ``gc``
  attribution: per-tick GC counter deltas and traced-memory
  high-water marks, plus a final top-allocation-sites table.
* Export builders — :func:`collapsed_stacks` (Brendan Gregg collapsed
  format, one ``frame;frame;... weight`` line per stack),
  :func:`speedscope_document` (a sampled-profile speedscope JSON
  file), and :func:`chrome_trace_document` (a Chrome trace-event
  ``trace.json`` synthesized from the per-transaction spans and probe
  samples, loadable in Perfetto / ``chrome://tracing``).

Everything here measures *wall* time, so the exported ``perf.json`` /
flamegraphs / ``trace.json`` are quarantined alongside
``profile.json`` as the non-deterministic artifacts of a run; the
zero-cost-off contract still holds — attaching a :class:`PerfProfiler`
never changes the simulated trajectory, and every pre-existing
telemetry file stays byte-identical with profiling on or off.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.telemetry.profiling import EngineProfiler

__all__ = [
    "PERF_FORMAT",
    "PerfProfiler",
    "AllocationProbe",
    "page_class_of",
    "collapsed_stacks",
    "speedscope_document",
    "chrome_trace_document",
]

PERF_FORMAT = "repro-perf-v1"

# The phase used before the caller ever calls set_phase(): one frame
# that makes untagged stacks self-describing rather than empty.
_DEFAULT_PHASE = "run"


def page_class_of(args: Tuple[Any, ...]) -> str:
    """The page-class frame for one event's argument tuple.

    Events whose first argument is a transaction are classified by
    where the transaction stands in its page program: still inside the
    read set → ``read_page``; past it with deferred writes to install
    → ``write_page``; past it with nothing to write → ``commit_path``.
    Everything else (resource completions, probe ticks, arrivals)
    classifies as ``-``.  Strictly read-only duck typing.
    """
    if not args:
        return "-"
    txn = args[0]
    step = getattr(txn, "step_index", None)
    readset = getattr(txn, "readset", None)
    if step is None or readset is None:
        return "-"
    if step < len(readset):
        return "read_page"
    if getattr(txn, "writeset", None):
        return "write_page"
    return "commit_path"


class PerfProfiler(EngineProfiler):
    """Attribution profiler: logical stacks plus wall-clock ticks.

    Extends the coarse engine profiler with:

    * ``stacks`` — ``(phase, subsystem, event_type, page_class)`` →
      ``[count, seconds]``, the flamegraph input.  Event types are the
      canonical qualnames, keyed exactly as in the base buckets.
    * ``ticks`` — one wall-clock throughput sample per probe firing
      (the profiler registers as a probe listener); each tick carries
      the events and wall seconds since the previous tick plus, when
      an :class:`AllocationProbe` is attached, GC/allocation deltas.
    * ``phases`` — per-phase event counts and seconds; the runner
      marks ``warmup`` and ``measure`` via :meth:`set_phase`.
    """

    def __init__(self, alloc: Optional["AllocationProbe"] = None):
        super().__init__()
        self.alloc = alloc
        self.phase = _DEFAULT_PHASE
        # (phase, subsystem, event_type, page_class) -> [count, seconds]
        self.stacks: Dict[Tuple[str, str, str, str], list] = {}
        self.ticks: List[Dict[str, Any]] = []
        self._tick_events = 0
        self._tick_wall = 0.0

    def set_phase(self, name: str) -> None:
        """Mark the run phase subsequent events are attributed to."""
        self.phase = name

    def record(self, callback: Callable[..., Any], elapsed: float,
               args: tuple = ()) -> None:
        super().record(callback, elapsed, args)
        _, event_key = self._names_of(callback)
        key = (self.phase, *self._stack_tail(callback, event_key),
               page_class_of(args))
        bucket = self.stacks.get(key)
        if bucket is None:
            bucket = self.stacks[key] = [0, 0.0]
        bucket[0] += 1
        bucket[1] += elapsed

    def _stack_tail(self, callback: Callable[..., Any],
                    event_key: str) -> Tuple[str, str]:
        """``(subsystem, event type)`` frames for one callback."""
        raw = (getattr(callback, "__module__", None) or "<unknown>",
               getattr(callback, "__qualname__", None) or "<callable>")
        subsystem = self._names[raw][0]
        # event_key is "<subsystem>.<canonical qualname>".
        return subsystem, event_key[len(subsystem) + 1:]

    # -- probe listener -------------------------------------------------

    def on_sample(self, sample: Any) -> None:
        """Record one wall-clock throughput tick (probe listener hook).

        Read-only with respect to the simulation: the tick is derived
        entirely from the profiler's own counters and the wall clock.
        """
        events = self.events
        wall = self.wall_seconds
        d_events = events - self._tick_events
        d_wall = wall - self._tick_wall
        self._tick_events = events
        self._tick_wall = wall
        tick: Dict[str, Any] = {
            "time": sample.time,
            "events": d_events,
            "wall_seconds": d_wall,
            "events_per_sec": (d_events / d_wall if d_wall > 0.0 else 0.0),
        }
        if self.alloc is not None:
            tick.update(self.alloc.tick())
        self.ticks.append(tick)

    # -- export ---------------------------------------------------------

    def stack_rows(self) -> List[Dict[str, Any]]:
        """Flattened per-stack attribution rows, hottest first."""
        rows = []
        for (phase, subsystem, event_type, page_class), \
                (count, seconds) in self.stacks.items():
            rows.append({
                "phase": phase,
                "subsystem": subsystem,
                "event_type": event_type,
                "page_class": page_class,
                "events": count,
                "seconds": seconds,
                "ns_per_event": (seconds * 1e9 / count if count else 0.0),
            })
        rows.sort(key=lambda r: (-r["seconds"], r["phase"],
                                 r["subsystem"], r["event_type"],
                                 r["page_class"]))
        return rows

    def phase_totals(self) -> Dict[str, Dict[str, Any]]:
        """Per-phase event counts and exclusive seconds."""
        phases: Dict[str, Dict[str, Any]] = {}
        for (phase, _, _, _), (count, seconds) in self.stacks.items():
            bucket = phases.setdefault(phase, {"events": 0, "seconds": 0.0})
            bucket["events"] += count
            bucket["seconds"] += seconds
        return {name: phases[name] for name in sorted(phases)}

    def perf_summary(self) -> Dict[str, Any]:
        """The ``perf.json`` payload (wall-clock, non-deterministic)."""
        summary: Dict[str, Any] = {
            "format": PERF_FORMAT,
            "events": self.events,
            "wall_seconds": self.wall_seconds,
            "callback_seconds": self.callback_seconds,
            "events_per_second": self.events_per_second,
            "phases": self.phase_totals(),
            "stacks": self.stack_rows(),
            "ticks": list(self.ticks),
            "alloc": (self.alloc.summary()
                      if self.alloc is not None else None),
        }
        return summary


class AllocationProbe:
    """Optional ``tracemalloc`` + ``gc`` attribution for a profiled run.

    Constructed before the run (tracing must cover it); each probe tick
    calls :meth:`tick` for the per-interval deltas, and
    :meth:`summary` renders the final top-allocation-sites table.  If
    ``tracemalloc`` was already tracing (e.g. started by the caller or
    ``PYTHONTRACEMALLOC``), the probe leaves it running on
    :meth:`stop`; otherwise it owns the lifecycle.
    """

    def __init__(self, top_n: int = 5):
        self.top_n = top_n
        self._owns_tracing = not tracemalloc.is_tracing()
        if self._owns_tracing:
            tracemalloc.start()
        stats = gc.get_stats()
        self._gc_collections = sum(s["collections"] for s in stats)
        self._gc_collected = sum(s["collected"] for s in stats)
        self._stopped = False
        self._top_sites: List[Dict[str, Any]] = []
        self._peak_kb = 0.0

    def tick(self) -> Dict[str, Any]:
        """GC and traced-memory deltas since the previous tick."""
        stats = gc.get_stats()
        collections = sum(s["collections"] for s in stats)
        collected = sum(s["collected"] for s in stats)
        current, peak = tracemalloc.get_traced_memory()
        self._peak_kb = max(self._peak_kb, peak / 1024.0)
        tick = {
            "gc_collections": collections - self._gc_collections,
            "gc_collected": collected - self._gc_collected,
            "traced_kb": current / 1024.0,
        }
        self._gc_collections = collections
        self._gc_collected = collected
        return tick

    def top_sites(self) -> List[Dict[str, Any]]:
        """Top allocation sites by traced size, right now."""
        if self._stopped:
            return list(self._top_sites)
        snapshot = tracemalloc.take_snapshot()
        sites = []
        for stat in snapshot.statistics("lineno")[:self.top_n]:
            frame = stat.traceback[0]
            # Shorten absolute paths to the last two components so the
            # table is stable across checkouts.
            parts = frame.filename.replace("\\", "/").rsplit("/", 2)
            site = "/".join(parts[-2:])
            sites.append({
                "site": f"{site}:{frame.lineno}",
                "kb": stat.size / 1024.0,
                "count": stat.count,
            })
        return sites

    def stop(self) -> None:
        """Capture the final site table; stop tracing if we started it."""
        if self._stopped:
            return
        self._top_sites = self.top_sites()
        self._stopped = True
        if self._owns_tracing:
            tracemalloc.stop()

    def summary(self) -> Dict[str, Any]:
        """The ``alloc`` section of ``perf.json``."""
        return {
            "peak_traced_kb": self._peak_kb,
            "top_sites": self.top_sites(),
        }


# ---------------------------------------------------------------------------
# Flamegraph / trace export


def collapsed_stacks(profiler: PerfProfiler) -> str:
    """The profile in Brendan Gregg's collapsed-stack format.

    One ``phase;subsystem;event_type;page_class weight`` line per
    logical stack, weights in integer microseconds (the conventional
    unit for wall-clock collapses), sorted by stack so the text is
    stable for a given profile.  Feed to ``flamegraph.pl`` or paste
    into speedscope directly.
    """
    lines = []
    for key in sorted(profiler.stacks):
        count, seconds = profiler.stacks[key]
        micros = max(1, round(seconds * 1e6))
        lines.append(";".join(key) + f" {micros}")
    return "\n".join(lines) + ("\n" if lines else "")


def speedscope_document(profiler: PerfProfiler,
                        name: str = "repro-perf") -> Dict[str, Any]:
    """The profile as a speedscope sampled-profile JSON document.

    Each logical stack becomes one sample whose weight is its total
    exclusive wall time in microseconds; frames are shared across
    samples per the speedscope file format
    (https://www.speedscope.app/file-format-schema.json).
    """
    frames: List[Dict[str, Any]] = []
    frame_index: Dict[str, int] = {}

    def intern(frame_name: str) -> int:
        index = frame_index.get(frame_name)
        if index is None:
            index = frame_index[frame_name] = len(frames)
            frames.append({"name": frame_name})
        return index

    samples: List[List[int]] = []
    weights: List[float] = []
    total = 0.0
    for key in sorted(profiler.stacks):
        _, seconds = profiler.stacks[key]
        micros = seconds * 1e6
        samples.append([intern(frame) for frame in key])
        weights.append(micros)
        total += micros
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "exporter": PERF_FORMAT,
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [{
            "type": "sampled",
            "name": name,
            "unit": "microseconds",
            "startValue": 0,
            "endValue": total,
            "samples": samples,
            "weights": weights,
        }],
    }


def chrome_trace_document(spans: Iterable[Any],
                          probes: Iterable[Any],
                          profiler: Optional[PerfProfiler] = None,
                          name: str = "repro-run") -> Dict[str, Any]:
    """A Chrome trace-event document for Perfetto / chrome://tracing.

    Synthesized from the deterministic simulated-time telemetry:

    * every closed transaction span becomes a ``"X"`` complete event
      (pid 1, tid = transaction id, ts/dur in simulated microseconds),
      so a transaction's ready-wait / service / lock-wait timeline
      reads as one horizontal track per transaction;
    * every probe sample becomes ``"C"`` counter events (population
      states and resource utilization) on the metadata track, giving
      the timeline the thrashing trajectory as stacked counters;
    * metadata ``"M"`` events name the process and counter track.

    Wall-clock profiler totals, when a profiler is supplied, ride in
    ``otherData`` — visible in the viewer's info panel but quarantined
    away from the deterministic event list.
    """
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": name}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "system"}},
    ]
    for span in spans:
        row = span.to_dict() if hasattr(span, "to_dict") else dict(span)
        args = {"attempt": row["attempt"]}
        for extra in ("page", "blocker", "depth"):
            if row.get(extra) is not None:
                args[extra] = row[extra]
        events.append({
            "name": row["kind"],
            "cat": "txn",
            "ph": "X",
            "pid": 1,
            "tid": row["txn_id"],
            "ts": row["start"] * 1e6,
            "dur": (row["end"] - row["start"]) * 1e6,
            "args": args,
        })
    for sample in probes:
        row = (sample.to_dict()
               if hasattr(sample, "to_dict") else dict(sample))
        ts = row["time"] * 1e6
        events.append({
            "name": "populations", "cat": "probe", "ph": "C",
            "pid": 1, "tid": 0, "ts": ts,
            "args": {"state1": row["n_state1"],
                     "state2": row["n_state2"],
                     "state3": row["n_state3"],
                     "state4": row["n_state4"]},
        })
        events.append({
            "name": "utilization", "cat": "probe", "ph": "C",
            "pid": 1, "tid": 0, "ts": ts,
            "args": {"cpu": row["cpu_util"], "disk": row["disk_util"]},
        })
    other: Dict[str, Any] = {
        "generator": PERF_FORMAT,
        "python": sys.version.split()[0],
    }
    if profiler is not None:
        other["wall_seconds"] = profiler.wall_seconds
        other["events"] = profiler.events
        other["events_per_second"] = profiler.events_per_second
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }
