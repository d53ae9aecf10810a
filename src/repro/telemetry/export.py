"""Structured telemetry export: JSONL streams plus a per-run manifest.

A :class:`TelemetrySession` bundles the three observers — a
:class:`~repro.metrics.trace.Tracer`, a
:class:`~repro.telemetry.decisions.DecisionLog`, and a
:class:`~repro.telemetry.probes.ProbeScheduler` — installs them on a
:class:`~repro.dbms.system.DBMSSystem` (centralized, or a
:class:`~repro.distributed.system.DistributedSystem`: one
:meth:`TelemetrySession.install` serves both), and, after the run,
serializes everything into one directory:

* ``manifest.json``   — provenance (seed, parameters, spec hash,
  package fingerprint, record counts).  Fully deterministic: two runs
  of the same spec produce byte-identical manifests regardless of
  process layout.
* ``probes.jsonl`` / ``decisions.jsonl`` / ``trace.jsonl`` — one
  compact JSON object per line, sorted keys, deterministic bytes;
  a distributed run adds ``site_probes.jsonl``, the per-site rows;
* ``spans.jsonl`` / ``latency.json``, ``contention.jsonl`` /
  ``contention.json`` and ``regimes.json`` — from the observers the
  session switches on, on either system kind.
* ``profile.json``    — the run's wall time and the event-loop
  profile: events counted per subsystem and per event type (the counts
  are deterministic), the loop's wall time, and per-event callback
  seconds only when ``perf`` is on.  The one wall-clock file of a
  session without ``perf`` (``perf`` adds its own, listed under
  :class:`TelemetryConfig`), so byte-comparing everything else across
  serial and process-pool execution is a valid equivalence check.

``trace.jsonl``, ``spans.jsonl`` and ``decisions.jsonl`` are written
by fixed-field row encoders over the observers' tuples, not through
per-record dicts.  Their time fields go through one memo of ``repr``
strings per stream, bounded at :data:`_MEMO_BOUND` entries, because
many rows share an instant; every stream is written
:data:`_CHUNK_ROWS` lines per ``write`` call.  The bytes are those of
the shared ``sort_keys`` encoder either way.

A :class:`TelemetryConfig` is the picklable recipe for sessions —
:func:`repro.experiments.parallel.run_specs` ships one across the
process pool and each worker opens its own session in a per-spec
subdirectory.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import astuple, dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Dict, Iterable, Mapping, Optional,
                    Union)

from repro.errors import ConfigurationError
from repro.fingerprint import code_fingerprint
from repro.metrics.trace import TraceEvent, Tracer, TraceRow
from repro.telemetry.decisions import (ControllerDecision, DecisionLog,
                                       DecisionRow)
from repro.telemetry.probes import ProbeScheduler
from repro.telemetry.profiling import EngineProfiler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dbms.system import DBMSSystem
    from repro.telemetry.contention import ContentionMonitor
    from repro.telemetry.online import OnlineRegimeMonitor
    from repro.telemetry.perf import PerfProfiler
    from repro.telemetry.spans import SpanRecorder, SpanRow

__all__ = [
    "TELEMETRY_FORMAT",
    "TelemetryConfig",
    "TelemetrySession",
    "decision_row",
    "json_dump",
    "jsonl_dump",
    "span_row",
    "trace_event_to_dict",
    "trace_row",
    "write_cache_hit_manifest",
]

TELEMETRY_FORMAT = "repro-telemetry-v1"

# The module behind each observer switch of a session (``alloc`` rides
# on ``perf``).  A session imports one only when its switch is on, so a
# run loads no observer it does not attach; ``run_specs`` imports the
# same modules before its pool forks, so every worker inherits them.
_OBSERVER_MODULES = {
    "spans": "repro.telemetry.spans",
    "contention": "repro.telemetry.contention",
    "online": "repro.telemetry.online",
    "perf": "repro.telemetry.perf",
}


# One shared encoder: ``json.dumps`` with non-default options builds a
# fresh JSONEncoder per call, i.e. per exported record.  The encoder is
# stateless between ``encode`` calls, so sharing it yields the same bytes.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def json_dump(obj: Any, path: Union[str, Path]) -> Path:
    """Write one JSON document with deterministic bytes."""
    path = Path(path)
    path.write_text(_ENCODER.encode(obj) + "\n", encoding="utf-8")
    return path


def jsonl_dump(records: Iterable[Mapping[str, Any]],
               path: Union[str, Path]) -> Path:
    """Write records as JSON Lines with deterministic bytes."""
    path = Path(path)
    _write_rows(map(_ENCODER.encode, records), path)
    return path


# Fixed-field row encoders.  ``trace.jsonl``, ``spans.jsonl`` and
# ``decisions.jsonl`` hold one flat record per line whose field types
# are known, so each row is one format string over its fields (keys in
# sorted order), with no per-record dict and no per-field call:
#
# * an enum member is written as the precomputed JSON string of its
#   value (_ENUM_JSON);
# * an int is written by the format string (``str(int)`` is the JSON
#   form), a finite float likewise (``str(float)`` is ``repr``, which is
#   what the encoder writes), and None as ``null``;
# * a finite float time field is looked up in its stream's memo of
#   ``repr`` strings (_FloatReprs): many rows share an instant, so most
#   instants are formatted once;
# * a string goes through ``encode_basestring_ascii``, the function the
#   encoder itself calls.
#
# A row with any other value — a non-finite float, an int or float
# subclass, an unexpected type — falls back to
# ``_ENCODER.encode(record.to_dict())`` as a whole, so every row's bytes
# equal that call's.


class _JsonStrings(dict):
    """``str`` → its JSON string literal, computed on first use."""

    def __missing__(self, key: str) -> str:
        encoded = self[key] = _json_str(key)
        return encoded


# Keyed by member value: a str key hashes in C, where an enum member's
# hash is a Python-level call.  Member values are few and fixed.
_ENUM_JSON = _JsonStrings()

# Entries a time memo holds before it starts over.  The rows of a
# stream come in time order, so recent instants are the ones that
# repeat: on seed-1 ``observed``, 48.5% of the 17,828 time fields hit a
# memo bounded at 256, 54.5% an unbounded one.  A bound of 1,024 (52.6%)
# raised the run's peak RSS by about 0.2 MB; 256 leaves it flat.
_MEMO_BOUND = 256


class _FloatReprs(dict):
    """Finite ``float`` → its ``repr``, computed on first use; emptied
    when it reaches :data:`_MEMO_BOUND` entries.

    ``-0.0 == 0.0`` with equal hashes, so the two would share one key:
    zeros are never stored, and each lookup of one formats its own
    sign.  Callers check that the key is a finite ``float`` first (a NaN
    key would never hit).
    """

    def __missing__(self, key: float) -> str:
        text = repr(key)
        if key:
            if len(self) >= _MEMO_BOUND:
                self.clear()
            self[key] = text
        return text


# One memo per stream, so that streams encoded side by side do not
# evict each other's recent instants.
_TRACE_TIMES = _FloatReprs()
_SPAN_TIMES = _FloatReprs()
_DECISION_TIMES = _FloatReprs()


def trace_row(row: TraceRow) -> str:
    """The trace.jsonl line for one trace row (no newline)."""
    time, event_type, txn_id, detail = row
    if (time.__class__ is float and time - time == 0.0
            and txn_id.__class__ is int and detail.__class__ is str):
        return (f'{{"detail":{_json_str(detail)},'
                f'"time":{_TRACE_TIMES[time]},"txn_id":{txn_id},'
                f'"type":{_ENUM_JSON[event_type._value_]}}}')
    return _ENCODER.encode(trace_event_to_dict(TraceEvent(*row)))


def span_row(row: SpanRow) -> str:
    """The spans.jsonl line for one recorded span row (no newline)."""
    txn_id, kind, start, end, attempt, page, blocker, depth = row
    if (start.__class__ is float and start - start == 0.0
            and end.__class__ is float and end - end == 0.0
            and txn_id.__class__ is int and attempt.__class__ is int
            and (page is None or page.__class__ is int)
            and (blocker is None or blocker.__class__ is int)
            and (depth is None or depth.__class__ is int)):
        return (f'{{"attempt":{attempt},'
                f'"blocker":{"null" if blocker is None else blocker},'
                f'"depth":{"null" if depth is None else depth},'
                f'"end":{_SPAN_TIMES[end]},'
                f'"kind":{_ENUM_JSON[kind._value_]},'
                f'"page":{"null" if page is None else page},'
                f'"start":{_SPAN_TIMES[start]},"txn_id":{txn_id}}}')
    from repro.telemetry.spans import Span    # optional observer module
    return _ENCODER.encode(Span(*row).to_dict())


def decision_row(d: ControllerDecision) -> str:
    """The decisions.jsonl line for one controller decision (no
    newline)."""
    return _decision_row(astuple(d))


def _decision_row(row: DecisionRow) -> str:
    """The decisions.jsonl line for one :data:`DecisionRow` (no
    newline): what the exporter encodes, without building the
    :class:`ControllerDecision`."""
    (time, controller, action, region, n_active, n_state1, n_state3,
     txn_id, measure, threshold, detail) = row
    if (time.__class__ is float and time - time == 0.0
            and controller.__class__ is str
            and action.__class__ is str and detail.__class__ is str
            and (region is None or region.__class__ is str)
            and n_active.__class__ is int and n_state1.__class__ is int
            and n_state3.__class__ is int
            and (txn_id is None or txn_id.__class__ is int)
            and (measure is None or measure.__class__ is int
                 or (measure.__class__ is float
                     and measure - measure == 0.0))
            and (threshold is None or threshold.__class__ is int
                 or (threshold.__class__ is float
                     and threshold - threshold == 0.0))):
        # ControllerDecision.frac_state1/frac_state3, inline.
        frac1 = n_state1 / n_active if n_active else 0.0
        frac3 = n_state3 / n_active if n_active else 0.0
        return (f'{{"action":{_json_str(action)},'
                f'"controller":{_json_str(controller)},'
                f'"detail":{_json_str(detail)},'
                f'"frac_state1":{frac1!r},"frac_state3":{frac3!r},'
                f'"measure":{"null" if measure is None else measure},'
                f'"n_active":{n_active},"n_state1":{n_state1},'
                f'"n_state3":{n_state3},'
                f'"region":{"null" if region is None else _json_str(region)},'
                f'"threshold":{"null" if threshold is None else threshold},'
                f'"time":{_DECISION_TIMES[time]},'
                f'"txn_id":{"null" if txn_id is None else txn_id}}}')
    return _ENCODER.encode(ControllerDecision(*row).to_dict())


# Rows joined per write: one ``write`` per line costs a
# TextIOWrapper call each, one ``write`` per file would hold every line
# at once.
_CHUNK_ROWS = 256


def _write_rows(rows: Iterable[str], path: Path) -> None:
    """Write pre-encoded JSON Lines rows, one per line, joining
    :data:`_CHUNK_ROWS` rows per ``write``.  The rows stream through
    it: no list of every line of a file is held at once."""
    rows = iter(rows)
    with path.open("w", encoding="utf-8") as fh:
        while True:
            chunk = list(islice(rows, _CHUNK_ROWS))
            if not chunk:
                return
            chunk.append("")            # the last line's newline
            fh.write("\n".join(chunk))


def trace_event_to_dict(event: TraceEvent) -> Dict[str, Any]:
    """The trace.jsonl record for one trace event."""
    return {
        "time": event.time,
        "type": event.event_type.value,
        "txn_id": event.txn_id,
        "detail": event.detail,
    }


@dataclass(frozen=True)
class TelemetryConfig:
    """Picklable recipe for per-run telemetry sessions.

    Attributes:
        root: directory under which each run gets its own subdirectory.
        probe_interval: simulated seconds between probe samples.
        trace_capacity / decision_capacity: retention bounds for the
            trace and decision log (``None`` = unbounded).
        profile: attach an :class:`EngineProfiler` to the event loop
            (event counts per subsystem and event type, loop wall
            time; ``perf`` replaces it with the timed profiler).
        spans: attach a :class:`~repro.telemetry.spans.SpanRecorder`
            (per-transaction span timelines + latency analytics); the
            run directory gains ``spans.jsonl`` and ``latency.json``.
        span_capacity: retention bound for closed spans (``None`` =
            unbounded); the latency analytics see every span either way.
        contention: attach a
            :class:`~repro.telemetry.contention.ContentionMonitor`
            (per-page heat + wait-for-graph statistics); the run
            directory gains ``contention.jsonl`` and ``contention.json``.
        online: attach an
            :class:`~repro.telemetry.online.OnlineRegimeMonitor`
            (streaming regime detection over the probe stream); the
            run directory gains ``regimes.json`` and the decision log
            gains ``regime_change`` rows.
        perf: attach a :class:`~repro.telemetry.perf.PerfProfiler`
            (hot-path attribution over the logical stack phase →
            subsystem → event type → page class); the run directory
            gains ``perf.json``, ``flame.collapsed``,
            ``flame.speedscope.json``, and ``trace.json`` — all
            wall-clock artifacts, quarantined like ``profile.json``.
        alloc: additionally attach an
            :class:`~repro.telemetry.perf.AllocationProbe`
            (``tracemalloc`` top sites + per-tick GC deltas inside
            ``perf.json``); implies wall-clock overhead, requires
            ``perf``.
    """

    root: str
    probe_interval: float = 1.0
    trace_capacity: Optional[int] = None
    decision_capacity: Optional[int] = None
    profile: bool = True
    spans: bool = False
    span_capacity: Optional[int] = None
    contention: bool = False
    online: bool = False
    perf: bool = False
    alloc: bool = False

    def session_for(self, run_id: str) -> "TelemetrySession":
        """Open a session writing into ``<root>/<run_id>/``."""
        return TelemetrySession(
            Path(self.root) / run_id,
            probe_interval=self.probe_interval,
            trace_capacity=self.trace_capacity,
            decision_capacity=self.decision_capacity,
            profile=self.profile,
            spans=self.spans,
            span_capacity=self.span_capacity,
            contention=self.contention,
            online=self.online,
            perf=self.perf,
            alloc=self.alloc,
        )

    def import_observers(self) -> None:
        """Import the observer modules this config's sessions attach."""
        for switch, module in _OBSERVER_MODULES.items():
            if getattr(self, switch):
                importlib.import_module(module)


class TelemetrySession:
    """Full observability for one simulation run.

    Typical use (the runner does this when given ``telemetry=``)::

        session = TelemetrySession("runs/base-case")
        results = run_simulation(params, controller, telemetry=session)
        # runs/base-case/ now holds manifest.json, probes.jsonl,
        # decisions.jsonl, trace.jsonl and profile.json

    ``manifest_extra`` may be filled by the caller before the run
    finishes (the parallel executor records the spec key and tag
    there); string keys with JSON-serializable values only.
    """

    def __init__(self, out_dir: Union[str, Path],
                 probe_interval: float = 1.0,
                 trace_capacity: Optional[int] = None,
                 decision_capacity: Optional[int] = None,
                 profile: bool = True,
                 spans: bool = False,
                 span_capacity: Optional[int] = None,
                 contention: bool = False,
                 online: bool = False,
                 perf: bool = False,
                 alloc: bool = False):
        if alloc and not perf:
            raise ConfigurationError(
                "telemetry option alloc requires perf: allocation "
                "probes ride the attribution profiler's ticks")
        self.out_dir = Path(out_dir)
        self.probe_interval = probe_interval
        self.tracer = Tracer(capacity=trace_capacity)
        self.decisions = DecisionLog(capacity=decision_capacity)
        self.probes: Optional[ProbeScheduler] = None
        # Each optional observer's module is imported only when its
        # switch is on (see _OBSERVER_MODULES).  A PerfProfiler *is* an
        # EngineProfiler, so when perf is on it serves as the event-loop
        # profiler too — one hook, both granularities, and profile.json
        # keeps its usual summary.
        self.perf: Optional[PerfProfiler] = None
        self.profiler: Optional[EngineProfiler] = None
        if perf:
            from repro.telemetry.perf import AllocationProbe, PerfProfiler
            self.perf = self.profiler = PerfProfiler(
                alloc=AllocationProbe() if alloc else None)
        elif profile:
            self.profiler = EngineProfiler()
        self.spans: Optional[SpanRecorder] = None
        if spans:
            from repro.telemetry.spans import SpanRecorder
            self.spans = SpanRecorder(capacity=span_capacity)
        self.contention: Optional[ContentionMonitor] = None
        if contention:
            from repro.telemetry.contention import ContentionMonitor
            self.contention = ContentionMonitor()
        self.online: Optional[OnlineRegimeMonitor] = None
        if online:
            from repro.telemetry.online import OnlineRegimeMonitor
            self.online = OnlineRegimeMonitor(decision_log=self.decisions)
        # Callers may add provenance fields (spec key, tag, ...) here
        # before the run finishes; merged into the manifest.
        self.manifest_extra: Dict[str, Any] = {}
        self._finalized = False

    def install(self, system: "DBMSSystem") -> None:
        """Attach all observers to a freshly built system, centralized
        or distributed.

        Must run before ``system.start()`` so the first probe lands
        exactly one interval into the run.  On a distributed system the
        controller is a :class:`~repro.distributed.controllers.
        PerSiteControllerSet`, which hands the decision log to every
        site controller (each tagged ``@siteN``); the system logs its
        failure events (site crash/recovery, partitions, in-doubt
        holds, degraded-mode transitions) into the same log, and the
        probe scheduler's per-site rows are exported as
        ``site_probes.jsonl``.
        """
        system.tracer = self.tracer
        system.controller.decision_log = self.decisions
        system.controller.on_decision_log_attached()
        self.probes = ProbeScheduler(system, self.probe_interval)
        self.probes.start()
        if self.profiler is not None:
            system.sim.profiler = self.profiler
        if self.perf is not None:
            # The attribution profiler rides the probe event for its
            # wall-clock throughput ticks (read-only piggyback, no
            # calendar change).
            self.probes.listeners.append(self.perf)
        if self.spans is not None:
            self.spans.attach(system)
        if self.contention is not None:
            self.contention.attach(system)
            self.probes.listeners.append(self.contention)
        if self.online is not None:
            self.probes.listeners.append(self.online)

    # ------------------------------------------------------------------

    def finalize(self,
                 params: Any = None,
                 controller_name: Optional[str] = None,
                 workload_name: Optional[str] = None,
                 sim_time: Optional[float] = None,
                 wall_time: Optional[float] = None,
                 extra: Optional[Mapping[str, Any]] = None) -> Path:
        """Serialize everything collected; returns the run directory."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        samples = self.probes.samples if self.probes is not None else []
        site_samples = (self.probes.site_samples
                        if self.probes is not None else None)

        jsonl_dump((s.to_dict() for s in samples),
                   self.out_dir / "probes.jsonl")
        if site_samples is not None:
            jsonl_dump((s.to_dict() for s in site_samples),
                       self.out_dir / "site_probes.jsonl")
        _write_rows(map(_decision_row, self.decisions.rows()),
                    self.out_dir / "decisions.jsonl")
        _write_rows(map(trace_row, self.tracer.rows()),
                    self.out_dir / "trace.jsonl")
        if self.spans is not None:
            _write_rows(map(span_row, self.spans.rows()),
                        self.out_dir / "spans.jsonl")
            json_dump(self.spans.analytics.to_dict(),
                      self.out_dir / "latency.json")
        if self.contention is not None:
            jsonl_dump((s.to_dict() for s in self.contention.samples),
                       self.out_dir / "contention.jsonl")
            json_dump(self.contention.summary(),
                      self.out_dir / "contention.json")
        if self.online is not None:
            json_dump(self.online.summary(),
                      self.out_dir / "regimes.json")
        for memo in (_TRACE_TIMES, _SPAN_TIMES, _DECISION_TIMES):
            memo.clear()        # no instants of this run kept past it

        manifest: Dict[str, Any] = {
            "format": TELEMETRY_FORMAT,
            "seed": getattr(params, "seed", 0),
            "params": (_params_dict(params) if params is not None else {}),
            "controller": controller_name,
            "workload": workload_name,
            "sim_time": sim_time,
            "probe_interval": self.probe_interval,
            "code_fingerprint": code_fingerprint(),
            "cache_hit": False,
            "records": {
                "probes": len(samples),
                "decisions": len(self.decisions),
                "decisions_dropped": self.decisions.dropped,
                "trace": len(self.tracer),
                "trace_dropped": self.tracer.dropped,
            },
        }
        if site_samples is not None:
            manifest["records"]["site_probes"] = len(site_samples)
        if self.spans is not None:
            manifest["records"]["spans"] = len(self.spans)
            manifest["records"]["spans_dropped"] = self.spans.dropped
        if self.contention is not None:
            manifest["records"]["contention"] = len(
                self.contention.samples)
        if self.online is not None:
            manifest["records"]["regime_changes"] = len(
                self.online.changes)
        manifest.update(self.manifest_extra)
        if extra:
            manifest.update(extra)
        json_dump(manifest, self.out_dir / "manifest.json")

        # Wall-clock facts are quarantined here so everything above
        # stays byte-deterministic.
        profile: Dict[str, Any] = {"wall_time_seconds": wall_time}
        if self.profiler is not None:
            profile["event_loop"] = self.profiler.summary()
        json_dump(profile, self.out_dir / "profile.json")

        if self.perf is not None:
            # The attribution artifacts are wall-clock files like
            # profile.json; the manifest deliberately does not mention
            # them, so every pre-existing export stays byte-identical
            # with profiling on or off.
            from repro.telemetry.perf import (chrome_trace_document,
                                              collapsed_stacks,
                                              speedscope_document)
            if self.perf.alloc is not None:
                self.perf.alloc.stop()
            json_dump(self.perf.perf_summary(),
                      self.out_dir / "perf.json")
            (self.out_dir / "flame.collapsed").write_text(
                collapsed_stacks(self.perf), encoding="utf-8")
            json_dump(
                speedscope_document(self.perf, name=self.out_dir.name),
                self.out_dir / "flame.speedscope.json")
            json_dump(
                chrome_trace_document(
                    self.spans if self.spans is not None else (),
                    samples,
                    profiler=self.perf,
                    name=self.out_dir.name),
                self.out_dir / "trace.json")

        self._finalized = True
        return self.out_dir


def _params_dict(params: Any) -> Dict[str, Any]:
    import dataclasses
    if dataclasses.is_dataclass(params):
        return dataclasses.asdict(params)
    return dict(vars(params))


def write_cache_hit_manifest(run_dir: Union[str, Path],
                             seed: int,
                             params: Any = None,
                             extra: Optional[Mapping[str, Any]] = None
                             ) -> Optional[Path]:
    """Record provenance for a run served from the result cache.

    A cache hit executes nothing, so there are no streams to export —
    but the run directory still documents *what* the cached result was
    (seed, parameters, spec key, fingerprint).  An existing manifest
    (from the run that populated the cache) is left untouched.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if manifest_path.exists():
        return None
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest: Dict[str, Any] = {
        "format": TELEMETRY_FORMAT,
        "seed": seed,
        "params": (_params_dict(params) if params is not None else {}),
        "controller": None,
        "workload": None,
        "sim_time": None,
        "probe_interval": None,
        "code_fingerprint": code_fingerprint(),
        "cache_hit": True,
        "records": {},
    }
    if extra:
        manifest.update(extra)
    return json_dump(manifest, manifest_path)
