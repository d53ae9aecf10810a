"""JSON schemas for the telemetry files, and a dependency-free validator.

Each run directory holds four deterministic artifacts:

* ``manifest.json``   — provenance: seed, parameters, spec hash, package
  fingerprint, record counts (:data:`MANIFEST_SCHEMA`);
* ``probes.jsonl``    — one :data:`PROBE_SCHEMA` record per sample;
* ``site_probes.jsonl`` (distributed runs) — one
  :data:`SITE_PROBE_SCHEMA` record per site per sample;
* ``decisions.jsonl`` — one :data:`DECISION_SCHEMA` record per verdict;
* ``trace.jsonl``     — one :data:`TRACE_SCHEMA` record per transition;

and, when span recording is enabled, two more:

* ``spans.jsonl``     — one :data:`SPAN_SCHEMA` record per closed span;
* ``latency.json``    — the :data:`LATENCY_SCHEMA` analytics summary;

when contention monitoring is enabled:

* ``contention.jsonl`` — one :data:`CONTENTION_SCHEMA` record per
  probe tick (wait-for-graph statistics);
* ``contention.json``  — the :data:`CONTENTION_SUMMARY_SCHEMA` hot-page
  rollup;

when online regime detection is enabled:

* ``regimes.json``    — the :data:`REGIMES_SCHEMA` transition record;

and, at the *root* of a sweep directory after ``telemetry sweep``:

* ``sweep_summary.json`` — the :data:`SWEEP_SUMMARY_SCHEMA` rollup;

when perf profiling is enabled, the wall-clock attribution artifacts
(non-deterministic like ``profile.json``, but schema-pinned so the
exporters cannot silently drift):

* ``perf.json``             — the :data:`PERF_SCHEMA` attribution
  summary (logical stacks, throughput ticks, allocation sites);
* ``flame.speedscope.json`` — a :data:`SPEEDSCOPE_SCHEMA` speedscope
  flamegraph document;
* ``trace.json``            — a :data:`CHROME_TRACE_SCHEMA` Chrome
  trace-event document (Perfetto-loadable);

plus ``profile.json`` — the :data:`PROFILE_SCHEMA` run wall time and
event-loop profile, which is deliberately *not* byte-deterministic (its
event counts are; its seconds are wall-clock).

The validator implements the subset of JSON Schema the schemas use
(``type`` with unions, ``required``, ``properties``, ``items`` for
arrays, and recursion into object-valued properties that carry their
own ``properties``/``required``) so CI can check emitted files without
a third-party ``jsonschema`` dependency.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

__all__ = [
    "PROBE_SCHEMA",
    "SITE_PROBE_SCHEMA",
    "DECISION_SCHEMA",
    "TRACE_SCHEMA",
    "SPAN_SCHEMA",
    "LATENCY_SCHEMA",
    "MANIFEST_SCHEMA",
    "CONTENTION_SCHEMA",
    "CONTENTION_SUMMARY_SCHEMA",
    "REGIMES_SCHEMA",
    "SWEEP_SUMMARY_SCHEMA",
    "PERF_SCHEMA",
    "PROFILE_SCHEMA",
    "SPEEDSCOPE_SCHEMA",
    "CHROME_TRACE_SCHEMA",
    "validate_record",
    "validate_jsonl",
    "validate_run_dir",
    "validate_sweep_summary",
]


PROBE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "time", "n_active", "ready_queue",
        "n_state1", "n_state2", "n_state3", "n_state4",
        "frac_state1", "frac_state3", "blocked_frac",
        "cpu_util", "disk_util", "cpu_scale", "disk_scale",
        "conflict_ratio",
        "locks_held", "locked_pages",
        "cum_lock_requests", "cum_lock_blocks",
        "cum_commits", "cum_aborts", "cum_aborts_by_reason",
        "cum_pages", "parked",
    ],
    "properties": {
        "time": {"type": "number"},
        "n_active": {"type": "integer"},
        "ready_queue": {"type": "integer"},
        "n_state1": {"type": "integer"},
        "n_state2": {"type": "integer"},
        "n_state3": {"type": "integer"},
        "n_state4": {"type": "integer"},
        "frac_state1": {"type": "number"},
        "frac_state3": {"type": "number"},
        "blocked_frac": {"type": "number"},
        "cpu_util": {"type": "number"},
        "disk_util": {"type": "number"},
        "cpu_scale": {"type": "number"},
        "disk_scale": {"type": "number"},
        "conflict_ratio": {"type": ["number", "null"]},
        "locks_held": {"type": "integer"},
        "locked_pages": {"type": "integer"},
        "cum_lock_requests": {"type": "integer"},
        "cum_lock_blocks": {"type": "integer"},
        "cum_commits": {"type": "integer"},
        "cum_aborts": {"type": "integer"},
        "cum_aborts_by_reason": {"type": "object"},
        "cum_pages": {"type": "integer"},
        "parked": {"type": "integer"},
    },
}

SITE_PROBE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "time", "site", "up", "degraded",
        "n_active", "ready_queue", "blocked_frac",
        "cpu_util", "disk_util", "in_doubt",
        "cum_commits", "cum_lock_requests", "cum_lock_blocks",
    ],
    "properties": {
        "time": {"type": "number"},
        "site": {"type": "integer"},
        "up": {"type": "boolean"},
        "degraded": {"type": "boolean"},
        "n_active": {"type": "integer"},
        "ready_queue": {"type": "integer"},
        "blocked_frac": {"type": "number"},
        "cpu_util": {"type": "number"},
        "disk_util": {"type": "number"},
        "in_doubt": {"type": "integer"},
        "cum_commits": {"type": "integer"},
        "cum_lock_requests": {"type": "integer"},
        "cum_lock_blocks": {"type": "integer"},
    },
}

DECISION_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "time", "controller", "action", "region",
        "n_active", "n_state1", "n_state3",
        "frac_state1", "frac_state3",
        "txn_id", "measure", "threshold", "detail",
    ],
    "properties": {
        "time": {"type": "number"},
        "controller": {"type": "string"},
        "action": {"type": "string"},
        "region": {"type": ["string", "null"]},
        "n_active": {"type": "integer"},
        "n_state1": {"type": "integer"},
        "n_state3": {"type": "integer"},
        "frac_state1": {"type": "number"},
        "frac_state3": {"type": "number"},
        "txn_id": {"type": ["integer", "null"]},
        "measure": {"type": ["number", "null"]},
        "threshold": {"type": ["number", "null"]},
        "detail": {"type": "string"},
    },
}

TRACE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["time", "type", "txn_id", "detail"],
    "properties": {
        "time": {"type": "number"},
        "type": {"type": "string"},
        "txn_id": {"type": "integer"},
        "detail": {"type": "string"},
    },
}

SPAN_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["txn_id", "kind", "start", "end", "attempt",
                 "page", "blocker", "depth"],
    "properties": {
        "txn_id": {"type": "integer"},
        "kind": {"type": "string"},
        "start": {"type": "number"},
        "end": {"type": "number"},
        "attempt": {"type": "integer"},
        # Only lock_wait spans carry a page/blocker/depth; blocker is
        # additionally null when the blocking order is empty at block
        # time (the request raced a release inside one event).
        "page": {"type": ["integer", "null"]},
        "blocker": {"type": ["integer", "null"]},
        "depth": {"type": ["integer", "null"]},
    },
}

LATENCY_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "committed", "restarts_of_committed",
        "response", "lock_wait", "service", "ready_wait",
        "phase_seconds", "phase_fractions", "blame",
    ],
    "properties": {
        "committed": {"type": "integer"},
        "restarts_of_committed": {"type": "integer"},
        "response": {"type": "object"},
        "lock_wait": {"type": "object"},
        "service": {"type": "object"},
        "ready_wait": {"type": "object"},
        "phase_seconds": {"type": "object"},
        "phase_fractions": {"type": "object"},
        "blame": {"type": "object"},
    },
}

MANIFEST_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["format", "seed", "code_fingerprint", "records"],
    "properties": {
        "format": {"type": "string"},
        "seed": {"type": "integer"},
        "params": {"type": "object"},
        "controller": {"type": ["string", "null"]},
        "workload": {"type": ["string", "null"]},
        "sim_time": {"type": ["number", "null"]},
        "probe_interval": {"type": ["number", "null"]},
        "code_fingerprint": {"type": "string"},
        "spec_key": {"type": ["string", "null"]},
        "tag": {"type": ["string", "null"]},
        "cache_hit": {"type": "boolean"},
        "records": {"type": "object"},
    },
}


CONTENTION_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "time", "waiters", "wait_edges",
        "max_chain_depth", "mean_chain_depth",
        "max_queue_depth", "mean_queue_depth",
        "contested_pages", "locked_pages",
        "cum_conflicts", "cum_wait_seconds", "cum_contention_aborts",
    ],
    "properties": {
        "time": {"type": "number"},
        "waiters": {"type": "integer"},
        "wait_edges": {"type": "integer"},
        "max_chain_depth": {"type": "integer"},
        "mean_chain_depth": {"type": "number"},
        "max_queue_depth": {"type": "integer"},
        "mean_queue_depth": {"type": "number"},
        "contested_pages": {"type": "integer"},
        "locked_pages": {"type": "integer"},
        "cum_conflicts": {"type": "integer"},
        "cum_wait_seconds": {"type": "number"},
        "cum_contention_aborts": {"type": "integer"},
    },
}

_HOT_PAGE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["page", "conflicts", "wait_seconds", "aborts"],
    "properties": {
        "page": {"type": ["integer", "string"]},
        "conflicts": {"type": "integer"},
        "wait_seconds": {"type": "number"},
        "aborts": {"type": "integer"},
    },
}

CONTENTION_SUMMARY_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["format", "conflicts", "wait_seconds",
                 "aborts_while_waiting", "contended_pages", "hot_pages"],
    "properties": {
        "format": {"type": "string"},
        "conflicts": {"type": "integer"},
        "wait_seconds": {"type": "number"},
        "aborts_while_waiting": {"type": "integer"},
        "contended_pages": {"type": "integer"},
        "hot_pages": {"type": "array", "items": _HOT_PAGE_SCHEMA},
    },
}

REGIMES_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["format", "final_regime", "onset_cusum",
                 "changes", "signals"],
    "properties": {
        "format": {"type": "string"},
        "final_regime": {"type": "string"},
        "onset_cusum": {"type": ["number", "null"]},
        "changes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["time", "old_regime", "new_regime",
                             "signal", "measure", "threshold"],
                "properties": {
                    "time": {"type": "number"},
                    "old_regime": {"type": "string"},
                    "new_regime": {"type": "string"},
                    "signal": {"type": "string"},
                    "measure": {"type": ["number", "null"]},
                    "threshold": {"type": ["number", "null"]},
                    "n_active": {"type": "integer"},
                    "n_state1": {"type": "integer"},
                    "n_state3": {"type": "integer"},
                },
            },
        },
        "signals": {"type": "object"},
    },
}

SWEEP_SUMMARY_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["format", "runs", "curves", "hot_pages"],
    "properties": {
        "format": {"type": "string"},
        "runs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["run", "cache_hit"],
                "properties": {
                    "run": {"type": "string"},
                    "cache_hit": {"type": "boolean"},
                    "controller": {"type": ["string", "null"]},
                    "workload": {"type": ["string", "null"]},
                    "locking_enabled": {"type": ["boolean", "null"]},
                    "num_terms": {"type": ["integer", "null"]},
                    "seed": {"type": ["integer", "null"]},
                    "sim_time": {"type": ["number", "null"]},
                    "throughput": {"type": ["number", "null"]},
                    "page_throughput": {"type": ["number", "null"]},
                    "onset_threshold": {"type": ["number", "null"]},
                    "onset_cusum": {"type": ["number", "null"]},
                    "final_regime": {"type": ["string", "null"]},
                    "hot_pages": {"type": "array",
                                  "items": _HOT_PAGE_SCHEMA},
                },
            },
        },
        "curves": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "points", "knee"],
                "properties": {
                    "label": {"type": "string"},
                    "points": {"type": "array"},
                    "knee": {"type": ["object", "null"]},
                },
            },
        },
        "hot_pages": {"type": "array", "items": _HOT_PAGE_SCHEMA},
    },
}


# profile.json.  ``event_loop`` is present when the session attached an
# event-loop profiler.  Its ``subsystems`` and ``event_types`` map a name
# to ``{"events": n}``, plus ``"seconds"`` when the profiler timed every
# event (``perf``), which also adds ``callback_seconds``.
PROFILE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["wall_time_seconds"],
    "properties": {
        "wall_time_seconds": {"type": ["number", "null"]},
        "event_loop": {
            "type": "object",
            "required": ["events", "wall_seconds", "events_per_second",
                         "subsystems", "event_types"],
            "properties": {
                "events": {"type": "integer"},
                "wall_seconds": {"type": "number"},
                "events_per_second": {"type": "number"},
                "callback_seconds": {"type": "number"},
                "subsystems": {"type": "object"},
                "event_types": {"type": "object"},
            },
        },
    },
}

_PERF_STACK_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["phase", "subsystem", "event_type", "page_class",
                 "events", "seconds", "ns_per_event"],
    "properties": {
        "phase": {"type": "string"},
        "subsystem": {"type": "string"},
        "event_type": {"type": "string"},
        "page_class": {"type": "string"},
        "events": {"type": "integer"},
        "seconds": {"type": "number"},
        "ns_per_event": {"type": "number"},
    },
}

_PERF_TICK_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["time", "events", "wall_seconds", "events_per_sec"],
    "properties": {
        "time": {"type": "number"},
        "events": {"type": "integer"},
        "wall_seconds": {"type": "number"},
        "events_per_sec": {"type": "number"},
        # Present only when the allocation probe is attached.
        "gc_collections": {"type": "integer"},
        "gc_collected": {"type": "integer"},
        "traced_kb": {"type": "number"},
    },
}

PERF_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["format", "events", "wall_seconds", "callback_seconds",
                 "events_per_second", "phases", "stacks", "ticks",
                 "alloc"],
    "properties": {
        "format": {"type": "string"},
        "events": {"type": "integer"},
        "wall_seconds": {"type": "number"},
        "callback_seconds": {"type": "number"},
        "events_per_second": {"type": "number"},
        "phases": {"type": "object"},
        "stacks": {"type": "array", "items": _PERF_STACK_SCHEMA},
        "ticks": {"type": "array", "items": _PERF_TICK_SCHEMA},
        "alloc": {
            "type": ["object", "null"],
            "required": ["peak_traced_kb", "top_sites"],
            "properties": {
                "peak_traced_kb": {"type": "number"},
                "top_sites": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["site", "kb", "count"],
                        "properties": {
                            "site": {"type": "string"},
                            "kb": {"type": "number"},
                            "count": {"type": "integer"},
                        },
                    },
                },
            },
        },
    },
}

SPEEDSCOPE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["$schema", "shared", "profiles", "activeProfileIndex"],
    "properties": {
        "$schema": {"type": "string"},
        "name": {"type": "string"},
        "exporter": {"type": "string"},
        "activeProfileIndex": {"type": "integer"},
        "shared": {
            "type": "object",
            "required": ["frames"],
            "properties": {
                "frames": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["name"],
                        "properties": {"name": {"type": "string"}},
                    },
                },
            },
        },
        "profiles": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["type", "name", "unit", "startValue",
                             "endValue", "samples", "weights"],
                "properties": {
                    "type": {"type": "string"},
                    "name": {"type": "string"},
                    "unit": {"type": "string"},
                    "startValue": {"type": "number"},
                    "endValue": {"type": "number"},
                    "samples": {"type": "array",
                                "items": {"type": "array"}},
                    "weights": {"type": "array",
                                "items": {"type": "number"}},
                },
            },
        },
    },
}

CHROME_TRACE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["traceEvents", "displayTimeUnit", "otherData"],
    "properties": {
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "ph", "pid", "tid"],
                "properties": {
                    "name": {"type": "string"},
                    "cat": {"type": "string"},
                    "ph": {"type": "string"},
                    "pid": {"type": "integer"},
                    "tid": {"type": "integer"},
                    "ts": {"type": "number"},
                    "dur": {"type": "number"},
                    "args": {"type": "object"},
                },
            },
        },
        "displayTimeUnit": {"type": "string"},
        "otherData": {"type": "object"},
    },
}


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "array": lambda v: isinstance(v, list),
    # bool is an int subclass; a schema saying integer/number means a
    # real number, so booleans are rejected explicitly.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
}


def _type_ok(value: Any, expected: Union[str, List[str]]) -> bool:
    names = [expected] if isinstance(expected, str) else expected
    return any(_TYPE_CHECKS[name](value) for name in names)


def validate_record(record: Any, schema: Dict[str, Any],
                    where: str = "record") -> List[str]:
    """Check one decoded value against a schema; returns error strings.

    Object schemas check ``required``/``properties`` (recursing into
    object-valued properties and array items); scalar and array
    schemas check the value's type and, for arrays, recurse into
    ``items`` — so a schema can describe e.g. the speedscope samples'
    arrays of frame indices, not just rows of objects.
    """
    errors: List[str] = []
    expected = schema.get("type")
    if expected is not None and not _type_ok(record, expected):
        return [f"{where}: has type {type(record).__name__}, "
                f"expected {expected}"]
    if isinstance(record, list):
        items = schema.get("items")
        if items is not None:
            for index, item in enumerate(record):
                errors.extend(validate_record(
                    item, items, where=f"{where}[{index}]"))
        return errors
    if not isinstance(record, dict):
        if expected is None:
            return [f"{where}: expected an object, "
                    f"got {type(record).__name__}"]
        return errors
    for name in schema.get("required", ()):
        if name not in record:
            errors.append(f"{where}: missing required field {name!r}")
    for name, spec in schema.get("properties", {}).items():
        if name not in record:
            continue
        value = record[name]
        expected = spec.get("type")
        if expected is not None and not _type_ok(value, expected):
            errors.append(
                f"{where}: field {name!r} has type "
                f"{type(value).__name__}, expected {expected}")
            continue
        items = spec.get("items")
        if items is not None and isinstance(value, list):
            for index, item in enumerate(value):
                errors.extend(validate_record(
                    item, items, where=f"{where}.{name}[{index}]"))
        # Recurse into object-valued properties that pin their own
        # structure (e.g. the speedscope "shared" block or the perf
        # "alloc" section).
        if (isinstance(value, dict)
                and ("properties" in spec or "required" in spec)):
            errors.extend(validate_record(
                value, spec, where=f"{where}.{name}"))
    return errors


def validate_jsonl(path: Union[str, Path],
                   schema: Dict[str, Any]) -> List[str]:
    """Validate every line of a JSONL file; returns error strings.

    The file is read one line at a time, so validating an export never
    holds more than one of its records.
    """
    path = Path(path)
    errors: List[str] = []
    try:
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                where = f"{path.name}:{lineno}"
                try:
                    # Without its newline, so a decode error's position
                    # stays on this line.
                    record = json.loads(line.rstrip("\n"))
                except json.JSONDecodeError as exc:
                    errors.append(f"{where}: invalid JSON ({exc})")
                    continue
                errors.extend(validate_record(record, schema, where=where))
    except OSError as exc:
        return [f"{path}: unreadable ({exc})"]
    return errors


def _validate_json_file(path: Path, schema: Dict[str, Any],
                        errors: List[str]) -> None:
    """Validate one single-document JSON file if it exists."""
    if not path.is_file():
        return
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        errors.append(f"{path}: invalid ({exc})")
        return
    errors.extend(validate_record(document, schema, where=path.name))


def validate_run_dir(run_dir: Union[str, Path]) -> List[str]:
    """Validate one telemetry run directory; returns error strings.

    The manifest is mandatory.  The JSONL streams are validated when
    present; a cache-hit run records provenance only, so their absence
    is not an error.  Every file is checked even when an earlier one
    failed — a broken manifest (e.g. from a killed run) must not mask
    problems in the streams next to it.
    """
    run_dir = Path(run_dir)
    errors: List[str] = []

    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        errors.append(f"{run_dir}: missing manifest.json")
    else:
        _validate_json_file(manifest_path, MANIFEST_SCHEMA, errors)

    for filename, schema in (("probes.jsonl", PROBE_SCHEMA),
                             ("site_probes.jsonl", SITE_PROBE_SCHEMA),
                             ("decisions.jsonl", DECISION_SCHEMA),
                             ("trace.jsonl", TRACE_SCHEMA),
                             ("spans.jsonl", SPAN_SCHEMA),
                             ("contention.jsonl", CONTENTION_SCHEMA)):
        path = run_dir / filename
        if path.is_file():
            errors.extend(validate_jsonl(path, schema))

    _validate_json_file(run_dir / "latency.json", LATENCY_SCHEMA, errors)
    _validate_json_file(run_dir / "contention.json",
                        CONTENTION_SUMMARY_SCHEMA, errors)
    _validate_json_file(run_dir / "regimes.json", REGIMES_SCHEMA, errors)
    _validate_json_file(run_dir / "profile.json", PROFILE_SCHEMA, errors)
    _validate_json_file(run_dir / "perf.json", PERF_SCHEMA, errors)
    _validate_json_file(run_dir / "flame.speedscope.json",
                        SPEEDSCOPE_SCHEMA, errors)
    _validate_json_file(run_dir / "trace.json", CHROME_TRACE_SCHEMA,
                        errors)
    return errors


def validate_sweep_summary(path: Union[str, Path]) -> List[str]:
    """Validate a ``sweep_summary.json`` written by ``telemetry sweep``."""
    errors: List[str] = []
    _validate_json_file(Path(path), SWEEP_SUMMARY_SCHEMA, errors)
    return errors
