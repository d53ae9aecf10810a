"""Bench execution: wall-clock measurement of the pinned suite.

Each suite entry runs once, hook-free, with events counted by the
kernel's native ``Simulator.events_executed`` counter; the harness
reports, per entry:

* ``wall_seconds``    — wall time of the whole run;
* ``events`` / ``events_per_sec`` — executed calendar events and their
  wall rate (the engine's core speed metric);
* ``sim_pages`` / ``pages_per_sec`` — pages processed in the
  measurement window (simulated work) and how many of them the
  hardware sustains per wall second;
* ``commits`` / ``sim_time`` — scale indicators, so a comparison can
  tell a perf regression from an accidental scale change.

Results land in ``BENCH_<label>.json``.  Wall-clock numbers are
machine-dependent by nature; the *simulated* fields (``events``,
``sim_pages``, ``commits``, ``sim_time``) are deterministic per scale,
which :mod:`repro.bench.compare` exploits to detect trajectory drift
separately from slowdowns.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro.bench.suite import BenchEntry, suite_for
from repro.errors import ExperimentError
from repro.experiments.runner import run_simulation
from repro.fingerprint import code_fingerprint
from repro.sim.engine import Simulator

__all__ = ["BENCH_FORMAT", "bench_path", "run_entry", "run_bench",
           "write_bench", "load_bench"]

BENCH_FORMAT = "repro-bench-v1"


def bench_path(label: str, out_dir: Union[str, Path] = ".") -> Path:
    """Where ``run_bench(label)`` writes its results."""
    return Path(out_dir) / f"BENCH_{label}.json"


def run_entry(entry: BenchEntry) -> Dict[str, Any]:
    """Run one suite entry and measure it; returns its result record.

    Events are counted by the kernel's own ``Simulator.events_executed``
    counter rather than an attached :class:`EngineProfiler`: a profiler
    hook costs microseconds per event, which at these rates dwarfs the
    thing being measured, and it also disables the system's hook-free
    fast dispatch — the configuration the bench exists to measure.
    """
    sim = Simulator()
    start = time.perf_counter()
    results = run_simulation(entry.params, entry.make_controller(),
                             sim=sim)
    wall = time.perf_counter() - start
    events = sim.events_executed
    # Simulated pages processed in the measurement window (raw rate ×
    # window length); deterministic, unlike everything wall-clock.
    sim_pages = results.raw_page_rate.mean * results.measurement_time
    return {
        "wall_seconds": wall,
        "events": events,
        "events_per_sec": (events / wall if wall > 0.0 else 0.0),
        "sim_pages": round(sim_pages),
        "pages_per_sec": (sim_pages / wall if wall > 0.0 else 0.0),
        "commits": results.commits,
        "sim_time": entry.params.total_time,
    }


def run_bench(label: str, scale: str = "smoke",
              entries: Optional[Sequence[str]] = None,
              out_dir: Union[str, Path] = ".",
              progress: bool = True) -> Path:
    """Run the pinned suite and write ``BENCH_<label>.json``.

    ``entries`` restricts the run to a subset of suite entry names
    (default: all).  Returns the written path.
    """
    suite = suite_for(scale)
    if entries is not None:
        wanted = set(entries)
        unknown = wanted - {e.name for e in suite}
        if unknown:
            raise ExperimentError(
                f"unknown bench entries: {sorted(unknown)}; "
                f"suite has {[e.name for e in suite]}")
        suite = tuple(e for e in suite if e.name in wanted)
    measured: Dict[str, Dict[str, Any]] = {}
    for entry in suite:
        if progress:
            print(f"bench {entry.name} ({scale}) ...",
                  file=sys.stderr, flush=True)
        record = run_entry(entry)
        measured[entry.name] = record
        if progress:
            print(f"  {record['events']} events in "
                  f"{record['wall_seconds']:.2f}s wall "
                  f"({record['events_per_sec']:,.0f} events/s, "
                  f"{record['pages_per_sec']:,.0f} sim-pages/s)",
                  file=sys.stderr, flush=True)
    payload = {
        "format": BENCH_FORMAT,
        "label": label,
        "scale": scale,
        "code_fingerprint": code_fingerprint(),
        "python": platform.python_version(),
        # Machine provenance: wall-clock rates are only comparable on
        # like hardware, so comparisons warn when these differ.
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        # Run identity (which process, when).  Quarantined in its own
        # sub-object: everything outside it is stable for a given
        # machine + checkout, so diffs of two files from one box show
        # real changes plus exactly this one expected block.
        "provenance": {
            "pid": os.getpid(),
            "unix_time": time.time(),
        },
        "entries": measured,
    }
    return write_bench(payload, bench_path(label, out_dir))


def write_bench(payload: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Write one bench result file (stable key order, readable)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    return path


def load_bench(path: Union[str, Path]) -> Dict[str, Any]:
    """Load and sanity-check one ``BENCH_*.json`` file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ExperimentError(f"cannot read bench file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"bench file {path} is not JSON: {exc}")
    if not isinstance(payload, dict) or "entries" not in payload:
        raise ExperimentError(
            f"bench file {path} has no 'entries' section")
    if payload.get("format") != BENCH_FORMAT:
        raise ExperimentError(
            f"bench file {path} has format {payload.get('format')!r}, "
            f"expected {BENCH_FORMAT!r}")
    return payload
