"""Text dashboard over exported telemetry.

``repro-experiment telemetry report <dir>`` renders, per run directory:

* ASCII sparklines of the state-fraction, MPL, and queue trajectories
  (the paper's Figures 3–4 as one terminal line each);
* thrashing-onset detection — the first simulated time the State 3
  (blocked & mature) fraction stays above the 50% rule's abort
  threshold for several consecutive samples;
* the top aborting transactions from the trace, with their abort
  reasons;
* the latency picture (response-time percentiles, critical-path
  breakdown, wait-chain blame) when the run recorded spans — also
  available alone via ``telemetry latency``;
* the event-loop profile (events/sec, events or time per subsystem)
  when one was recorded;
* the hot-path attribution picture (wall events/sec trend across the
  run, top event types by exclusive time with ns/event, allocation top
  sites) when the run was profiled with ``--perf``.

Distributed runs additionally get ``telemetry sites``: a per-site view
over ``site_probes.jsonl`` — an availability timeline (up / degraded /
down per probe tick), per-site commit throughput, admitted population,
and in-doubt 2PC participant counts through any fault windows.

Everything here consumes the JSONL files only, never live objects, so
the dashboard works on any archived run directory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.regions import DEFAULT_DELTA
from repro.errors import ExperimentError

__all__ = [
    "sparkline",
    "load_jsonl",
    "detect_thrashing_onset",
    "top_aborters",
    "render_run_report",
    "render_report",
    "render_latency_report",
    "render_sites_report",
]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 60,
              lo: Optional[float] = None,
              hi: Optional[float] = None,
              mode: str = "mean") -> str:
    """Render a numeric series as one line of block characters.

    Values are bucketed down to ``width`` cells and scaled between
    ``lo`` and ``hi`` (defaults: the series' own min/max).  ``mode``
    picks the bucket statistic: ``"mean"`` (default) shows the trend,
    ``"max"`` preserves single-sample spikes — a one-tick abort burst
    or queue-depth excursion survives downsampling instead of being
    averaged into the floor.
    """
    if not values:
        return ""
    if mode not in ("mean", "max"):
        raise ValueError(
            f"sparkline mode must be 'mean' or 'max', got {mode!r}")
    # Downsample: cell i reduces the slice [i*n/width, (i+1)*n/width).
    n = len(values)
    if n > width:
        cells = []
        for i in range(width):
            start = i * n // width
            end = max(start + 1, (i + 1) * n // width)
            chunk = values[start:end]
            cells.append(max(chunk) if mode == "max"
                         else sum(chunk) / len(chunk))
    else:
        cells = list(values)
    floor = min(cells) if lo is None else lo
    ceil = max(cells) if hi is None else hi
    span = ceil - floor
    if span <= 0.0:
        return _BLOCKS[0] * len(cells)
    out = []
    for v in cells:
        frac = (v - floor) / span
        index = min(len(_BLOCKS) - 1, max(0, int(frac * len(_BLOCKS))))
        out.append(_BLOCKS[index])
    return "".join(out)


def load_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Decode a JSONL file into a list of records."""
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def detect_thrashing_onset(samples: Sequence[Dict[str, Any]],
                           delta: float = DEFAULT_DELTA,
                           consecutive: int = 3) -> Optional[float]:
    """First time the State 3 fraction stays over ``0.5 + delta``.

    Returns the simulated time of the first sample of the first run of
    ``consecutive`` samples all above the threshold, or ``None`` if the
    system never (sustainedly) enters the overloaded region.

    Samples missing ``frac_state3`` or ``time`` (a truncated
    probes.jsonl from a killed run) are tolerated: they break the
    current consecutive run — continuity cannot be established across
    a gap — but never raise.
    """
    threshold = 0.5 + delta
    run_start: Optional[float] = None
    run_length = 0
    for sample in samples:
        frac = sample.get("frac_state3")
        time = sample.get("time")
        if frac is not None and time is not None and frac > threshold:
            if run_length == 0:
                run_start = time
            run_length += 1
            if run_length >= consecutive:
                return run_start
        else:
            run_length = 0
            run_start = None
    return None


def top_aborters(trace_records: Sequence[Dict[str, Any]],
                 limit: int = 5) -> List[Tuple[int, int, Dict[str, int]]]:
    """Transactions with the most recorded aborts.

    Returns ``(txn_id, abort_count, {reason: count})`` tuples, most
    aborted first (ties break on txn id for stable output).
    """
    per_txn: Dict[int, Dict[str, int]] = {}
    for record in trace_records:
        # Abort trace rows carry the collector reason in ``detail``
        # (both the typed *_abort events and the generic catch-all).
        if not (record["type"].endswith("_abort")
                or record["type"] == "abort"):
            continue
        reasons = per_txn.setdefault(record["txn_id"], {})
        reason = record["detail"] or record["type"]
        reasons[reason] = reasons.get(reason, 0) + 1
    ranked = sorted(
        ((txn_id, sum(reasons.values()), reasons)
         for txn_id, reasons in per_txn.items()),
        key=lambda item: (-item[1], item[0]))
    return ranked[:limit]


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _series(samples: Sequence[Dict[str, Any]],
            field: str) -> List[float]:
    return [s[field] for s in samples if s.get(field) is not None]


def _spark_row(label: str, values: Sequence[float],
               lo: Optional[float] = None,
               hi: Optional[float] = None,
               width: int = 60,
               mode: str = "mean") -> str:
    if not values:
        return f"  {label:<14} (no samples)"
    line = sparkline(values, width=width, lo=lo, hi=hi, mode=mode)
    return (f"  {label:<14} {line}  "
            f"min={min(values):.2f} mean={sum(values) / len(values):.2f} "
            f"max={max(values):.2f}")


def _deltas(values: Sequence[float]) -> List[float]:
    """Per-sample increments of a cumulative counter series."""
    out: List[float] = []
    prev = 0.0
    for v in values:
        out.append(v - prev)
        prev = v
    return out


def _latency_lines(latency: Dict[str, Any]) -> List[str]:
    """The latency dashboard section, from a decoded latency.json."""
    lines = [f"  latency ({latency['committed']} committed, "
             f"{latency['restarts_of_committed']} restarts absorbed):"]
    for label, key in (("response", "response"),
                       ("lock wait", "lock_wait"),
                       ("service", "service"),
                       ("ready wait", "ready_wait")):
        s = latency[key]
        lines.append(
            f"    {label:<12} mean={s['mean']:.3f}  p50={s['p50']:.3f}  "
            f"p90={s['p90']:.3f}  p95={s['p95']:.3f}  p99={s['p99']:.3f}")
    fractions = latency["phase_fractions"]
    ranked = [(phase, frac) for phase, frac
              in sorted(fractions.items(), key=lambda kv: (-kv[1], kv[0]))
              if frac > 0.0]
    if ranked:
        lines.append("  critical path: " + " | ".join(
            f"{phase} {100.0 * frac:.1f}%" for phase, frac in ranked))
    else:
        lines.append("  critical path: (no committed transactions)")
    blame = latency["blame"]
    lines.append(f"  blame: {blame['block_events']} block events, "
                 f"mean chain depth {blame['mean_chain_depth']:.2f} "
                 f"(max {blame['max_chain_depth']})")
    if blame["top_blockers"]:
        lines.append("    top blockers: " + "; ".join(
            f"txn {row['txn_id']} ({row['blocks']} blocks, "
            f"{row['wait_seconds']:.2f}s induced)"
            for row in blame["top_blockers"][:5]))
    if blame["hottest_pages"]:
        lines.append("    hottest pages: " + "; ".join(
            f"page {row['page']} ({row['blocks']} blocks, "
            f"{row['wait_seconds']:.2f}s waited)"
            for row in blame["hottest_pages"][:5]))
    return lines


def _contention_lines(run_dir: Path, width: int = 60) -> List[str]:
    """The contention dashboard section (contention.jsonl + .json)."""
    samples = load_jsonl(run_dir / "contention.jsonl")
    lines = ["  contention:"]
    if samples:
        lines.append("  " + _spark_row(
            "waiters", _series(samples, "waiters"), width=width - 2))
        lines.append("  " + _spark_row(
            "chain depth", _series(samples, "max_chain_depth"),
            width=width - 2, mode="max"))
        lines.append("  " + _spark_row(
            "queue depth", _series(samples, "max_queue_depth"),
            width=width - 2, mode="max"))
    summary_path = run_dir / "contention.json"
    if summary_path.is_file():
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        lines.append(
            f"    {summary['conflicts']} conflicts on "
            f"{summary['contended_pages']} pages, "
            f"{summary['wait_seconds']:.2f}s waited, "
            f"{summary['aborts_while_waiting']} aborts while waiting")
        if summary["hot_pages"]:
            lines.append("    hot pages: " + "; ".join(
                f"page {row['page']} ({row['conflicts']} conflicts, "
                f"{row['wait_seconds']:.2f}s, {row['aborts']} aborts)"
                for row in summary["hot_pages"][:5]))
    return lines


def _regime_lines(regimes: Dict[str, Any]) -> List[str]:
    """The online-regime dashboard section (regimes.json)."""
    onset = regimes.get("onset_cusum")
    lines = [f"  regimes: final={regimes['final_regime']}  "
             + (f"cusum onset t={onset:g}" if onset is not None
                else "cusum onset: none")]
    for change in regimes.get("changes", []):
        lines.append(
            f"    t={change['time']:g}: {change['old_regime']} -> "
            f"{change['new_regime']} (via {change['signal']})")
    return lines


def _perf_lines(perf: Dict[str, Any], width: int = 60) -> List[str]:
    """The perf dashboard section (perf.json, wall-clock attribution)."""
    lines = [f"  perf: {perf['events']} events, "
             f"{perf['events_per_second']:,.0f} events/s wall "
             f"({perf['callback_seconds']:.2f}s in callbacks of "
             f"{perf['wall_seconds']:.2f}s wall)"]
    ticks = perf.get("ticks", [])
    rates = [t["events_per_sec"] for t in ticks
             if t.get("events_per_sec") is not None]
    if rates:
        lines.append("  " + _spark_row("events/s", rates,
                                       lo=0.0, width=width - 2))
    # Exclusive wall time per event type, summed over phases and page
    # classes (the stacks are already hottest-first).
    by_type: Dict[str, List[float]] = {}
    for row in perf.get("stacks", []):
        bucket = by_type.setdefault(row["event_type"], [0, 0.0])
        bucket[0] += row["events"]
        bucket[1] += row["seconds"]
    total = sum(b[1] for b in by_type.values()) or 1.0
    ranked = sorted(by_type.items(), key=lambda kv: -kv[1][1])
    for name, (count, seconds) in ranked[:5]:
        ns = seconds * 1e9 / count if count else 0.0
        lines.append(f"    {name:<34} {count:>9} events  "
                     f"{100.0 * seconds / total:5.1f}%  "
                     f"{ns:>8,.0f} ns/event")
    alloc = perf.get("alloc")
    if alloc:
        lines.append(f"    alloc: peak {alloc['peak_traced_kb']:,.0f} KiB "
                     f"traced")
        for site in alloc.get("top_sites", [])[:5]:
            lines.append(f"      {site['site']:<40} "
                         f"{site['kb']:>8,.0f} KiB in "
                         f"{site['count']} blocks")
    return lines


def render_run_report(run_dir: Union[str, Path],
                      width: int = 60) -> str:
    """The dashboard for one telemetry run directory."""
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        raise ExperimentError(
            f"{run_dir} is not a telemetry run directory "
            f"(no manifest.json)")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))

    lines = [f"run {run_dir.name}"]
    controller = manifest.get("controller") or "?"
    lines.append(f"  controller={controller}  "
                 f"seed={manifest.get('seed')}  "
                 f"sim_time={manifest.get('sim_time')}  "
                 f"fingerprint={manifest.get('code_fingerprint')}")
    if manifest.get("cache_hit"):
        lines.append("  served from the result cache "
                     "(provenance only, no streams)")
        return "\n".join(lines)
    records = manifest.get("records", {})
    lines.append(f"  records: probes={records.get('probes', 0)} "
                 f"decisions={records.get('decisions', 0)} "
                 f"trace={records.get('trace', 0)}"
                 + (f" (trace dropped {records['trace_dropped']})"
                    if records.get("trace_dropped") else ""))

    probes_path = run_dir / "probes.jsonl"
    samples = load_jsonl(probes_path) if probes_path.is_file() else []
    if samples:
        lines.append(_spark_row("state1 frac",
                                _series(samples, "frac_state1"),
                                lo=0.0, hi=1.0, width=width))
        lines.append(_spark_row("state3 frac",
                                _series(samples, "frac_state3"),
                                lo=0.0, hi=1.0, width=width))
        lines.append(_spark_row("blocked frac",
                                _series(samples, "blocked_frac"),
                                lo=0.0, hi=1.0, width=width))
        lines.append(_spark_row("mpl", _series(samples, "n_active"),
                                width=width))
        # Queue depths and abort bursts downsample by bucket *max*: a
        # single-tick spike is the signal, and a mean would bury it.
        lines.append(_spark_row("ready queue",
                                _series(samples, "ready_queue"),
                                width=width, mode="max"))
        lines.append(_spark_row("aborts/tick",
                                _deltas(_series(samples, "cum_aborts")),
                                width=width, mode="max"))
        lines.append(_spark_row("cpu util", _series(samples, "cpu_util"),
                                lo=0.0, hi=1.0, width=width))
        lines.append(_spark_row("disk util",
                                _series(samples, "disk_util"),
                                lo=0.0, hi=1.0, width=width))
        # conflict_ratio is null while every lock holder is blocked;
        # _series drops the null samples, and an all-null run renders
        # the "(no samples)" placeholder.
        lines.append(_spark_row("conflict",
                                _series(samples, "conflict_ratio"),
                                width=width))
        onset = detect_thrashing_onset(samples)
        if onset is None:
            lines.append("  thrashing onset: none (State 3 fraction never "
                         f"sustained above {0.5 + DEFAULT_DELTA})")
        else:
            lines.append(f"  thrashing onset: t={onset:g} (State 3 "
                         f"fraction sustained above "
                         f"{0.5 + DEFAULT_DELTA})")

    contention_path = run_dir / "contention.jsonl"
    if contention_path.is_file():
        lines.extend(_contention_lines(run_dir, width=width))

    regimes_path = run_dir / "regimes.json"
    if regimes_path.is_file():
        regimes = json.loads(regimes_path.read_text(encoding="utf-8"))
        lines.extend(_regime_lines(regimes))

    trace_path = run_dir / "trace.jsonl"
    if trace_path.is_file():
        ranked = top_aborters(load_jsonl(trace_path))
        if ranked:
            parts = []
            for txn_id, count, reasons in ranked:
                by_reason = ",".join(
                    f"{reason}×{n}"
                    for reason, n in sorted(reasons.items()))
                parts.append(f"txn {txn_id} ({count}: {by_reason})")
            lines.append("  top aborters: " + "; ".join(parts))
        else:
            lines.append("  top aborters: none (no aborts traced)")

    latency_path = run_dir / "latency.json"
    if latency_path.is_file():
        latency = json.loads(latency_path.read_text(encoding="utf-8"))
        lines.extend(_latency_lines(latency))

    profile_path = run_dir / "profile.json"
    if profile_path.is_file():
        profile = json.loads(profile_path.read_text(encoding="utf-8"))
        loop = profile.get("event_loop")
        if loop:
            lines.append(
                f"  event loop: {loop['events']} events, "
                f"{loop['events_per_second']:,.0f} events/s wall")
            # A timed profile (--perf) ranks subsystems by callback
            # time; the default counting profile has no per-event
            # seconds and ranks them by event count.
            subsystems = loop.get("subsystems", {})
            timed = all("seconds" in s for s in subsystems.values())
            key, unit = (("seconds", "callback time") if timed
                         else ("events", "events"))
            total = sum(s[key] for s in subsystems.values()) or 1.0
            ranked_subsystems = sorted(
                subsystems.items(), key=lambda kv: (-kv[1][key], kv[0]))
            for name, stats in ranked_subsystems[:4]:
                lines.append(
                    f"    {name:<22} {stats['events']:>9} events  "
                    f"{100.0 * stats[key] / total:5.1f}% of {unit}")

    perf_path = run_dir / "perf.json"
    if perf_path.is_file():
        perf = json.loads(perf_path.read_text(encoding="utf-8"))
        lines.extend(_perf_lines(perf, width=width))
    return "\n".join(lines)


def render_report(root: Union[str, Path], width: int = 60) -> str:
    """Dashboard for a run directory, or every run under a root.

    ``root`` may be a single run directory (it has a manifest.json) or
    a telemetry root containing one subdirectory per run.
    """
    root = Path(root)
    if not root.is_dir():
        raise ExperimentError(f"no such telemetry directory: {root}")
    if (root / "manifest.json").is_file():
        return render_run_report(root, width=width)
    run_dirs = sorted(p for p in root.iterdir()
                      if (p / "manifest.json").is_file())
    if not run_dirs:
        raise ExperimentError(
            f"{root} contains no telemetry run directories")
    return "\n\n".join(render_run_report(p, width=width)
                       for p in run_dirs)


def render_latency_report(root: Union[str, Path]) -> str:
    """The latency-only view (``telemetry latency <dir>``).

    ``root`` may be one run directory or a telemetry root; every run
    that recorded spans (has a ``latency.json``) contributes a section.
    Raises :class:`ExperimentError` when no run recorded spans.
    """
    root = Path(root)
    if not root.is_dir():
        raise ExperimentError(f"no such telemetry directory: {root}")
    if (root / "manifest.json").is_file():
        run_dirs = [root]
    else:
        run_dirs = sorted(p for p in root.iterdir()
                          if (p / "manifest.json").is_file())
    sections = []
    for run_dir in run_dirs:
        latency_path = run_dir / "latency.json"
        if not latency_path.is_file():
            continue
        latency = json.loads(latency_path.read_text(encoding="utf-8"))
        sections.append("\n".join(
            [f"run {run_dir.name}"] + _latency_lines(latency)))
    if not sections:
        raise ExperimentError(
            f"{root} holds no latency.json — re-run with span "
            f"recording enabled (--spans)")
    return "\n\n".join(sections)


# ----------------------------------------------------------------------
# Per-site view (distributed runs)
# ----------------------------------------------------------------------

def _availability_timeline(rows: Sequence[Dict[str, Any]],
                           width: int = 60) -> str:
    """One cell per (downsampled) probe tick: ``█`` up, ``▒`` degraded,
    ``·`` down.  Downsampling keeps the *worst* state in each bucket so
    a one-tick outage survives."""
    def severity(row: Dict[str, Any]) -> int:
        if not row.get("up", True):
            return 2
        if row.get("degraded", False):
            return 1
        return 0
    states = [severity(row) for row in rows]
    n = len(states)
    if n > width:
        cells = [max(states[i * n // width:
                            max(i * n // width + 1, (i + 1) * n // width)])
                 for i in range(width)]
    else:
        cells = states
    return "".join("█▒·"[state] for state in cells)


def _site_lines(site: int, rows: Sequence[Dict[str, Any]],
                width: int = 60) -> List[str]:
    """The dashboard section for one site's probe rows."""
    down = sum(1 for row in rows if not row.get("up", True))
    degraded = sum(1 for row in rows
                   if row.get("up", True) and row.get("degraded", False))
    commits = _series(rows, "cum_commits")
    indoubt = _series(rows, "in_doubt")
    lines = [f"  site {site}: {len(rows)} samples, "
             f"{down} down, {degraded} degraded, "
             f"{commits[-1] if commits else 0} home commits, "
             f"peak in-doubt {max(indoubt) if indoubt else 0}"]
    lines.append(f"    {'up/deg/down':<14} "
                 + _availability_timeline(rows, width=width))
    lines.append("  " + _spark_row(
        "commits/tick", _deltas(commits), width=width))
    lines.append("  " + _spark_row(
        "admitted", _series(rows, "n_active"), width=width))
    # In-doubt counts spike for a few ticks around a coordinator
    # crash; bucket by max so the spike survives downsampling.
    lines.append("  " + _spark_row(
        "in-doubt", indoubt, width=width, mode="max"))
    lines.append("  " + _spark_row(
        "ready queue", _series(rows, "ready_queue"), width=width,
        mode="max"))
    return lines


def render_sites_report(root: Union[str, Path],
                        width: int = 60) -> str:
    """The per-site view (``telemetry sites <dir>``).

    ``root`` may be one run directory or a telemetry root; every run
    that recorded per-site probes (has a ``site_probes.jsonl``)
    contributes a section.  Raises :class:`ExperimentError` when no
    run did — per-site probes are only written by distributed runs.
    """
    root = Path(root)
    if not root.is_dir():
        raise ExperimentError(f"no such telemetry directory: {root}")
    if (root / "manifest.json").is_file():
        run_dirs = [root]
    else:
        run_dirs = sorted(p for p in root.iterdir()
                          if (p / "manifest.json").is_file())
    sections = []
    for run_dir in run_dirs:
        sites_path = run_dir / "site_probes.jsonl"
        if not sites_path.is_file():
            continue
        by_site: Dict[int, List[Dict[str, Any]]] = {}
        for row in load_jsonl(sites_path):
            by_site.setdefault(row["site"], []).append(row)
        lines = [f"run {run_dir.name}"]
        for site in sorted(by_site):
            lines.extend(_site_lines(site, by_site[site], width=width))
        sections.append("\n".join(lines))
    if not sections:
        raise ExperimentError(
            f"{root} holds no site_probes.jsonl — per-site probes are "
            f"recorded by distributed runs with --telemetry-dir")
    return "\n\n".join(sections)
