"""Observability: time-series probes, decision logs, structured export.

The telemetry layer watches a simulation the way the paper watches its
system — as trajectories, not endpoints:

* :class:`ProbeScheduler` samples the live populations, queues,
  utilizations, and lock-table statistics at a fixed simulated-time
  interval;
* :class:`DecisionLog` records every load-controller verdict with the
  evidence it acted on;
* :class:`TelemetrySession` bundles both with the event
  :class:`~repro.metrics.trace.Tracer` and an event-loop profiler and
  exports everything as deterministic JSONL plus a provenance manifest;
* :class:`SpanRecorder` accumulates per-transaction span timelines
  (ready-queue wait, cpu/disk service, lock waits with blame, restart
  gaps) and feeds :class:`LatencyAnalytics` — exact response-time
  percentiles, critical-path breakdowns, and the wait-chain blame
  table;
* :class:`ContentionMonitor` maintains per-page conflict/wait/abort
  heat and per-probe-tick wait-for-graph statistics (the hot-page
  table and ``contention.jsonl``);
* :mod:`repro.telemetry.online` hosts the streaming detectors —
  :class:`Welford`, :class:`EWMA`, :class:`Cusum` — and the
  :class:`OnlineRegimeMonitor` that turns them into typed
  :class:`RegimeChange` events (stable → pre_thrash → thrashing);
* :mod:`repro.telemetry.sweep` rolls every run directory under a sweep
  root into one ``sweep_summary.json`` (per-run onsets, per-curve
  knees, sweep-wide hot pages);
* :mod:`repro.telemetry.report` renders exported runs as a terminal
  dashboard (sparklines, thrashing onset, top aborters, latency).

Everything is zero-cost when disabled: one ``None`` check per hook, no
allocations, no extra events — and strictly observational when
enabled, so turning telemetry on never changes a trajectory.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ControllerDecision",
    "DecisionAction",
    "DecisionLog",
    "TELEMETRY_FORMAT",
    "TelemetryConfig",
    "TelemetrySession",
    "json_dump",
    "jsonl_dump",
    "trace_event_to_dict",
    "write_cache_hit_manifest",
    "ProbeSample",
    "ProbeScheduler",
    "SiteProbeSample",
    "EngineProfiler",
    "subsystem_of",
    "canonical_qualname",
    "PERF_FORMAT",
    "PerfProfiler",
    "AllocationProbe",
    "page_class_of",
    "collapsed_stacks",
    "speedscope_document",
    "chrome_trace_document",
    "Span",
    "SpanKind",
    "SpanRecorder",
    "LatencyAnalytics",
    "LatencyHistogram",
    "QUANTILE_LABELS",
    "detect_thrashing_onset",
    "render_latency_report",
    "render_report",
    "render_run_report",
    "render_sites_report",
    "sparkline",
    "top_aborters",
    "ContentionMonitor",
    "ContentionSample",
    "PageHeat",
    "Welford",
    "EWMA",
    "Cusum",
    "RegimeChange",
    "RegimeDetector",
    "OnlineRegimeMonitor",
    "detect_onset_cusum",
    "find_knee",
    "render_sweep_report",
    "summarize_sweep",
    "write_sweep_summary",
    "CHROME_TRACE_SCHEMA",
    "CONTENTION_SCHEMA",
    "CONTENTION_SUMMARY_SCHEMA",
    "DECISION_SCHEMA",
    "LATENCY_SCHEMA",
    "MANIFEST_SCHEMA",
    "PERF_SCHEMA",
    "PROBE_SCHEMA",
    "PROFILE_SCHEMA",
    "REGIMES_SCHEMA",
    "SITE_PROBE_SCHEMA",
    "SPAN_SCHEMA",
    "SPEEDSCOPE_SCHEMA",
    "SWEEP_SUMMARY_SCHEMA",
    "TRACE_SCHEMA",
    "validate_jsonl",
    "validate_record",
    "validate_run_dir",
    "validate_sweep_summary",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.telemetry.contention": ("ContentionMonitor", "ContentionSample",
                                   "PageHeat"),
    "repro.telemetry.decisions": ("ControllerDecision", "DecisionAction",
                                  "DecisionLog"),
    "repro.telemetry.export": ("TELEMETRY_FORMAT", "TelemetryConfig",
                               "TelemetrySession", "json_dump", "jsonl_dump",
                               "trace_event_to_dict",
                               "write_cache_hit_manifest"),
    "repro.telemetry.latency": ("QUANTILE_LABELS", "LatencyAnalytics",
                                "LatencyHistogram"),
    "repro.telemetry.online": ("EWMA", "Cusum", "OnlineRegimeMonitor",
                               "RegimeChange", "RegimeDetector", "Welford",
                               "detect_onset_cusum"),
    "repro.telemetry.perf": ("PERF_FORMAT", "AllocationProbe", "PerfProfiler",
                             "chrome_trace_document", "collapsed_stacks",
                             "page_class_of", "speedscope_document"),
    "repro.telemetry.probes": ("ProbeSample", "ProbeScheduler"),
    "repro.telemetry.profiling": ("EngineProfiler", "canonical_qualname",
                                  "subsystem_of"),
    "repro.telemetry.report": ("detect_thrashing_onset",
                               "render_latency_report", "render_report",
                               "render_run_report", "render_sites_report",
                               "sparkline", "top_aborters"),
    "repro.telemetry.schemas": ("CHROME_TRACE_SCHEMA", "CONTENTION_SCHEMA",
                                "CONTENTION_SUMMARY_SCHEMA", "DECISION_SCHEMA",
                                "LATENCY_SCHEMA", "MANIFEST_SCHEMA",
                                "PERF_SCHEMA", "PROBE_SCHEMA",
                                "PROFILE_SCHEMA", "REGIMES_SCHEMA",
                                "SITE_PROBE_SCHEMA", "SPAN_SCHEMA",
                                "SPEEDSCOPE_SCHEMA",
                                "SWEEP_SUMMARY_SCHEMA", "TRACE_SCHEMA",
                                "validate_jsonl", "validate_record",
                                "validate_run_dir", "validate_sweep_summary"),
    "repro.telemetry.sites": ("SiteProbeSample",),
    "repro.telemetry.spans": ("Span", "SpanKind", "SpanRecorder"),
    "repro.telemetry.sweep": ("find_knee", "render_sweep_report",
                              "summarize_sweep", "write_sweep_summary"),
})
