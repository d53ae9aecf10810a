"""Measurement: collectors, time-weighted stats, batch means, results."""

from repro._lazy import lazy_exports

__all__ = [
    "BatchStatistics",
    "student_t_quantile",
    "summarize_batches",
    "AbortReason",
    "Collector",
    "MetricsSnapshot",
    "SimulationResults",
    "build_results",
    "TimeWeightedValue",
    "TraceEvent",
    "TraceEventType",
    "Tracer",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.metrics.batch_means": ("BatchStatistics", "student_t_quantile",
                                  "summarize_batches"),
    "repro.metrics.collector": ("AbortReason", "Collector", "MetricsSnapshot"),
    "repro.metrics.results": ("SimulationResults", "build_results"),
    "repro.metrics.timeweighted": ("TimeWeightedValue",),
    "repro.metrics.trace": ("TraceEvent", "TraceEventType", "Tracer"),
})
