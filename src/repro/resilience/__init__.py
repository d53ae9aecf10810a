"""Fault tolerance for multi-run sweeps.

A multi-hour parameter sweep must survive the failures that long batch
jobs actually see: a worker process that segfaults or is OOM-killed, a
run that hangs, a Ctrl-C half way through, a cache entry truncated by a
power cut.  This package holds the policy and bookkeeping types the
executor (:func:`repro.experiments.parallel.run_specs`) uses to recover
from all of them without discarding completed work:

* :class:`ResiliencePolicy` — how hard to try: per-spec retries with
  exponential backoff, a batch-wide retry budget, a per-attempt
  wall-clock timeout, and whether failures abort the batch (strict) or
  come back as typed sentinels (partial delivery).
* :class:`AttemptRecord` / :class:`FailedRun` — the full attempt
  history of a run that exhausted its retries; delivered in-place in
  the result list under partial delivery, attached to the
  :class:`~repro.errors.SpecExecutionError` raised in strict mode.
* :class:`SweepCheckpoint` — an append-only journal of completed spec
  keys next to the result cache, flushed per completion (and on
  SIGINT), so a killed sweep resumes from the remainder.

Determinism survives all of it: a retry re-executes the same
:class:`~repro.experiments.parallel.RunSpec`, and every run seeds its
own random streams from its parameters, so a batch with crashes and
retries is bit-identical to a clean serial batch.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AttemptRecord",
    "FailedRun",
    "FailureKind",
    "ResiliencePolicy",
    "SweepCheckpoint",
    "is_failed",
    "split_results",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.resilience.checkpoint": ("SweepCheckpoint",),
    "repro.resilience.failures": ("AttemptRecord", "FailedRun", "FailureKind",
                                  "is_failed", "split_results"),
    "repro.resilience.policy": ("ResiliencePolicy",),
})
