"""Experiment harness: runner, parallel executor, sweeps, figures."""

from repro._lazy import lazy_exports

__all__ = ["run_simulation", "RunSpec", "ResultCache",
           "execution_context", "run_specs"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.parallel": ("ResultCache", "RunSpec",
                                   "execution_context", "run_specs"),
    "repro.experiments.runner": ("run_simulation",),
})
