"""Wall-clock benchmark harness for the simulator.

The ROADMAP's "fast as the hardware allows" goal needs a number:
``python -m repro.bench run`` executes a pinned suite of simulator
configurations (:mod:`repro.bench.suite`) hook-free — events counted
by the kernel's own counter, so the fast dispatch being measured stays
enabled — and records wall-clock events/sec and sim-pages/sec per
entry in ``BENCH_<label>.json``, stamped with machine and code
provenance; ``python -m repro.bench compare`` diffs two such files
against a relative tolerance for CI regression gating
(:mod:`repro.bench.compare`), and :mod:`repro.bench.history` keeps the
campaign's append-only trajectory (``bench history`` renders the
trend, ``bench compare --against-history`` gates on a rolling-window
median).

The suite's *simulated* trajectories are deterministic; only the wall
clock varies between machines, which is why comparisons check both
(simulated drift is a different failure than a slowdown).
"""

from repro._lazy import lazy_exports

__all__ = [
    "BENCH_FORMAT",
    "BenchEntry",
    "DEFAULT_HISTORY",
    "EntryComparison",
    "SCALES",
    "append_history",
    "bench_path",
    "compare_against_history",
    "compare_benches",
    "entry_names",
    "format_comparison",
    "format_history",
    "history_baseline",
    "load_bench",
    "load_history",
    "provenance_warnings",
    "run_bench",
    "run_entry",
    "suite_for",
    "write_bench",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.bench.compare": ("EntryComparison", "compare_benches",
                            "format_comparison", "provenance_warnings"),
    "repro.bench.harness": ("BENCH_FORMAT", "bench_path", "load_bench",
                            "run_bench", "run_entry", "write_bench"),
    "repro.bench.history": ("DEFAULT_HISTORY", "append_history",
                            "compare_against_history", "format_history",
                            "history_baseline", "load_history"),
    "repro.bench.suite": ("SCALES", "BenchEntry", "entry_names", "suite_for"),
})
