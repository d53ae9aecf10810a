#!/usr/bin/env python3
"""Layer-sensitivity self-check of the benchmark's tracing.

Injects a deliberate slowdown into one wrapped layer -- a busy wait at
the start of every ``LockTable.request`` call, sized so that it adds
``FRACTION`` (10%) of the ``contended`` workload's untraced wall, on
the default seed -- and checks, from the benchmark side only:

* the traced per-layer breakdown flags ``lockmgr.self_s`` and no other
  ``*self_s`` metric.  A metric is flagged when it grows by more than
  half the injected time, after its clean value is scaled by how much
  faster or slower the machine ran the slowed repetitions apart from
  the injected busy wait -- so a drift in machine speed, which moves
  every layer in proportion, flags nothing;
* ``wall_s`` on ``contended`` grows by more than half the injected
  share;
* the warm (cache-hit) pass of ``sweep``, which makes no lock requests,
  does not move by more than 10%.

Clean and slowed repetitions alternate, so slow phases of a shared
machine hit both sides alike; medians are compared.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py

Exits 0 when every check passes, 1 otherwise.  Takes about a minute.
"""

from __future__ import annotations

import functools
import os
import shutil
import statistics
import sys
from time import perf_counter

import run as bench

PAIRS = 4          # untraced contended repetitions per side
TRACED_PAIRS = 2   # traced contended repetitions per side
WARM_PAIRS = 40    # sweep warm passes per side
FRACTION = 0.10    # injected share of the contended wall


def spin(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def traced_rep(layers, workload, workloads, work_dir):
    """One traced repetition: its per-layer metrics and its record."""
    tracer = layers.LayerTracer("selfcheck", work_dir)
    tracer.install()
    try:
        rep, record = bench.trace_rep(
            tracer, lambda: bench.run_rep(workload, workloads))
    finally:
        tracer.uninstall()
    metrics = layers.layer_metrics(tracer, [record], distributed=False)
    return metrics, record, rep.wall


def warm_pass(parallel, specs, cache):
    start = perf_counter()
    parallel.run_specs(specs, jobs=2, cache=cache, label="warm")
    return perf_counter() - start


def main() -> int:
    sys.path.insert(0, str(bench.ROOT / "src"))
    import layers
    import workloads
    from repro.experiments import parallel
    from repro.lockmgr.lock_table import LockTable

    work_dir = bench.ROOT / ".perfbench" / "work" / f"selfcheck-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        contended = workloads.build("contended", bench.DEFAULT_SEED,
                                    work_dir)
        sweep = workloads.build("sweep", bench.DEFAULT_SEED, work_dir)
        cache = parallel.ResultCache(work_dir / "cache")
        parallel.run_specs(sweep.specs, jobs=2, cache=cache)

        estimate = statistics.median(contended.rep().wall for _ in range(3))
        _, record, _ = traced_rep(layers, contended, workloads, work_dir)
        requests = record["stats"]["lockmgr.table.request"][0]
        injected = FRACTION * estimate
        delay = injected / requests

        orig = LockTable.__dict__["request"]
        calls = [0]

        @functools.wraps(orig)
        def slowed(*a, **k):
            calls[0] += 1
            spin(delay)
            return orig(*a, **k)

        def alternate(pairs, measure):
            clean, slow = [], []
            for _ in range(pairs):
                clean.append(measure())
                LockTable.request = slowed
                try:
                    slow.append(measure())
                finally:
                    LockTable.request = orig
            return clean, slow

        walls_clean, walls_slow = alternate(
            PAIRS, lambda: contended.rep().wall)
        traced_clean, traced_slow = alternate(
            TRACED_PAIRS,
            lambda: traced_rep(layers, contended, workloads, work_dir))
        calls[0] = 0
        warm_clean, warm_slow = alternate(
            WARM_PAIRS, lambda: warm_pass(parallel, sweep.specs, cache))
        warm_requests = calls[0]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    wall = statistics.median(walls_clean)
    slow_wall = statistics.median(walls_slow)
    # Machine speed of the slowed traced repetitions relative to the
    # clean ones, with the injected busy wait taken out.
    injected_traced = delay * requests
    speed = ((statistics.median(w for _, _, w in traced_slow)
              - injected_traced)
             / statistics.median(w for _, _, w in traced_clean))
    print(f"injected {delay * 1e9:.0f} ns into each of {requests} "
          f"LockTable.request calls = {injected:.4f} s "
          f"({FRACTION:.0%} of contended wall {estimate:.4f} s)")
    flagged = []
    print(f"  machine speed factor of the slowed traced runs: {speed:.3f}")
    print(f"  {'metric':<30} {'clean':>10} {'slowed':>10} {'excess':>10}")
    for name in sorted(n for n in traced_clean[0][0] if n.endswith("self_s")):
        clean = statistics.median(m[name] for m, _, _ in traced_clean)
        slow = statistics.median(m[name] for m, _, _ in traced_slow)
        excess = slow - speed * clean
        hit = excess > 0.5 * injected_traced
        if hit:
            flagged.append(name)
        print(f"  {name:<30} {clean:10.4f} {slow:10.4f} {excess:10.4f}"
              f"{'  FLAGGED' if hit else ''}")
    wall_move = slow_wall / wall - 1.0
    warm_move = statistics.median(warm_slow) / statistics.median(
        warm_clean) - 1.0
    print(f"  contended wall_s {wall:.4f} -> {slow_wall:.4f} s "
          f"({wall_move:+.1%})")
    print(f"  sweep warm pass  {statistics.median(warm_clean) * 1e3:.3f} -> "
          f"{statistics.median(warm_slow) * 1e3:.3f} ms ({warm_move:+.1%}), "
          f"{warm_requests} lock requests")
    checks = {
        "only lockmgr.self_s flagged": flagged == ["lockmgr.self_s"],
        "contended wall_s moved": wall_move > 0.5 * FRACTION,
        "sweep cache path unmoved": (warm_requests == 0
                                     and abs(warm_move) < 0.10),
    }
    for name, ok in checks.items():
        print(f"  {'PASS' if ok else 'FAIL'}: {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
