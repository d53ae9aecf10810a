#!/usr/bin/env python3
"""Deterministic Python call counts per simulated event.

Usage, from the root of a checkout::

    python3 tools/callcount.py --workload contended --seed 1
    python3 tools/callcount.py --workload all > callcount.txt

Runs one warm-up repetition of a benchmark workload (the shapes
defined in ``perfbench/workloads.py``: ``contended``, ``sweep``,
``observed``, ``distributed``), so that lazy imports and first-use
caches are not counted, then a second one with cProfile switched on only
inside ``run_simulation`` / ``run_distributed_simulation``: the part the
benchmark's ``wall_s`` times, without workload setup or the export
validation that runs after the timer stops.  ``sweep`` warms up on its
first spec, then runs all 18 specs serially in this process through
``RunSpec.execute`` (the benchmark fans them out over a pool and a
result cache, whose work is not per simulated event).  It prints the
total number of Python calls, the number of simulated events, calls per
event, and a table of calls per event by calling module and by calling
function.

Call counts do not move with host load, so they tell a change in the
work done per event apart from noise that a wall-clock pair cannot
resolve.  The counts are reported, not gated: any refactor moves them.
The totals include the one wrapper call per ``Simulator.run`` call that
counts the events.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("contended", "sweep", "observed", "distributed")
TOP = 15                # calling functions listed per workload


def _caller_label(func) -> str:
    """``module:function`` for a pstats function key."""
    filename, _line, name = func
    if filename == "~":
        return f"<builtin>:{name}"
    path = Path(filename)
    parts = path.with_suffix("").parts
    if "repro" in parts:
        # The last ``repro`` in the path is the package directory.
        start = max(i for i, part in enumerate(parts) if part == "repro")
        module = ".".join(parts[start:])
    else:
        module = path.stem
    return f"{module}:{name}"


def count(workload: str, seed: int):
    """Profile the timed part of one repetition, after a warm-up one;
    returns (total calls, events, per-caller call counts keyed by
    ``module:function``)."""
    import workloads
    from repro.distributed import runner as distributed_runner
    from repro.experiments import parallel, runner
    from repro.sim.engine import Simulator

    profile = cProfile.Profile()
    events = [0]
    run = Simulator.run

    def counted_run(self, *args, **kwargs):
        fired = run(self, *args, **kwargs)
        events[0] += fired
        return fired

    def profiled(func):
        def timed_part(*args, **kwargs):
            profile.enable()
            try:
                return func(*args, **kwargs)
            finally:
                profile.disable()
        return timed_part

    # RunSpec.execute calls the name bound in the parallel module.
    patches = ((Simulator, "run", counted_run),
               (runner, "run_simulation",
                profiled(runner.run_simulation)),
               (parallel, "run_simulation",
                profiled(parallel.run_simulation)),
               (distributed_runner, "run_distributed_simulation",
                profiled(distributed_runner.run_distributed_simulation)))
    with tempfile.TemporaryDirectory() as work_dir:
        job = workloads.build(workload, seed, Path(work_dir))
        if workload == "sweep":
            specs = job.specs
            specs[0].execute()          # warm-up, not counted

            def repetition():
                for spec in specs:
                    spec.execute()
        else:
            job.rep()                   # warm-up, not counted
            repetition = job.rep
        originals = [(owner, name, getattr(owner, name))
                     for owner, name, _ in patches]
        for owner, name, patched in patches:
            setattr(owner, name, patched)
        try:
            rep = repetition()
        finally:
            for owner, name, original in originals:
                setattr(owner, name, original)
    if rep is not None and rep.failed:
        raise SystemExit(f"{workload}: run failed: {rep.problems}")
    stats = pstats.Stats(profile).stats
    by_caller: Counter = Counter()
    total = 0
    for _func, (_cc, ncalls, _tt, _ct, callers) in stats.items():
        total += ncalls
        for caller, (_ccc, caller_calls, _ctt, _cct) in callers.items():
            by_caller[_caller_label(caller)] += caller_calls
    return total, events[0], by_caller


def report(workload: str, seed: int) -> str:
    total, events, by_caller = count(workload, seed)
    lines = [f"{workload} seed {seed}: {total} calls, {events} events, "
             f"{total / events:.2f} calls per event"]
    modules: Counter = Counter()
    for label, n in by_caller.items():
        modules[label.split(":")[0]] += n
    lines.append(f"  {'calls/event':>11}  {'calls':>9}  calling module")
    for module, n in modules.most_common():
        if n / events >= 0.05:
            lines.append(f"  {n / events:11.2f}  {n:9d}  {module}")
    lines.append(f"  {'calls/event':>11}  {'calls':>9}  calling function "
                 f"(top {TOP})")
    for label, n in by_caller.most_common(TOP):
        lines.append(f"  {n / events:11.2f}  {n:9d}  {label}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="contended",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print("\n\n".join(report(name, args.seed) for name in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
