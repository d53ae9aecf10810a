"""The benchmark's four workloads.

Every workload is a batch of closed-system simulations: each modelled
DBMS has N terminals with zero think time, so a terminal submits its
next transaction only after the previous one committed.  The benchmark
runner (``run.py``) is a single process running one repetition after
another; only ``sweep`` fans out, over at most two pool workers.

All inputs derive from the benchmark seed, which becomes every run's
``SimulationParameters.seed``.  A repetition returns a :class:`Rep`:
its timed wall, the simulated work it did, and per-run statistics that
``run.py`` compares across repetitions, against the traced run, and,
for the default seed, against pinned values.

Imports of ``repro`` happen inside :func:`build`, so that the set-up
probe times them.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

WORKLOADS = ("contended", "sweep", "observed", "distributed")

# The sweep's worker count: the machine the benchmark was sized on has
# two cores.
SWEEP_JOBS = 2


# Each workload class has ``jobs``: the number of processes its simulated
# work runs in at once -- 1 when it all runs in the benchmark's own
# process.  Only with more than one are the pool workers' memory peaks
# counted (see run.py).
#
# The single-simulation workloads are sized to well under a second per
# repetition, so that a run holds dozens of repetitions and its fastest
# one finds a quiet stretch of a shared host (see run.fast_wall).


@dataclass
class Rep:
    """What one repetition of a workload did."""

    wall: float = 0.0              # timed wall seconds
    pages: float = 0.0             # simulated pages in measurement windows
    stats: List[List[Any]] = field(default_factory=list)   # per run
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    info: Dict[str, float] = field(default_factory=dict)   # layer facts

    def fail(self, message: str) -> None:
        """Record a problem; a run fails at most once."""
        self.failed = min(self.failed + 1, max(self.attempted, 1))
        self.problems.append(message)


def run_stats(results, events=None) -> List[Any]:
    """The simulated statistics one run is checked on."""
    window = results.measurement_time
    row = [results.commits, results.aborts,
           results.raw_page_rate.mean * window,
           results.page_throughput.mean * window]
    if events is not None:
        row.append(events)
    return row


class Contended:
    """One long Half-and-Half run with no hooks attached, on the pinned
    ``high_contention`` shape (300 pages, write probability 0.5) at 200
    terminals: lock waits, deadlock detection and the controller's abort
    path do most of the work -- the thrashing regime of the paper."""

    name = "contended"
    jobs = 1

    def __init__(self, seed: int, work_dir: Path):
        from repro.core.half_and_half import HalfAndHalfController
        from repro.dbms.config import SimulationParameters
        from repro.experiments import runner
        from repro.sim.engine import Simulator
        self._runner = runner
        self._controller = HalfAndHalfController
        self._simulator = Simulator
        self.params = SimulationParameters(
            db_size=300, write_prob=0.5, num_terms=200, seed=seed,
            warmup_time=30.0, num_batches=5, batch_time=40.0)

    def rep(self) -> Rep:
        rep = Rep(attempted=1)
        controller = self._controller()
        sim = self._simulator()
        start = perf_counter()
        results = self._runner.run_simulation(self.params, controller,
                                              sim=sim)
        rep.wall = perf_counter() - start
        row = run_stats(results, sim.events_executed)
        rep.stats.append(row)
        rep.pages = row[2]
        if results.aborts == 0:
            rep.fail("contended run had no aborts")
        return rep


class Sweep:
    """The fig07 terminal sweep at ``bench`` scale (Half-and-Half and raw
    2PL at 9 terminal counts, 18 specs) through ``run_specs`` with two
    workers into a fresh result cache, then the same sweep again warm."""

    name = "sweep"
    jobs = SWEEP_JOBS

    def __init__(self, seed: int, work_dir: Path):
        from repro.control.no_control import NoControlController
        from repro.core.half_and_half import HalfAndHalfController
        from repro.experiments import parallel
        from repro.experiments.scales import BENCH
        from repro.experiments.studies import (base_params,
                                               terminal_sweep_points)
        self._parallel = parallel
        self._work_dir = work_dir
        self._count = 0
        self.specs = []
        for terms in terminal_sweep_points(BENCH):
            params = base_params(BENCH, num_terms=terms, seed=seed)
            self.specs.append(parallel.RunSpec(
                params=params, controller_factory=HalfAndHalfController))
            self.specs.append(parallel.RunSpec(
                params=params, controller_factory=NoControlController))

    def rep(self) -> Rep:
        parallel = self._parallel
        total = len(self.specs)
        rep = Rep(attempted=2 * total)
        self._count += 1
        cache_dir = self._work_dir / f"cache-{self._count}"
        cache = parallel.ResultCache(cache_dir)
        try:
            start = perf_counter()
            cold = parallel.run_specs(self.specs, jobs=SWEEP_JOBS,
                                      cache=cache, label="fig07")
            cold_wall = perf_counter() - start
            cold_stats = parallel.last_batch_stats()
            start = perf_counter()
            warm = parallel.run_specs(self.specs, jobs=SWEEP_JOBS,
                                      cache=cache, label="fig07")
            warm_wall = perf_counter() - start
            warm_stats = parallel.last_batch_stats()
            rep.wall = cold_wall + warm_wall
            cache_bytes = sum(p.stat().st_size
                              for p in cache_dir.glob("*.pkl"))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        rep.stats = [run_stats(r) for r in cold]
        rep.pages = sum(row[2] for row in rep.stats)
        if cold_stats.executed != total:
            rep.fail(f"cold pass executed {cold_stats.executed} of {total}")
        if warm_stats.cached != total:
            rep.fail(f"warm pass served {warm_stats.cached} of {total} "
                     f"from the cache")
        for i, result in enumerate(warm):
            if run_stats(result) != rep.stats[i]:
                rep.fail(f"spec {i}: warm result differs from cold result")
        rep.info = {
            "specs": total, "jobs": SWEEP_JOBS, "cold_wall": cold_wall,
            "cache_bytes": cache_bytes,
            "cache_hit_frac": warm_stats.cached / total,
            "retried": cold_stats.retried + warm_stats.retried,
            "failed": cold_stats.failed + warm_stats.failed,
        }
        return rep


class Observed:
    """The base case (100 terminals, 1000 pages) with every observer
    attached: a telemetry session with tracer, probes, spans, contention
    and online regime monitor, plus the default verification (sampled
    invariants and the shadow lock table).  Exports land in a scratch
    directory and must pass schema validation."""

    name = "observed"
    jobs = 1

    def __init__(self, seed: int, work_dir: Path):
        from repro.core.half_and_half import HalfAndHalfController
        from repro.dbms.config import SimulationParameters
        from repro.experiments import runner
        from repro.sim.engine import Simulator
        from repro.telemetry import TelemetrySession, validate_run_dir
        from repro.verify.config import VerifyConfig
        self._runner = runner
        self._controller = HalfAndHalfController
        self._simulator = Simulator
        self._session = TelemetrySession
        self._validate = validate_run_dir
        self._verify = VerifyConfig
        self._work_dir = work_dir
        self._count = 0
        self.params = SimulationParameters(
            num_terms=100, db_size=1000, seed=seed,
            warmup_time=10.0, num_batches=1, batch_time=10.0)

    def rep(self) -> Rep:
        rep = Rep(attempted=1)
        self._count += 1
        out_dir = self._work_dir / f"observed-{self._count}"
        session = self._session(out_dir, spans=True, contention=True,
                                online=True)
        controller = self._controller()
        sim = self._simulator()
        try:
            start = perf_counter()
            results = self._runner.run_simulation(
                self.params, controller, telemetry=session,
                verify=self._verify(), sim=sim)
            rep.wall = perf_counter() - start
            errors = self._validate(out_dir)
            if errors:
                rep.fail(f"exports fail validation: {errors[:3]}")
            rep.info["export_bytes"] = sum(
                p.stat().st_size for p in out_dir.iterdir() if p.is_file())
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        row = run_stats(results, sim.events_executed)
        rep.stats.append(row)
        rep.pages = row[2]
        return rep


class Distributed:
    """A 4-site cluster with a Half-and-Half controller per site and
    locality 0.8, through ``run_distributed_simulation``: the second
    transaction lifecycle.  The failure model is on, so remote
    operations and real 2PC go through the message network, but with no
    jitter, no loss and no fault plan: no failure happens and no
    randomness is drawn for the network."""

    name = "distributed"
    jobs = 1

    def __init__(self, seed: int, work_dir: Path):
        from repro.distributed import runner
        from repro.distributed.config import DistributedParameters
        from repro.distributed.controllers import make_half_and_half_sites
        self._runner = runner
        self._controllers = make_half_and_half_sites
        self.params = DistributedParameters(
            num_sites=4, locality=0.8, failure_model=True, msg_jitter=0.0,
            msg_loss_prob=0.0, seed=seed,
            warmup_time=10.0, num_batches=3, batch_time=15.0)

    def rep(self) -> Rep:
        rep = Rep(attempted=1)
        controllers = self._controllers(self.params.num_sites)
        start = perf_counter()
        results = self._runner.run_distributed_simulation(self.params,
                                                          controllers)
        rep.wall = perf_counter() - start
        row = run_stats(results)
        rep.stats.append(row)
        rep.pages = row[2]
        return rep


def build(name: str, seed: int, work_dir: Path):
    """Import the program and build one workload's inputs."""
    classes = {cls.name: cls for cls in (Contended, Sweep, Observed,
                                         Distributed)}
    return classes[name](seed, work_dir)
