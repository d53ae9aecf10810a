"""Outside-in per-layer tracing for the benchmark.

The program is not changed to be traced.  :class:`LayerTracer` replaces
the public methods of each layer's classes (and a few module-level
functions) with counting, timing wrappers, and puts the originals back
afterwards.  Call sites such as ``self.lock_table.request`` resolve
through the class at call time, so the wrappers also see the calls made
by ``DBMSSystem``'s hook-free ``_fast`` dispatch twins, provided the
tracer is installed before the system is built.

Each wrapper records, per wrapped callable: the number of calls, the
*self* time (inclusive time minus the inclusive time of wrapped calls
nested inside it) and the number of nested wrapped calls.  The cost of
an empty wrapper is calibrated once and subtracted when the layer
metrics are computed: the part spent inside the timed window is charged
to the callee, the part outside it to its caller.

Coarse spans (workload, repetition, runner call, ``Simulator.run`` call
= one batch) are kept in memory and written out when the benchmark
ends.  Pool workers of the sweep executor are forked with the wrappers
in place; each worker writes the counters and spans of every spec it ran
to a file, which the parent merges when ``run_specs`` returns.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# Hot methods, wrapped with the lean wrapper: (stat prefix, module,
# class, methods).  The prefix's first dotted part names the layer after
# the module that holds it.
CLASS_TARGETS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim.calendar", "repro.sim.engine", "Simulator",
     ("post", "schedule", "schedule_at")),
    ("resources.cpu", "repro.sim.resources.cpu", "CpuPool", ("request",)),
    ("resources.disk", "repro.sim.resources.disk", "DiskArray",
     ("access", "access_random")),
    ("lockmgr.table", "repro.lockmgr.lock_table", "LockTable",
     ("release", "release_all", "cancel_wait")),
    ("core.tracker", "repro.core.state_tracker", "StateTracker",
     ("add", "remove", "set_blocked", "set_mature")),
    ("metrics.collector", "repro.metrics.collector", "Collector",
     ("on_page_read", "on_page_written", "on_admission", "on_commit",
      "on_abort", "set_populations", "set_ready_queue_length",
      "set_parked_count", "snapshot")),
    # Lifecycle entry points the controllers call back into: wrapped so
    # the abort and admission work they trigger is charged to the DBMS
    # (or the distributed model), not to the controller hook.
    ("lifecycle.dbms", "repro.dbms.system", "DBMSSystem",
     ("abort_transaction", "_abort_transaction_fast", "try_admit_one")),
    ("lifecycle.distributed", "repro.distributed.system",
     "DistributedSystem", ("abort_transaction",)),
    ("lifecycle.distributed", "repro.distributed.system", "_SiteView",
     ("try_admit_one",)),
    ("experiments.cache_get", "repro.experiments.parallel", "ResultCache",
     ("get",)),
    ("experiments.cache_put", "repro.experiments.parallel", "ResultCache",
     ("put",)),
    ("telemetry.tracer", "repro.metrics.trace", "Tracer",
     ("record", "record_abort")),
    ("telemetry.spans", "repro.telemetry.spans", "SpanRecorder",
     ("on_arrival", "on_ready_enqueued", "on_ready_dequeued", "begin_cpu",
      "begin_disk", "end_service", "on_block", "on_unblock",
      "on_passivate", "on_abort", "on_commit")),
    ("telemetry.contention", "repro.telemetry.contention",
     "ContentionMonitor", ("on_block", "on_unblock", "on_abort",
                           "on_sample")),
    ("telemetry.probes", "repro.telemetry.probes", "ProbeScheduler",
     ("sample",)),
    ("telemetry.online", "repro.telemetry.online", "OnlineRegimeMonitor",
     ("on_sample",)),
    ("verify.checker", "repro.verify.invariants", "InvariantChecker",
     ("on_event", "on_commit")),
    ("verify.shadow", "repro.verify.shadow", "ShadowLockTable",
     ("request", "release", "release_all", "cancel_wait")),
    ("distributed.network", "repro.distributed.network", "Network",
     ("send", "call")),
)

CONTROLLER_HOOKS = ("want_admit", "on_admit", "on_lock_granted", "on_block",
                    "on_unblock", "on_commit", "on_abort", "on_removed")

# Stat keys whose self time is the residual of a layer that cannot be
# split further from outside: event dispatch plus the lifecycle
# callbacks (and their twins) run inside Simulator.run.
RESIDUAL_KEYS = ("engine.run", "lifecycle.dbms", "lifecycle.distributed")


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class LayerTracer:
    """Wraps the layers' public callables; see the module docstring."""

    def __init__(self, run_id: str, dump_dir: Path):
        self.run_id = run_id
        self.pid = os.getpid()
        self.dump_dir = Path(dump_dir)
        # stat key -> [calls, raw self seconds, nested wrapped calls]
        self.stats: Dict[str, List[float]] = {}
        # additive per-run facts read from results and live objects
        self.counts: Dict[str, float] = defaultdict(int)
        self.spec_walls: List[float] = []
        self.spans: List[Dict[str, Any]] = []
        # Per active wrapped call: inclusive seconds and number of the
        # wrapped calls nested directly inside it.  Parallel stacks of
        # floats and ints, so a wrapped call allocates no tracked object
        # for the garbage collector; index 0 is the root.
        self._child_s: List[float] = [0.0]
        self._child_n: List[int] = [0]
        self._span_stack: List[Optional[str]] = [None]
        self._span_seq = 0
        self._patches: List[Tuple[Any, str, Any]] = []
        self._systems: List[Any] = []
        self._epoch = perf_counter()
        self._calibrated = False
        self.wrapper_in_s = 0.0
        self.wrapper_out_s = 0.0

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _stat(self, key: str) -> List[float]:
        return self.stats.setdefault(key, [0, 0.0, 0])

    def _lean(self, orig: Callable, key: str) -> Callable:
        stat = self._stat(key)
        child_s, child_n = self._child_s, self._child_n
        clock = perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            child_s.append(0.0)
            child_n.append(0)
            start = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[1] += elapsed - child_s.pop()
                stat[2] += child_n.pop()
                stat[0] += 1
                child_s[-1] += elapsed
                child_n[-1] += 1
        return wrapper

    def _lock_request(self, orig: Callable, key: str) -> Callable:
        """Lean wrapper for ``LockTable.request`` that also counts grants."""
        from repro.lockmgr.lock_table import RequestOutcome
        granted = RequestOutcome.GRANTED
        stat = self._stat(key)
        counts = self.counts
        child_s, child_n = self._child_s, self._child_n
        clock = perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            child_s.append(0.0)
            child_n.append(0)
            start = clock()
            try:
                outcome = orig(*args, **kwargs)
                if outcome is granted:
                    counts["lock_grants"] += 1
                return outcome
            finally:
                elapsed = clock() - start
                stat[1] += elapsed - child_s.pop()
                stat[2] += child_n.pop()
                stat[0] += 1
                child_s[-1] += elapsed
                child_n[-1] += 1
        return wrapper

    def _coarse(self, orig: Callable, key: str, span: Optional[str] = None,
                after: Optional[Callable] = None) -> Callable:
        """Wrapper for rarely called callables: optional span and an
        ``after(result, args)`` hook run inside the timed window."""
        stat = self._stat(key)
        child_s, child_n = self._child_s, self._child_n
        clock = perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span_id = self._open_span(span) if span else None
            child_s.append(0.0)
            child_n.append(0)
            start = clock()
            try:
                result = orig(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                elapsed = clock() - start
                stat[1] += elapsed - child_s.pop()
                stat[2] += child_n.pop()
                stat[0] += 1
                child_s[-1] += elapsed
                child_n[-1] += 1
                if span_id is not None:
                    self._close_span(span_id, span, start, start + elapsed)
        return wrapper

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _open_span(self, name: str) -> str:
        self._span_seq += 1
        span_id = f"{os.getpid()}:{self._span_seq}"
        self._span_stack.append(span_id)
        return span_id

    def _close_span(self, span_id: str, name: str, start: float,
                    end: float) -> None:
        self._span_stack.pop()
        self.spans.append({
            "id": span_id, "name": name, "parent": self._span_stack[-1],
            "start": start - self._epoch, "end": end - self._epoch,
            "run_id": self.run_id, "pid": os.getpid()})

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one coarse span around a block of the benchmark."""
        span_id = self._open_span(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close_span(span_id, name, start, perf_counter())

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]
                              if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, replacement)

    def _patch_function(self, module_name: str, name: str,
                        make: Callable[[Callable], Callable]) -> None:
        """Replace a module-level function in its module and in every
        ``repro`` module that imported it by name."""
        orig = getattr(importlib.import_module(module_name), name)
        wrapper = make(orig)
        for mod_name, module in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and \
                    getattr(module, name, None) is orig:
                self._patch(module, name, wrapper)

    def install(self) -> None:
        """Wrap every layer; the first install calibrates the wrapper
        cost."""
        if not self._calibrated:
            self._calibrate()
            self._calibrated = True
        for prefix, module_name, class_name, methods in CLASS_TARGETS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                self._patch(cls, method,
                            self._lean(cls.__dict__[method],
                                       f"{prefix}.{method}"))
        from repro.lockmgr.lock_table import LockTable
        self._patch(LockTable, "request",
                    self._lock_request(LockTable.__dict__["request"],
                                       "lockmgr.table.request"))
        self._install_controllers()
        self._install_coarse()

    def _install_controllers(self) -> None:
        """Wrap the hooks of every loaded controller class (the workloads
        import theirs before the tracer is installed)."""
        from repro.control.base import LoadController
        todo, seen = [LoadController], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            for hook in CONTROLLER_HOOKS:
                if hook in cls.__dict__:
                    self._patch(cls, hook, self._lean(
                        cls.__dict__[hook],
                        f"control.{cls.__name__}.{hook}"))

    def _install_coarse(self) -> None:
        from repro.dbms.system import DBMSSystem
        from repro.distributed.system import DistributedSystem
        from repro.experiments import parallel
        from repro.sim.engine import Simulator
        from repro.telemetry.export import TelemetrySession
        from repro.verify.invariants import InvariantChecker
        counts = self.counts

        def count_events(fired, args):
            counts["events"] += fired

        def count_victims(victims, args):
            counts["deadlock_victims"] += len(victims)

        def capture_system(result, args):
            self._systems.append(args[0])

        def record_run(results, args):
            self._account_run(results)

        def record_spec_wall(result, args):
            self.spec_walls.append(args[2])   # (self, pend, elapsed, result)

        def record_export(out_dir, args):
            counts["export_bytes"] += sum(
                p.stat().st_size for p in Path(out_dir).iterdir()
                if p.is_file())

        def merge_workers(result, args):
            self._merge_worker_dumps()

        for cls, name, key, span, after in (
                (Simulator, "run", "engine.run", "Simulator.run",
                 count_events),
                (DBMSSystem, "start", "lifecycle.dbms.start", None,
                 capture_system),
                (DistributedSystem, "start", "lifecycle.distributed.start",
                 None, capture_system),
                (parallel._BatchExecutor, "_deliver",
                 "experiments.executor.deliver", None, record_spec_wall),
                (TelemetrySession, "finalize", "telemetry.export.finalize",
                 None, record_export),
                (InvariantChecker, "check_all", "verify.checker.check_all",
                 None, None)):
            self._patch(cls, name, self._coarse(cls.__dict__[name], key,
                                                span, after))

        for module_name, name, key, span, after in (
                ("repro.lockmgr.deadlock", "resolve_deadlocks",
                 "lockmgr.deadlock.resolve_deadlocks", None, count_victims),
                ("repro.experiments.runner", "run_simulation",
                 "runner.run_simulation", "run_simulation", record_run),
                ("repro.distributed.runner", "run_distributed_simulation",
                 "runner.run_distributed_simulation",
                 "run_distributed_simulation", record_run),
                ("repro.experiments.parallel", "spec_key",
                 "experiments.spec_key", None, None),
                ("repro.experiments.parallel", "run_specs",
                 "experiments.executor.run_specs", "run_specs",
                 merge_workers)):
            self._patch_function(
                module_name, name,
                functools.partial(self._coarse, key=key, span=span,
                                  after=after))
        self._patch_function("repro.experiments.parallel", "_execute_spec",
                             self._worker_entry)

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------

    def _calibrate(self, rounds: int = 10_000, trials: int = 11) -> None:
        """Measure what an empty wrapper adds to a method call, split into
        the part inside its timed window and the part outside it.

        The calls mix the shapes the layers see: eight distinct wrapped
        methods in turn, called with one to four positional arguments
        or with a keyword argument.  Each trial times the empty loop, the
        bare calls and the wrapped calls back to back, so a change in
        machine speed between trials cancels; the cost is the median
        over trials.
        """

        def make_classes():
            # Compiled once per class, so each method has its own code
            # object and call-site caches, as distinct layer methods do.
            source = ("class Layer:\n"
                      "    def call(self, a, b=None, *rest):\n"
                      "        return a\n")
            classes = []
            for _ in range(8):
                namespace: Dict[str, Any] = {}
                exec(source, namespace)
                classes.append(namespace["Layer"])
            return classes

        keys = [f"calibration.{i}" for i in range(8)]
        wrapped_classes = make_classes()
        for cls, key in zip(wrapped_classes, keys):
            cls.call = self._lean(cls.__dict__["call"], key)

        def mix(objects):
            o0, o1, o2, o3, o4, o5, o6, o7 = objects
            start = perf_counter()
            for _ in range(rounds):
                o0.call(1)
                o1.call(1, 2)
                o2.call(1, 2, 3)
                o3.call(1, b=2)
                o4.call(1)
                o5.call(1, 2)
                o6.call(1, 2, 3, 4)
                o7.call(1, b=2)
            return perf_counter() - start

        def empty():
            start = perf_counter()
            for _ in range(rounds):
                pass
            return perf_counter() - start

        bare = [cls() for cls in make_classes()]
        wrapped = [cls() for cls in wrapped_classes]
        calls = 8 * rounds
        totals, insides = [], []
        for _ in range(trials):
            loop = empty()
            plain = mix(bare)
            before = sum(self.stats[key][1] for key in keys)
            traced = mix(wrapped)
            inside = sum(self.stats[key][1] for key in keys) - before
            totals.append((traced - plain) / calls)
            # The timed window holds the wrapped method's own call too.
            insides.append((inside - (plain - loop)) / calls)
        for key in keys:
            del self.stats[key]
        self._child_s[0] = 0.0
        self._child_n[0] = 0
        total = max(0.0, _median(totals))
        self.wrapper_in_s = min(max(0.0, _median(insides)), total)
        self.wrapper_out_s = total - self.wrapper_in_s

    # ------------------------------------------------------------------
    # Per-run facts
    # ------------------------------------------------------------------

    def _account_run(self, results) -> None:
        counts = self.counts
        window = results.measurement_time
        counts["runs"] += 1
        counts["commits"] += results.commits
        counts["aborts"] += results.aborts
        counts["lc_victims"] += results.aborts_by_reason.get(
            "load_control", 0)
        counts["raw_pages"] += results.raw_page_rate.mean * window
        counts["committed_pages"] += results.page_throughput.mean * window
        system = self._systems.pop() if self._systems else None
        self._systems.clear()
        if system is None:
            return
        elapsed = system.sim.now
        if hasattr(system, "remote_fraction"):
            rows = system.site_stats()
            counts["cpu_util"] += statistics.fmean(
                r["cpu_utilization"] for r in rows)
            counts["disk_util"] += statistics.fmean(
                r["disk_utilization"] for r in rows)
            counts["remote_frac"] += system.remote_fraction()
            counts["remote_accesses"] += system.remote_accesses
        else:
            counts["cpu_util"] += system.cpu.utilization(elapsed)
            counts["disk_util"] += system.disks.utilization(elapsed)

    # ------------------------------------------------------------------
    # Pool workers
    # ------------------------------------------------------------------

    def _worker_entry(self, orig: Callable) -> Callable:
        """Wrapper for the executor's worker function.  In the parent
        (serial path) it is transparent; in a forked worker it writes
        what the spec added to the counters and spans to a dump file."""
        run = self._coarse(orig, "experiments.worker.execute_spec", "spec")

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if os.getpid() == self.pid:
                return orig(*args, **kwargs)
            before = self.snapshot()
            mark = len(self.spans)
            try:
                return run(*args, **kwargs)
            finally:
                stats, counts, walls = self.delta(before)
                self._span_seq += 1
                path = self.dump_dir / f"worker-{os.getpid()}-" \
                    f"{self._span_seq}.json"
                tmp = path.with_suffix(".tmp")
                tmp.write_text(json.dumps({
                    "stats": stats, "counts": counts,
                    "spans": self.spans[mark:]}))
                os.replace(tmp, path)
        return wrapper

    def _merge_worker_dumps(self) -> None:
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            dump = json.loads(path.read_text())
            path.unlink()
            for key, (calls, self_s, nested) in dump["stats"].items():
                self.counts["worker_self_s"] += self_s
                stat = self._stat(key)
                stat[0] += calls
                stat[1] += self_s
                stat[2] += nested
            for key, value in dump["counts"].items():
                self.counts[key] += value
            self.spans.extend(dump["spans"])

    # ------------------------------------------------------------------
    # Snapshots and metrics
    # ------------------------------------------------------------------

    def snapshot(self):
        return ({k: list(v) for k, v in self.stats.items()},
                dict(self.counts), len(self.spec_walls), self._child_s[0])

    def delta(self, before):
        """Counters added since ``before`` (a :meth:`snapshot`)."""
        stats0, counts0, walls0, _ = before
        stats = {}
        for key, stat in self.stats.items():
            old = stats0.get(key, (0, 0.0, 0))
            if stat[0] != old[0]:
                stats[key] = [stat[0] - old[0], stat[1] - old[1],
                              stat[2] - old[2]]
        counts = {k: v - counts0.get(k, 0) for k, v in self.counts.items()
                  if v != counts0.get(k, 0)}
        return stats, counts, self.spec_walls[walls0:]

    def root_inclusive_since(self, before) -> float:
        """Wall time spent inside top-level wrapped calls since
        ``before`` (the root frame's accumulated child time)."""
        return self._child_s[0] - before[3]

    def corrected_self(self, stat: List[float]) -> float:
        """Self time with the calibrated wrapper cost removed."""
        calls, self_s, nested = stat
        return (self_s - calls * self.wrapper_in_s
                - nested * self.wrapper_out_s)

    def write(self, path: Path, extra: Dict[str, Any]) -> None:
        payload = {"run_id": self.run_id,
                   "wrapper_ns": {"inside": self.wrapper_in_s * 1e9,
                                  "outside": self.wrapper_out_s * 1e9},
                   "spans": sorted(self.spans, key=lambda s: s["start"])}
        payload.update(extra)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True))


def _sum(rep, prefix: str, tracer: LayerTracer, field: str):
    stats = rep["stats"]
    keys = [k for k in stats if k == prefix or k.startswith(prefix + ".")]
    if field == "calls":
        return sum(stats[k][0] for k in keys)
    return sum(tracer.corrected_self(stats[k]) for k in keys)


# Per-layer metric name -> (stat prefix, "calls" | "self").
CALL_AND_SELF = {
    "sim.calendar_calls": ("sim.calendar", "calls"),
    "sim.calendar_self_s": ("sim.calendar", "self"),
    "resources.cpu_calls": ("resources.cpu", "calls"),
    "resources.disk_calls": ("resources.disk", "calls"),
    "resources.self_s": ("resources", "self"),
    "lockmgr.requests": ("lockmgr.table.request", "calls"),
    "lockmgr.self_s": ("lockmgr.table", "self"),
    "lockmgr.deadlock_calls": ("lockmgr.deadlock", "calls"),
    "lockmgr.deadlock_self_s": ("lockmgr.deadlock", "self"),
    "core.tracker_calls": ("core.tracker", "calls"),
    "core.self_s": ("core", "self"),
    "runner.self_s": ("runner", "self"),
    "control.hook_calls": ("control", "calls"),
    "control.self_s": ("control", "self"),
    "metrics.calls": ("metrics", "calls"),
    "metrics.self_s": ("metrics", "self"),
    "experiments.executor_self_s": ("experiments.executor", "self"),
    "experiments.cache_put_s": ("experiments.cache_put", "self"),
    "experiments.cache_get_s": ("experiments.cache_get", "self"),
    "experiments.spec_key_s": ("experiments.spec_key", "self"),
    "telemetry.tracer_calls": ("telemetry.tracer", "calls"),
    "telemetry.tracer_self_s": ("telemetry.tracer", "self"),
    "telemetry.spans_calls": ("telemetry.spans", "calls"),
    "telemetry.spans_self_s": ("telemetry.spans", "self"),
    "telemetry.contention_calls": ("telemetry.contention", "calls"),
    "telemetry.contention_self_s": ("telemetry.contention", "self"),
    "telemetry.probes_calls": ("telemetry.probes", "calls"),
    "telemetry.probes_self_s": ("telemetry.probes", "self"),
    "telemetry.online_calls": ("telemetry.online", "calls"),
    "telemetry.online_self_s": ("telemetry.online", "self"),
    "telemetry.export_s": ("telemetry.export", "self"),
    "verify.checks": ("verify.checker.check_all", "calls"),
    "verify.self_s": ("verify.checker", "self"),
    "verify.shadow_ops": ("verify.shadow", "calls"),
    "verify.shadow_self_s": ("verify.shadow", "self"),
    "distributed.messages": ("distributed.network", "calls"),
    "distributed.network_self_s": ("distributed.network", "self"),
}


def layer_metrics(tracer: LayerTracer, reps: List[Dict[str, Any]],
                  distributed: bool) -> Dict[str, float]:
    """Per-layer metrics for one workload from its traced repetitions.

    Counts are taken from the first repetition (every repetition runs
    the same inputs, so they repeat exactly; the caller checks that);
    times are medians over the repetitions.
    """
    first = reps[0]
    counts = first["counts"]

    def per_rep(fn) -> float:
        return _median([fn(rep) for rep in reps])

    out: Dict[str, float] = {}
    for name, (prefix, field) in CALL_AND_SELF.items():
        if field == "calls":
            out[name] = _sum(first, prefix, tracer, "calls")
        else:
            out[name] = per_rep(
                lambda rep, p=prefix: _sum(rep, p, tracer, "self"))
    # lockmgr.releases covers release, release_all and cancel_wait.
    out["lockmgr.releases"] = sum(
        _sum(first, f"lockmgr.table.{m}", tracer, "calls")
        for m in ("release", "release_all", "cancel_wait"))
    residual = per_rep(lambda rep: sum(
        _sum(rep, key, tracer, "self") for key in RESIDUAL_KEYS))
    out["dbms.self_s"] = 0.0 if distributed else residual
    out["distributed.self_s"] = residual if distributed else 0.0

    runs = counts.get("runs", 0) or 1
    commits = counts.get("commits", 0)
    aborts = counts.get("aborts", 0)
    raw = counts.get("raw_pages", 0.0)
    out["sim.events"] = counts.get("events", 0)
    out["dbms.aborts"] = aborts
    out["dbms.useful_frac"] = (commits / (commits + aborts)
                               if commits + aborts else 0.0)
    out["dbms.wasted_page_frac"] = (
        1.0 - counts.get("committed_pages", 0.0) / raw if raw else 0.0)
    out["resources.cpu_util"] = counts.get("cpu_util", 0.0) / runs
    out["resources.disk_util"] = counts.get("disk_util", 0.0) / runs
    requests = out["lockmgr.requests"]
    out["lockmgr.grant_frac"] = (counts.get("lock_grants", 0) / requests
                                 if requests else 0.0)
    out["lockmgr.ns_per_request"] = (out["lockmgr.self_s"] / requests * 1e9
                                     if requests else 0.0)
    out["lockmgr.deadlock_victims"] = counts.get("deadlock_victims", 0)
    hooks = out["control.hook_calls"]
    out["control.ns_per_hook"] = (out["control.self_s"] / hooks * 1e9
                                  if hooks else 0.0)
    out["control.victims"] = counts.get("lc_victims", 0)
    out["telemetry.export_bytes"] = per_rep(
        lambda rep: rep["counts"].get("export_bytes", 0))
    out["distributed.remote_frac"] = counts.get("remote_frac", 0.0) / runs
    out["distributed.remote_accesses"] = counts.get("remote_accesses", 0)

    walls = [rep["spec_walls"] for rep in reps]
    jobs_wall = [rep["info"].get("jobs", 0) * rep["info"].get("cold_wall", 0)
                 for rep in reps]
    out["experiments.pool_efficiency"] = _median(
        [sum(w) / jw for w, jw in zip(walls, jobs_wall) if jw > 0])
    out["experiments.spec_wall_max_s"] = _median(
        [max(w) for w in walls if w])
    for name in ("specs", "cache_bytes", "cache_hit_frac", "retried",
                 "failed"):
        out[f"experiments.{name}"] = first["info"].get(name, 0)
    return out
