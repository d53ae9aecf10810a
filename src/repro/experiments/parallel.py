"""Deterministic, fault-tolerant fan-out execution for independent runs.

Every figure and study in this package reduces to the same shape of work:
a list of completely independent ``(parameters, controller, options)``
run specifications whose results are assembled afterwards.  Each run owns
its own :class:`~repro.sim.rng.RandomStreams` seeded from its parameters,
so executing the list serially, in a process pool, partly from a cache,
or *again after a crash* yields bit-identical results — the only thing
that changes is wall clock time.

Four pieces live here:

* :class:`RunSpec` — a picklable description of one simulation run.
  Controllers hold per-run state, so the spec carries a factory (class or
  module-level callable) plus arguments rather than an instance.
* :class:`ResultCache` — a content-addressed on-disk cache.  The key is a
  stable hash of the full run specification plus a fingerprint of the
  package sources, so results survive process restarts but never leak
  across code or parameter changes.  Every entry carries a sha256
  integrity footer; corrupt or truncated entries are treated as misses
  and moved aside to ``<key>.pkl.corrupt``.
* :func:`run_specs` — the executor.  With ``jobs=1`` it runs in-process;
  with ``jobs>1`` it fans out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Results always come
  back in input order.  Duplicate specs within one batch execute once.
* The resilience layer (:mod:`repro.resilience`): a
  :class:`~repro.resilience.ResiliencePolicy` gives each spec retries
  with exponential backoff under a batch-wide retry budget, arms a
  wall-clock watchdog that kills hung workers and restarts the pool,
  recovers from :class:`~concurrent.futures.process.BrokenProcessPool`
  by rebuilding the pool and eventually quarantining "poison" specs,
  and — under partial delivery — returns
  :class:`~repro.resilience.FailedRun` sentinels instead of raising.
  With a cache attached, completed keys are journaled to a
  :class:`~repro.resilience.SweepCheckpoint` (flushed on SIGINT too),
  so a killed sweep resumes from the remainder.

Callers normally do not pass ``jobs``/``cache`` explicitly: the CLI (and
any other entry point) installs an ambient :class:`ExecutionContext` via
:func:`execution_context`, and every sweep, study, and figure below it
picks the settings up automatically.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import multiprocessing
import os
import pickle
import signal
import sys
import tempfile
import threading
import time
import types
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, wait)
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, Iterator,
                    List, Optional, Sequence, Tuple, Union)

from repro.dbms.config import SimulationParameters
from repro.errors import ExperimentError, SpecExecutionError
from repro.experiments.runner import WorkloadFactory, run_simulation
from repro.fingerprint import code_fingerprint, sha256
from repro.metrics.results import SimulationResults
from repro.resilience.checkpoint import SweepCheckpoint
from repro.resilience.failures import AttemptRecord, FailedRun, FailureKind
from repro.resilience.policy import ResiliencePolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faultinject.harness import HarnessFault, HarnessFaultPlan
    from repro.telemetry.export import TelemetryConfig

__all__ = [
    "RunSpec",
    "ResultCache",
    "ExecutionContext",
    "execution_context",
    "current_context",
    "run_specs",
    "stable_token",
    "code_fingerprint",
    "BatchStats",
    "last_batch_stats",
]

# Bump when the meaning of cached payloads changes (v2: entries carry a
# sha256 integrity footer).
_CACHE_FORMAT = "repro-result-v2"

# One simulation result, or the typed failure record that replaces it
# under partial delivery.
RunOutcome = Union[SimulationResults, FailedRun]


# ----------------------------------------------------------------------
# Run specifications
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run, described by picklable data.

    Attributes:
        params: the full simulation parameters (including the seed).
        controller_factory: a picklable callable (typically a controller
            class) producing a *fresh* controller for this run.
        controller_args / controller_kwargs: arguments for the factory;
            ``controller_kwargs`` is a tuple of ``(name, value)`` pairs so
            the spec stays hashable and order-insensitive for caching.
        workload_factory: optional picklable workload factory (module-level
            function or instance of a module-level class — closures cannot
            cross process boundaries).
        wait_policy / maturity_rule / admission_order / deadlock_strategy:
            passed straight through to :func:`run_simulation`.
        fault_schedule: optional :class:`repro.faultinject.FaultSchedule`
            of simulated-resource disturbance windows; part of the cache
            key (a disturbed run is a different experiment).
        verify: optional :class:`repro.verify.VerifyConfig` baked into
            the spec.  ``None`` (the default) leaves the cache key
            byte-identical to pre-verification specs; a non-None config
            joins the key (a spec that *demands* verification is a
            different artifact).  Context-level verification (the CLI's
            ``--verify``) is applied at execution time instead and is
            deliberately *not* part of the key: verification is
            observational, so verified and unverified executions of the
            same spec produce the same results.
        tag: caller-chosen label carried through to progress output; not
            part of the cache key.
    """

    params: SimulationParameters
    controller_factory: Callable[..., Any]
    controller_args: Tuple[Any, ...] = ()
    controller_kwargs: Tuple[Tuple[str, Any], ...] = ()
    workload_factory: Optional[WorkloadFactory] = None
    wait_policy: Any = None
    maturity_rule: Any = None
    admission_order: Any = None
    deadlock_strategy: Any = None
    fault_schedule: Any = None
    verify: Any = None
    tag: Any = None

    def make_controller(self):
        """Instantiate a fresh controller for one run."""
        return self.controller_factory(*self.controller_args,
                                       **dict(self.controller_kwargs))

    def execute(self, telemetry=None, verify=None) -> SimulationResults:
        """Run this spec in the current process.

        ``telemetry`` is an optional
        :class:`repro.telemetry.TelemetrySession`; the executor opens
        one per spec when a telemetry directory is configured.
        ``verify`` is an optional :class:`repro.verify.VerifyConfig`
        applied for this execution only; the spec's own ``verify`` field
        wins when both are set.
        """
        return run_simulation(
            self.params,
            self.make_controller(),
            workload_factory=self.workload_factory,
            wait_policy=self.wait_policy,
            maturity_rule=self.maturity_rule,
            admission_order=self.admission_order,
            deadlock_strategy=self.deadlock_strategy,
            telemetry=telemetry,
            fault_schedule=self.fault_schedule,
            verify=self.verify if self.verify is not None else verify,
        )

    def describe(self) -> str:
        """Short human-readable label for progress lines."""
        factory = getattr(self.controller_factory, "__name__",
                          str(self.controller_factory))
        args = ", ".join(repr(a) for a in self.controller_args)
        label = f"{factory}({args})"
        if self.tag is not None:
            label += f" [{self.tag}]"
        return label


# ----------------------------------------------------------------------
# Stable cache keys
# ----------------------------------------------------------------------

def stable_token(obj: Any) -> str:
    """A deterministic, process-independent text form of ``obj``.

    Unlike ``pickle`` or plain ``repr``, the token does not depend on
    ``PYTHONHASHSEED``, dict insertion order, or object identity, so it is
    safe to hash into an on-disk cache key.  Containers recurse;
    dataclasses and plain objects serialize as class name + field values;
    functions and classes serialize by qualified name.
    """
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return repr(obj)
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__module__}.{type(obj).__qualname__}.{obj.name}"
    if isinstance(obj, (list, tuple)):
        inner = ",".join(stable_token(v) for v in obj)
        return f"[{inner}]" if isinstance(obj, list) else f"({inner})"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(stable_token(v) for v in obj)) + "}"
    if isinstance(obj, dict):
        items = sorted(
            f"{stable_token(k)}:{stable_token(v)}" for k, v in obj.items())
        return "{" + ",".join(items) + "}"
    if isinstance(obj, functools.partial):
        return (f"partial({stable_token(obj.func)},"
                f"{stable_token(obj.args)},{stable_token(obj.keywords)})")
    if isinstance(obj, types.MethodType):
        # Bound (class)methods: owner + function name.
        return (f"{stable_token(obj.__self__)}."
                f"{obj.__func__.__name__}")
    if isinstance(obj, (types.FunctionType, types.BuiltinFunctionType, type)):
        return f"{obj.__module__}.{obj.__qualname__}"
    if dataclasses.is_dataclass(obj):
        fields = {f.name: getattr(obj, f.name)
                  for f in dataclasses.fields(obj)}
        return (f"{type(obj).__module__}.{type(obj).__qualname__}"
                + stable_token(fields))
    state = getattr(obj, "__dict__", None)
    if state is None and hasattr(type(obj), "__slots__"):
        state = {name: getattr(obj, name)
                 for name in type(obj).__slots__ if hasattr(obj, name)}
    if state is not None:
        return (f"{type(obj).__module__}.{type(obj).__qualname__}"
                + stable_token(state))
    raise ExperimentError(
        f"cannot derive a stable cache token for {obj!r} "
        f"({type(obj).__qualname__})")


def spec_key(spec: RunSpec) -> str:
    """Content-addressed cache key for one run spec."""
    parts = [
        _CACHE_FORMAT,
        code_fingerprint(),
        stable_token(spec.params),
        stable_token(spec.controller_factory),
        stable_token(spec.controller_args),
        stable_token(dict(spec.controller_kwargs)),
        stable_token(spec.workload_factory),
        stable_token(spec.wait_policy),
        stable_token(spec.maturity_rule),
        stable_token(spec.admission_order),
        stable_token(spec.deadlock_strategy),
        stable_token(spec.fault_schedule),
    ]
    if spec.verify is not None:
        # Appended only when set, so every verify-free spec keeps the
        # exact key it had before the verify field existed and old cache
        # entries stay valid.
        parts.append(stable_token(spec.verify))
    return sha256("\n".join(parts).encode()).hexdigest()


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------

# Entry layout: pickle payload || sha256(payload) (32 bytes) || magic.
_FOOTER_MAGIC = b"RPCACHE1"
_FOOTER_LEN = 32 + len(_FOOTER_MAGIC)


class ResultCache:
    """Content-addressed pickle store for :class:`SimulationResults`.

    One file per result, named by the spec's key; writes are atomic
    (temp file + rename) so a killed run never leaves a torn entry.
    Every entry ends with a sha256 integrity footer over the payload;
    an entry that is unreadable, truncated, footer-less, or whose
    digest mismatches is treated as a miss and quarantined to
    ``<key>.pkl.corrupt`` so the bad bytes are preserved for diagnosis
    but never consulted again.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.corrupt_entries = 0    # quarantined since construction
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ExperimentError(
                f"cache directory {self.root} collides with an existing "
                f"file") from exc

    def key_for(self, spec: RunSpec) -> str:
        return spec_key(spec)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def get(self, key: str) -> Optional[SimulationResults]:
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        if (len(blob) <= _FOOTER_LEN
                or not blob.endswith(_FOOTER_MAGIC)):
            self._quarantine(path)
            return None
        payload = blob[:-_FOOTER_LEN]
        digest = blob[-_FOOTER_LEN:-len(_FOOTER_MAGIC)]
        if sha256(payload).digest() != digest:
            self._quarantine(path)
            return None
        try:
            return pickle.loads(payload)
        except (pickle.PickleError, EOFError, AttributeError,
                ImportError, IndexError, ValueError, TypeError):
            # The digest matched, so the *file* is intact but the
            # payload no longer unpickles (e.g. a class moved away
            # between format bumps).  Quarantine it all the same.
            self._quarantine(path)
            return None

    def put(self, key: str, result: SimulationResults) -> None:
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
                fh.write(sha256(payload).digest())
                fh.write(_FOOTER_MAGIC)
            os.replace(tmp, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _quarantine(self, path: Path) -> None:
        """Move a bad entry aside (best-effort) and count it."""
        self.corrupt_entries += 1
        try:
            path.replace(path.with_name(path.name + ".corrupt"))
        except OSError:
            pass

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.pkl"))

    def __repr__(self) -> str:
        return f"ResultCache({str(self.root)!r})"


# ----------------------------------------------------------------------
# Ambient execution context
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExecutionContext:
    """How multi-run batches execute: worker count, cache, verbosity,
    (optionally) where per-run telemetry lands, and how failures are
    handled (resilience policy, injected harness faults, resume)."""

    jobs: int = 1
    cache: Optional[ResultCache] = None
    progress: bool = False
    telemetry: Optional["TelemetryConfig"] = None
    resilience: Optional[ResiliencePolicy] = None
    faults: Optional[HarnessFaultPlan] = None
    resume: bool = False
    verify: Any = None   # repro.verify.VerifyConfig, applied to every run

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {self.jobs}")


def _telemetry_config(telemetry: Union[TelemetryConfig, str, Path, None]
                      ) -> Optional[TelemetryConfig]:
    """A telemetry config from a config or a root directory path.  The
    telemetry layer is imported only when telemetry is asked for."""
    if telemetry is None:
        return None
    from repro.telemetry import export
    if isinstance(telemetry, export.TelemetryConfig):
        return telemetry
    return export.TelemetryConfig(root=str(telemetry))


def _fault_plan(faults: Union[HarnessFaultPlan, Sequence[str], None]
                ) -> Optional[HarnessFaultPlan]:
    """A harness fault plan from a plan or ``kind@index`` strings.  The
    fault-injection layer is imported only when faults are asked for."""
    if faults is None:
        return None
    from repro.faultinject import harness
    if isinstance(faults, harness.HarnessFaultPlan):
        return faults
    return harness.HarnessFaultPlan.parse(faults)


_DEFAULT_CONTEXT = ExecutionContext()
_CONTEXT_STACK: List[ExecutionContext] = []


def current_context() -> ExecutionContext:
    """The innermost active execution context (default: serial, no cache)."""
    return _CONTEXT_STACK[-1] if _CONTEXT_STACK else _DEFAULT_CONTEXT


@contextmanager
def execution_context(jobs: int = 1,
                      cache: Union[ResultCache, str, Path, None] = None,
                      progress: bool = False,
                      telemetry: Union[TelemetryConfig, str, Path,
                                       None] = None,
                      resilience: Optional[ResiliencePolicy] = None,
                      faults: Union[HarnessFaultPlan, Sequence[str],
                                    None] = None,
                      resume: bool = False,
                      verify: Any = None,
                      ) -> Iterator[ExecutionContext]:
    """Install an ambient :class:`ExecutionContext` for nested batches.

    ``cache`` accepts a ready :class:`ResultCache` or a directory path.
    ``telemetry`` accepts a :class:`repro.telemetry.TelemetryConfig` or
    a root directory path; every executed run then exports probes,
    decisions, trace, and a manifest into ``<root>/<spec key>/``.
    ``resilience`` configures retries/timeouts for every nested batch;
    ``faults`` (a plan or ``kind@index`` strings) injects harness
    faults; ``resume`` announces that a previous invocation of the same
    sweep was interrupted, so progress output reports journaled keys.
    ``verify`` (a :class:`repro.verify.VerifyConfig` or a cadence
    string) runs every nested *executed* run under the invariant
    checker and shadow lock table; cache hits are served as-is, since
    verification never changes a run's results.
    """
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    telemetry = _telemetry_config(telemetry)
    faults = _fault_plan(faults)
    if verify is not None and isinstance(verify, str):
        from repro.verify.config import VerifyConfig
        verify = VerifyConfig.parse(verify)
    ctx = ExecutionContext(jobs=jobs, cache=cache, progress=progress,
                           telemetry=telemetry, resilience=resilience,
                           faults=faults, resume=resume, verify=verify)
    _CONTEXT_STACK.append(ctx)
    try:
        yield ctx
    finally:
        _CONTEXT_STACK.pop()


# ----------------------------------------------------------------------
# Batch statistics
# ----------------------------------------------------------------------

@dataclass
class BatchStats:
    """What one :func:`run_specs` invocation did (for tests/CI)."""

    label: str = "batch"
    total: int = 0            # specs requested
    executed: int = 0         # runs that completed by executing
    cached: int = 0           # served from the result cache
    deduplicated: int = 0     # duplicates of an in-batch spec
    retried: int = 0          # retry attempts granted
    failed: int = 0           # specs that exhausted their attempts
    resumed: int = 0          # keys already journaled at start
    interrupted: bool = False  # SIGINT arrived mid-batch
    wall: float = 0.0


_LAST_STATS = BatchStats()


def last_batch_stats() -> BatchStats:
    """Statistics of the most recent :func:`run_specs` call."""
    return _LAST_STATS


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------

class _AttemptTimeout(BaseException):
    """Raised by the serial watchdog.  BaseException so the worker-side
    ``except Exception`` wrapping cannot swallow it."""


def _execute_spec(spec: RunSpec,
                  telemetry: Optional[TelemetryConfig] = None,
                  run_id: Optional[str] = None,
                  fault: Optional[HarnessFault] = None,
                  in_process: bool = False,
                  verify=None,
                  ) -> Tuple[float, SimulationResults]:
    """Process-pool worker: run one spec, returning (elapsed, result).

    With a telemetry config the worker opens its own session in
    ``<root>/<run_id>/`` — sessions hold live observers and cannot
    cross process boundaries, but the config (plain data) can.

    Failures are wrapped in :class:`SpecExecutionError` naming the spec
    and its cache key, so a dead run in a hundred-run sweep identifies
    itself instead of surfacing a bare traceback.
    """
    start = time.perf_counter()
    if fault is not None:
        # The fault was unpickled here, so its module is already loaded.
        from repro.faultinject.harness import apply_worker_fault
        apply_worker_fault(fault, in_process)
    session = None
    if telemetry is not None and run_id is not None:
        session = telemetry.session_for(run_id)
        session.manifest_extra = _spec_provenance(spec, run_id)
    try:
        result = spec.execute(telemetry=session, verify=verify)
    except Exception as exc:
        key = (run_id or "")[:12]
        raise SpecExecutionError(
            f"run {spec.describe()} (key {key}…) failed: "
            f"{type(exc).__name__}: {exc}") from exc
    return time.perf_counter() - start, result


def _spec_provenance(spec: RunSpec, key: str) -> Dict[str, Any]:
    """Manifest fields identifying one spec within a batch."""
    return {
        "spec_key": key,
        "tag": (None if spec.tag is None else str(spec.tag)),
    }


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _progress(enabled: bool, message: str) -> None:
    if enabled:
        print(message, file=sys.stderr, flush=True)


@contextmanager
def _serial_watchdog(timeout: Optional[float]) -> Iterator[None]:
    """Arm SIGALRM to interrupt an in-process attempt after ``timeout``.

    Only effective on the main thread of a Unix process; elsewhere the
    watchdog is inert (pooled execution covers those cases).
    """
    if (timeout is None
            or not hasattr(signal, "setitimer")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def _alarm(signum, frame):
        raise _AttemptTimeout()

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's worker processes and discard the pool.

    Used when a worker hangs past its deadline (SIGTERM is the only way
    to stop it) or after the pool broke; ``shutdown`` alone would wait
    on the hung worker forever.
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already-dead workers
            pass
    pool.shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------

@dataclass
class _Pending:
    """Executor-side state of one canonical spec awaiting completion."""

    index: int                      # canonical index into the batch
    key: str
    attempt: int = 1                # next attempt number (1-based)
    records: List[AttemptRecord] = field(default_factory=list)
    not_before: float = 0.0         # monotonic time backoff expires


class _BatchExecutor:
    """Runs one batch's to-execute specs with the resilience policy."""

    _TICK = 0.25   # max seconds between watchdog/backoff checks

    def __init__(self, specs: List[RunSpec], keys: List[str],
                 to_run: List[int], results: List[Optional[RunOutcome]],
                 jobs: int, cache: Optional[ResultCache],
                 progress: bool, label: str,
                 telemetry: Optional[TelemetryConfig],
                 policy: ResiliencePolicy,
                 faults: Optional[HarnessFaultPlan],
                 checkpoint: Optional[SweepCheckpoint],
                 stats: BatchStats,
                 verify=None):
        self.specs = specs
        self.keys = keys
        self.to_run = to_run
        self.results = results
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.label = label
        self.telemetry = telemetry
        self.policy = policy
        self.faults = faults
        self.checkpoint = checkpoint
        self.stats = stats
        self.verify = verify
        self.failures: List[FailedRun] = []
        self._retries_granted = 0
        self._done = 0

    # -- shared bookkeeping --------------------------------------------

    def _fault_for(self, pend: _Pending) -> Optional[HarnessFault]:
        """The harness fault for this attempt; raises for ``sigint``."""
        if self.faults is None:
            return None
        from repro.faultinject.harness import HarnessFaultKind
        fault = self.faults.fault_for(pend.index, pend.attempt)
        if fault is not None and fault.kind == HarnessFaultKind.SIGINT:
            raise KeyboardInterrupt(
                f"injected SIGINT before spec {pend.index}")
        return fault

    def _deliver(self, pend: _Pending, elapsed: float,
                 result: SimulationResults) -> None:
        self.results[pend.index] = result
        self._done += 1
        self.stats.executed += 1
        retry_note = (f" (attempt {pend.attempt})"
                      if pend.attempt > 1 else "")
        _progress(self.progress,
                  f"[{self.label} {self._done}/{len(self.to_run)}] "
                  f"{self.specs[pend.index].describe()}: "
                  f"{elapsed:.1f}s{retry_note}")
        if self.cache is not None:
            self.cache.put(pend.key, result)
        if self.checkpoint is not None:
            self.checkpoint.mark(pend.key)

    def _record_failure(self, pend: _Pending, kind: str, error: str,
                        elapsed: float) -> None:
        pend.records.append(AttemptRecord(
            attempt=pend.attempt, kind=kind, error=error,
            elapsed=elapsed))

    def _budget_left(self) -> bool:
        budget = self.policy.retry_budget
        return budget is None or self._retries_granted < budget

    def _grant_retry(self, pend: _Pending) -> bool:
        """Record the failed attempt's consequence: retry or give up."""
        if pend.attempt >= self.policy.max_attempts or not self._budget_left():
            self._give_up(pend)
            return False
        self._retries_granted += 1
        self.stats.retried += 1
        delay = self.policy.backoff_delay(len(pend.records))
        pend.not_before = time.monotonic() + delay
        pend.attempt += 1
        last = pend.records[-1]
        _progress(self.progress,
                  f"[{self.label}] retrying "
                  f"{self.specs[pend.index].describe()} "
                  f"(attempt {last.attempt} {last.kind}: {last.error}"
                  + (f"; backoff {delay:.1f}s)" if delay else ")"))
        return True

    def _give_up(self, pend: _Pending) -> None:
        spec = self.specs[pend.index]
        quarantined = (pend.attempt < self.policy.max_attempts)
        failed = FailedRun(spec_label=spec.describe(),
                           spec_key=pend.key,
                           attempts=tuple(pend.records),
                           tag=spec.tag,
                           quarantined=quarantined)
        self.failures.append(failed)
        self.results[pend.index] = failed
        self._done += 1
        self.stats.failed += 1
        _progress(self.progress,
                  f"[{self.label}] giving up on {spec.describe()}: "
                  f"{failed.error}")

    # -- serial path ---------------------------------------------------

    def run_serial(self) -> None:
        for index in self.to_run:
            self._run_serial_one(_Pending(index, self.keys[index]))

    def _run_serial_one(self, pend: _Pending) -> None:
        while True:
            fault = self._fault_for(pend)
            if pend.not_before:
                delay = pend.not_before - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            start = time.perf_counter()
            try:
                with _serial_watchdog(self.policy.run_timeout):
                    elapsed, result = _execute_spec(
                        self.specs[pend.index], self.telemetry, pend.key,
                        fault=fault, in_process=True,
                        verify=self.verify)
            except _AttemptTimeout:
                self._record_failure(
                    pend, FailureKind.TIMEOUT,
                    f"attempt exceeded {self.policy.run_timeout:g}s "
                    f"wall-clock timeout",
                    time.perf_counter() - start)
            except Exception as exc:
                self._record_failure(
                    pend, FailureKind.EXCEPTION,
                    f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - start)
            else:
                self._deliver(pend, elapsed, result)
                return
            if not self._grant_retry(pend):
                return

    # -- pooled path ---------------------------------------------------

    def run_pooled(self) -> None:
        if self.verify is not None or any(
                self.specs[i].verify is not None for i in self.to_run):
            # The workers' runs attach the invariant checker and shadow
            # lock table (see run_simulation).  Import them before the
            # pool forks, so every worker inherits them instead of
            # importing them again for each batch.
            from repro.verify import invariants, shadow  # noqa: F401
        if self.telemetry is not None:
            # Likewise the observers the workers' sessions attach.
            self.telemetry.import_observers()
        workers = min(self.jobs, len(self.to_run))
        pending: Deque[_Pending] = deque(
            _Pending(i, self.keys[i]) for i in self.to_run)
        inflight: Dict[Any, Tuple[_Pending, Optional[float]]] = {}
        pool: Optional[ProcessPoolExecutor] = None
        try:
            while pending or inflight:
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=workers, mp_context=_mp_context())
                pool_broke = self._top_up(pool, pending, inflight, workers)
                if not inflight and not pool_broke:
                    # Everything submittable is backing off; sleep until
                    # the earliest becomes eligible.
                    wake = min(p.not_before for p in pending)
                    time.sleep(max(0.0, min(self._TICK,
                                            wake - time.monotonic())))
                    continue
                if not pool_broke:
                    done, _ = wait(set(inflight), timeout=self._TICK,
                                   return_when=FIRST_COMPLETED)
                    pool_broke = self._harvest(done, inflight, pending)
                overdue = self._overdue(inflight)
                if overdue or pool_broke:
                    self._recover(pool, inflight, pending, overdue)
                    pool = None
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _top_up(self, pool: ProcessPoolExecutor,
                pending: Deque[_Pending],
                inflight: Dict[Any, Tuple[_Pending, Optional[float]]],
                workers: int) -> bool:
        """Submit eligible pending specs up to the worker count.

        Submission is capped at ``workers`` so every submitted attempt
        starts immediately — that is what makes the per-attempt
        deadline meaningful.  Returns True when the pool turned out to
        be broken (a crash arrived between harvests).
        """
        now = time.monotonic()
        skipped: List[_Pending] = []
        while pending and len(inflight) < workers:
            pend = pending.popleft()
            if pend.not_before > now:
                skipped.append(pend)
                continue
            fault = self._fault_for(pend)   # may raise KeyboardInterrupt
            deadline = (now + self.policy.run_timeout
                        if self.policy.run_timeout is not None else None)
            try:
                fut = pool.submit(
                    _execute_spec, self.specs[pend.index], self.telemetry,
                    pend.key, fault=fault, in_process=False,
                    verify=self.verify)
            except BrokenExecutor:
                pending.appendleft(pend)
                pending.extendleft(reversed(skipped))
                return True
            inflight[fut] = (pend, deadline)
        pending.extendleft(reversed(skipped))
        return False

    def _harvest(self, done,
                 inflight: Dict[Any, Tuple[_Pending, Optional[float]]],
                 pending: Deque[_Pending]) -> bool:
        """Collect finished futures; returns True if the pool broke."""
        pool_broke = False
        for fut in done:
            pend, _deadline = inflight.pop(fut)
            try:
                elapsed, result = fut.result()
            except BrokenExecutor as exc:
                pool_broke = True
                self._record_failure(
                    pend, FailureKind.WORKER_CRASH,
                    f"worker process died ({type(exc).__name__}: {exc})",
                    0.0)
                if self._grant_retry(pend):
                    pending.append(pend)
            except Exception as exc:
                self._record_failure(
                    pend, FailureKind.EXCEPTION,
                    f"{type(exc).__name__}: {exc}", 0.0)
                if self._grant_retry(pend):
                    pending.append(pend)
            else:
                self._deliver(pend, elapsed, result)
        return pool_broke

    def _overdue(self, inflight) -> List[Any]:
        now = time.monotonic()
        return [fut for fut, (_pend, deadline) in inflight.items()
                if deadline is not None and now >= deadline
                and not fut.done()]

    def _recover(self, pool: ProcessPoolExecutor,
                 inflight: Dict[Any, Tuple[_Pending, Optional[float]]],
                 pending: Deque[_Pending], overdue: List[Any]) -> None:
        """Kill/restart the pool after a hang or crash.

        Overdue attempts are charged a timeout failure.  Other in-flight
        attempts are collateral damage: finished ones are harvested,
        unfinished ones are resubmitted without consuming an attempt
        (their worker was killed through no fault of their spec) —
        except after a pool break, where the crashed worker cannot be
        identified and every casualty is charged a crash failure (a
        poison spec then exhausts its attempts within a few restarts
        and is quarantined, while innocent specs retry clean).
        """
        overdue_set = set(overdue)
        pool_broke = not overdue_set
        _kill_pool(pool)
        for fut, (pend, _deadline) in list(inflight.items()):
            if fut in overdue_set:
                self._record_failure(
                    pend, FailureKind.TIMEOUT,
                    f"attempt exceeded {self.policy.run_timeout:g}s "
                    f"wall-clock timeout; worker killed",
                    self.policy.run_timeout or 0.0)
                if self._grant_retry(pend):
                    pending.append(pend)
                continue
            harvested = False
            if fut.done():
                try:
                    elapsed, result = fut.result(timeout=0)
                except BaseException:
                    pass
                else:
                    self._deliver(pend, elapsed, result)
                    harvested = True
            if harvested:
                continue
            if pool_broke:
                self._record_failure(
                    pend, FailureKind.WORKER_CRASH,
                    "worker process died (pool broke; crash not "
                    "attributable)", 0.0)
                if self._grant_retry(pend):
                    pending.append(pend)
            else:
                # Collateral of a timeout kill: retry free of charge.
                _progress(self.progress,
                          f"[{self.label}] resubmitting "
                          f"{self.specs[pend.index].describe()} "
                          f"(worker killed while recovering a hang)")
                pending.append(pend)
        inflight.clear()


def run_specs(specs: Sequence[RunSpec],
              jobs: Optional[int] = None,
              cache: Union[ResultCache, str, Path, None] = None,
              progress: Optional[bool] = None,
              label: str = "batch",
              telemetry: Union[TelemetryConfig, str, Path, None] = None,
              resilience: Optional[ResiliencePolicy] = None,
              faults: Union[HarnessFaultPlan, Sequence[str], None] = None,
              verify=None,
              ) -> List[RunOutcome]:
    """Execute a batch of independent runs; results come back in order.

    Arguments left as ``None`` fall back to the ambient
    :class:`ExecutionContext`.  Identical specs within the batch execute
    once and share their result object.  Output is bit-identical for any
    ``jobs`` value — and for any retry/crash history, since each run is
    self-contained and seeded by its params.

    With ``telemetry`` set (config or root directory), every *executed*
    run exports its telemetry into ``<root>/<spec key>/`` — the key
    makes the layout identical for serial and pooled execution — and
    every cache hit records a provenance-only manifest there.

    ``resilience`` (a :class:`~repro.resilience.ResiliencePolicy`)
    governs failure handling.  Without one, failures still finish the
    rest of the batch (completed runs are cached) before a
    :class:`SpecExecutionError` describing every casualty is raised;
    with retries configured, transient worker deaths, hangs, and
    exceptions are retried with exponential backoff; with
    ``deliver_partial`` set, exhausted specs come back as
    :class:`~repro.resilience.FailedRun` sentinels in the result list.

    With a cache attached, completed keys are journaled next to it
    (:class:`~repro.resilience.SweepCheckpoint`), flushed per key and on
    SIGINT, so re-invoking an interrupted sweep executes only the
    remainder.

    ``faults`` injects deterministic harness faults (see
    :class:`repro.faultinject.HarnessFaultPlan`) for testing all of the
    above.

    ``verify`` (a :class:`repro.verify.VerifyConfig`, default: the
    ambient context's) runs every *executed* spec under the runtime
    invariant checker and shadow lock table.  Cache hits are served
    without re-verification — verification is observational and cannot
    change a result, so a cached result from an unverified run is the
    same bytes a verified run would produce.  A violation surfaces as
    that spec's failure (wrapped in :class:`SpecExecutionError` like any
    other run error).
    """
    global _LAST_STATS
    ctx = current_context()
    if jobs is None:
        jobs = ctx.jobs
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    if cache is None:
        cache = ctx.cache
    elif not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    if progress is None:
        progress = ctx.progress
    telemetry = (ctx.telemetry if telemetry is None
                 else _telemetry_config(telemetry))
    if resilience is None:
        resilience = ctx.resilience
    if resilience is None:
        resilience = ResiliencePolicy()
    faults = ctx.faults if faults is None else _fault_plan(faults)
    if verify is None:
        verify = ctx.verify

    specs = list(specs)
    if not specs:
        return []
    for spec in specs:
        if not isinstance(spec, RunSpec):
            raise ExperimentError(
                f"run_specs expects RunSpec instances, got {type(spec)!r}")

    start = time.perf_counter()
    results: List[Optional[RunOutcome]] = [None] * len(specs)
    stats = BatchStats(label=label, total=len(specs))
    _LAST_STATS = stats

    checkpoint = (SweepCheckpoint(cache.root)
                  if cache is not None else None)

    # Deduplicate identical specs within the batch; the canonical index of
    # each distinct key does the work, everyone else shares the result.
    keys = [spec_key(spec) for spec in specs]
    canonical: Dict[str, int] = {}
    to_run: List[int] = []
    for i, key in enumerate(keys):
        if key in canonical:
            continue
        canonical[key] = i
        if checkpoint is not None and key in checkpoint:
            stats.resumed += 1
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                results[i] = hit
                stats.cached += 1
                if checkpoint is not None:
                    checkpoint.mark(key)
                if telemetry is not None:
                    from repro.telemetry.export import (
                        write_cache_hit_manifest)
                    write_cache_hit_manifest(
                        Path(telemetry.root) / key,
                        seed=specs[i].params.seed,
                        params=specs[i].params,
                        extra=_spec_provenance(specs[i], key))
                continue
        to_run.append(i)

    if ctx.resume and checkpoint is not None and stats.resumed:
        _progress(progress,
                  f"[{label}] resuming: {stats.resumed} of "
                  f"{len(canonical)} runs already journaled")

    executor = _BatchExecutor(
        specs=specs, keys=keys, to_run=to_run, results=results,
        jobs=jobs, cache=cache, progress=progress, label=label,
        telemetry=telemetry, policy=resilience, faults=faults,
        checkpoint=checkpoint, stats=stats, verify=verify)
    try:
        if to_run:
            if jobs == 1 or len(to_run) == 1:
                executor.run_serial()
            else:
                executor.run_pooled()
    except KeyboardInterrupt:
        stats.interrupted = True
        stats.wall = time.perf_counter() - start
        if checkpoint is not None:
            checkpoint.close()
            _progress(progress,
                      f"[{label}] interrupted: checkpoint flushed "
                      f"({len(checkpoint.completed)} keys journaled); "
                      f"re-run with the same cache to resume")
        else:
            _progress(progress,
                      f"[{label}] interrupted (no cache attached: "
                      f"completed runs are lost)")
        raise
    finally:
        if checkpoint is not None:
            checkpoint.close()

    # Fill in duplicates from their canonical runs.
    for i, key in enumerate(keys):
        if results[i] is None:
            results[i] = results[canonical[key]]
            stats.deduplicated += 1

    stats.wall = time.perf_counter() - start
    _progress(progress and len(specs) > 1,
              f"[{label}] {len(specs)} runs: {stats.executed} executed "
              f"({jobs} job{'s' if jobs != 1 else ''}), "
              f"{stats.cached} from cache, "
              f"{stats.deduplicated} deduplicated, "
              f"{stats.retried} retried, {stats.failed} failed, "
              f"{stats.wall:.1f}s wall")

    if executor.failures and not resilience.deliver_partial:
        details = "\n".join(f.describe() for f in executor.failures)
        raise SpecExecutionError(
            f"{len(executor.failures)} of {len(canonical)} runs in "
            f"batch {label!r} failed for good (completed runs were "
            f"delivered to the cache):\n{details}",
            failures=executor.failures)
    return results  # type: ignore[return-value]
