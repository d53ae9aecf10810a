"""Time-series probes: periodic samples of the live system state.

The paper's thrashing argument is about *trajectories* — how the State
1/2/3 populations, the blocked fraction, and the queues evolve as the
system slides into wait- or abort-induced collapse.  The cumulative
collector cannot show that; the :class:`ProbeScheduler` can.  It
piggybacks on the simulation calendar, waking every ``interval``
simulated seconds to snapshot the populations, queue depths, resource
utilizations, and lock-table statistics into typed
:class:`ProbeSample` rows.

Probes are strictly read-only: they never touch a random stream and
never mutate system state, so a run with probes enabled follows exactly
the same trajectory as the same run without them.  When telemetry is
disabled no scheduler exists at all — the zero-cost-off property the
rest of the observability layer shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dbms.system import DBMSSystem

__all__ = ["ProbeSample", "ProbeScheduler"]


@dataclass(frozen=True)
class ProbeSample:
    """One instant of system state (the probes.jsonl row).

    Utilizations are averaged over the interval since the previous
    sample; counters prefixed ``cum_`` are cumulative since the start
    of the run.  ``conflict_ratio`` is locks held by all transactions
    over locks held by running ones (Moenkeberg & Weikum), ``None``
    when every lock holder is blocked (the ratio diverges).
    """

    time: float
    n_active: int
    ready_queue: int
    n_state1: int
    n_state2: int
    n_state3: int
    n_state4: int
    frac_state1: float
    frac_state3: float
    blocked_frac: float
    cpu_util: float
    disk_util: float
    cpu_scale: float     # service_scale at sample time (1.0 = healthy;
    disk_scale: float    # > 1.0 marks an injected degradation window)
    conflict_ratio: Optional[float]
    locks_held: int
    locked_pages: int
    cum_lock_requests: int
    cum_lock_blocks: int
    cum_commits: int
    cum_aborts: int
    cum_aborts_by_reason: Dict[str, int]
    # Raw pages processed by all transactions (the sweep rollup derives
    # per-interval page throughput — the paper's y-axis — from this).
    cum_pages: int = 0
    # Passivated (cold-set) population; non-zero only under controllers
    # that park instead of abort (repro.control.malthusian).
    parked: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """A flat JSON-serializable record."""
        return {
            "time": self.time,
            "n_active": self.n_active,
            "ready_queue": self.ready_queue,
            "n_state1": self.n_state1,
            "n_state2": self.n_state2,
            "n_state3": self.n_state3,
            "n_state4": self.n_state4,
            "frac_state1": self.frac_state1,
            "frac_state3": self.frac_state3,
            "blocked_frac": self.blocked_frac,
            "cpu_util": self.cpu_util,
            "disk_util": self.disk_util,
            "cpu_scale": self.cpu_scale,
            "disk_scale": self.disk_scale,
            "conflict_ratio": self.conflict_ratio,
            "locks_held": self.locks_held,
            "locked_pages": self.locked_pages,
            "cum_lock_requests": self.cum_lock_requests,
            "cum_lock_blocks": self.cum_lock_blocks,
            "cum_commits": self.cum_commits,
            "cum_aborts": self.cum_aborts,
            "cum_aborts_by_reason": dict(
                sorted(self.cum_aborts_by_reason.items())),
            "cum_pages": self.cum_pages,
            "parked": self.parked,
        }


class ProbeScheduler:
    """Samples a :class:`~repro.dbms.system.DBMSSystem` periodically.

    Args:
        system: the system to observe: centralized, or a
            :class:`~repro.distributed.system.DistributedSystem`.
        interval: simulated seconds between samples (> 0).

    Call :meth:`start` after construction (and before the simulation
    runs) to schedule the first probe; samples accumulate in
    :attr:`samples`.  Exactly one probe event is pending at any time —
    each firing schedules its successor — so the calendar never fills
    with probes.

    A sample aggregates over the system's sites: utilizations are the
    mean over sites, service scales the maximum (any site's injected
    degradation shows), lock-table counters the sum.  A centralized
    system is its own only site.  When the system builds per-site rows
    (``system.site_probe_rows``), each firing also appends them, in
    site order, to :attr:`site_samples` (the ``site_probes.jsonl``
    stream); otherwise :attr:`site_samples` is None.

    Other observers may register in :attr:`listeners`: each finished
    sample is handed to every listener's ``on_sample(sample)`` in
    registration order.  Listeners piggyback on the existing probe
    event, so adding one never changes the calendar — the contention
    monitor and the online regime detectors ride this slot.  Listeners
    must be read-only, like the probes themselves.
    """

    def __init__(self, system: "DBMSSystem", interval: float = 1.0):
        if interval <= 0.0:
            raise ConfigurationError(
                f"probe interval must be positive, got {interval}")
        self.system = system
        self.interval = interval
        self.samples: List[ProbeSample] = []
        self.listeners: List[Any] = []
        self._started = False
        self._sites = system.sites
        self._site_rows = system.site_probe_rows
        self.site_samples: Optional[List[Any]] = (
            [] if self._site_rows is not None else None)
        # Per-site busy-time high-water marks for interval utilization.
        self._last_time = system.sim.now
        self._cpu_busy = [site.cpu.busy_time for site in self._sites]
        self._disk_busy = [site.disks.busy_time for site in self._sites]

    def start(self) -> None:
        """Schedule the first probe, ``interval`` seconds from now."""
        if self._started:
            return
        self._started = True
        self.system.sim.schedule(self.interval, self._fire)

    def _fire(self) -> None:
        sample = self.sample()
        self.samples.append(sample)
        for listener in self.listeners:
            listener.on_sample(sample)
        self.system.sim.schedule(self.interval, self._fire)

    # ------------------------------------------------------------------

    def sample(self) -> ProbeSample:
        """Snapshot the system right now (read-only).

        Appends the per-site rows, if any, as a side effect and returns
        the aggregate sample (which :meth:`_fire` appends itself).
        """
        system = self.system
        now = system.sim.now
        tracker = system.tracker
        collector = system.collector
        sites = self._sites

        # Per-interval utilizations from busy-time deltas.  Busy time is
        # credited at service start, so a long access straddling the
        # boundary lands wholly in one interval; clamp to [0, 1].
        dt = now - self._last_time
        self._last_time = now
        cpu_utils: List[float] = []
        disk_utils: List[float] = []
        for i, site in enumerate(sites):
            cpu_busy = site.cpu.busy_time
            disk_busy = site.disks.busy_time
            if dt > 0.0:
                cpu_utils.append(min(1.0, (cpu_busy - self._cpu_busy[i])
                                     / (dt * site.cpu.num_cpus)))
                disk_utils.append(min(1.0, (disk_busy - self._disk_busy[i])
                                      / (dt * site.disks.num_disks)))
            else:
                cpu_utils.append(0.0)
                disk_utils.append(0.0)
            self._cpu_busy[i] = cpu_busy
            self._disk_busy[i] = disk_busy
        if self.site_samples is not None:
            self.site_samples.extend(
                self._site_rows(now, cpu_utils, disk_utils))

        # Conflict ratio: locks held by everyone / locks held by runners.
        lock_table = system.lock_table
        total_held = 0
        running_held = 0
        for txn in tracker.active_transactions():
            held = lock_table.num_held(txn)
            total_held += held
            if not txn.is_blocked:
                running_held += held
        conflict_ratio: Optional[float]
        if total_held == 0:
            conflict_ratio = 1.0
        elif running_held == 0:
            conflict_ratio = None
        else:
            conflict_ratio = total_held / running_held

        n_active = tracker.n_active
        n1, n2 = tracker.n_state1, tracker.n_state2
        n3, n4 = tracker.n_state3, tracker.n_state4
        n_sites = len(sites)
        return ProbeSample(
            time=now,
            n_active=n_active,
            ready_queue=len(system.ready_queue),
            n_state1=n1, n_state2=n2, n_state3=n3, n_state4=n4,
            frac_state1=(n1 / n_active if n_active else 0.0),
            frac_state3=(n3 / n_active if n_active else 0.0),
            blocked_frac=((n3 + n4) / n_active if n_active else 0.0),
            cpu_util=sum(cpu_utils) / n_sites,
            disk_util=sum(disk_utils) / n_sites,
            cpu_scale=max(site.cpu.service_scale for site in sites),
            disk_scale=max(site.disks.service_scale for site in sites),
            conflict_ratio=conflict_ratio,
            locks_held=total_held,
            locked_pages=sum(site.lock_table.num_locked_pages()
                             for site in sites),
            cum_lock_requests=sum(site.lock_table.requests
                                  for site in sites),
            cum_lock_blocks=sum(site.lock_table.blocks for site in sites),
            cum_commits=collector.commits,
            cum_aborts=collector.aborts,
            cum_aborts_by_reason=dict(collector.aborts_by_reason),
            cum_pages=int(collector.raw_pages),
            parked=len(system.parked),
        )
