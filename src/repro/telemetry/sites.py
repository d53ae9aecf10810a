"""Per-site time-series probes for the distributed system.

The distributed analogue of :class:`repro.telemetry.probes.
ProbeScheduler`: one calendar slot per interval produces *both* an
aggregate :class:`~repro.telemetry.probes.ProbeSample` (cluster-wide
populations, summed queues, mean utilizations — so every downstream
consumer of ``probes.jsonl`` works unchanged) and one
:class:`SiteProbeSample` per site (home population, per-site
utilization, liveness/degraded flags, in-doubt count — the rows behind
``site_probes.jsonl`` and the failure figure's per-site series).

Probes remain strictly read-only: no random-stream consumption, no
state mutation, and exactly one pending probe event at any time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.telemetry.probes import ProbeSample

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.distributed.system import DistributedSystem

__all__ = ["SiteProbeSample", "DistributedProbeScheduler"]


@dataclass(frozen=True)
class SiteProbeSample:
    """One instant of one site's state (the site_probes.jsonl row).

    Utilizations are averaged over the interval since the previous
    sample; ``cum_commits`` counts transactions *homed* at this site.
    ``up``/``degraded``/``in_doubt`` are the failure-layer fields —
    trivially ``True``/``False``/``0`` when the failure model is off.
    """

    time: float
    site: int
    up: bool
    degraded: bool
    n_active: int
    ready_queue: int
    blocked_frac: float
    cpu_util: float
    disk_util: float
    in_doubt: int
    cum_commits: int
    cum_lock_requests: int
    cum_lock_blocks: int

    def to_dict(self) -> Dict[str, Any]:
        """A flat JSON-serializable record."""
        return {
            "time": self.time,
            "site": self.site,
            "up": self.up,
            "degraded": self.degraded,
            "n_active": self.n_active,
            "ready_queue": self.ready_queue,
            "blocked_frac": self.blocked_frac,
            "cpu_util": self.cpu_util,
            "disk_util": self.disk_util,
            "in_doubt": self.in_doubt,
            "cum_commits": self.cum_commits,
            "cum_lock_requests": self.cum_lock_requests,
            "cum_lock_blocks": self.cum_lock_blocks,
        }


class DistributedProbeScheduler:
    """Samples a :class:`~repro.distributed.system.DistributedSystem`.

    Each firing appends one aggregate sample to :attr:`samples` and one
    :class:`SiteProbeSample` per site (ascending site id) to
    :attr:`site_samples`, then hands the aggregate sample to every
    registered listener — the same contract as the single-site
    scheduler, so shared consumers need not know which one produced
    their stream.
    """

    def __init__(self, system: "DistributedSystem", interval: float = 1.0):
        if interval <= 0.0:
            raise ConfigurationError(
                f"probe interval must be positive, got {interval}")
        self.system = system
        self.interval = interval
        self.samples: List[ProbeSample] = []
        self.site_samples: List[SiteProbeSample] = []
        self.listeners: List[Any] = []
        self._started = False
        # Per-site busy-time high-water marks for interval utilization.
        self._last_time = system.sim.now
        self._cpu_busy = [s.cpu.busy_time for s in system.sites]
        self._disk_busy = [s.disks.busy_time for s in system.sites]

    def start(self) -> None:
        """Schedule the first probe, ``interval`` seconds from now."""
        if self._started:
            return
        self._started = True
        self.system.sim.schedule(self.interval, self._fire)

    def _fire(self) -> None:
        aggregate = self.sample()
        self.samples.append(aggregate)
        for listener in self.listeners:
            listener.on_sample(aggregate)
        self.system.sim.schedule(self.interval, self._fire)

    # ------------------------------------------------------------------

    def sample(self) -> ProbeSample:
        """Snapshot the cluster and every site right now (read-only).

        Appends the per-site rows as a side effect and returns the
        aggregate sample (which :meth:`_fire` appends itself).
        """
        system = self.system
        now = system.sim.now
        tracker = system.tracker
        collector = system.collector

        dt = now - self._last_time
        self._last_time = now

        cpu_utils: List[float] = []
        disk_utils: List[float] = []
        for i, site in enumerate(system.sites):
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

        for i, (site, view) in enumerate(zip(system.sites,
                                             system.site_views)):
            home = view.tracker
            self.site_samples.append(SiteProbeSample(
                time=now,
                site=i,
                up=system._site_up[i],
                degraded=system._degraded[i],
                n_active=home.n_active,
                ready_queue=len(view.ready_queue),
                blocked_frac=(home.n_blocked / home.n_active
                              if home.n_active else 0.0),
                cpu_util=cpu_utils[i],
                disk_util=disk_utils[i],
                in_doubt=len(system._indoubt[i]),
                cum_commits=system.site_commits[i],
                cum_lock_requests=site.lock_table.requests,
                cum_lock_blocks=site.lock_table.blocks,
            ))

        # Conflict ratio over the global lock view (all sites).
        total_held = 0
        running_held = 0
        for txn in tracker.active_transactions():
            held = system.global_locks.num_held(txn)
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
        n_sites = len(system.sites)
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
            # Any site's injected degradation shows in the aggregate.
            cpu_scale=max(s.cpu.service_scale for s in system.sites),
            disk_scale=max(s.disks.service_scale for s in system.sites),
            conflict_ratio=conflict_ratio,
            locks_held=total_held,
            locked_pages=sum(s.lock_table.num_locked_pages()
                             for s in system.sites),
            cum_lock_requests=sum(s.lock_table.requests
                                  for s in system.sites),
            cum_lock_blocks=sum(s.lock_table.blocks
                                for s in system.sites),
            cum_commits=collector.commits,
            cum_aborts=collector.aborts,
            cum_aborts_by_reason=dict(collector.aborts_by_reason),
            cum_pages=int(collector.raw_pages),
        )
