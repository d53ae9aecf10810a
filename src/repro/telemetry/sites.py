"""Per-site probe rows for the distributed system.

On a :class:`~repro.distributed.system.DistributedSystem` the
:class:`~repro.telemetry.probes.ProbeScheduler` adds, to each aggregate
sample, one :class:`SiteProbeSample` per site (home population,
per-site utilization, liveness/degraded flags, in-doubt count): the
rows behind ``site_probes.jsonl`` and the failure figure's per-site
series.  The system builds them
(:meth:`~repro.distributed.system.DistributedSystem.site_probe_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

__all__ = ["SiteProbeSample"]


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

