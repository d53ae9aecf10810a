"""Parameters for the distributed extension.

Extends the single-site :class:`SimulationParameters` with the
multi-site knobs.  Per-site hardware equals the paper's base
configuration (each site gets ``num_cpus`` CPUs and ``num_disks``
disks).  The distributed system runs the centralized lifecycle, so a
``num_sites = 1`` run with ``msg_delay = 0`` is the centralized model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dbms.config import SimulationParameters
from repro.errors import ConfigurationError

__all__ = ["DistributedParameters"]


@dataclass
class DistributedParameters(SimulationParameters):
    """Multi-site model parameters.

    The inherited knobs apply per site: each site has its own
    ``buf_size``-page LRU buffer pool, and ``cc_cpu`` is charged on the
    CPU of the site that owns the page.

    Attributes:
        num_sites: number of sites; the database is range-partitioned
            evenly across them and terminals are assigned round-robin.
        msg_delay: one-way network message latency (seconds).  The
            network is modelled as pure delay (no queueing) — adequate
            for LAN-scale latencies that are small next to ``page_io``.
        locality: probability that a page access falls in the home
            site's partition; the rest are uniform over remote
            partitions.  ``1/num_sites``-like values mimic the paper's
            uniform access; higher values model partition-aware apps.
        two_phase_commit: if True, a distributed transaction pays one
            extra round trip (prepare phase) before its remote locks are
            released at commit.
        failure_model: master switch for the failure-realistic layer
            (lossy network, real 2PC with in-doubt state, heartbeats,
            degraded-mode admission).  Off by default: the model then
            reproduces the pure-delay network byte for byte.  Installing
            a :class:`repro.distributed.failures.SiteFaultPlan` turns it
            on implicitly.
        msg_jitter: mean of the exponential per-message latency jitter
            added on top of ``msg_delay`` (failure model only; 0 keeps
            latency deterministic and consumes no randomness).
        msg_loss_prob: probability an individual message is lost in
            transit (failure model only; 0 consumes no randomness).
        msg_timeout: initial timeout before a reliable exchange (remote
            lock/page work, prepare, decision) retransmits.
        msg_retries: retransmissions after the first send before a
            reliable exchange gives up and reports failure.
        msg_backoff: timeout multiplier per successive retransmission
            (bounded exponential backoff).
        msg_backoff_cap: upper bound on the per-attempt timeout.
        indoubt_timeout: how long a prepared participant holds in-doubt
            locks with no decision before presuming abort (presumed
            abort applies only when the coordinator is known to have
            reached no decision; a recorded decision always wins).
        heartbeat_interval: period of the per-site liveness heartbeat.
        suspect_after: a site that has not been heard from for this long
            is suspected unreachable (drives degraded-mode admission).
        safe_mode_mpl: per-site MPL clamp applied while any remote site
            is suspected unreachable.
        degraded_admission: if False, suspected-site detection still
            runs (and is logged) but admission is never clamped.
    """

    num_sites: int = 4
    msg_delay: float = 0.001
    locality: float = 0.5
    two_phase_commit: bool = True
    failure_model: bool = False
    msg_jitter: float = 0.0
    msg_loss_prob: float = 0.0
    msg_timeout: float = 0.25
    msg_retries: int = 4
    msg_backoff: float = 2.0
    msg_backoff_cap: float = 2.0
    indoubt_timeout: float = 5.0
    heartbeat_interval: float = 0.5
    suspect_after: float = 1.5
    safe_mode_mpl: int = 4
    degraded_admission: bool = True

    def validate(self) -> None:
        super().validate()
        if self.num_sites < 1:
            raise ConfigurationError("num_sites must be >= 1")
        if self.msg_delay < 0.0:
            raise ConfigurationError("msg_delay must be non-negative")
        if not 0.0 <= self.locality <= 1.0:
            raise ConfigurationError("locality must be in [0, 1]")
        if self.db_size < self.num_sites:
            raise ConfigurationError(
                "need at least one page per site")
        if self.msg_jitter < 0.0:
            raise ConfigurationError("msg_jitter must be non-negative")
        if not 0.0 <= self.msg_loss_prob < 1.0:
            raise ConfigurationError("msg_loss_prob must be in [0, 1)")
        if self.msg_timeout <= 0.0:
            raise ConfigurationError("msg_timeout must be positive")
        if self.msg_retries < 0:
            raise ConfigurationError("msg_retries must be >= 0")
        if self.msg_backoff < 1.0:
            raise ConfigurationError("msg_backoff must be >= 1")
        if self.msg_backoff_cap <= 0.0:
            raise ConfigurationError("msg_backoff_cap must be positive")
        if self.indoubt_timeout <= 0.0:
            raise ConfigurationError("indoubt_timeout must be positive")
        if self.heartbeat_interval <= 0.0:
            raise ConfigurationError(
                "heartbeat_interval must be positive")
        if self.suspect_after <= 0.0:
            raise ConfigurationError("suspect_after must be positive")
        if self.safe_mode_mpl < 1:
            raise ConfigurationError("safe_mode_mpl must be >= 1")

    @property
    def pages_per_site(self) -> int:
        """Partition size (the last site absorbs the remainder)."""
        return self.db_size // self.num_sites
