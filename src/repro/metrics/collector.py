"""Central metrics collector wired into the DBMS system.

The collector accumulates *cumulative* event counts and time integrals;
the experiment runner snapshots it at batch boundaries and differences
consecutive snapshots to obtain per-batch rates.  This mirrors how the
paper computes page throughput: "recording the number of page reads and
page writes done by committed transactions and then dividing their sum by
the total simulation time."

Key distinction (Section 4.1):

* **page throughput** — pages read/written by *committed* transactions
  per second (counted at commit time, so an aborted attempt contributes
  nothing);
* **raw page rate** — pages processed per second by *all* transactions,
  counted when the page access completes (so wasted work shows up here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.metrics.timeweighted import TimeWeightedValue

__all__ = ["AbortReason", "ClassStats", "MetricsSnapshot", "Collector"]


class AbortReason:
    """Why a transaction was aborted (string constants, not an enum, so
    controllers can introduce their own reasons without touching this
    module)."""

    DEADLOCK = "deadlock"
    LOAD_CONTROL = "load_control"
    WAIT_POLICY = "wait_policy"
    WAIT_DIE = "wait_die"
    WOUND_WAIT = "wound_wait"
    # Distributed failure model (repro.distributed.failures):
    SITE_CRASH = "site_crash"          # a site the txn depended on crashed
    REMOTE_TIMEOUT = "remote_timeout"  # a reliable exchange ran out of
    #                                    retries (unreachable remote site)


@dataclass
class ClassStats:
    """Per-transaction-class accumulators (whole run, warmup included)."""

    commits: int = 0
    pages: int = 0
    aborts: int = 0
    response_time_sum: float = 0.0

    @property
    def avg_response_time(self) -> float:
        return (self.response_time_sum / self.commits
                if self.commits else 0.0)


@dataclass(frozen=True)
class MetricsSnapshot:
    """Cumulative metric values at one instant of simulated time."""

    time: float
    raw_pages: float           # reads + deferred writes completed, all txns
    committed_pages: float     # pages credited at commit
    commits: int
    aborts: int
    admissions: int
    response_time_sum: float   # arrival → commit, committed txns
    active_integral: float     # ∫ n_active dt
    state1_integral: float     # ∫ (mature ∧ running) dt
    state2_integral: float     # ∫ (immature ∧ running) dt
    state3_integral: float     # ∫ (mature ∧ blocked) dt
    state4_integral: float     # ∫ (immature ∧ blocked) dt
    ready_queue_integral: float

    def others_integral(self) -> float:
        """∫ (states 2–4) dt — the paper's 'other transactions' curve."""
        return (self.state2_integral + self.state3_integral
                + self.state4_integral)


class Collector:
    """Accumulates counters and time-weighted population statistics."""

    def __init__(self, start_time: float = 0.0):
        self.raw_pages = 0
        self.committed_pages = 0
        self.commits = 0
        self.aborts = 0
        self.aborts_by_reason: Dict[str, int] = {}
        self.admissions = 0
        self.response_time_sum = 0.0    # arrival → commit, committed txns
        self.restarts_of_committed = 0
        self.per_class: Dict[str, ClassStats] = {}
        self.active = TimeWeightedValue(0.0, start_time)
        self.state1 = TimeWeightedValue(0.0, start_time)
        self.state2 = TimeWeightedValue(0.0, start_time)
        self.state3 = TimeWeightedValue(0.0, start_time)
        self.state4 = TimeWeightedValue(0.0, start_time)
        self.ready_queue = TimeWeightedValue(0.0, start_time)
        self.parked = TimeWeightedValue(0.0, start_time)

    # ------------------------------------------------------------------
    # Event hooks (called by the DBMS system)
    # ------------------------------------------------------------------

    def on_page_read(self) -> None:
        """A page read completed (any transaction).  The DBMS system's
        per-page path bumps ``raw_pages`` itself, without this frame."""
        self.raw_pages += 1

    def on_page_written(self) -> None:
        """A deferred-update page write completed (any transaction)."""
        self.raw_pages += 1

    def on_admission(self) -> None:
        self.admissions += 1

    def on_commit(self, pages: int, response_time: float,
                  restarts: int, class_name: str = "default") -> None:
        """Credit a committing transaction's pages to the throughput."""
        self.commits += 1
        self.committed_pages += pages
        self.response_time_sum += response_time
        self.restarts_of_committed += restarts
        stats = self._class_stats(class_name)
        stats.commits += 1
        stats.pages += pages
        stats.response_time_sum += response_time

    def on_abort(self, reason: str, class_name: str = "default") -> None:
        self.aborts += 1
        self.aborts_by_reason[reason] = (
            self.aborts_by_reason.get(reason, 0) + 1)
        self._class_stats(class_name).aborts += 1

    def _class_stats(self, class_name: str) -> ClassStats:
        stats = self.per_class.get(class_name)
        if stats is None:
            stats = self.per_class[class_name] = ClassStats()
        return stats

    # ------------------------------------------------------------------
    # Population tracking
    # ------------------------------------------------------------------

    def set_populations(self, now: float, n_active: int,
                        n_state1: int, n_state2: int,
                        n_state3: int, n_state4: int) -> None:
        """Record the current transaction-state populations.

        This runs on every tracker mutation — several times per
        simulated page — so the five ``TimeWeightedValue.update`` calls
        are unrolled inline (same arithmetic, same order; see
        :meth:`TimeWeightedValue.update`).
        """
        tw = self.active
        tw._integral += tw._value * (now - tw._last_time)
        tw._value = n_active
        tw._last_time = now
        if n_active > tw.max_value:
            tw.max_value = n_active
        tw = self.state1
        tw._integral += tw._value * (now - tw._last_time)
        tw._value = n_state1
        tw._last_time = now
        if n_state1 > tw.max_value:
            tw.max_value = n_state1
        tw = self.state2
        tw._integral += tw._value * (now - tw._last_time)
        tw._value = n_state2
        tw._last_time = now
        if n_state2 > tw.max_value:
            tw.max_value = n_state2
        tw = self.state3
        tw._integral += tw._value * (now - tw._last_time)
        tw._value = n_state3
        tw._last_time = now
        if n_state3 > tw.max_value:
            tw.max_value = n_state3
        tw = self.state4
        tw._integral += tw._value * (now - tw._last_time)
        tw._value = n_state4
        tw._last_time = now
        if n_state4 > tw.max_value:
            tw.max_value = n_state4

    def set_ready_queue_length(self, now: float, length: int) -> None:
        self.ready_queue.update(length, now)

    def set_parked_count(self, now: float, count: int) -> None:
        """Record the passivated (cold-set) population.

        Kept out of :meth:`set_populations` deliberately: parking is a
        rare controller decision, so the hot path stays five gauges
        wide and only passivation/readmission pays this update.
        """
        self.parked.update(count, now)

    # ------------------------------------------------------------------
    # Conservation laws (consumed by repro.verify.InvariantChecker)
    # ------------------------------------------------------------------

    def conservation_errors(self) -> List[str]:
        """Violated accounting laws among the cumulative counters.

        Returns human-readable descriptions (empty list = all laws
        hold).  These are pure counter relations — no knowledge of the
        live system is needed, so the list is checkable at any instant:

        * every abort is attributed to exactly one reason;
        * committed pages never exceed raw pages processed (wasted work
          is non-negative);
        * per-class commit/abort/page tallies sum to the global ones;
        * commits never exceed admissions (every committed transaction
          was admitted at least once);
        * nothing is negative.
        """
        errors: List[str] = []
        by_reason = sum(self.aborts_by_reason.values())
        if by_reason != self.aborts:
            errors.append(
                f"aborts_by_reason sums to {by_reason} but "
                f"{self.aborts} aborts were counted")
        if self.committed_pages > self.raw_pages:
            errors.append(
                f"committed pages ({self.committed_pages}) exceed raw "
                f"pages processed ({self.raw_pages})")
        class_commits = sum(s.commits for s in self.per_class.values())
        class_aborts = sum(s.aborts for s in self.per_class.values())
        class_pages = sum(s.pages for s in self.per_class.values())
        if class_commits != self.commits:
            errors.append(
                f"per-class commits sum to {class_commits}, "
                f"global commits are {self.commits}")
        if class_aborts != self.aborts:
            errors.append(
                f"per-class aborts sum to {class_aborts}, "
                f"global aborts are {self.aborts}")
        if class_pages != self.committed_pages:
            errors.append(
                f"per-class pages sum to {class_pages}, "
                f"global committed pages are {self.committed_pages}")
        if self.commits > self.admissions:
            errors.append(
                f"commits ({self.commits}) exceed admissions "
                f"({self.admissions})")
        for name, value in (("raw_pages", self.raw_pages),
                            ("committed_pages", self.committed_pages),
                            ("commits", self.commits),
                            ("aborts", self.aborts),
                            ("admissions", self.admissions),
                            ("restarts_of_committed",
                             self.restarts_of_committed)):
            if value < 0:
                errors.append(f"counter {name} is negative ({value})")
        return errors

    def counters_dict(self) -> Dict[str, float]:
        """Cumulative counters as plain data (evidence snapshots)."""
        return {
            "raw_pages": self.raw_pages,
            "committed_pages": self.committed_pages,
            "commits": self.commits,
            "aborts": self.aborts,
            "aborts_by_reason": dict(self.aborts_by_reason),
            "admissions": self.admissions,
            "restarts_of_committed": self.restarts_of_committed,
            "active": self.active.current,
            "ready_queue": self.ready_queue.current,
            "parked": self.parked.current,
        }

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self, now: float) -> MetricsSnapshot:
        """Cumulative values as of ``now`` (integrals forced up to date)."""
        return MetricsSnapshot(
            time=now,
            raw_pages=self.raw_pages,
            committed_pages=self.committed_pages,
            commits=self.commits,
            aborts=self.aborts,
            admissions=self.admissions,
            response_time_sum=self.response_time_sum,
            active_integral=self.active.integral(now),
            state1_integral=self.state1.integral(now),
            state2_integral=self.state2.integral(now),
            state3_integral=self.state3.integral(now),
            state4_integral=self.state4.integral(now),
            ready_queue_integral=self.ready_queue.integral(now),
        )
