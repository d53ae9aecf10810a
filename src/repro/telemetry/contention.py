"""Per-page contention heat and wait-for-graph statistics.

The probes show *that* the system is congested (population fractions,
queue lengths); the :class:`ContentionMonitor` shows *where*.  Hooked
into the same zero-cost-off slots as the span recorder, it maintains

* per-page counters — how often each page blocked a request
  (``conflicts``), total simulated seconds waited on it
  (``wait_seconds``), and how many waiters died on it while blocked
  (``aborts``) — the hot-page table;
* per-probe-tick wait-for-graph statistics — waiter count, waits-for
  edge count, max/mean wait-chain depth, and max/mean lock-queue depth
  over contested pages — one :class:`ContentionSample` per tick,
  exported as ``contention.jsonl``.

The monitor is strictly observational: it never touches a random
stream, never schedules an event, and reads the lock table only
through its public deterministic accessors, so a monitored run follows
exactly the same trajectory (results *and* trace) as an unmonitored
one.  When no monitor is attached the system pays one ``None`` check
per hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dbms.system import DBMSSystem
    from repro.dbms.transaction import Transaction
    from repro.telemetry.probes import ProbeSample

__all__ = ["ContentionSample", "PageHeat", "ContentionMonitor"]


class PageHeat:
    """Cumulative contention counters for one page."""

    __slots__ = ("conflicts", "wait_seconds", "aborts")

    def __init__(self) -> None:
        self.conflicts = 0
        self.wait_seconds = 0.0
        self.aborts = 0


@dataclass(frozen=True)
class ContentionSample:
    """One probe tick of lock-contention state (the contention.jsonl row).

    Graph statistics are instantaneous (the wait-for graph at the
    tick); counters prefixed ``cum_`` are cumulative since the start
    of the run.  ``mean_queue_depth`` averages over *contested* pages
    only (pages with at least one waiter), so an uncontended run
    reports 0 contested pages rather than a diluted mean.
    """

    time: float
    waiters: int
    wait_edges: int
    max_chain_depth: int
    mean_chain_depth: float
    max_queue_depth: int
    mean_queue_depth: float
    contested_pages: int
    locked_pages: int
    cum_conflicts: int
    cum_wait_seconds: float
    cum_contention_aborts: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "waiters": self.waiters,
            "wait_edges": self.wait_edges,
            "max_chain_depth": self.max_chain_depth,
            "mean_chain_depth": self.mean_chain_depth,
            "max_queue_depth": self.max_queue_depth,
            "mean_queue_depth": self.mean_queue_depth,
            "contested_pages": self.contested_pages,
            "locked_pages": self.locked_pages,
            "cum_conflicts": self.cum_conflicts,
            "cum_wait_seconds": self.cum_wait_seconds,
            "cum_contention_aborts": self.cum_contention_aborts,
        }


class ContentionMonitor:
    """Accumulates contention heat for one run.

    Attach with :meth:`attach`, before or during a run (a monitor
    attached mid-run does not charge waits already open), and append
    the monitor to the probe scheduler's listeners to collect the
    per-tick graph statistics.  A :class:`~repro.telemetry.export
    .TelemetrySession` built with ``contention=True`` does both.
    """

    def __init__(self) -> None:
        self.system: Optional["DBMSSystem"] = None  # set by attach()
        self.pages: Dict[Any, PageHeat] = {}
        self.samples: List[ContentionSample] = []
        self.total_conflicts = 0
        self.total_wait_seconds = 0.0
        self.total_aborts_while_waiting = 0
        # txn_id -> (page, block time) for waits currently open.
        self._open_waits: Dict[int, Tuple[Any, float]] = {}

    def attach(self, system: "DBMSSystem") -> None:
        """Install on a system (sets the ``system.contention`` slot)."""
        self.system = system
        system.contention = self

    # ------------------------------------------------------------------
    # Lifecycle hooks (called from the hooked state-machine methods)
    # ------------------------------------------------------------------

    def on_block(self, txn: "Transaction", page: Any) -> None:
        heat = self.pages.get(page)
        if heat is None:
            heat = self.pages[page] = PageHeat()
        heat.conflicts += 1
        self.total_conflicts += 1
        self._open_waits[txn.txn_id] = (page, self.system.sim.now)

    def on_unblock(self, txn: "Transaction") -> None:
        open_wait = self._open_waits.pop(txn.txn_id, None)
        if open_wait is None:
            return
        page, started = open_wait
        waited = self.system.sim.now - started
        self.pages[page].wait_seconds += waited
        self.total_wait_seconds += waited

    def on_abort(self, txn: "Transaction", reason: str) -> None:
        # Only aborts of transactions that were blocked at the time are
        # charged to a page; wait-policy rejects never opened a wait.
        open_wait = self._open_waits.pop(txn.txn_id, None)
        if open_wait is None:
            return
        page, started = open_wait
        waited = self.system.sim.now - started
        heat = self.pages[page]
        heat.wait_seconds += waited
        heat.aborts += 1
        self.total_wait_seconds += waited
        self.total_aborts_while_waiting += 1

    # ------------------------------------------------------------------
    # Probe listener
    # ------------------------------------------------------------------

    def on_sample(self, sample: "ProbeSample") -> None:
        """Snapshot the wait-for graph at a probe tick (read-only)."""
        lock_table = self.system.lock_table
        waiters = lock_table.waiting_transactions()
        edges = 0
        max_chain = 0
        chain_sum = 0
        for txn in waiters:
            edges += len(lock_table.blocking_set(txn))
            depth = lock_table.wait_chain_depth(txn)
            chain_sum += depth
            if depth > max_chain:
                max_chain = depth
        max_queue = 0
        queue_sum = 0
        contested = 0
        locked_pages = lock_table.locked_pages()
        for page in locked_pages:
            depth = lock_table.num_waiters(page)
            if depth > 0:
                contested += 1
                queue_sum += depth
                if depth > max_queue:
                    max_queue = depth
        self.samples.append(ContentionSample(
            time=sample.time,
            waiters=len(waiters),
            wait_edges=edges,
            max_chain_depth=max_chain,
            mean_chain_depth=(chain_sum / len(waiters)
                              if waiters else 0.0),
            max_queue_depth=max_queue,
            mean_queue_depth=(queue_sum / contested
                              if contested else 0.0),
            contested_pages=contested,
            locked_pages=len(locked_pages),
            cum_conflicts=self.total_conflicts,
            cum_wait_seconds=self.total_wait_seconds,
            cum_contention_aborts=self.total_aborts_while_waiting,
        ))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def hot_pages(self, limit: int = 10) -> List[Dict[str, Any]]:
        """The hot-page table: most-conflicted pages first.

        Ties break on waited seconds, then on the page id, so the
        table is deterministic run to run.
        """
        ranked = sorted(
            self.pages.items(),
            key=lambda kv: (-kv[1].conflicts, -kv[1].wait_seconds,
                            str(kv[0])))
        return [{"page": page,
                 "conflicts": heat.conflicts,
                 "wait_seconds": heat.wait_seconds,
                 "aborts": heat.aborts}
                for page, heat in ranked[:limit]]

    def summary(self, hot_page_limit: int = 10) -> Dict[str, Any]:
        """The contention.json document (deterministic)."""
        return {
            "format": "repro-contention-v1",
            "conflicts": self.total_conflicts,
            "wait_seconds": self.total_wait_seconds,
            "aborts_while_waiting": self.total_aborts_while_waiting,
            "contended_pages": len(self.pages),
            "hot_pages": self.hot_pages(hot_page_limit),
        }
