"""Per-transaction span timelines: where every microsecond went.

The probes see the forest (population trajectories); spans see the
trees.  A :class:`SpanRecorder` installed on a
:class:`~repro.dbms.system.DBMSSystem` accumulates one typed
:class:`Span` per contiguous stretch of a transaction's life:

* ``ready_wait``  — parked in the external ready queue awaiting
  admission (opened/closed through the queue's observer hooks);
* ``cpu`` / ``disk`` — a service request at a physical resource,
  measured from issue to completion so resource queueing is included;
* ``lock_wait``   — blocked on a lock, annotated with the contested
  page, the blocking transaction's id (the head of the deterministic
  :meth:`~repro.lockmgr.lock_table.LockTable.blocking_order`), and the
  wait-chain depth at block time;
* ``restart_gap`` — the pause between an abort and the re-arrival of
  the restarted transaction.

Spans are strictly observational: the recorder never touches a random
stream, never schedules an event, and never mutates system state, so a
run with spans enabled follows exactly the same trajectory as the same
run without them — and when no recorder is installed the system pays
one ``None`` check per hook (the zero-cost-off property the rest of
the telemetry layer shares).

At commit time the transaction's accumulated per-kind totals are fed
to a :class:`~repro.telemetry.latency.LatencyAnalytics`, which turns
them into percentile histograms, critical-path breakdowns, and the
wait-chain blame table.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from itertools import starmap
from typing import (TYPE_CHECKING, Any, Deque, Dict, Iterator, List,
                    Optional, Tuple)

from repro.telemetry.latency import LatencyAnalytics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dbms.system import DBMSSystem
    from repro.dbms.transaction import Transaction

__all__ = ["SpanKind", "Span", "SpanRecorder", "SpanRow"]


class SpanKind(enum.Enum):
    """What a transaction was doing during one span."""

    READY_WAIT = "ready_wait"    # external ready queue
    CPU = "cpu"                  # CPU service (incl. resource queueing)
    DISK = "disk"                # disk service (incl. resource queueing)
    LOCK_WAIT = "lock_wait"      # blocked on a lock
    RESTART_GAP = "restart_gap"  # between abort and re-arrival


@dataclass(frozen=True)
class Span:
    """One closed stretch of a transaction's timeline.

    ``attempt`` is 1-based (``restarts + 1`` at open time).  ``page``,
    ``blocker``, and ``depth`` are only set for ``lock_wait`` spans:
    the contested page, the id of the first transaction in the
    deterministic blocking order, and the wait-chain depth measured
    from the blocked transaction at block time.
    """

    txn_id: int
    kind: SpanKind
    start: float
    end: float
    attempt: int
    page: Optional[int] = None
    blocker: Optional[int] = None
    depth: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """The spans.jsonl row."""
        return {
            "txn_id": self.txn_id,
            "kind": self.kind.value,
            "start": self.start,
            "end": self.end,
            "attempt": self.attempt,
            "page": self.page,
            "blocker": self.blocker,
            "depth": self.depth,
        }


#: A closed span as the recorder keeps it: :class:`Span`'s fields in
#: declaration order, ``(txn_id, kind, start, end, attempt, page,
#: blocker, depth)``.  ``Span(*row)`` rebuilds the object.
SpanRow = Tuple[int, SpanKind, float, float, int, Optional[int],
                Optional[int], Optional[int]]


#: The span a transaction is currently in, as the recorder keeps it:
#: ``(kind, start, attempt, page, blocker, depth)``.
_OpenSpan = Tuple[SpanKind, float, int, Optional[int], Optional[int],
                  Optional[int]]

# Enum members bound to module constants: reading a member off its class
# goes through the enum metaclass's attribute hook.
_READY_WAIT, _CPU, _DISK, _LOCK_WAIT, _RESTART_GAP = (
    SpanKind.READY_WAIT, SpanKind.CPU, SpanKind.DISK, SpanKind.LOCK_WAIT,
    SpanKind.RESTART_GAP)


class SpanRecorder:
    """Accumulates span timelines for every transaction in one run.

    Args:
        capacity: maximum closed spans retained for export; older spans
            are dropped FIFO once the bound is hit (``None`` =
            unbounded).  The latency analytics are fed from *every*
            span regardless of the retention bound.

    Install with :meth:`attach` before ``system.start()``; the recorder
    hooks itself into the system (``system.spans``) and the ready queue
    (``ready_queue.observer``).

    Closed spans are kept as :data:`SpanRow` tuples, which cost a
    fraction of a frozen dataclass to build; iterating the recorder
    builds the :class:`Span` objects, and the exporter encodes the rows
    directly (:meth:`rows`).
    """

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = capacity
        self._spans: Deque[SpanRow] = deque(maxlen=capacity)
        self.dropped = 0
        self._open: Dict[int, _OpenSpan] = {}
        self.analytics = LatencyAnalytics()
        # Per-transaction running totals, cleared at commit, keyed by
        # the kind's value: a str key hashes in C, where an enum
        # member's hash is a Python-level call.
        self._totals: Dict[int, Dict[str, float]] = {}
        self._system: Optional["DBMSSystem"] = None
        self._sim: Any = None

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def attach(self, system: "DBMSSystem") -> None:
        """Hook the recorder into a freshly built system."""
        self._system = system
        self._sim = system.sim
        system.spans = self
        system.ready_queue.observer = self

    # ------------------------------------------------------------------
    # Span plumbing
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return starmap(Span, self._spans)

    def rows(self) -> Iterator[SpanRow]:
        """The retained spans as :data:`SpanRow` tuples, in order."""
        return iter(self._spans)

    def spans_of(self, txn_id: int) -> List[Span]:
        """All retained spans of one transaction, in order."""
        return [Span(*row) for row in self._spans if row[0] == txn_id]

    def _close_span(self, txn: "Transaction") -> None:
        """Close the transaction's open span, if any (tolerant)."""
        txn_id = txn.txn_id
        open_span = self._open.pop(txn_id, None)
        if open_span is None:
            return
        end = self._sim.now
        kind, start, attempt, page, blocker, depth = open_span
        if (self.capacity is not None
                and len(self._spans) >= self.capacity):
            self.dropped += 1     # the deque evicts the oldest itself
        self._spans.append((txn_id, kind, start, end, attempt, page,
                            blocker, depth))
        duration = end - start
        totals = self._totals.get(txn_id)
        if totals is None:
            totals = self._totals[txn_id] = {}
        key = kind._value_
        totals[key] = totals.get(key, 0.0) + duration
        if kind is _LOCK_WAIT:
            self.analytics.credit_wait(blocker, page, duration)

    # ------------------------------------------------------------------
    # System hooks (all called with the trajectory untouched)
    # ------------------------------------------------------------------

    # Hooks that only close the transaction's open span (no-ops when
    # none is open):
    #   on_arrival        — a (re-)arrival ends the restart gap, if any;
    #   on_ready_dequeued — ready-queue observer: leaving the queue;
    #   end_service       — a CPU or disk request completed;
    #   on_unblock        — the blocked transaction's lock was granted;
    #   on_passivate      — parked into the cold set: closes the open
    #                       lock_wait span.  The parked stretch itself is
    #                       deliberately unattributed (it resembles the
    #                       ready queue but has no admission-order
    #                       semantics), and readmission re-enters through
    #                       the normal admission path.
    on_arrival = on_ready_dequeued = end_service = on_unblock = \
        on_passivate = _close_span

    def on_ready_enqueued(self, txn: "Transaction") -> None:
        """Ready-queue observer: parked awaiting admission."""
        self._open[txn.txn_id] = (_READY_WAIT, self._sim.now,
                                  txn.restarts + 1, None, None, None)

    def begin_cpu(self, txn: "Transaction") -> None:
        """A CPU service request was issued on the transaction's behalf."""
        self._open[txn.txn_id] = (_CPU, self._sim.now, txn.restarts + 1,
                                  None, None, None)

    def begin_disk(self, txn: "Transaction") -> None:
        """A disk access was issued on the transaction's behalf."""
        self._open[txn.txn_id] = (_DISK, self._sim.now, txn.restarts + 1,
                                  None, None, None)

    def on_block(self, txn: "Transaction", page: int) -> None:
        """The transaction blocked on ``page``; attribute the wait.

        The blocker recorded is the head of the lock table's
        deterministic blocking order — the transaction that must make
        progress before this one can.
        """
        lock_table = self._system.lock_table
        order = lock_table.blocking_order(txn)
        blocker = order[0].txn_id if order else None
        depth = lock_table.wait_chain_depth(txn)
        self._open[txn.txn_id] = (_LOCK_WAIT, self._sim.now,
                                  txn.restarts + 1, page, blocker, depth)
        self.analytics.on_block(blocker, page, depth)

    def on_abort(self, txn: "Transaction", reason: str) -> None:
        """Abort: close whatever was open, start the restart gap.

        Called after the system has torn the transaction down; the
        re-arrival event is already scheduled, and :meth:`on_arrival`
        will close the gap.
        """
        self._close_span(txn)
        self._open[txn.txn_id] = (_RESTART_GAP, self._sim.now,
                                  txn.restarts + 1, None, None, None)

    def on_commit(self, txn: "Transaction") -> None:
        """Commit: fold the transaction's timeline into the analytics."""
        self._close_span(txn)    # defensive; nothing should be open
        totals = self._totals.pop(txn.txn_id, {})
        life = self._sim.now - txn.timestamp
        self.analytics.on_commit(
            life=life,
            lock_wait=totals.get("lock_wait", 0.0),
            cpu=totals.get("cpu", 0.0),
            disk=totals.get("disk", 0.0),
            ready_wait=totals.get("ready_wait", 0.0),
            restart_gap=totals.get("restart_gap", 0.0),
            restarts=txn.restarts)
