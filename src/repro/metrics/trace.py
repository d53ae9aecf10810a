"""Event tracing: a structured record of what the system did and when.

The collector aggregates; the tracer remembers.  A :class:`Tracer`
plugged into the DBMS system records one event per interesting
transition (admission, block, unblock, abort, commit, load-control
action), which is invaluable for debugging controller behaviour and for
the worked examples that narrate a simulation.

Tracing is optional and off by default — the hot path pays one ``if``
per transition when no tracer is installed.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from itertools import starmap
from typing import (Callable, Deque, Dict, Iterable, Iterator, List,
                    Optional, Tuple)

__all__ = ["TraceEventType", "TraceEvent", "TraceRow", "Tracer"]


class TraceEventType(enum.Enum):
    """The transitions worth remembering."""

    ARRIVAL = "arrival"
    ADMIT = "admit"
    QUEUE = "queue"              # parked in the external ready queue
    LOCK_GRANT = "lock_grant"
    BLOCK = "block"
    UNBLOCK = "unblock"
    MATURE = "mature"
    PARK = "park"                # passivated into the cold set
    UNPARK = "unpark"            # readmitted from the cold set
    DEADLOCK_ABORT = "deadlock_abort"
    LOAD_CONTROL_ABORT = "load_control_abort"
    WAIT_POLICY_ABORT = "wait_policy_abort"
    WAIT_DIE_ABORT = "wait_die_abort"
    WOUND_WAIT_ABORT = "wound_wait_abort"
    RESTART = "restart"
    COMMIT = "commit"
    # Catch-all for abort reasons this enum does not know about
    # (controllers may invent their own reason strings); the reason
    # travels in the event's ``detail``.
    ABORT = "abort"


_ABORT_EVENTS = {
    "deadlock": TraceEventType.DEADLOCK_ABORT,
    "load_control": TraceEventType.LOAD_CONTROL_ABORT,
    "wait_policy": TraceEventType.WAIT_POLICY_ABORT,
    "wait_die": TraceEventType.WAIT_DIE_ABORT,
    "wound_wait": TraceEventType.WOUND_WAIT_ABORT,
}


@dataclass(frozen=True)
class TraceEvent:
    """One recorded transition."""

    time: float
    event_type: TraceEventType
    txn_id: int
    detail: str = ""

    def __str__(self) -> str:
        base = f"[{self.time:10.4f}] txn {self.txn_id:<6} " \
               f"{self.event_type.value}"
        return f"{base} ({self.detail})" if self.detail else base


#: A recorded event as the tracer keeps it: :class:`TraceEvent`'s
#: fields in declaration order, ``(time, event_type, txn_id, detail)``.
#: ``TraceEvent(*row)`` rebuilds the object.
TraceRow = Tuple[float, TraceEventType, int, str]


class Tracer:
    """Bounded in-memory trace of system transitions.

    Args:
        capacity: maximum events retained; older events are dropped
            FIFO once the bound is hit (``None`` = unbounded).
        event_filter: optional predicate; events it rejects are not
            recorded (use to trace, e.g., only aborts).

    Events are kept as :data:`TraceRow` tuples, which cost a fraction
    of a frozen dataclass to build.  The :class:`TraceEvent` objects
    are built when read — iteration, :meth:`events`, :meth:`history_of`
    and :meth:`format` — and, when a filter is set, once per recorded
    event for the filter to judge.  The exporter encodes the rows
    directly (:meth:`rows`).
    """

    def __init__(self, capacity: Optional[int] = 100_000,
                 event_filter: Optional[
                     Callable[[TraceEvent], bool]] = None):
        self.capacity = capacity
        self.event_filter = event_filter
        # A deque with maxlen evicts FIFO in O(1); a plain list's
        # pop(0) is O(n) per event once the bound is hit.
        self._events: Deque[TraceRow] = deque(maxlen=capacity)
        # Per-transaction index for history_of and events(txn_id=...),
        # built from _events by the first such query after a record
        # (_index), so recording pays nothing for it.  _indexed is the
        # number of events recorded (retained or evicted) when it was
        # last built.
        self._by_txn: Dict[int, List[TraceRow]] = {}
        self._indexed = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return starmap(TraceEvent, self._events)

    def rows(self) -> Iterator[TraceRow]:
        """The retained events as :data:`TraceRow` tuples, in order."""
        return iter(self._events)

    def record(self, time: float, event_type: TraceEventType,
               txn_id: int, detail: str = "") -> None:
        """Append one event (subject to filter and capacity)."""
        row = (time, event_type, txn_id, detail)
        if (self.event_filter is not None
                and not self.event_filter(TraceEvent(*row))):
            return
        if self.capacity is not None and len(self._events) >= self.capacity:
            # The deque evicts the oldest event itself; count it.
            self.dropped += 1
        self._events.append(row)

    def _index(self) -> Dict[int, List[TraceRow]]:
        """The per-transaction index of the retained events, rebuilt
        if anything was recorded since it was last built."""
        recorded = len(self._events) + self.dropped
        if recorded != self._indexed:
            by_txn: Dict[int, List[TraceRow]] = {}
            for row in self._events:
                bucket = by_txn.get(row[2])
                if bucket is None:
                    by_txn[row[2]] = [row]
                else:
                    bucket.append(row)
            self._by_txn = by_txn
            self._indexed = recorded
        return self._by_txn

    def record_abort(self, time: float, txn_id: int, reason: str) -> None:
        """Record an abort, mapping the collector reason string.

        Reasons the :class:`TraceEventType` enum does not know about
        (custom controller aborts) become generic :attr:`ABORT` events
        carrying the reason string, rather than being mislabelled.
        """
        event_type = _ABORT_EVENTS.get(reason, TraceEventType.ABORT)
        self.record(time, event_type, txn_id, detail=reason)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def events(self, event_type: Optional[TraceEventType] = None,
               txn_id: Optional[int] = None) -> List[TraceEvent]:
        """Events matching the given type and/or transaction."""
        # A txn_id query scans only that transaction's bucket (the
        # per-txn index), not the whole trace.
        source: Iterable[TraceRow] = (
            self._index().get(txn_id, ()) if txn_id is not None
            else self._events)
        return [TraceEvent(*row) for row in source
                if event_type is None or row[1] is event_type]

    def counts(self) -> Dict[TraceEventType, int]:
        """Event counts by type."""
        out: Dict[TraceEventType, int] = {}
        for row in self._events:
            out[row[1]] = out.get(row[1], 0) + 1
        return out

    def history_of(self, txn_id: int) -> List[TraceEvent]:
        """The full recorded lifecycle of one transaction.

        O(k) in the transaction's own event count via the per-txn
        index, not O(n) in the whole trace, once the index is built: the
        first query after a record rebuilds it in O(n).  Events evicted
        by the retention bound are gone from the history too.
        """
        return list(starmap(TraceEvent, self._index().get(txn_id, ())))

    def format(self, limit: Optional[int] = None) -> str:
        """Render the (tail of the) trace as text."""
        rows = list(self._events)
        if limit is not None:
            rows = rows[-limit:]
        return "\n".join(str(TraceEvent(*row)) for row in rows)
