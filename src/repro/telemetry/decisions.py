"""Controller decision log: every load-control verdict, with evidence.

The paper's controllers act at a handful of decision points (arrival,
lock grant, block, commit).  A :class:`DecisionLog` plugged into a
controller records one :class:`ControllerDecision` per verdict — the
action taken, the operating region, and the population counts the
controller observed at that instant — so controller behaviour can be
replayed and debugged offline instead of inferred from aggregates.

Like the tracer, the log is optional and off by default; an attached
controller pays one ``None`` check per hook when no log is installed.
Also like the tracer, the log keeps each decision as a
:data:`DecisionRow` tuple and builds :class:`ControllerDecision`
objects only when it is read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import astuple, dataclass
from itertools import starmap
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

__all__ = ["DecisionAction", "ControllerDecision", "DecisionLog",
           "DecisionRow"]


class DecisionAction:
    """Well-known decision kinds (string constants, not an enum, so
    custom controllers can introduce their own without touching this
    module)."""

    ADMIT = "admit"                    # arrival admitted immediately
    DEFER = "defer"                    # arrival parked in the ready queue
    ADMIT_CARRYOVER = "admit_carryover"  # pre-authorised by a past commit
    ADMIT_QUEUED = "admit_queued"      # admitted from the ready queue
    ABORT_VICTIM = "abort_victim"      # overload victim aborted
    ADMIT_ON_COMMIT = "admit_on_commit"  # replacement admitted at commit
    CARRY_ADMIT = "carry_admit"        # commit found the queue empty;
    #                                    next arrival pre-authorised
    PASSIVATE = "passivate"            # overload victim parked (cold set)
    READMIT = "readmit"                # parked txn readmitted (LIFO)
    SHRINK_CAP = "shrink_cap"          # congestion: population cap
    #                                    halved (AIMD decrease)
    REFIT = "refit"                    # analytic model refit to new
    #                                    conflict/abort observations
    FAULT_BEGIN = "fault_begin"        # injected fault window opened
    FAULT_END = "fault_end"            # injected fault window closed
    # Distributed failure model (system-level events recorded by
    # DistributedSystem, attributed to pseudo-controller "siteN"):
    SITE_CRASH = "site_crash"          # a site went down
    SITE_RECOVER = "site_recover"      # a crashed site came back
    PARTITION_BEGIN = "partition_begin"  # a network partition opened
    PARTITION_END = "partition_end"      # a network partition healed
    INDOUBT_HOLD = "indoubt_hold"      # participant prepared; locks held
    #                                    in-doubt awaiting the decision
    INDOUBT_RESOLVED = "indoubt_resolved"  # in-doubt locks released
    DEGRADED_ENTER = "degraded_enter"  # safe-mode MPL clamp engaged
    DEGRADED_EXIT = "degraded_exit"    # remotes reachable again; clamp off


@dataclass(frozen=True)
class ControllerDecision:
    """One recorded load-control verdict.

    ``measure`` and ``threshold`` carry the controller's decision
    variable and the value it was compared against — for Half-and-Half
    the observed State 1/State 3 fraction vs ``0.5 ± δ``, for the
    conflict-ratio controller the ratio vs its critical value, for a
    fixed-MPL controller the active count vs the MPL limit.
    """

    time: float
    controller: str
    action: str
    region: Optional[str] = None
    n_active: int = 0
    n_state1: int = 0
    n_state3: int = 0
    txn_id: Optional[int] = None
    measure: Optional[float] = None
    threshold: Optional[float] = None
    detail: str = ""

    @property
    def frac_state1(self) -> float:
        """Observed State 1 (running & mature) fraction."""
        return self.n_state1 / self.n_active if self.n_active else 0.0

    @property
    def frac_state3(self) -> float:
        """Observed State 3 (blocked & mature) fraction."""
        return self.n_state3 / self.n_active if self.n_active else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """A flat JSON-serializable record (the decisions.jsonl row)."""
        return {
            "time": self.time,
            "controller": self.controller,
            "action": self.action,
            "region": self.region,
            "n_active": self.n_active,
            "n_state1": self.n_state1,
            "n_state3": self.n_state3,
            "frac_state1": self.frac_state1,
            "frac_state3": self.frac_state3,
            "txn_id": self.txn_id,
            "measure": self.measure,
            "threshold": self.threshold,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        base = (f"[{self.time:10.4f}] {self.action:<16} "
                f"active={self.n_active:<4} s1={self.n_state1:<4} "
                f"s3={self.n_state3}")
        if self.region is not None:
            base += f" region={self.region}"
        if self.txn_id is not None:
            base += f" txn={self.txn_id}"
        return f"{base} ({self.detail})" if self.detail else base


#: A recorded decision as the log keeps it: :class:`ControllerDecision`'s
#: fields in declaration order, ``(time, controller, action, region,
#: n_active, n_state1, n_state3, txn_id, measure, threshold, detail)``.
#: ``ControllerDecision(*row)`` rebuilds the object.
DecisionRow = Tuple[float, str, str, Optional[str], int, int, int,
                    Optional[int], Optional[float], Optional[float], str]


class DecisionLog:
    """Bounded in-memory log of controller decisions.

    Args:
        capacity: maximum decisions retained; older entries are dropped
            FIFO once the bound is hit (``None`` = unbounded).

    Decisions are kept as :data:`DecisionRow` tuples; iteration and
    the queries build the :class:`ControllerDecision` objects, and the
    exporter encodes the rows directly (:meth:`rows`).
    """

    def __init__(self, capacity: Optional[int] = 100_000):
        self.capacity = capacity
        self._rows: Deque[DecisionRow] = deque(maxlen=capacity)
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[ControllerDecision]:
        return starmap(ControllerDecision, self._rows)

    def rows(self) -> Iterator[DecisionRow]:
        """The retained decisions as :data:`DecisionRow` tuples, in
        order."""
        return iter(self._rows)

    def record(self, decision: ControllerDecision) -> None:
        """Append one decision (subject to capacity)."""
        self.add(*astuple(decision))

    def add(self, time: float, controller: str, action: str,
            region: Optional[str] = None, n_active: int = 0,
            n_state1: int = 0, n_state3: int = 0,
            txn_id: Optional[int] = None,
            measure: Optional[float] = None,
            threshold: Optional[float] = None,
            detail: str = "") -> None:
        """Record a decision from :class:`ControllerDecision`'s fields,
        by position or by name.

        Lets the simulator log a decision without importing this
        module on its event path (the log is only there when telemetry
        is on), and without building the object."""
        if self.capacity is not None and len(self._rows) >= self.capacity:
            self.dropped += 1
        self._rows.append((time, controller, action, region, n_active,
                           n_state1, n_state3, txn_id, measure,
                           threshold, detail))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def decisions(self, action: Optional[str] = None
                  ) -> List[ControllerDecision]:
        """Decisions, optionally restricted to one action kind."""
        if action is None:
            return list(self)
        return [ControllerDecision(*row) for row in self._rows
                if row[2] == action]

    def counts(self) -> Dict[str, int]:
        """Decision counts by action kind."""
        out: Dict[str, int] = {}
        for row in self._rows:
            out[row[2]] = out.get(row[2], 0) + 1
        return out

    def victims(self) -> List[int]:
        """Transaction ids of load-control abort victims, in order."""
        return [row[7] for row in self._rows
                if row[2] == DecisionAction.ABORT_VICTIM
                and row[7] is not None]

    def format(self, limit: Optional[int] = None) -> str:
        """Render the (tail of the) log as text."""
        rows = list(self._rows)
        if limit is not None:
            rows = rows[-limit:]
        return "\n".join(str(ControllerDecision(*row)) for row in rows)
