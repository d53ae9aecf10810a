"""Active-transaction state tracking (paper Table 1).

Every *active* (admitted) transaction is classified along two axes:

============  =========  ========
State         Running    Mature
============  =========  ========
State 1       Yes        Yes
State 2       Yes        No
State 3       No         Yes
State 4       No         No
============  =========  ========

The tracker maintains the four population counts incrementally — the
Half-and-Half controller reads them on every decision, and the metrics
collector receives every change for time-weighted averaging (Figures 3–4
plot exactly these populations).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Set

from repro.errors import InvariantViolation
from repro.metrics.collector import Collector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dbms.transaction import Transaction

__all__ = ["StateTracker"]


class StateTracker:
    """Incremental population counts over the active-transaction set."""

    def __init__(self, collector: Optional[Collector] = None):
        self._active: Set["Transaction"] = set()
        # Number of admitted (active) transactions.  Maintained as a
        # plain attribute (== len(self._active), enforced by
        # :meth:`check_invariants`): controllers read it on every
        # decision, and a property call per read is measurable at bench
        # scale.
        self.n_active = 0
        self.n_state1 = 0   # running, mature
        self.n_state2 = 0   # running, immature
        self.n_state3 = 0   # blocked, mature
        self.n_state4 = 0   # blocked, immature
        self._collector = collector

    # ------------------------------------------------------------------

    @property
    def n_running(self) -> int:
        return self.n_state1 + self.n_state2

    @property
    def n_blocked(self) -> int:
        return self.n_state3 + self.n_state4

    def is_active(self, txn: "Transaction") -> bool:
        return txn in self._active

    def active_transactions(self) -> Iterator["Transaction"]:
        """Iterate over the active set (no particular order)."""
        return iter(self._active)

    def blocked_transactions(self) -> Iterator["Transaction"]:
        """Iterate over currently blocked active transactions."""
        return (t for t in self._active if t.is_blocked)

    def state_of(self, txn: "Transaction") -> int:
        """Table 1 state number (1–4) of an active transaction."""
        if txn.is_blocked:
            return 3 if txn.is_mature else 4
        return 1 if txn.is_mature else 2

    # ------------------------------------------------------------------
    # Mutations (all called by the DBMS system with the current time)
    # ------------------------------------------------------------------

    def add(self, txn: "Transaction", now: float) -> None:
        """Admit a transaction (enters running & immature by definition)."""
        if txn in self._active:
            raise InvariantViolation(
                f"{txn!r} already active", invariant="tracker_membership",
                sim_time=now)
        txn.is_blocked = False
        txn.is_mature = False
        self._active.add(txn)
        self.n_active += 1
        self.n_state2 += 1
        self._publish(now)

    def remove(self, txn: "Transaction", now: float) -> None:
        """Remove a transaction from the active set (commit or abort)."""
        if txn not in self._active:
            raise self._not_active(txn, now)
        self._active.remove(txn)
        self.n_active -= 1
        self._bucket_delta(txn, -1)
        self._publish(now)

    def set_blocked(self, txn: "Transaction", blocked: bool,
                    now: float) -> None:
        """Flip the running/blocked axis.

        Moves one count between two buckets in one step (no
        ``_bucket_delta`` pair): this runs at every block and unblock.
        """
        if txn not in self._active:
            raise self._not_active(txn, now)
        if txn.is_blocked == blocked:
            return
        txn.is_blocked = blocked
        if txn.is_mature:
            if blocked:
                self.n_state1 -= 1
                self.n_state3 += 1
            else:
                self.n_state3 -= 1
                self.n_state1 += 1
        elif blocked:
            self.n_state2 -= 1
            self.n_state4 += 1
        else:
            self.n_state4 -= 1
            self.n_state2 += 1
        if self._collector is not None:
            self._collector.set_populations(
                now, self.n_active, self.n_state1, self.n_state2,
                self.n_state3, self.n_state4)

    def set_mature(self, txn: "Transaction", now: float) -> None:
        """Mark a transaction mature (irreversible within an attempt)."""
        if txn not in self._active:
            raise self._not_active(txn, now)
        if txn.is_mature:
            return
        txn.is_mature = True
        if txn.is_blocked:
            self.n_state4 -= 1
            self.n_state3 += 1
        else:
            self.n_state2 -= 1
            self.n_state1 += 1
        if self._collector is not None:
            self._collector.set_populations(
                now, self.n_active, self.n_state1, self.n_state2,
                self.n_state3, self.n_state4)

    # ------------------------------------------------------------------

    @staticmethod
    def _not_active(txn: "Transaction", now: float) -> InvariantViolation:
        return InvariantViolation(
            f"{txn!r} not active", invariant="tracker_membership",
            sim_time=now)

    def _bucket_delta(self, txn: "Transaction", delta: int) -> None:
        if txn.is_blocked:
            if txn.is_mature:
                self.n_state3 += delta
            else:
                self.n_state4 += delta
        else:
            if txn.is_mature:
                self.n_state1 += delta
            else:
                self.n_state2 += delta

    def _publish(self, now: float) -> None:
        if self._collector is not None:
            self._collector.set_populations(
                now, self.n_active, self.n_state1, self.n_state2,
                self.n_state3, self.n_state4)

    def check_invariants(self) -> None:
        """Verify counters against a from-scratch recomputation.

        Raises :class:`~repro.errors.InvariantViolation` (a real
        exception, not a ``python -O``-stripped assert) when the
        incrementally maintained bucket counters disagree with a
        from-scratch classification of the active set.
        """
        counts = [0, 0, 0, 0]
        for txn in self._active:
            counts[self.state_of(txn) - 1] += 1
        counters = [self.n_state1, self.n_state2,
                    self.n_state3, self.n_state4]
        if counts != counters:
            raise InvariantViolation(
                f"tracker counters {counters} disagree with "
                f"recomputation {counts}",
                invariant="tracker_bucket_conservation",
                evidence={"counters": counters, "recomputed": counts,
                          "n_active": self.n_active})
        if sum(counters) != self.n_active:
            raise InvariantViolation(
                f"bucket counters sum to {sum(counters)} but "
                f"{self.n_active} transactions are active",
                invariant="tracker_bucket_conservation",
                evidence={"counters": counters,
                          "n_active": self.n_active})
        if self.n_active != len(self._active):
            raise InvariantViolation(
                f"n_active counter {self.n_active} disagrees with the "
                f"active set of {len(self._active)}",
                invariant="tracker_bucket_conservation",
                evidence={"n_active": self.n_active,
                          "set_size": len(self._active)})
