"""Conflict-ratio load control (after Moenkeberg & Weikum).

The best-known successor to the Half-and-Half approach drives admission
from the *conflict ratio*: the number of locks held by all transactions
divided by the number of locks held by non-blocked transactions.  A
ratio of 1 means nobody is blocked; Moenkeberg & Weikum's measurements
placed the onset of thrashing near a critical ratio of ≈ 1.3,
independent of the workload.

This implementation runs Half-and-Half's three-region feedback loop
(:class:`repro.control.base.SheddingController`) over the conflict
ratio, so the two are directly comparable:

* admit (on arrival / lock grant / commit) while the conflict ratio is
  below the critical value;
* cancel admissions above it, where a commit neither replaces nor
  pre-authorises;
* abort blocked, blocking, youngest-first victims while the ratio
  exceeds the critical value by the hysteresis margin.

Compared to the 50% rule, the conflict ratio weights each transaction
by its *locks held* rather than counting heads, and needs no maturity
notion or lock-count estimates — its own answer to the estimation
concerns of the paper's Section 4.6.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dbms.transaction import Transaction

from repro.control.base import SheddingController
from repro.errors import ConfigurationError

__all__ = ["ConflictRatioController"]

# Moenkeberg & Weikum's empirically workload-independent critical value.
DEFAULT_CRITICAL_RATIO = 1.3


class ConflictRatioController(SheddingController):
    """Admission control driven by the lock conflict ratio."""

    def __init__(self, critical_ratio: float = DEFAULT_CRITICAL_RATIO,
                 abort_margin: float = 0.1):
        super().__init__()
        if critical_ratio <= 1.0:
            raise ConfigurationError(
                f"critical_ratio must exceed 1.0, got {critical_ratio}")
        if abort_margin < 0.0:
            raise ConfigurationError(
                f"abort_margin must be non-negative, got {abort_margin}")
        self.critical_ratio = critical_ratio
        self.abort_margin = abort_margin

    @property
    def base_name(self) -> str:
        return f"ConflictRatio(crit={self.critical_ratio})"

    # ------------------------------------------------------------------

    def conflict_ratio(self) -> float:
        """Locks held by all transactions / locks held by running ones.

        1.0 when nothing is blocked (or nothing holds locks); infinity
        when every lock-holding transaction is blocked.
        """
        lock_table = self.system.lock_table
        total = 0
        running = 0
        for txn in self.system.tracker.active_transactions():
            held = lock_table.num_held(txn)
            total += held
            if not txn.is_blocked:
                running += held
        if total == 0:
            return 1.0
        if running == 0:
            return math.inf
        return total / running

    def _underloaded(self) -> bool:
        return self.conflict_ratio() < self.critical_ratio

    def _overloaded(self) -> bool:
        return self.conflict_ratio() > (self.critical_ratio
                                        + self.abort_margin)

    def _evidence(self, action: str) -> Tuple[None, Optional[float],
                                              Optional[float], str]:
        if action == "admit_carryover":
            return None, None, None, ""
        if action == "carry_admit":
            return None, None, self.critical_ratio, ""
        if action == "abort_victim":
            threshold = self.critical_ratio + self.abort_margin
        else:
            threshold = self.critical_ratio
        # The decision log serializes to JSON; an all-blocked system's
        # infinite ratio travels as null.
        ratio = self.conflict_ratio()
        return None, None if math.isinf(ratio) else ratio, threshold, ""

    def on_commit(self, txn: "Transaction") -> None:
        # Above the critical ratio a commit neither replaces the
        # committed transaction nor pre-authorises the next arrival.
        if self._underloaded():
            super().on_commit(txn)
