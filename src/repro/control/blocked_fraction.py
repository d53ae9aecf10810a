"""Blocked-fraction load control: Half-and-Half without maturity.

An ablation baseline isolating the value of the paper's *maturity*
notion.  This controller applies the same three-region feedback loop as
Half-and-Half but classifies transactions only as running or blocked —
a newly admitted transaction counts as "running" immediately, instead
of being held out of both conditions until it has completed 25% of its
lock requests.

The predictable failure mode (and the reason the paper introduces
maturity) is over-admission: each admitted transaction inflates the
running count *before* it has made a single lock request, so the
controller sees a healthy-looking system exactly when it is flooding
it.  The ``benchmarks/test_abl_maturity.py`` ablation quantifies this.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.half_and_half import HalfAndHalfController
from repro.core.regions import DEFAULT_DELTA, Region

__all__ = ["BlockedFractionController"]


class BlockedFractionController(HalfAndHalfController):
    """The 50% rule applied to raw running/blocked counts."""

    def __init__(self, delta: float = DEFAULT_DELTA):
        super().__init__(delta)

    @property
    def base_name(self) -> str:
        return f"BlockedFraction(δ={self.delta})"

    def _populations(self) -> Tuple[int, int, int]:
        tracker = self.system.tracker
        return tracker.n_active, tracker.n_running, tracker.n_blocked

    def _underloaded(self) -> bool:
        return self.region() is Region.UNDERLOADED

    def _overloaded(self) -> bool:
        return self.region() is Region.OVERLOADED

    def _evidence(self, action: str) -> Tuple[Region, Optional[float],
                                              Optional[float], str]:
        # Half-and-Half's rows over running and blocked counts: the
        # running fraction on admissions, the blocked one on aborts.
        region, measure, threshold, _detail = super()._evidence(action)
        return region, measure, threshold, ""
