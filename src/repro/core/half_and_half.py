"""The Half-and-Half load-control algorithm (paper Section 2).

The controller runs the three-region feedback loop of
:class:`repro.control.base.SheddingController` (admit while
Underloaded, abort blocked transactions that block others, youngest
first, while Overloaded, replace or pre-authorise on commit) over the
50% rule of :func:`repro.core.regions.classify_region`: mature running
and mature blocked transactions over the active population.

The algorithm assumes no knowledge of the system or workload beyond each
transaction's (rough) estimate of its number of lock requests, used only
for the maturity classification.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dbms.transaction import Transaction

from repro.control.base import SheddingController
from repro.core.regions import DEFAULT_DELTA, Region, classify_region
from repro.errors import ConfigurationError

__all__ = ["HalfAndHalfController"]


_VICTIM_POLICIES = ("youngest", "oldest", "random")

# Detail strings of the rows that carry no measure.
_DETAILS = {"admit_carryover": "pre-authorised at commit",
            "admit_on_commit": "replacement for committed txn",
            "carry_admit": "ready queue empty at commit"}


class HalfAndHalfController(SheddingController):
    """Adaptive MPL control via the 50% rule with hysteresis δ.

    The paper's algorithm corresponds to the defaults.  The extra knobs
    exist for the ablation study in ``benchmarks/test_abl_*``:

    Args:
        delta: hysteresis tolerance of the 50% rule (paper: 0.025).
        victim_policy: how overload victims are ordered — ``"youngest"``
            (the paper's rule), ``"oldest"``, or ``"random"``.
        require_blocking_victims: if True (paper), only blocked
            transactions that in turn block others are eligible victims.
    """

    def __init__(self, delta: float = DEFAULT_DELTA,
                 victim_policy: str = "youngest",
                 require_blocking_victims: bool = True):
        super().__init__()
        if delta < 0.0 or delta >= 0.5:
            raise ConfigurationError(
                f"delta must be in [0, 0.5), got {delta}")
        if victim_policy not in _VICTIM_POLICIES:
            raise ConfigurationError(
                f"victim_policy must be one of {_VICTIM_POLICIES}, "
                f"got {victim_policy!r}")
        self.delta = delta
        self.victim_policy = victim_policy
        self.require_blocking_victims = require_blocking_victims

    @property
    def base_name(self) -> str:
        suffix = ""
        if self.victim_policy != "youngest":
            suffix += f", victims={self.victim_policy}"
        if not self.require_blocking_victims:
            suffix += ", any-blocked"
        return f"Half-and-Half(δ={self.delta}{suffix})"

    # ------------------------------------------------------------------
    # The measure
    # ------------------------------------------------------------------

    def _populations(self) -> Tuple[int, int, int]:
        """``(active, mature running, mature blocked)``: the counts the
        50% rule compares."""
        tracker = self.system.tracker
        return tracker.n_active, tracker.n_state1, tracker.n_state3

    def region(self) -> Region:
        """The current operating region (read for decision rows)."""
        return classify_region(*self._populations(), self.delta)

    # The loop's two region tests are the 50% rule inlined (same
    # comparisons, same division form as classify_region, so the float
    # arithmetic stays bit-identical): they run on every arrival, grant
    # and block, and the extra call is measurable at bench scale.

    def _underloaded(self) -> bool:
        tracker = self.system.tracker
        n_active = tracker.n_active
        return (n_active <= 0
                or tracker.n_state1 / n_active > 0.5 + self.delta)

    def _overloaded(self) -> bool:
        # The Underloaded test cannot hold as well: n_state1 + n_state3
        # <= n_active and the threshold is at least 0.5.
        tracker = self.system.tracker
        n_active = tracker.n_active
        return (n_active > 0
                and tracker.n_state3 / n_active > 0.5 + self.delta)

    def _evidence(self, action: str) -> Tuple[Region, Optional[float],
                                              Optional[float], str]:
        n_active, n_admit, n_shed = self._populations()
        threshold = 0.5 + self.delta
        if action == "abort_victim":
            return (Region.OVERLOADED, n_shed / n_active, threshold,
                    f"policy={self.victim_policy}")
        measure = n_admit / n_active if n_active else 0.0
        if action == "admit_queued":
            return (Region.UNDERLOADED, measure, threshold,
                    "admitted on lock grant")
        region = classify_region(n_active, n_admit, n_shed, self.delta)
        if action in ("admit", "defer"):
            return region, measure, threshold, ""
        return region, None, None, _DETAILS[action]

    # ------------------------------------------------------------------

    def _choose_victim(self) -> Optional["Transaction"]:
        """The paper's victim (the loop's youngest blocked-and-blocking
        transaction), or the order of the victim-policy ablation."""
        if self.victim_policy == "youngest" and self.require_blocking_victims:
            return super()._choose_victim()
        lock_table = self.system.lock_table
        candidates: List["Transaction"] = [
            txn for txn in self.system.tracker.blocked_transactions()
            if (not self.require_blocking_victims
                or lock_table.is_blocking_others(txn))
        ]
        if not candidates:
            return None
        if self.victim_policy == "oldest":
            return min(candidates, key=lambda t: (t.timestamp, t.txn_id))
        if self.victim_policy == "random":
            rng = self.system.streams.stream("victim_choice")
            return rng.choice(
                sorted(candidates, key=lambda t: t.txn_id))
        return max(candidates, key=lambda t: (t.timestamp, t.txn_id))
