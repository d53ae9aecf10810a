"""Malthusian load control: passivate instead of abort.

The Half-and-Half rule sheds overload by *aborting* blocked
transactions, discarding every page they processed.  The Malthusian
Locks policy (Dice & Kogan — see PAPERS.md) sheds the same load
waste-free: excess contenders are *passivated* into a cold set and
readmitted LIFO, so the most recently parked (cache-warm, in the
original; here simply the youngest parked) contender returns first,
while long-waiters are culled into the cold set preferentially.

Passivation and abortion are not symmetric levers.  Aborting a blocked
transaction *releases its locks*, so Half-and-Half can dissolve a
waits-for clot after letting it form; parking is restricted to blocked
transactions that hold no locks (anything stronger would strand locks
inside the cold set), so a passivating policy can only *prevent* a
clot, never unwind one.  Gating admission on the blocked fraction
alone does not prevent it either: the measure lags admission by the
several page-service times it takes a fresh transaction to reach its
first conflict, and once a clot forms the measure latches high while
the population drains, producing a flood/starve limit cycle.  The
controller therefore drives a *population cap* with AIMD (the TCP
congestion-control shape) and uses the blocked fraction only as its
congestion signal:

* **Congestion signal** — the total blocked fraction
  ``(n₃ + n₄) / n_active`` against the threshold (default the
  Half-and-Half boundary ``0.5 + δ``).  It deliberately counts mature
  blocked transactions: past the knee most blocked transactions *are*
  mature, so Half-and-Half's immature-only fraction saturates below ½.
  Empirically the base case runs its throughput plateau (MPL ≈ 35–50)
  at a total blocked fraction of 0.4–0.55, so the 50% boundary marks
  the plateau's edge.
* **Lock request blocked** — if the signal fires while the population
  is within the cap, the cap halves (multiplicative decrease: the
  budget itself was too generous).  Then, while the signal stays
  above threshold, passivate the longest-waiting blocked transaction
  holding no locks: such a transaction is waiting on its very first
  unsatisfied request — no work done, no resource held, nobody blocked
  behind it — so parking it is free.
* **Commit** — while comfortable (signal below threshold) and pressing
  the cap, the cap grows by one (additive increase probes for spare
  capacity).  The committed transaction is replaced from the cold set
  (LIFO) or the external ready queue only if the population sits below
  the cap *and* the signal is quiet; otherwise it leaves unreplaced
  and the population decays toward the cap.
* **Lock request granted** — while below the cap and the signal is
  quiet, re-enter one transaction per grant: parked (LIFO, the
  youngest — cache-warm in the original) first, then the queue head.
* **Arrival** — admit when below the cap and the ready queue is empty;
  defer otherwise.  Deferring behind a non-empty queue keeps
  admission FIFO-fair and paced: queued work re-enters one per
  commit or grant, never as a flood the moment the cap lifts.

With ``threshold=math.inf`` the signal never fires: the cap never
decreases below its initial ``num_terms + 1``, nothing is ever
passivated or deferred, and every hook degenerates to no-control
behaviour — the controller is bit-identical to
:class:`~repro.control.no_control.NoControlController`.

A passivated transaction keeps its execution state and resumes exactly
where it stopped; the only cost of a park/readmit cycle is the wait
itself.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dbms.transaction import Transaction

from repro.control.base import LoadController
from repro.core.regions import DEFAULT_DELTA, Region, classify_region
from repro.errors import ConfigurationError

__all__ = ["MalthusianController"]


_MIN_CAP = 2  # floor of the AIMD cap: progress (and deadlock
#               detection) need at least two concurrent transactions


class MalthusianController(LoadController):
    """Passivating load control: an AIMD population cap plus a cold set.

    Args:
        delta: hysteresis tolerance of the 50% rule (paper: 0.025).
        threshold: the congestion signal — the total blocked fraction
            (states 3 + 4 over the active population) above which the
            cap halves and blocked transactions are culled into the
            cold set.  ``None`` (default) uses the Half-and-Half
            boundary ``0.5 + delta``; ``math.inf`` disables load
            control entirely, making the controller bit-identical to
            :class:`~repro.control.no_control.NoControlController`.
    """

    def __init__(self, delta: float = DEFAULT_DELTA,
                 threshold: Optional[float] = None):
        super().__init__()
        if delta < 0.0 or delta >= 0.5:
            raise ConfigurationError(
                f"delta must be in [0, 0.5), got {delta}")
        if threshold is not None and not threshold > 0.0:
            raise ConfigurationError(
                f"threshold must be positive, got {threshold}")
        self.delta = delta
        self.threshold = (threshold if threshold is not None
                          else 0.5 + delta)
        # The AIMD population cap, set at attach(): load control
        # starts from a small cap and probes upward (a flood of
        # num_terms admissions would clot before the signal could
        # react, and passivation cannot unwind a clot), while
        # threshold=inf starts unrestrictive (num_terms + 1, a level
        # no closed-system population can reach).
        self.cap = 0
        # Dead zone: probe for capacity only while the signal sits
        # well below the threshold.  The blocked fraction lags
        # admission by the few seconds a fresh transaction needs to
        # reach its first conflict, so probing right up to the
        # threshold overshoots deep into the thrashing region before
        # the signal can object.
        self._grow_below = 0.7 * self.threshold
        # The cap moves on a smoothed signal (EWMA over commits), not
        # the instantaneous fraction: at a well-chosen cap the raw
        # fraction still spikes past the threshold whenever a hot page
        # queues a burst of waiters, and halving on every spike drags
        # the time-average cap well below the optimum.  Culling, by
        # contrast, acts on the instantaneous value — parking a
        # zero-lock waiter is free, so reacting to a spike costs
        # nothing.
        self._fb_smooth = 0.0
        # One multiplicative decrease per congestion episode: the
        # smoothed signal stays latched for the seconds a drain takes,
        # and shrinking again the moment the population reaches the
        # new cap turns one overshoot into a cascade of halvings and a
        # deep trough.  The episode ends when the smoothed signal
        # falls back below the threshold.
        self._in_episode = False
        # Block times of currently blocked transactions: the culling
        # order is longest-waiting first (Malthusian Locks culls from
        # the tail of the wait queue).
        self._blocked_since: Dict[int, float] = {}
        # Statistics.
        self.passivations = 0
        self.readmissions = 0
        self.cap_decreases = 0

    def attach(self, system) -> None:
        super().attach(system)
        unrestricted = system.params.num_terms + 1
        if math.isinf(self.threshold):
            self.cap = unrestricted
        else:
            self.cap = min(unrestricted, 4 * _MIN_CAP)

    @property
    def base_name(self) -> str:
        if math.isinf(self.threshold):
            return "Malthusian(off)"
        return f"Malthusian(δ={self.delta})"

    # ------------------------------------------------------------------

    def region(self) -> Region:
        """The current operating region (Half-and-Half's 50% rule), read
        for decision rows."""
        tracker = self.system.tracker
        return classify_region(tracker.n_active, tracker.n_state1,
                               tracker.n_state3, self.delta)

    def _frac_blocked(self) -> float:
        """States 3 + 4 over the active population (the cull measure)."""
        tracker = self.system.tracker
        if not tracker.n_active:
            return 0.0
        return ((tracker.n_state3 + tracker.n_state4)
                / tracker.n_active)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def want_admit(self, txn: "Transaction") -> bool:
        # Admit below the cap, but defer behind a non-empty ready
        # queue: re-entry stays FIFO-fair and paced (one per commit or
        # grant), never a flood the moment the cap lifts.  (With
        # threshold=inf the cap never drops below num_terms + 1 and
        # the queue provably stays empty, so this is unconditionally
        # True — the metamorphic identity with no control.)
        admit = (self.system.tracker.n_active <= 0
                 or (self.system.tracker.n_active < self.cap
                     and not self.system.ready_queue))
        if self.decision_log is not None:
            self.log_decision("admit" if admit else "defer", txn=txn,
                              region=self.region(),
                              measure=self._frac_blocked(),
                              threshold=self.threshold,
                              detail=f"cap {self.cap}")
        return admit

    def on_block(self, txn: "Transaction") -> None:
        self._blocked_since[txn.txn_id] = self.system.sim.now
        tracker = self.system.tracker
        # Congestion within budget: the budget itself was too generous
        # (multiplicative decrease, at most once per episode).
        if (not self._in_episode
                and tracker.n_active <= self.cap
                and self._fb_smooth > self.threshold):
            old_cap = self.cap
            self.cap = max(_MIN_CAP, tracker.n_active // 2)
            self._in_episode = True
            if self.cap < old_cap:
                self.cap_decreases += 1
                if self.decision_log is not None:
                    self.log_decision("shrink_cap",
                                      region=Region.OVERLOADED,
                                      measure=self._frac_blocked(),
                                      threshold=self.threshold,
                                      detail=f"cap {old_cap} -> "
                                             f"{self.cap}")
        # Cull long-waiters into the cold set until no free victim
        # remains, in two situations: while the population is still
        # above the cap (parking free victims drains a descent much
        # faster than waiting for commits at thrashing-depressed
        # rates), and while a sustained congestion episode is in
        # progress with the instantaneous fraction confirming it.
        # Requiring the *smoothed* signal in the second case keeps
        # steady-state spikes from churning waiters through
        # park/readmit cycles that would cost them their position in
        # the lock's wait queue.
        while (tracker.n_active > self.cap
               or (self._fb_smooth > self.threshold
                   and self._frac_blocked() > self.threshold)):
            victim = self._choose_victim()
            if victim is None:
                break
            self.passivations += 1
            self._blocked_since.pop(victim.txn_id, None)
            if self.decision_log is not None:
                self.log_decision("passivate", txn=victim,
                                  region=Region.OVERLOADED,
                                  measure=self._frac_blocked(),
                                  threshold=self.threshold,
                                  detail=f"cold set "
                                         f"{len(self.system.parked) + 1}")
            self.system.passivate_transaction(victim)

    def on_unblock(self, txn: "Transaction") -> None:
        self._blocked_since.pop(txn.txn_id, None)

    def on_lock_granted(self, txn: "Transaction") -> None:
        # Refill toward the cap: parked transactions (LIFO) first,
        # then the ready queue.  The cap alone governs the population —
        # gating refills on the (spiky) signal as well would hold the
        # average population below the cap exactly in the operating
        # band where the signal hovers near the threshold.
        tracker = self.system.tracker
        while tracker.n_active < self.cap:
            if not self._reenter_one("re-entry on lock grant"):
                break

    def on_commit(self, txn: "Transaction") -> None:
        tracker = self.system.tracker
        # Commits tick the smoothed signal: they arrive at roughly the
        # throughput rate, giving the EWMA a workload-independent time
        # constant of a few transaction lifetimes.
        self._fb_smooth += 0.2 * (self._frac_blocked() - self._fb_smooth)
        if self._in_episode and not self._fb_smooth > self.threshold:
            self._in_episode = False
        # Additive increase: a commit that presses the cap while the
        # smoothed signal sits inside the dead zone probes for spare
        # capacity, one step per commit.
        if (tracker.n_active >= self.cap - 1
                and not self._fb_smooth > self._grow_below):
            self.cap += 1
        # Replacement from the cold set or the queue, capped: over the
        # cap the committed transaction leaves unreplaced and the
        # population decays — attrition is the only shrink lever a
        # passivating policy has, because parking never touches
        # lock-holders.
        if tracker.n_active < self.cap:
            self._reenter_one("replacement for committed txn")

    def on_removed(self, txn: "Transaction") -> None:
        self._blocked_since.pop(txn.txn_id, None)

    def _reenter_one(self, why: str) -> bool:
        """Return one transaction to the active set: the youngest
        parked transaction if any (LIFO cold set), else the head of
        the external ready queue."""
        readmitted = self.system.reactivate_one()
        if readmitted is not None:
            self.readmissions += 1
            if self.decision_log is not None:
                self.log_decision("readmit", txn=readmitted,
                                  region=self.region(),
                                  measure=float(len(self.system.parked)),
                                  detail=why)
            return True
        return self.system.try_admit_one()

    # ------------------------------------------------------------------

    def _choose_victim(self) -> Optional["Transaction"]:
        """The longest-waiting blocked transaction holding no locks.

        Zero held locks means the victim is waiting on its very first
        unsatisfied request: it has processed no page, holds no
        resource, and has no pending continuation event, so parking it
        discards nothing and releases nothing.  Longest-waiting first
        is the Malthusian culling order; txn_id breaks ties
        deterministically.  Only *positive* waits are eligible — a
        transaction that blocked at this very instant may be one the
        refill loop just readmitted, and culling it again would
        park/readmit it forever within a single simulated moment.
        """
        lock_table = self.system.lock_table
        now = self.system.sim.now
        best: Optional["Transaction"] = None
        best_key = None
        for candidate in self.system.tracker.blocked_transactions():
            if lock_table.num_held(candidate) > 0:
                continue
            since = self._blocked_since.get(candidate.txn_id)
            if since is None or since >= now:
                continue
            key = (since, candidate.txn_id)
            if best is None or key < best_key:
                best, best_key = candidate, key
        return best
