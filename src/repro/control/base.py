"""Load-controller interface.

A load controller owns the transaction admission decision and may abort
active transactions as a corrective action.  The DBMS system invokes the
hooks below at the state transitions the paper identifies as decision
points (arrival, lock request, commit), plus bookkeeping hooks.

Controllers interact with the system through a narrow surface:

* ``system.tracker`` — :class:`repro.core.state_tracker.StateTracker`
  population counts;
* ``system.try_admit_one()`` — admit the head of the external ready
  queue, returning False if the queue is empty;
* ``system.abort_transaction(txn, reason)`` — abort an active
  transaction (it is re-queued at the back of the ready queue);
* ``system.lock_table`` — for victim eligibility checks.

:class:`SheddingController` holds the three-region feedback loop of
Half-and-Half once; the blocked-fraction ablation and the conflict-ratio
controller are the same loop over another measure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.metrics.collector import AbortReason

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dbms.transaction import Transaction
    from repro.dbms.system import DBMSSystem
    from repro.telemetry.decisions import DecisionLog

__all__ = ["LoadController", "SheddingController"]


class LoadController:
    """Base class: admits everything, reacts to nothing."""

    def __init__(self) -> None:
        self.system: "DBMSSystem" = None  # type: ignore[assignment]
        # Optional telemetry sink; controllers guard every use with a
        # single ``is not None`` check so the disabled path allocates
        # nothing (same discipline as the system's tracer).
        self.decision_log: Optional["DecisionLog"] = None
        # Display-only disambiguator appended to ``name`` (a
        # PerSiteControllerSet tags each site's controller ``@siteN``
        # so a shared decision log stays attributable).  It
        # must never feed back into results: anything that keys on the
        # controller identity uses ``base_name``.
        self.name_suffix: str = ""

    def attach(self, system: "DBMSSystem") -> None:
        """Bind to the system before the simulation starts."""
        self.system = system

    def on_decision_log_attached(self) -> None:
        """A decision log was just installed (telemetry enabled).

        Controllers with one-off configuration decisions (e.g. a
        derived MPL limit) record them here; the log is attached after
        construction, so ``__init__``/``attach`` are too early."""

    def log_decision(self, action: str,
                     txn: Optional["Transaction"] = None,
                     region=None,
                     measure: Optional[float] = None,
                     threshold: Optional[float] = None,
                     detail: str = "") -> None:
        """Record one verdict in the attached decision log.

        Call sites should guard with ``if self.decision_log is not
        None`` so the disabled path pays only that check; this method
        fills in the timestamp, controller name, and the population
        counts the controller observed.
        """
        log = self.decision_log
        if log is None:
            return
        log.add(*self._decision_row(action, txn, region, measure,
                                    threshold, detail))

    def _decision_row(self, action: str,
                      txn: Optional["Transaction"] = None,
                      region=None,
                      measure: Optional[float] = None,
                      threshold: Optional[float] = None,
                      detail: str = "") -> tuple:
        """The fields of one decision row by position, in
        ``ControllerDecision``'s order, with the populations read now."""
        # A log may be installed before attach() binds the system (e.g.
        # a controller configured by hand); counts are simply zero then.
        system = self.system
        tracker = system.tracker if system is not None else None
        if region is not None and hasattr(region, "value"):
            region = region.value
        return (system.sim.now if system is not None else 0.0,
                self.name, action, region,
                tracker.n_active if tracker is not None else 0,
                tracker.n_state1 if tracker is not None else 0,
                tracker.n_state3 if tracker is not None else 0,
                txn.txn_id if txn is not None else None,
                measure, threshold, detail)

    @property
    def base_name(self) -> str:
        """The controller's identity, independent of any display suffix.

        Subclasses override this (not ``name``) so the suffix
        composition in ``name`` applies uniformly."""
        return type(self).__name__

    @property
    def name(self) -> str:
        return self.base_name + self.name_suffix

    # ------------------------------------------------------------------
    # Decision hooks
    # ------------------------------------------------------------------

    def want_admit(self, txn: "Transaction") -> bool:
        """Admit this arriving (or restarting) transaction right now?

        Returning False parks it in the external ready queue; it then only
        enters when the controller later calls ``system.try_admit_one()``.
        """
        return True

    def on_admit(self, txn: "Transaction") -> None:
        """A transaction just became active."""

    def on_lock_granted(self, txn: "Transaction") -> None:
        """A lock request by ``txn`` was granted (immediately or after a
        wait).  The Half-and-Half algorithm admits from the ready queue
        here while the system is Underloaded."""

    def on_block(self, txn: "Transaction") -> None:
        """A lock request by ``txn`` blocked (and survived deadlock
        resolution).  The Half-and-Half algorithm aborts victims here
        while the system is Overloaded."""

    def on_unblock(self, txn: "Transaction") -> None:
        """A previously blocked transaction was granted its lock."""

    def on_commit(self, txn: "Transaction") -> None:
        """``txn`` committed (it has already left the active set)."""

    def on_abort(self, txn: "Transaction", reason: str) -> None:
        """``txn`` was aborted (it has already left the active set)."""

    def on_removed(self, txn: "Transaction") -> None:
        """``txn`` left the active set for any reason (after commit or
        abort hooks).  Controllers that maintain a fixed MPL top up the
        system here."""


_LOAD_CONTROL = AbortReason.LOAD_CONTROL


class SheddingController(LoadController):
    """The three-region feedback loop of Half-and-Half (paper Section 2).

    * **Arrival** — admit if a commit pre-authorised the next arrival, or
      if the system is Underloaded; otherwise the arrival waits in the
      ready queue.
    * **Lock request granted** — while Underloaded, admit from the ready
      queue until the region is left or the queue empties.
    * **Lock request blocked** — while Overloaded, abort victims chosen
      by :meth:`_choose_victim` until the region is left or none remains.
    * **Commit** — admit a replacement if one is waiting; otherwise
      pre-authorise the next arrival.

    Subclasses supply the measure: :meth:`_underloaded`,
    :meth:`_overloaded`, and :meth:`_evidence` for the decision rows.
    """

    def __init__(self) -> None:
        super().__init__()
        self._admit_next_arrival = False
        # Statistics.
        self.load_control_aborts = 0
        self.admissions_on_grant = 0

    def _underloaded(self) -> bool:
        raise NotImplementedError

    def _overloaded(self) -> bool:
        raise NotImplementedError

    def _evidence(self, action: str) -> Tuple[object, Optional[float],
                                              Optional[float], str]:
        """``(region, measure, threshold, detail)`` of a decision row,
        read before the admission or abort the row records."""
        raise NotImplementedError

    def _log(self, action: str,
             txn: Optional["Transaction"] = None) -> None:
        # Called behind the hooks' ``decision_log is not None`` guards.
        self.decision_log.add(
            *self._decision_row(action, txn, *self._evidence(action)))

    def _admit_logged(self, action: str) -> bool:
        """``system.try_admit_one()`` from a non-empty ready queue, with
        a decision log attached.

        The row is read before the admission, so its measure and
        populations are the ones the admission was decided on, and
        written only if a transaction was admitted.  Callers test the
        queue first, so a grant or commit with nothing queued reads no
        evidence."""
        row = self._decision_row(action, None, *self._evidence(action))
        if not self.system.try_admit_one():
            return False
        self.decision_log.add(*row)
        return True

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def want_admit(self, txn: "Transaction") -> bool:
        if self._admit_next_arrival:
            self._admit_next_arrival = False
            if self.decision_log is not None:
                self._log("admit_carryover", txn)
            return True
        admit = self._underloaded()
        if self.decision_log is not None:
            self._log("admit" if admit else "defer", txn)
        return admit

    def on_lock_granted(self, txn: "Transaction") -> None:
        # "New transactions will be admitted from the external ready
        # queue until either the system leaves the Underloaded region or
        # the ready queue is exhausted."
        if self.decision_log is None:
            while self._underloaded() and self.system.try_admit_one():
                self.admissions_on_grant += 1
        else:
            queue = self.system.ready_queue
            while (self._underloaded() and queue
                   and self._admit_logged("admit_queued")):
                self.admissions_on_grant += 1

    def on_block(self, txn: "Transaction") -> None:
        # "Blocked transactions will be aborted until the system leaves
        # this region of operation."
        while self._overloaded():
            victim = self._choose_victim()
            if victim is None:
                break
            self.load_control_aborts += 1
            if self.decision_log is not None:
                self._log("abort_victim", victim)
            self.system.abort_transaction(victim, _LOAD_CONTROL)

    def on_commit(self, txn: "Transaction") -> None:
        # "When a transaction commits, a new transaction is
        # (unconditionally) admitted to replace it if one is available.
        # Otherwise the algorithm decides to admit the next transaction
        # that arrives and records this decision."
        if self.decision_log is None:
            if not self.system.try_admit_one():
                self._admit_next_arrival = True
        elif not (self.system.ready_queue
                  and self._admit_logged("admit_on_commit")):
            self._admit_next_arrival = True
            self._log("carry_admit")

    def _choose_victim(self) -> Optional["Transaction"]:
        """Youngest blocked transaction that is in turn blocking others.

        "Victims are chosen in increasing order of age, so the youngest
        blocked transaction will be the first victim selected; also,
        only blocked transactions that are in turn blocking other
        transactions are considered as potential victims (since
        aborting these transactions will enable others to run)."
        Youngest is the largest ``(timestamp, txn_id)``; the keys are
        unique, so the scan order of the active set does not matter.
        """
        is_blocking_others = self.system.lock_table.is_blocking_others
        best = best_key = None
        for txn in self.system.tracker.active_transactions():
            if txn.is_blocked and is_blocking_others(txn):
                key = (txn.timestamp, txn.txn_id)
                if best is None or key > best_key:
                    best, best_key = txn, key
        return best
