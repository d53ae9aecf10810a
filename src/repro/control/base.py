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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional


if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dbms.transaction import Transaction
    from repro.dbms.system import DBMSSystem
    from repro.telemetry.decisions import DecisionLog

__all__ = ["LoadController"]


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
        # A log may be installed before attach() binds the system (e.g.
        # a controller configured by hand); counts are simply zero then.
        system = self.system
        tracker = system.tracker if system is not None else None
        if region is not None and hasattr(region, "value"):
            region = region.value
        # The fields by position, in ControllerDecision's order.
        log.add(system.sim.now if system is not None else 0.0,
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
