"""Invariant oracle for distributed (and failure-realistic) runs.

The distributed model has failure modes the single-site catalog cannot
see: a crashed site leaking locks to dead transactions, an in-doubt
participant entry surviving past its coordinator's decision, a limbo
transaction whose restart never fires, a parked terminal forgotten at
recovery.  :class:`DistributedInvariantChecker` attaches through the
same ``sim.monitor`` hook slot as the single-site
:class:`~repro.verify.invariants.InvariantChecker` and asserts:

:meth:`DistributedSystem.check_invariants`
    Per-site lock-table structure (``lock_table_consistency``), tracker
    bucket conservation (``tracker_bucket_conservation``), site
    trackers partitioning the global active set
    (``site_population_partition``), blocked-flag/waiting-map sync
    (``blocked_flag_sync``), and in failure mode every lock holder
    being active or in-doubt (``lock_owner_live``), down sites holding
    only in-doubt locks (``down_site_prepared_only``), and limbo
    entries being backed by in-doubt participant records
    (``limbo_indoubt_backed``).

``population_conservation``
    Closed system, extended for failures: active + ready-queued +
    pending terminal/arrival events + parked transactions + parked
    terminals + limbo transactions equals ``num_terms``.  A crash that
    drops a transaction without rescheduling its terminal shows up
    here immediately.

``metrics_conservation``
    :meth:`Collector.conservation_errors` — the pure counter laws.

``network_accounting``
    The transport's counters are non-negative and every sent message
    is accounted as delivered, lost, dropped, or still in flight.

``decision_record_accounting``
    Every retained coordinator decision has a positive waiter count
    equal to the number of in-doubt participant entries for that
    transaction — records are garbage-collected exactly when the last
    participant learns the outcome.

:func:`check_quiesce` adds the end-of-run obligations: with every site
up, nothing may remain parked, and every still-unresolved in-doubt
entry must have a live resolution path (deciding coordinator, durable
decision awaiting delivery, or a limbo-backed presumed abort).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import InvariantViolation
from repro.verify.config import VerifyConfig

__all__ = ["DistributedInvariantChecker", "check_quiesce"]


class DistributedInvariantChecker:
    """Attachable invariant oracle for one distributed run.

    Usage mirrors the single-site checker::

        checker = DistributedInvariantChecker(VerifyConfig())
        checker.attach(system)     # before system.start()

    All cadences run off the event monitor — the distributed system
    has no per-commit hook — so ``"commit"`` degrades to ``"sampled"``.
    The config's ``shadow_lock_table``/``shadow_regions`` switches are
    single-site concepts and are ignored here (the default config must
    stay usable for ``--verify`` on any runner).
    """

    def __init__(self, config: Optional[VerifyConfig] = None):
        self.config = config if config is not None else VerifyConfig()
        self.system = None
        self.events_seen = 0
        self.checks_run = 0
        self.violations = 0

    def attach(self, system) -> None:
        """Install this checker on a system (before ``start()``)."""
        self.system = system
        system.sim.monitor = self

    def on_event(self, callback) -> None:
        """``sim.monitor`` hook: called after every executed event."""
        self.events_seen += 1
        if (self.config.cadence == "every"
                or self.events_seen % self.config.sample_events == 0):
            name = getattr(callback, "__name__", repr(callback))
            self.check_all(context=f"after event {name}")

    # ------------------------------------------------------------------
    # The catalog
    # ------------------------------------------------------------------

    def check_all(self, context: str = "") -> None:
        """Run the full catalog; raise on the first violated invariant."""
        self.checks_run += 1
        try:
            self.system.check_invariants()
            self._check_population_conservation()
            self._check_metrics_conservation()
            self._check_network_accounting()
            self._check_decision_record_accounting()
        except InvariantViolation as exc:
            self.violations += 1
            if context and not exc.context:
                exc.context = context
            if exc.sim_time is None:
                exc.sim_time = self.system.sim.now
            raise

    def _violate(self, invariant: str, message: str, **evidence) -> None:
        raise InvariantViolation(message, invariant=invariant,
                                 sim_time=self.system.sim.now,
                                 evidence=evidence)

    def _population_breakdown(self) -> Dict[str, int]:
        system = self.system
        pending_submits = 0
        pending_arrivals = 0
        for callback in system.sim.iter_pending_callbacks():
            name = getattr(callback, "__name__", "")
            if name == "_terminal_submits":
                pending_submits += 1
            elif name == "_arrival":
                pending_arrivals += 1
        return {
            "active": system.tracker.n_active,
            "ready_queue": sum(len(v.ready_queue)
                               for v in system.site_views),
            "pending_submits": pending_submits,
            "pending_arrivals": pending_arrivals,
            "parked_txns": sum(len(v) for v in
                               system._parked_txns.values()),
            "parked_terminals": sum(len(v) for v in
                                    system._parked_terminals.values()),
            "limbo": len(system._limbo),
        }

    def _check_population_conservation(self) -> None:
        system = self.system
        if not system._started:
            return
        breakdown = self._population_breakdown()
        total = sum(breakdown.values())
        if total != system.params.num_terms:
            self._violate(
                "population_conservation",
                f"closed system leaks transactions: {breakdown} totals "
                f"{total}, expected {system.params.num_terms} terminals",
                **breakdown)

    def _check_metrics_conservation(self) -> None:
        errors = self.system.collector.conservation_errors()
        if errors:
            self._violate(
                "metrics_conservation", "; ".join(errors),
                counters=self.system.collector.counters_dict())

    def _check_network_accounting(self) -> None:
        stats = self.system.network.stats()
        for name, value in stats.items():
            if value < 0:
                self._violate(
                    "network_accounting",
                    f"network counter {name} is negative ({value})",
                    **stats)
        accounted = (stats["delivered"] + stats["lost"]
                     + stats["dropped_partition"] + stats["dropped_down"])
        if accounted > stats["sent"]:
            self._violate(
                "network_accounting",
                f"{accounted} messages accounted for but only "
                f"{stats['sent']} sent", **stats)

    def _check_decision_record_accounting(self) -> None:
        system = self.system
        indoubt_by_txn: Dict[int, int] = {}
        for entries in system._indoubt:
            for txn_id in entries:
                indoubt_by_txn[txn_id] = indoubt_by_txn.get(txn_id, 0) + 1
        for txn_id, decision in system.decision_record.items():
            waiters = system._decision_waiters.get(txn_id, 0)
            holders = indoubt_by_txn.get(txn_id, 0)
            if waiters <= 0 or waiters != holders:
                self._violate(
                    "decision_record_accounting",
                    f"decision record for txn {txn_id} ({decision}) "
                    f"has waiter count {waiters} but {holders} in-doubt "
                    f"entries exist",
                    txn_id=txn_id, waiters=waiters, holders=holders)


def check_quiesce(system) -> None:
    """End-of-run obligations, checked once after the horizon.

    Only binding when every site is up at the horizon — a run that
    *ends* mid-crash legitimately holds parked work and unresolved
    in-doubt entries.
    """
    if not all(system._site_up):
        return
    if system._parked_txns or system._parked_terminals:
        raise InvariantViolation(
            f"all sites are up but work is still parked: "
            f"txns={sorted(system._parked_txns)} "
            f"terminals={sorted(system._parked_terminals)}",
            invariant="quiesce_no_parked_work",
            sim_time=system.sim.now)
    for site, entries in enumerate(system._indoubt):
        for txn_id, rec in entries.items():
            deciding = rec.txn in system._twopc
            decided = txn_id in system.decision_record
            limbo_backed = rec.txn in system._limbo
            if not (deciding or decided or limbo_backed):
                raise InvariantViolation(
                    f"in-doubt entry for txn {txn_id} at site {site} "
                    f"has no live resolution path (coordinator gone, "
                    f"no decision record, not limbo-backed)",
                    invariant="quiesce_indoubt_resolvable",
                    sim_time=system.sim.now,
                    evidence={"site": site, "txn_id": txn_id})
