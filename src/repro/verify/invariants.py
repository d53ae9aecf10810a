"""Runtime invariant oracle: the cross-subsystem checks for live runs.

:class:`InvariantChecker` attaches to a :class:`~repro.dbms.system.
DBMSSystem` — centralized or a :class:`~repro.distributed.system.
DistributedSystem` — through the same zero-cost-off hook slots the
telemetry layer uses (``sim.monitor`` for per-event cadences,
``system.invariants`` for the on-commit cadence) and, at the configured
cadence, asserts the catalog below over the *quiescent* simulation
state between events.  Lock-table checks go through
``system.lock_table``, which on a distributed system is the union view
over its sites:

``lock_table_consistency``
    :meth:`LockTable.check_invariants` — queue/index/mode structure.
``lock_conflict_freedom``
    No page has more than one holder when any holder has X.  Computed
    from the live holder maps with explicit mode logic, deliberately *not*
    via :func:`repro.lockmgr.modes.compatible`, so a corrupted
    compatibility predicate cannot vouch for itself.
``waiter_has_blockers``
    Every blocked transaction's waits-for adjacency is non-empty — a
    waiter with no conflicting holder or queued predecessor should have
    been granted.
``tracker_bucket_conservation`` / ``blocked_flag_sync``
    :meth:`DBMSSystem.check_invariants` — Table 1 bucket counters match
    a from-scratch reclassification; blocked flags mirror lock waits.
    A distributed system adds its site, network, 2PC decision-record,
    in-doubt and limbo checks there
    (:meth:`DistributedSystem.check_invariants`).
``region_shadow``
    :func:`~repro.core.regions.classify_region` agrees with the exact-
    rational :func:`~repro.verify.reference.reference_classify_region`
    on the live populations (uses the controller's δ when it has one).
``ready_queue_accounting``
    Every queued transaction is in phase READY, is not in the active
    set, and holds/waits for nothing; the collector's ready-queue and
    MPL gauges equal the recomputed values.
``population_conservation``
    Closed system: active + ready-queued + in-flight terminal events
    (pending ``_terminal_submits`` / ``_arrival``) + the system's
    offstage population (:meth:`DBMSSystem.offstage_population`: the
    Malthusian cold set; on a distributed system also work parked at a
    down site and limbo transactions) equals ``num_terms``.
``parked_accounting``
    Every cold-set transaction is in phase PARKED, outside the active
    set, holds/waits for nothing (enforced by
    :meth:`DBMSSystem.check_invariants`), and the collector's parked
    gauge equals the cold set's size.
``metrics_conservation``
    :meth:`Collector.conservation_errors` — the pure counter laws
    (aborts by reason sum up, committed pages ≤ raw pages, per-class
    tallies sum to globals, commits ≤ admissions, nothing negative).
``buffer_bounds``
    No site's bounded buffer pool exceeds its capacity, and its
    hit/miss/eviction counters are non-negative.

:meth:`DBMSSystem.check_quiesce` holds the end-of-run obligations
(a distributed run's parked work and in-doubt entries);
:func:`attach_verifier` returns it for the runner to call after the
horizon.

A failed check raises :class:`~repro.errors.InvariantViolation` enriched
with simulated time, the triggering context, and a JSON-serializable
evidence snapshot (also written to ``evidence_dir`` when configured).
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Optional

from repro.core.regions import classify_region
from repro.errors import InvariantViolation
from repro.lockmgr.lock_table import _dump_label
from repro.lockmgr.modes import LockMode
from repro.verify.config import VerifyConfig
from repro.verify.reference import reference_classify_region

__all__ = ["InvariantChecker", "attach_verifier"]


def attach_verifier(system, config: VerifyConfig) -> Callable[[], None]:
    """Verify one run as ``config`` says, before ``system.start()``.

    Unless ``config.shadow_lock_table`` is off, every site's lock table
    is swapped for a :class:`~repro.verify.shadow.ShadowLockTable`
    (no lock activity has happened yet, and every later access goes
    through ``site.lock_table``); then an :class:`InvariantChecker` is
    attached.  Returns the system's end-of-run check
    (:meth:`DBMSSystem.check_quiesce`), for the runner to call after the
    horizon.
    """
    if config.shadow_lock_table:
        from repro.verify.shadow import ShadowLockTable
        for site in system.sites:
            site.lock_table = ShadowLockTable()
    InvariantChecker(config).attach(system)
    return system.check_quiesce


class InvariantChecker:
    """Attachable invariant oracle for one simulation run.

    Usage::

        checker = InvariantChecker(VerifyConfig(cadence="sampled"))
        checker.attach(system)     # before system.start()
        ...                        # run as usual; violations raise

    Attributes:
        events_seen: simulation events observed (per-event cadences).
        checks_run: full catalog passes executed.
        violations: violations raised so far (0 on a clean run).
    """

    def __init__(self, config: Optional[VerifyConfig] = None):
        self.config = config if config is not None else VerifyConfig()
        self.system = None
        self.events_seen = 0
        self.checks_run = 0
        self.violations = 0

    # ------------------------------------------------------------------
    # Hook plumbing
    # ------------------------------------------------------------------

    def attach(self, system) -> None:
        """Install this checker on a system (idempotent per system)."""
        self.system = system
        system.invariants = self
        cadence = self.config.cadence
        if cadence in ("every", "sampled"):
            # Events between catalog passes: "every" is a stride of 1.
            self._stride = (1 if cadence == "every"
                            else self.config.sample_events)
            system.sim.monitor = self

    def on_event(self, callback) -> None:
        """``sim.monitor`` hook: called after every executed event."""
        self.events_seen += 1
        if self.events_seen % self._stride == 0:
            name = getattr(callback, "__name__", repr(callback))
            self.check_all(context=f"after event {name}")

    def on_commit(self, txn) -> None:
        """``system.invariants`` hook: called at the end of each commit."""
        if self.config.cadence == "commit":
            self.check_all(context=f"commit of txn {txn.txn_id}")

    # ------------------------------------------------------------------
    # The catalog
    # ------------------------------------------------------------------

    def check_all(self, context: str = "") -> None:
        """Run the full catalog; raise on the first violated invariant."""
        self.checks_run += 1
        try:
            self._check_system_consistency()
            self._check_conflict_freedom()
            self._check_waiters_have_blockers()
            if self.config.shadow_regions:
                self._check_region_shadow()
            gauges = self.system.collector.counters_dict()
            self._check_ready_queue_accounting(gauges)
            self._check_parked_accounting(gauges)
            self._check_population_conservation()
            self._check_metrics_conservation()
            self._check_buffer_bounds()
        except InvariantViolation as exc:
            self.violations += 1
            self._enrich_and_record(exc, context)
            raise

    def _violate(self, invariant: str, message: str, **evidence) -> None:
        raise InvariantViolation(message, invariant=invariant,
                                 sim_time=self.system.sim.now,
                                 evidence=evidence)

    def _check_system_consistency(self) -> None:
        # Lock-table structure, tracker bucket conservation, and
        # blocked-flag/lock-wait sync, as implemented by the subsystems
        # themselves (they raise typed InvariantViolation directly).
        self.system.check_invariants()

    def _check_conflict_freedom(self) -> None:
        # Reads the holders' modes in place, not the table's num_s/num_x
        # counters, which a corruption could leave consistent with a
        # wrong grant.
        table = self.system.lock_table
        X = LockMode.X
        for page in table.locked_pages():
            modes = table.holder_modes(page)
            if len(modes) > 1 and X in modes:
                # Evidence in the canonical dump's form: page and
                # transactions as labels, modes by name.
                holders = {str(_dump_label(t)): m.name
                           for t, m in table.holders(page).items()}
                page = str(page)
                self._violate(
                    "lock_conflict_freedom",
                    f"page {page} has {len(holders)} holders but one "
                    f"holds X: {holders}",
                    page=page, holders=holders)

    def _check_waiters_have_blockers(self) -> None:
        table = self.system.lock_table
        for txn in self.system.tracker.active_transactions():
            if table.is_waiting(txn) and not table.blocking_set(txn):
                self._violate(
                    "waiter_has_blockers",
                    f"{txn!r} waits on page {table.waiting_on(txn)!r} "
                    f"with an empty blocking set (should have been "
                    f"granted)",
                    txn=txn.txn_id, page=str(table.waiting_on(txn)))

    def _check_region_shadow(self) -> None:
        tracker = self.system.tracker
        kwargs = {}
        delta = getattr(self.system.controller, "delta", None)
        if delta is not None:
            kwargs["delta"] = delta
        real = classify_region(tracker.n_active, tracker.n_state1,
                               tracker.n_state3, **kwargs)
        ref = reference_classify_region(tracker.n_active,
                                        tracker.n_state1,
                                        tracker.n_state3, **kwargs)
        if real is not ref:
            self._violate(
                "region_shadow",
                f"classify_region says {real.name} but the exact-"
                f"rational reference says {ref.name} for "
                f"n_active={tracker.n_active} "
                f"n_state1={tracker.n_state1} "
                f"n_state3={tracker.n_state3}",
                n_active=tracker.n_active, n_state1=tracker.n_state1,
                n_state3=tracker.n_state3, real=real.name, ref=ref.name)

    def _check_ready_queue_accounting(self, gauges: Dict[str, Any]) -> None:
        system = self.system
        tracker = system.tracker
        table = system.lock_table
        for txn in system.ready_queue:
            if txn.phase.value != "ready":
                self._violate(
                    "ready_queue_accounting",
                    f"{txn!r} is in the ready queue but in phase "
                    f"{txn.phase.value}", txn=txn.txn_id)
            if tracker.is_active(txn):
                self._violate(
                    "ready_queue_accounting",
                    f"{txn!r} is both ready-queued and active",
                    txn=txn.txn_id)
            if table.is_waiting(txn) or table.held_pages(txn):
                self._violate(
                    "ready_queue_accounting",
                    f"ready-queued {txn!r} holds or waits for locks",
                    txn=txn.txn_id)
        if gauges["ready_queue"] != len(system.ready_queue):
            self._violate(
                "ready_queue_accounting",
                f"collector ready-queue gauge {gauges['ready_queue']} "
                f"but the queue holds {len(system.ready_queue)}",
                gauge=gauges["ready_queue"],
                actual=len(system.ready_queue))
        if gauges["active"] != tracker.n_active:
            self._violate(
                "ready_queue_accounting",
                f"collector MPL gauge {gauges['active']} but "
                f"{tracker.n_active} transactions are active",
                gauge=gauges["active"], actual=tracker.n_active)

    def _check_parked_accounting(self, gauges: Dict[str, Any]) -> None:
        system = self.system
        # Phase/membership/lock checks on the cold set live in
        # DBMSSystem.check_invariants (run by _check_system_consistency);
        # here we pin the collector's gauge against the actual set.
        if gauges["parked"] != len(system.parked):
            self._violate(
                "parked_accounting",
                f"collector parked gauge {gauges['parked']} but the "
                f"cold set holds {len(system.parked)}",
                gauge=gauges["parked"], actual=len(system.parked))

    def _check_population_conservation(self) -> None:
        system = self.system
        if not system._started:
            return
        breakdown = self._population_breakdown()
        total = sum(breakdown.values())
        if total != system.params.num_terms:
            self._violate(
                "population_conservation",
                f"closed system leaks transactions: "
                f"{breakdown} totals {total}, expected "
                f"{system.params.num_terms} terminals",
                **breakdown)

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
            "ready_queue": len(system.ready_queue),
            **system.offstage_population(),
            "pending_submits": pending_submits,
            "pending_arrivals": pending_arrivals,
        }

    def _check_metrics_conservation(self) -> None:
        errors = self.system.collector.conservation_errors()
        if errors:
            self._violate(
                "metrics_conservation",
                "; ".join(errors),
                counters=self.system.collector.counters_dict())

    def _check_buffer_bounds(self) -> None:
        for site in self.system.sites:
            buffer = site.buffer
            capacity = getattr(buffer, "capacity", None)
            if capacity is None:
                continue
            occupancy = len(buffer)
            if occupancy > capacity:
                self._violate(
                    "buffer_bounds",
                    f"buffer holds {occupancy} frames, capacity "
                    f"{capacity}", occupancy=occupancy, capacity=capacity)
            for name in ("hits", "misses", "evictions"):
                value = getattr(buffer, name, 0)
                if value < 0:
                    self._violate(
                        "buffer_bounds",
                        f"buffer counter {name} is negative ({value})",
                        counter=name, value=value)

    # ------------------------------------------------------------------
    # Evidence
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable picture of the cross-subsystem state."""
        system = self.system
        tracker = system.tracker
        return {
            "sim_time": system.sim.now,
            "events_seen": self.events_seen,
            "checks_run": self.checks_run,
            "populations": {
                "n_active": tracker.n_active,
                "n_state1": tracker.n_state1,
                "n_state2": tracker.n_state2,
                "n_state3": tracker.n_state3,
                "n_state4": tracker.n_state4,
            },
            "population_breakdown": self._population_breakdown(),
            "ready_queue": [txn.txn_id for txn in system.ready_queue],
            "lock_table": system.lock_table.dump(),
            "collector": system.collector.counters_dict(),
        }

    def _enrich_and_record(self, exc: InvariantViolation,
                           context: str) -> None:
        if context and not exc.context:
            exc.context = context
        if self.system is not None:
            if exc.sim_time is None:
                # Subsystem-level checks (e.g. the tracker's) don't know
                # the clock; stamp the violation here.
                exc.sim_time = self.system.sim.now
            exc.evidence.setdefault("state", self.snapshot())
        if self.config.evidence_dir:
            os.makedirs(self.config.evidence_dir, exist_ok=True)
            path = os.path.join(
                self.config.evidence_dir,
                f"violation-{self.violations:03d}-{exc.invariant}.json")
            payload = {
                "invariant": exc.invariant,
                "message": str(exc),
                "sim_time": exc.sim_time,
                "context": exc.context,
                "evidence": exc.evidence,
            }
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True,
                          default=repr)
            exc.evidence.setdefault("evidence_path", path)
