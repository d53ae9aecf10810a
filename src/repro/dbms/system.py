"""The DBMS system: the paper's logical model (Figure 5) wired onto the
physical model (Figure 6).

Transaction flow, exactly as Section 3 describes it:

1. A terminal generates a transaction (think time, 0 by default) and it
   *arrives*.  The load controller decides to admit it or park it in the
   external ready queue.
2. An active transaction alternates lock requests with page processing:
   request an S lock on the next readset page, read it (``page_io`` on a
   uniformly chosen disk unless the buffer hits, then ``page_cpu``), and —
   if the page is in the writeset — upgrade the lock to X and spend
   ``page_cpu`` for the write request (the data write itself is deferred).
3. A blocked request parks the transaction in the blocked queue; deadlock
   detection runs at block time and aborts the youngest cycle member.
4. After the last page, deferred updates flush each dirty page
   (``page_io`` per page), then all locks are released together and the
   transaction commits; its terminal immediately (zero think time)
   submits a new one.
5. An aborted transaction keeps its timestamp and its page reference
   string, goes to the *back* of the external ready queue, and re-executes
   from scratch once re-admitted.

Sites.  Each per-page step runs at the page's *site* (an object with
``lock_table``, ``cpu``, ``disks`` and ``buffer``), looked up once per
step in a page→site table and carried by the step's continuations.  The
centralized system is its own only site, so a ``lock_table`` swapped in
before :meth:`DBMSSystem.start` is the one every step uses.
:class:`repro.distributed.system.DistributedSystem` runs this state
machine over several sites; see its module for what it overrides.

Reentrancy discipline: lock-table state, tracker populations, and
controller hooks are updated *synchronously*, so the Half-and-Half
controller always sees consistent counts; only the start of an admitted
transaction is deferred through a zero-delay event (to bound recursion
when a controller admits a long run of queued transactions).

Invariant relied on throughout: only *blocked* transactions are ever
aborted (deadlock victims, load-control victims, and bounded-wait-policy
rejects are all waiting at the moment of abort), so a transaction that is
holding a CPU or disk or has a pending continuation event is never torn
down mid-flight.  A transaction that must die while running — wounded
under wound-wait, or doomed by a site crash — is flagged instead and
aborts at its next *checkpoint*: the entry of the next operation, of a
lock request or of a deferred write, and the end of each page's work.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Sequence)

from repro.core.maturity import MaturityRule
from repro.core.state_tracker import StateTracker
from repro.dbms.buffer import LRUBuffer, NullBuffer
from repro.dbms.config import SimulationParameters
from repro.dbms.ready_queue import ReadyQueue
from repro.dbms.transaction import Transaction, TxnPhase
from repro.errors import InvariantViolation, SimulationError
from repro.lockmgr.deadlock import resolve_deadlocks
from repro.lockmgr.lock_table import Grant, LockTable, RequestOutcome
from repro.lockmgr.prevention import (
    DeadlockStrategy,
    wait_die_should_die,
    wound_wait_victims,
)
from repro.lockmgr.modes import LockMode
from repro.lockmgr.protocols import LockProtocol
from repro.lockmgr.wait_policy import UnboundedWaitPolicy, WaitPolicy
from repro.metrics.collector import AbortReason, Collector
from repro.metrics.trace import TraceEventType, Tracer
from repro.sim.engine import Simulator
from repro.sim.resources import CpuPool, DiskArray, Priority
from repro.sim.rng import RandomStreams
from repro.workload.base import WorkloadGenerator
from repro.workload.homogeneous import HomogeneousWorkload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.control.base import LoadController

__all__ = ["DBMSSystem"]

Site = Any      # see "Sites" in the module docstring
SiteWork = Callable[[Transaction, int, Site], None]   # a step at a site

# Bound once: reading an enum member off its class goes through the enum
# metaclass's attribute hook (about 0.1 µs a read on CPython 3.11), and
# every lock request reads these.
_S, _X = LockMode.S, LockMode.X
_GRANTED = RequestOutcome.GRANTED
_DEGREE_TWO = LockProtocol.DEGREE_TWO    # releases_read_locks_early()


def equip_site(site: Site, sim: Simulator,
               params: SimulationParameters) -> None:
    """Give ``site`` its lock table, CPU pool, disk array and
    ``buf_size``-page LRU buffer pool (no pool when ``buf_size`` is
    None)."""
    site.lock_table = LockTable()
    site.cpu = CpuPool(sim, params.num_cpus)
    site.disks = DiskArray(sim, params.num_disks)
    site.buffer = (LRUBuffer(params.buf_size)
                   if params.buf_size is not None else NullBuffer())


class DBMSSystem:
    """A complete simulated DBMS instance for one run."""

    def __init__(self,
                 params: SimulationParameters,
                 controller: "LoadController",
                 workload: Optional[WorkloadGenerator] = None,
                 wait_policy: Optional[WaitPolicy] = None,
                 maturity_rule: Optional[MaturityRule] = None,
                 collector: Optional[Collector] = None,
                 sim: Optional[Simulator] = None,
                 streams: Optional[RandomStreams] = None,
                 tracer: Optional[Tracer] = None,
                 admission_order=None,
                 deadlock_strategy: DeadlockStrategy =
                 DeadlockStrategy.DETECTION):
        self.params = params
        self.sim = sim if sim is not None else Simulator()
        self.streams = (streams if streams is not None
                        else RandomStreams(params.seed))
        self.collector = collector if collector is not None else Collector()
        self.tracer = tracer
        # Optional key function ordering ready-queue admissions
        # (e.g. ClassPriorityPolicy); None = strict FIFO.
        self.admission_order = admission_order
        self.deadlock_strategy = deadlock_strategy
        self.wait_policy = (wait_policy if wait_policy is not None
                            else UnboundedWaitPolicy())
        self.maturity_rule = (maturity_rule if maturity_rule is not None
                              else MaturityRule())
        # Passivated (cold-set) transactions, LIFO: the Malthusian
        # controller parks overload victims here instead of aborting
        # them and readmits from the top of the stack.  Always present
        # (and usually empty) so probes and invariants can read it
        # unconditionally.
        self.parked: List[Transaction] = []
        self.workload = (workload if workload is not None
                         else HomogeneousWorkload(self.streams, params))
        self._build_sites()
        self.controller = controller
        controller.attach(self)
        # Optional per-transaction span recorder (see
        # repro.telemetry.spans.SpanRecorder.attach); strictly
        # observational, one None check per hook when disabled.
        self.spans = None
        # Optional per-page contention monitor (see
        # repro.telemetry.contention.ContentionMonitor.attach); same
        # contract: strictly observational, one None check per hook.
        self.contention = None
        # Optional runtime invariant checker (see
        # repro.verify.InvariantChecker.attach); strictly
        # observational, one None check per hook when disabled.  The
        # on-commit cadence hooks here; per-event cadences hook the
        # simulator's monitor slot instead.
        self.invariants = None
        # Optional ``(txn, site) -> bool`` run as a lock request, a page
        # or a write finishes its service; False drops the completion
        # (the distributed failure model's torn-down remote visits).
        self._work_guard: Optional[Callable[[Transaction, Site],
                                            bool]] = None
        # Prebound RNG substreams: ``RandomStreams.stream`` hashes the
        # stream name per variate, which adds up on hot paths, so the
        # system caches the ``random.Random`` objects it draws from once.
        self._disk_rng = self.streams.stream("disk_choice")
        self._think_rng = self.streams.stream("think_time")
        self._next_txn_id = 0
        self._started = False
        # Statistics the controller/runner may want.
        self.total_generated = 0

    def _build_sites(self) -> None:
        """Build the sites, the page→site table, the tracker and the
        ready queue.  Centralized: the system is its own only site."""
        equip_site(self, self.sim, self.params)
        self.tracker = StateTracker(self.collector)
        self.ready_queue = ReadyQueue()
        self._site_of: List[Site] = [self] * self.params.db_size

    @property
    def sites(self) -> Sequence[Site]:
        """Every site, in site order: a centralized system is its own
        only site.  Observers iterate these for per-site resources and
        lock tables."""
        return (self,)

    # Per-site probe rows (``site_probes.jsonl``) at one probe tick, for
    # systems whose sites keep state the aggregate probe sample cannot
    # show (:meth:`repro.distributed.system.DistributedSystem.
    # site_probe_rows`); None here, which the probe scheduler checks once.
    site_probe_rows = None

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Schedule the first arrival from every terminal.

        The hook slots (``tracer``, ``spans``, ``contention``,
        ``invariants``) are read where each hook fires, so the system
        imposes no attach order: an observer attached mid-run sees the
        run from that point on.
        """
        if self._started:
            raise SimulationError(
                f"{type(self).__name__}.start() called twice")
        self._started = True
        for terminal_id in range(self.params.num_terms):
            self.sim.post(self._think_delay(),
                          self._terminal_submits, terminal_id)

    def _think_delay(self) -> float:
        mean = self.params.think_time
        if mean == 0.0:
            return 0.0
        if mean < 0.0:
            # Match RandomStreams.exponential: a negative mean is a
            # configuration error, not a degenerate distribution.
            return self.streams.exponential("think_time", mean)
        return self._think_rng.expovariate(1.0 / mean)

    # ------------------------------------------------------------------
    # Arrivals and admission
    # ------------------------------------------------------------------

    def _terminal_submits(self, terminal_id: int) -> None:
        txn = self.workload.make_transaction(
            self._next_txn_id, terminal_id, self.sim.now)
        self._next_txn_id += 1
        self.total_generated += 1
        self._prepare_estimates(txn)
        self._arrival(txn)

    def _prepare_estimates(self, txn: Transaction) -> None:
        """Set the lock-count estimate the transaction reports.

        With upgrades each written page costs an extra lock request; with
        immediate X locking only the readset requests exist.  The
        configured ``estimate_error`` multiplier models inaccurate
        estimates (Section 4.6 argues the algorithm tolerates them).
        """
        if self.params.lock_upgrades:
            actual = txn.num_reads + txn.num_writes
        else:
            actual = txn.num_reads
        txn.estimated_locks = max(
            1, round(actual * self.params.estimate_error))
        txn.maturity_threshold = self.maturity_rule.threshold(
            txn.estimated_locks)

    def _arrival(self, txn: Transaction) -> None:
        if self.spans is not None:
            self.spans.on_arrival(txn)
        if self.tracer is not None:
            kind = (TraceEventType.RESTART if txn.restarts
                    else TraceEventType.ARRIVAL)
            self.tracer.record(self.sim.now, kind, txn.txn_id,
                               detail=f"attempt {txn.restarts + 1}")
        if self.controller.want_admit(txn):
            self._admit(txn)
        else:
            self.ready_queue.push(txn)
            self.collector.set_ready_queue_length(
                self.sim.now, len(self.ready_queue))
            if self.tracer is not None:
                self.tracer.record(self.sim.now, TraceEventType.QUEUE,
                                   txn.txn_id,
                                   detail=f"depth {len(self.ready_queue)}")

    def try_admit_one(self) -> bool:
        """Admit one transaction from the ready queue.

        Controllers call this when they decide to admit; the choice of
        *which* queued transaction enters is FIFO unless an
        ``admission_order`` policy is installed.
        """
        # Most calls find the queue empty: no frames for those.
        if not self.ready_queue._queue:
            return False
        return self._admit_from(self.ready_queue)

    def _admit_from(self, queue: ReadyQueue) -> bool:
        if self.admission_order is not None:
            txn = queue.pop_best(self.admission_order)
        else:
            txn = queue.pop()
        if txn is None:
            return False
        self.collector.set_ready_queue_length(
            self.sim.now, len(self.ready_queue))
        self._admit(txn)
        return True

    def _admit(self, txn: Transaction) -> None:
        txn.phase = TxnPhase.EXECUTING
        txn.admitted_at = self.sim.now
        self.tracker.add(txn, self.sim.now)
        self.collector.on_admission()
        if self.tracer is not None:
            self.tracer.record(self.sim.now, TraceEventType.ADMIT,
                               txn.txn_id)
        self.controller.on_admit(txn)
        # Start through a zero-delay event: a controller may admit many
        # queued transactions in one hook, and starting them synchronously
        # would nest the whole execution machinery per admission.
        self.sim.post(0.0, self._next_operation, txn)

    # ------------------------------------------------------------------
    # Transport seams.  A page read whose site is the system itself
    # (always, when centralized) skips them: there is nowhere to travel.
    # ------------------------------------------------------------------

    def _go_to_owner(self, txn: Transaction, page: int, site: Site,
                     work: SiteWork) -> None:
        """Run ``work`` — a lock request, an unlocked page read, or a
        deferred write — at ``page``'s owning ``site``."""
        work(txn, page, site)

    def _reply_home(self, txn: Transaction, site: Site,
                    next_step: Callable[[Transaction], None]) -> None:
        """A page's or a write's work at ``site`` is done: continue
        with ``next_step`` at the transaction's home."""
        next_step(txn)

    # ------------------------------------------------------------------
    # Execution state machine
    # ------------------------------------------------------------------

    def _next_operation(self, txn: Transaction) -> None:
        if txn.killed:
            self._abort_at_checkpoint(txn)
            return
        # ``finished_reading``/``current_page``, inlined: this runs per
        # page on the hottest state-machine path.
        readset = txn.readset
        if txn.step_index >= txn.num_reads:
            txn.pending_updates = [p for p in readset
                                   if p in txn.writeset]
            if txn.pending_updates:
                txn.phase = TxnPhase.UPDATING
                self._next_deferred_write(txn)
            else:
                self._commit(txn)
            return
        page = readset[txn.step_index]
        site = self._site_of[page]
        # Figure 1's reference mode (locking off) reads with no
        # concurrency control at all.
        if site is not self:
            self._go_to_owner(txn, page, site,
                              self._request_lock if self.params.locking_enabled
                              else self._start_page_read)
        elif self.params.locking_enabled:
            self._request_lock(txn, page, site)
        else:
            self._start_page_read(txn, page, site)

    def _abort_at_checkpoint(self, txn: Transaction) -> None:
        # Doomed wins over wounded: the crash already sealed its fate.
        self.abort_transaction(
            txn, txn.doomed if txn.doomed is not None
            else AbortReason.WOUND_WAIT)

    def _request_lock(self, txn: Transaction, page: int, site: Site,
                      upgrade: bool = False, charged: bool = False) -> None:
        if not charged and self.params.cc_cpu > 0.0:
            # The request runs as the completion of its concurrency-
            # control CPU service, with ``charged`` set.
            if self.spans is not None:
                self.spans.begin_cpu(txn)
            site.cpu.request(self.params.cc_cpu, self._request_lock,
                             txn, page, site, upgrade, True,
                             priority=Priority.CC)
            return
        if (charged and self._work_guard is not None
                and not self._work_guard(txn, site)):
            return
        if self.spans is not None:
            # Closes the CC CPU span when one was opened (cc_cpu > 0);
            # a no-op on the synchronous path.
            self.spans.end_service(txn)
        if txn.killed:
            self._abort_at_checkpoint(txn)
            return
        mode = (_X if upgrade or (not self.params.lock_upgrades
                                  and page in txn.writeset)
                else _S)
        table = site.lock_table
        outcome = table.request(txn, page, mode)
        if outcome is _GRANTED:
            self._lock_granted(txn, page, site, upgrade)
            return
        # The request blocked.  First the wait policy (bounded wait
        # queues abort the requester outright) ...
        if not self.wait_policy.allow_wait(table, txn, page, mode):
            self._process_grants(table.cancel_wait(txn), site)
            self.abort_transaction(txn, AbortReason.WAIT_POLICY)
            return
        # ... then the configured deadlock handling, over the system's
        # lock table: the site's own, or the union of all sites.
        lock_table = self.lock_table
        if self.deadlock_strategy is DeadlockStrategy.WAIT_DIE:
            if wait_die_should_die(lock_table, txn, self._age_key):
                self._process_grants(table.cancel_wait(txn), site)
                self.abort_transaction(txn, AbortReason.WAIT_DIE)
                return
        elif self.deadlock_strategy is DeadlockStrategy.WOUND_WAIT:
            for victim in wound_wait_victims(lock_table, txn,
                                             self._age_key):
                self._wound(victim)
        else:
            # The paper's scheme: detection at block time, youngest
            # victim.  Ties on timestamp (all initial arrivals share
            # t=0 under zero think time) break on txn_id so victim
            # choice is deterministic.
            resolve_deadlocks(lock_table, txn,
                              timestamp=self._age_key,
                              abort=self._abort_deadlock_victim)
        if not lock_table.is_waiting(txn):
            # Either granted by a victim's releases (the grant cascade
            # already resumed it) or chosen as the victim itself (it is
            # back in the ready queue).  Nothing more to do here.
            return
        self.tracker.set_blocked(txn, True, self.sim.now)
        if self.spans is not None:
            self.spans.on_block(txn, page)
        if self.contention is not None:
            self.contention.on_block(txn, page)
        if self.tracer is not None:
            self.tracer.record(self.sim.now, TraceEventType.BLOCK,
                               txn.txn_id,
                               detail=f"page {page}")
        self.controller.on_block(txn)

    def _abort_deadlock_victim(self, victim: Transaction) -> None:
        self.abort_transaction(victim, AbortReason.DEADLOCK)

    @staticmethod
    def _age_key(txn: Transaction):
        # Smaller = older; retained timestamps prevent starvation, and
        # txn_id breaks the t=0 ties of the initial arrivals.
        return (txn.timestamp, txn.txn_id)

    def _wound(self, victim: Transaction) -> None:
        """Wound-wait: abort a younger blocker, now or at its next
        checkpoint.  Transactions already flushing deferred updates are
        spared — they hold all their locks and are about to commit, so
        aborting them would only discard finished work."""
        if victim.phase is TxnPhase.UPDATING or victim.killed:
            return
        if self.lock_table.is_waiting(victim):
            self.abort_transaction(victim, AbortReason.WOUND_WAIT)
        else:
            victim.killed = True

    def _lock_granted(self, txn: Transaction, page: int, site: Site,
                      was_upgrade: bool) -> None:
        if txn.is_blocked:
            self.tracker.set_blocked(txn, False, self.sim.now)
            if self.spans is not None:
                self.spans.on_unblock(txn)
            if self.contention is not None:
                self.contention.on_unblock(txn)
            if self.tracer is not None:
                self.tracer.record(self.sim.now, TraceEventType.UNBLOCK,
                                   txn.txn_id)
            self.controller.on_unblock(txn)
        txn.locks_completed += 1
        if (not txn.is_mature
                and txn.locks_completed >= txn.maturity_threshold):
            self.tracker.set_mature(txn, self.sim.now)
            if self.tracer is not None:
                self.tracer.record(self.sim.now, TraceEventType.MATURE,
                                   txn.txn_id,
                                   detail=f"{txn.locks_completed} locks")
        if self.tracer is not None:
            self.tracer.record(self.sim.now, TraceEventType.LOCK_GRANT,
                               txn.txn_id)
        self.controller.on_lock_granted(txn)
        if was_upgrade:
            self._start_write_cpu(txn, site)
        else:
            self._start_page_read(txn, page, site)

    def _process_grants(self, grants: Iterable[Grant], site: Site) -> None:
        for grant in grants:
            self._lock_granted(grant.txn, grant.page, site,
                               grant.was_upgrade)

    # ------------------------------------------------------------------
    # Page processing
    # ------------------------------------------------------------------

    def _start_page_read(self, txn: Transaction, page: int,
                         site: Site) -> None:
        # A buffer with no capacity (NullBuffer) never hits.
        buffer = site.buffer
        if buffer.capacity is not None and buffer.access_read(page):
            if self.spans is not None:
                self.spans.begin_cpu(txn)
            site.cpu.request(self.params.page_cpu,
                             self._page_read_done, txn, site)
        else:
            if self.spans is not None:
                self.spans.begin_disk(txn)
            site.disks.access_random(self._disk_rng, self.params.page_io,
                                     self._page_io_done, txn, site)

    def _page_io_done(self, txn: Transaction, site: Site) -> None:
        if self.spans is not None:
            self.spans.end_service(txn)
            self.spans.begin_cpu(txn)
        site.cpu.request(self.params.page_cpu, self._page_read_done,
                         txn, site)

    def _page_read_done(self, txn: Transaction, site: Site) -> None:
        if self._work_guard is not None and not self._work_guard(txn, site):
            return
        if self.spans is not None:
            self.spans.end_service(txn)
        txn.attempt_reads += 1
        # Collector.on_page_read, inlined: one per page read.
        self.collector.raw_pages += 1
        if txn.killed:
            self._abort_at_checkpoint(txn)
            return
        page = txn.readset[txn.step_index]
        locking = self.params.locking_enabled
        if page in txn.writeset:
            if locking and self.params.lock_upgrades:
                self._request_lock(txn, page, site, upgrade=True)
            else:
                self._start_write_cpu(txn, site)
            return
        if locking and txn.lock_protocol is _DEGREE_TWO:
            self._process_grants(site.lock_table.release(txn, page), site)
        txn.step_index += 1
        if site is self:
            self._next_operation(txn)
        else:
            self._reply_home(txn, site, self._next_operation)

    def _start_write_cpu(self, txn: Transaction, site: Site) -> None:
        if self.spans is not None:
            self.spans.begin_cpu(txn)
        site.cpu.request(self.params.page_cpu, self._write_cpu_done,
                         txn, site)

    def _write_cpu_done(self, txn: Transaction, site: Site) -> None:
        if self._work_guard is not None and not self._work_guard(txn, site):
            return
        if self.spans is not None:
            self.spans.end_service(txn)
        if txn.killed:
            self._abort_at_checkpoint(txn)
            return
        txn.step_index += 1
        if site is self:
            self._next_operation(txn)
        else:
            self._reply_home(txn, site, self._next_operation)

    # ------------------------------------------------------------------
    # Deferred updates and commit
    # ------------------------------------------------------------------

    def _next_deferred_write(self, txn: Transaction) -> None:
        if txn.killed:
            self._abort_at_checkpoint(txn)
            return
        if not txn.pending_updates:
            self._commit(txn)
            return
        page = txn.pending_updates.pop()
        self._go_to_owner(txn, page, self._site_of[page],
                          self._deferred_write)

    def _deferred_write(self, txn: Transaction, page: int,
                        site: Site) -> None:
        buffer = site.buffer
        if buffer.capacity is not None:
            buffer.access_write(page)
        if self.spans is not None:
            self.spans.begin_disk(txn)
        site.disks.access_random(self._disk_rng, self.params.page_io,
                                 self._deferred_write_done, txn, site)

    def _deferred_write_done(self, txn: Transaction, site: Site) -> None:
        if self._work_guard is not None and not self._work_guard(txn, site):
            return
        if self.spans is not None:
            self.spans.end_service(txn)
        txn.attempt_writes += 1
        self.collector.on_page_written()
        if txn.killed:
            self._abort_at_checkpoint(txn)
            return
        self._reply_home(txn, site, self._next_deferred_write)

    def _commit(self, txn: Transaction) -> None:
        terminal_id = txn.terminal_id
        self.tracker.remove(txn, self.sim.now)
        txn.phase = TxnPhase.COMMITTED
        if self.tracer is not None:
            self.tracer.record(self.sim.now, TraceEventType.COMMIT,
                               txn.txn_id,
                               detail=f"{txn.restarts} restarts")
        if self.spans is not None:
            self.spans.on_commit(txn)
        self.collector.on_commit(
            pages=txn.attempt_reads + txn.attempt_writes,
            response_time=self.sim.now - txn.timestamp,
            restarts=txn.restarts, class_name=txn.class_name)
        # "Locks are all released together at end-of-transaction (after
        # the deferred updates have been performed)."
        self._release_locks(txn)
        self.controller.on_commit(txn)
        self.controller.on_removed(txn)
        # The terminal thinks, then submits its next transaction.
        self.sim.post(self._think_delay(),
                      self._terminal_submits, terminal_id)
        if self.invariants is not None:
            # After the replacement arrival is scheduled, so the
            # population-conservation law holds at the check point.
            self.invariants.on_commit(txn)

    def _release_locks(self, txn: Transaction) -> None:
        """Release every lock ``txn`` holds and cancel its wait, at
        commit (``txn.phase`` COMMITTED) or abort, and resume whoever
        that unblocks."""
        self._process_grants(self.lock_table.release_all(txn), self)

    # ------------------------------------------------------------------
    # Aborts
    # ------------------------------------------------------------------

    def abort_transaction(self, txn: Transaction, reason: str) -> None:
        """Abort an active transaction and re-queue it for restart.

        Safe only for transactions that are currently *blocked* (or, for
        the wait-policy path, whose pending request was just cancelled),
        or that stopped at a checkpoint: they hold no resource and have
        no pending continuation event.
        """
        if not self.tracker.is_active(txn):
            raise SimulationError(
                f"cannot abort {txn!r}: not an active transaction")
        self.tracker.remove(txn, self.sim.now)
        txn.phase = TxnPhase.ABORTED
        self.collector.on_abort(reason, class_name=txn.class_name)
        if self.spans is not None:
            self.spans.on_abort(txn, reason)
        if self.contention is not None:
            # Before the release, while the monitor's open-wait record
            # still names the page the victim died waiting on.
            self.contention.on_abort(txn, reason)
        if self.tracer is not None:
            self.tracer.record_abort(self.sim.now, txn.txn_id, reason)
        self._release_locks(txn)
        self.controller.on_abort(txn, reason)
        txn.reset_for_restart()
        self._schedule_restart(txn)
        self.controller.on_removed(txn)

    # Kept only for the benchmark's layer tracer (``perfbench/layers.py``
    # ``CLASS_TARGETS``), which looks this name up in the class dict.
    _abort_transaction_fast = abort_transaction

    def _schedule_restart(self, txn: Transaction) -> None:
        # Back of the external ready queue, original timestamp retained.
        # The re-arrival is paced by the restart delay: with a strictly
        # zero delay, a policy that aborts at request time (bounded wait
        # queues) would retry against unchanged lock state in the same
        # simulated instant, forever.
        self.sim.post(self.params.effective_restart_delay,
                      self._arrival, txn)

    # ------------------------------------------------------------------
    # Passivation (the Malthusian cold set)
    # ------------------------------------------------------------------
    def passivate_transaction(self, txn: Transaction) -> None:
        """Move a blocked, lock-free transaction into the cold set.

        The waste-free analogue of :meth:`abort_transaction`: instead of
        discarding the victim's work and re-queueing it, the victim is
        *parked* — removed from the active set with its execution state
        intact — and resumes exactly where it stopped when the
        controller readmits it via :meth:`reactivate_one`.

        Safe only for transactions that are currently blocked *and* hold
        no locks (they are waiting on their first unsatisfied request,
        hold no resource, and have no pending continuation event), so
        parking releases nothing and blocks nobody.
        """
        if not self.tracker.is_active(txn):
            raise SimulationError(
                f"cannot passivate {txn!r}: not an active transaction")
        if not txn.is_blocked or self.lock_table.num_held(txn) > 0:
            raise SimulationError(
                f"cannot passivate {txn!r}: only blocked transactions "
                f"holding no locks may be parked")
        grants = self.lock_table.cancel_wait(txn)
        self.tracker.remove(txn, self.sim.now)
        txn.is_blocked = False
        txn.phase = TxnPhase.PARKED
        self.parked.append(txn)
        self.collector.set_parked_count(self.sim.now, len(self.parked))
        if self.spans is not None:
            self.spans.on_passivate(txn)
        if self.contention is not None:
            # Close the open wait record: the victim stopped waiting on
            # the page even though no lock was granted.
            self.contention.on_unblock(txn)
        if self.tracer is not None:
            self.tracer.record(self.sim.now, TraceEventType.PARK,
                               txn.txn_id,
                               detail=f"cold set {len(self.parked)}")
        # Cancelling the wait may promote waiters behind the victim.
        self._process_grants(grants, self)

    def reactivate_one(self) -> Optional[Transaction]:
        """Readmit the most recently parked transaction (LIFO).

        Returns the readmitted transaction, or ``None`` when the cold
        set is empty.  The transaction re-enters through the normal
        admission path and re-issues the lock request it was parked on.
        """
        if not self.parked:
            return None
        txn = self.parked.pop()
        self.collector.set_parked_count(self.sim.now, len(self.parked))
        if self.tracer is not None:
            self.tracer.record(self.sim.now, TraceEventType.UNPARK,
                               txn.txn_id,
                               detail=f"cold set {len(self.parked)}")
        self._admit(txn)
        return txn

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------

    def teardown(self) -> None:
        """Break a finished run's reference cycles, so that reference
        counting frees the run as soon as its last reader lets go.

        Clears the calendar, every CPU and disk wait queue, the
        page→site table, the hook slots and the controller's link back
        to the system: each of these closes a cycle through the system.
        The clock, the event count, the collector, the resource
        counters, the controller and every observer's records stay
        readable; the run cannot be continued.
        """
        self.sim.clear()
        for site in self.sites:
            site.cpu.clear()
            site.disks.clear()
        self._site_of = []
        # Whatever sits in a hook slot points back at the system.
        self.sim.monitor = self.ready_queue.observer = None
        self.spans = self.contention = self.invariants = None
        self._work_guard = None
        self.controller.system = None

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------

    def offstage_population(self) -> Dict[str, int]:
        """The closed population that is neither active, ready-queued
        nor on the calendar as a pending submit or arrival, by kind:
        here the Malthusian cold set.  The invariant checker's
        ``population_conservation`` adds these to its own counts."""
        return {"parked": len(self.parked)}

    def check_quiesce(self) -> None:
        """End-of-run obligations, checked once after the horizon by a
        verified run.  A centralized run has none beyond the invariant
        catalog."""

    def check_invariants(self) -> None:
        """Cross-check lock table and tracker consistency.

        Raises :class:`~repro.errors.InvariantViolation` on failure.
        Historically a test-only helper; the runtime
        :class:`repro.verify.InvariantChecker` now also calls it (among
        deeper cross-subsystem checks) on live runs.
        """
        self.lock_table.check_invariants()
        self.tracker.check_invariants()
        for txn in self.tracker.active_transactions():
            waiting = self.lock_table.is_waiting(txn)
            if waiting != txn.is_blocked:
                raise InvariantViolation(
                    f"{txn!r}: blocked flag {txn.is_blocked} but "
                    f"lock-table waiting {waiting}",
                    invariant="blocked_flag_sync",
                    sim_time=self.sim.now,
                    evidence={"txn_id": txn.txn_id,
                              "is_blocked": txn.is_blocked,
                              "waiting": waiting})
        for txn in self.parked:
            if self.tracker.is_active(txn):
                raise InvariantViolation(
                    f"{txn!r} is parked but still in the active set",
                    invariant="parked_not_active",
                    sim_time=self.sim.now)
            if (txn.phase is not TxnPhase.PARKED
                    or self.lock_table.num_held(txn) > 0
                    or self.lock_table.is_waiting(txn)):
                raise InvariantViolation(
                    f"{txn!r} is in the cold set but phase="
                    f"{txn.phase.value}, holds "
                    f"{self.lock_table.num_held(txn)} locks, "
                    f"waiting={self.lock_table.is_waiting(txn)}",
                    invariant="parked_holds_nothing",
                    sim_time=self.sim.now)
