"""The distributed DBMS model: multiple sites, one simulation.

Model summary (extensions of the paper's Section 3 model; each choice
is documented where it is implemented):

* The database is range-partitioned across ``num_sites`` sites; every
  site owns a CPU pool, a disk array, and a lock table for its pages.
* A transaction is *homed* at its terminal's site.  It executes
  sequentially: for each page, a lock request at the owning site (a
  remote request pays ``msg_delay`` each way), then ``page_io`` +
  ``page_cpu`` at the owning site's resources.
* Locks are held at their owning sites until after deferred updates
  (strict 2PL, distributed).  A distributed commit optionally pays a
  prepare round trip (``two_phase_commit``); remote lock releases
  arrive one ``msg_delay`` after the commit point.
* Deadlock handling is global: detection walks the union waits-for
  graph of all sites (an oracle detector — the message cost of a real
  distributed detector like path-pushing is *not* modelled), or the
  timestamp prevention schemes can be used, which need no global view
  by construction.
* Load control: per-site controllers over home populations; admission
  happens only at the home site, which makes admission-wait cycles
  ("load control deadlocks", Section 5) impossible — see
  :mod:`repro.distributed.controllers`.

Simplifications versus a production distributed DBMS, all noted here:
the network is pure delay (no bandwidth or queueing), abort/release
messages for aborts are instantaneous, and the 2PC vote collection is
collapsed into a single round-trip delay.

**Failure-realistic mode** (``params.failure_model`` or an installed
:class:`repro.distributed.failures.SiteFaultPlan`) replaces those last
two simplifications with the real machinery:

* remote page/write work becomes a reliable request/reply exchange
  over :class:`repro.distributed.network.Network` (loss, jitter,
  timeout + bounded-backoff retransmission); an exchange whose target
  stays unreachable aborts the transaction (``remote_timeout``);
* distributed commits always run the full 2PC state machine — prepare
  requests, YES votes, an explicit in-doubt state at prepared
  participants, a durable coordinator decision record, best-effort
  decision delivery with a presumed-abort timer as the fallback —
  regardless of the ``two_phase_commit`` flag (the collapsed
  round-trip cannot express in-doubt blocking);
* sites crash and recover on the fault plan's schedule: in-flight
  home transactions abort (waiting ones immediately, running ones at
  their next checkpoint via ``Transaction.doomed``), prepared
  in-doubt locks survive the crash, every other lock at the site is
  released, and arrivals/restarts for a down home site park until
  recovery;
* each site heartbeats the others and clamps its own admission to
  ``safe_mode_mpl`` while any remote site has gone silent for
  ``suspect_after`` (degraded mode, logged as decisions).

What is still *not* modelled, deliberately: I/O in progress at a
crashing site completes mechanically (the transaction aborts at its
next checkpoint instead of the device dying mid-transfer), abort
cleanup at reachable sites stays instantaneous, and the presumed-abort
timer reads the coordinator's durable decision record directly — an
oracle stand-in for a recovery-time inquiry message.

With the failure model off, every failure-path branch is skipped and
the calendar the fast paths build is byte-identical to the pure-delay
model above — the same zero-cost-off contract as telemetry and verify.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.maturity import MaturityRule
from repro.core.state_tracker import StateTracker
from repro.dbms.ready_queue import ReadyQueue
from repro.dbms.transaction import Transaction, TxnPhase
from repro.distributed.config import DistributedParameters
from repro.distributed.controllers import PerSiteControllerSet
from repro.distributed.failures import SiteFaultPlan
from repro.distributed.network import Network, ReliableCall
from repro.distributed.partition import RangePartition
from repro.distributed.workload import DistributedWorkload
from repro.errors import (ConfigurationError, InvariantViolation,
                          SimulationError)
from repro.lockmgr.deadlock import resolve_deadlocks
from repro.lockmgr.lock_table import LockTable, RequestOutcome
from repro.lockmgr.modes import LockMode
from repro.lockmgr.prevention import (
    DeadlockStrategy,
    wait_die_should_die,
    wound_wait_victims,
)
from repro.metrics.collector import AbortReason, Collector
from repro.sim.engine import Simulator
from repro.sim.resources import CpuPool, DiskArray
from repro.sim.rng import RandomStreams

__all__ = ["DistributedSystem"]


class _Site:
    """One site's hardware and lock manager."""

    __slots__ = ("site_id", "cpu", "disks", "lock_table")

    def __init__(self, site_id: int, sim: Simulator,
                 params: DistributedParameters):
        self.site_id = site_id
        self.cpu = CpuPool(sim, params.num_cpus)
        self.disks = DiskArray(sim, params.num_disks)
        self.lock_table = LockTable()


class _InDoubt:
    """A prepared participant's record for one transaction: its locks
    at this site are frozen until the coordinator's decision arrives
    (or the presumed-abort timer resolves them)."""

    __slots__ = ("txn", "coordinator", "since")

    def __init__(self, txn: Transaction, coordinator: int, since: float):
        self.txn = txn
        self.coordinator = coordinator
        self.since = since


class _TwoPC:
    """Coordinator-side volatile state for one commit attempt.

    Lost if the coordinator's site crashes — which is exactly what
    leaves participants in doubt."""

    __slots__ = ("participants", "pending", "calls", "gen")

    def __init__(self, participants: List[int], gen: int):
        self.participants = participants
        self.pending = set(participants)
        self.calls: Dict[int, ReliableCall] = {}
        self.gen = gen                  # txn.restarts at prepare time


class _RemoteOp:
    """One remote page/write visit in flight (failure mode only).

    Identity is the guard: retransmitted requests and late replies
    carry the op object itself, and handlers ignore anything that is
    not the transaction's *current* op."""

    __slots__ = ("txn", "owner", "page", "kind", "call",
                 "started", "replied")

    def __init__(self, txn: Transaction, owner: int, page: int,
                 kind: str):
        self.txn = txn
        self.owner = owner
        self.page = page
        self.kind = kind                # "page" or "write"
        self.call: ReliableCall = None  # type: ignore[assignment]
        self.started = False            # work began at the owner
        self.replied = False            # owner sent the reply


class _GlobalLockView:
    """Union view over all site lock tables.

    A transaction waits for at most one lock at one site, so every
    query routes to the site recorded in the system's waiting map (or
    scans all sites for holder-side questions).
    """

    def __init__(self, system: "DistributedSystem"):
        self._system = system

    def is_waiting(self, txn: Transaction) -> bool:
        return txn in self._system.waiting_site

    def blocking_order(self, txn: Transaction) -> List[Transaction]:
        site = self._system.waiting_site.get(txn)
        if site is None:
            return []
        return self._system.sites[site].lock_table.blocking_order(txn)

    def blocking_set(self, txn: Transaction):
        site = self._system.waiting_site.get(txn)
        if site is None:
            return set()
        return self._system.sites[site].lock_table.blocking_set(txn)

    def is_blocking_others(self, txn: Transaction) -> bool:
        return any(site.lock_table.is_blocking_others(txn)
                   for site in self._system.sites)

    def num_held(self, txn: Transaction) -> int:
        return sum(site.lock_table.num_held(txn)
                   for site in self._system.sites)


class _SiteView:
    """The controller-facing facade of one site.

    Exposes exactly the surface :class:`repro.control.base.
    LoadController` uses, so unmodified single-site controllers govern
    each site's home population.
    """

    def __init__(self, system: "DistributedSystem", site_id: int):
        self._system = system
        self.site_id = site_id
        self.sim = system.sim                   # decision-log timestamps
        self.tracker = StateTracker()           # home population only
        self.ready_queue = ReadyQueue()
        self.lock_table = system.global_locks   # global victim queries
        self.streams = system.streams

    def try_admit_one(self) -> bool:
        if self._system.failure_mode and not self._system._admission_open(
                self.site_id):
            return False
        if self._system.admission_order is not None:
            txn = self.ready_queue.pop_best(self._system.admission_order)
        else:
            txn = self.ready_queue.pop()
        if txn is None:
            return False
        self._system.collector.set_ready_queue_length(
            self._system.sim.now,
            sum(len(v.ready_queue) for v in self._system.site_views))
        self._system._admit(txn)
        return True

    def abort_transaction(self, txn: Transaction, reason: str) -> None:
        self._system.abort_transaction(txn, reason)


class DistributedSystem:
    """A complete multi-site simulated DBMS instance for one run."""

    def __init__(self,
                 params: DistributedParameters,
                 controllers: PerSiteControllerSet,
                 workload: Optional[DistributedWorkload] = None,
                 maturity_rule: Optional[MaturityRule] = None,
                 collector: Optional[Collector] = None,
                 sim: Optional[Simulator] = None,
                 streams: Optional[RandomStreams] = None,
                 deadlock_strategy: DeadlockStrategy =
                 DeadlockStrategy.DETECTION,
                 admission_order=None,
                 fault_plan: Optional[SiteFaultPlan] = None):
        if len(controllers) != params.num_sites:
            raise ConfigurationError(
                f"{len(controllers)} controllers for "
                f"{params.num_sites} sites")
        self.params = params
        self.sim = sim if sim is not None else Simulator()
        self.streams = (streams if streams is not None
                        else RandomStreams(params.seed))
        self.collector = collector if collector is not None else Collector()
        self.partition = RangePartition(params.db_size, params.num_sites)
        self.sites = [_Site(i, self.sim, params)
                      for i in range(params.num_sites)]
        self.global_locks = _GlobalLockView(self)
        # Global tracker feeds the collector; per-site trackers feed the
        # per-site controllers.  Both are updated in lockstep.
        self.tracker = StateTracker(self.collector)
        self.maturity_rule = (maturity_rule if maturity_rule is not None
                              else MaturityRule())
        self.deadlock_strategy = deadlock_strategy
        self.admission_order = admission_order
        self.workload = (workload if workload is not None
                         else DistributedWorkload(self.streams, params,
                                                  self.partition))
        self.controllers = controllers
        self.site_views = [_SiteView(self, i)
                           for i in range(params.num_sites)]
        for view, controller in zip(self.site_views,
                                    controllers.controllers):
            controller.attach(view)
        # txn -> site where its lock request is waiting.
        self.waiting_site: Dict[Transaction, int] = {}
        self._home: Dict[Transaction, int] = {}
        self._disk_rng = self.streams.stream("disk_choice")
        self._next_txn_id = 0
        self._started = False
        self.total_generated = 0
        self.remote_accesses = 0
        self.local_accesses = 0
        # Cumulative commits by home site (per-site telemetry series).
        self.site_commits = [0] * params.num_sites
        # ---- failure-realistic layer (zero-cost when off) ----
        self.failure_mode = params.failure_model or bool(fault_plan)
        self.fault_plan = fault_plan
        self.decision_log = None        # installed by telemetry
        self._site_up = [True] * params.num_sites
        self._degraded = [False] * params.num_sites
        # _last_heard[i][j]: when site i last received anything from j.
        self._last_heard = [[0.0] * params.num_sites
                            for _ in range(params.num_sites)]
        self.network = Network(self.sim, self.streams, params,
                               self.failure_mode, self._is_site_up,
                               self._note_heard)
        # Per-site prepared-participant records: txn_id -> _InDoubt.
        self._indoubt: List[Dict[int, _InDoubt]] = [
            {} for _ in range(params.num_sites)]
        self._twopc: Dict[Transaction, _TwoPC] = {}
        # Coordinator's "durable log": txn_id -> "commit"/"abort".  An
        # absent entry means no decision was ever recorded — the
        # presumed-abort rule.  _decision_waiters counts unresolved
        # in-doubt entries per decision so records are garbage-collected
        # once every participant has learned the outcome.
        self.decision_record: Dict[int, str] = {}
        self._decision_waiters: Dict[int, int] = {}
        # Aborted txns whose in-doubt participant locks are still
        # unresolved: restart is deferred until the set empties, so a
        # restarted incarnation can never race its predecessor's locks.
        self._limbo: Dict[Transaction, set] = {}
        self._inflight: Dict[Transaction, _RemoteOp] = {}
        # Work parked while its home site is down, replayed at recovery.
        self._parked_txns: Dict[int, List[Transaction]] = {}
        self._parked_terminals: Dict[int, List[int]] = {}
        if fault_plan:
            fault_plan.install(self)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def home_of(self, txn: Transaction) -> int:
        return self._home[txn]

    def _controller_of(self, txn: Transaction):
        return self.controllers.for_site(self._home[txn])

    def _view_of(self, txn: Transaction) -> _SiteView:
        return self.site_views[self._home[txn]]

    @staticmethod
    def _age_key(txn: Transaction):
        return (txn.timestamp, txn.txn_id)

    # ------------------------------------------------------------------
    # Startup and arrivals
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise SimulationError("DistributedSystem.start() called twice")
        self._started = True
        for terminal_id in range(self.params.num_terms):
            delay = self.streams.exponential("think_time",
                                             self.params.think_time)
            self.sim.schedule(delay, self._terminal_submits, terminal_id)
        if self.failure_mode:
            for site_id in range(self.params.num_sites):
                self.sim.schedule(self.params.heartbeat_interval,
                                  self._heartbeat, site_id)

    def _terminal_submits(self, terminal_id: int) -> None:
        if self.failure_mode:
            home = self.workload.home_site_of_terminal(terminal_id)
            if not self._site_up[home]:
                # The terminal's site is dark: nothing to submit to.
                # Parked before the transaction is generated, so the
                # workload stream is not consumed for it.
                self._parked_terminals.setdefault(home, []).append(
                    terminal_id)
                return
        txn = self.workload.make_transaction(
            self._next_txn_id, terminal_id, self.sim.now)
        self._next_txn_id += 1
        self.total_generated += 1
        txn.estimated_locks = max(
            1, round(txn.total_lock_requests()
                     * self.params.estimate_error))
        txn.maturity_threshold = self.maturity_rule.threshold(
            txn.estimated_locks)
        self._home[txn] = self.workload.home_site_of_terminal(terminal_id)
        self._arrival(txn)

    def _arrival(self, txn: Transaction) -> None:
        view = self._view_of(txn)
        if self.failure_mode:
            home = self._home[txn]
            if not self._site_up[home]:
                self._parked_txns.setdefault(home, []).append(txn)
                return
            if not self._admission_open(home):
                # Safe-mode clamp: queue without consulting the
                # controller; drained (re-presented) at DEGRADED_EXIT.
                view.ready_queue.push(txn)
                self.collector.set_ready_queue_length(
                    self.sim.now, sum(len(v.ready_queue)
                                      for v in self.site_views))
                return
        if self._controller_of(txn).want_admit(txn):
            self._admit(txn)
        else:
            view.ready_queue.push(txn)
            self.collector.set_ready_queue_length(
                self.sim.now, sum(len(v.ready_queue)
                                  for v in self.site_views))

    def _admit(self, txn: Transaction) -> None:
        txn.phase = TxnPhase.EXECUTING
        txn.admitted_at = self.sim.now
        self._track_add(txn)
        self.collector.on_admission()
        self._controller_of(txn).on_admit(txn)
        self.sim.schedule(0.0, self._next_operation, txn)

    # ------------------------------------------------------------------
    # Dual tracker bookkeeping
    # ------------------------------------------------------------------

    def _track_add(self, txn: Transaction) -> None:
        self.tracker.add(txn, self.sim.now)
        # add() resets the flags; the second add must not re-reset state
        # between the calls, so mirror manually.
        view = self._view_of(txn)
        view.tracker._active.add(txn)
        view.tracker.n_active += 1
        view.tracker.n_state2 += 1

    def _track_remove(self, txn: Transaction) -> None:
        view = self._view_of(txn)
        view.tracker.remove(txn, self.sim.now)
        self.tracker.remove(txn, self.sim.now)

    def _track_blocked(self, txn: Transaction, blocked: bool) -> None:
        if txn.is_blocked == blocked:
            return
        view = self._view_of(txn)
        # Order matters: the global tracker flips the flag; the site
        # tracker adjusts its buckets around the same flag, so flip via
        # the site tracker first (it checks the current flag).
        view.tracker.set_blocked(txn, blocked, self.sim.now)
        txn.is_blocked = not blocked      # restore for the global pass
        self.tracker.set_blocked(txn, blocked, self.sim.now)

    def _track_mature(self, txn: Transaction) -> None:
        if txn.is_mature:
            return
        view = self._view_of(txn)
        view.tracker.set_mature(txn, self.sim.now)
        txn.is_mature = False             # restore for the global pass
        self.tracker.set_mature(txn, self.sim.now)

    # ------------------------------------------------------------------
    # Execution state machine
    # ------------------------------------------------------------------

    def _check_failed(self, txn: Transaction) -> bool:
        """Checkpoint: abort a doomed (site crash) or wounded txn.

        Doomed wins over wounded — the crash already sealed its fate.
        Always False on the fast path (``doomed`` stays None with the
        failure model off)."""
        if txn.doomed is not None:
            self.abort_transaction(txn, txn.doomed)
            return True
        if txn.wounded:
            self.abort_transaction(txn, AbortReason.WOUND_WAIT)
            return True
        return False

    def _next_operation(self, txn: Transaction) -> None:
        if self._check_failed(txn):
            return
        if txn.finished_reading():
            txn.pending_updates = [p for p in txn.readset
                                   if p in txn.writeset]
            txn.phase = TxnPhase.UPDATING
            self._next_deferred_write(txn)
            return
        page = txn.current_page()
        owner = self.partition.site_of(page)
        home = self._home[txn]
        if owner != home:
            self.remote_accesses += 1
            if self.failure_mode:
                self._begin_remote_op(txn, page, owner, "page")
                return
            delay = self.params.msg_delay
            if delay > 0.0:
                self.sim.schedule(delay, self._request_lock_at, txn,
                                  page, owner, False)
            else:
                self._request_lock_at(txn, page, owner, False)
            return
        self.local_accesses += 1
        self._request_lock_at(txn, page, owner, False)

    def _request_lock_at(self, txn: Transaction, page: int, owner: int,
                         upgrade: bool) -> None:
        if self._check_failed(txn):
            return
        table = self.sites[owner].lock_table
        mode = LockMode.X if upgrade else LockMode.S
        if not self.params.locking_enabled:
            self._lock_granted_at(txn, owner, upgrade)
            return
        outcome = table.request(txn, page, mode)
        if outcome is RequestOutcome.GRANTED:
            self._lock_granted_at(txn, owner, upgrade)
            return
        self.waiting_site[txn] = owner
        if self.deadlock_strategy is DeadlockStrategy.WAIT_DIE:
            if wait_die_should_die(self.global_locks, txn, self._age_key):
                self._cancel_wait(txn)
                self.abort_transaction(txn, AbortReason.WAIT_DIE)
                return
        elif self.deadlock_strategy is DeadlockStrategy.WOUND_WAIT:
            for victim in wound_wait_victims(self.global_locks, txn,
                                             self._age_key):
                self._wound(victim)
        else:
            resolve_deadlocks(self.global_locks, txn,
                              timestamp=self._age_key,
                              abort=lambda v: self.abort_transaction(
                                  v, AbortReason.DEADLOCK))
        if txn not in self.waiting_site:
            return        # granted via a victim's release, or aborted
        self._track_blocked(txn, True)
        self._controller_of(txn).on_block(txn)

    def _wound(self, victim: Transaction) -> None:
        if victim.phase is TxnPhase.UPDATING or victim.wounded:
            return
        if victim in self.waiting_site:
            self.abort_transaction(victim, AbortReason.WOUND_WAIT)
        else:
            victim.wounded = True

    def _cancel_wait(self, txn: Transaction) -> None:
        site = self.waiting_site.pop(txn, None)
        if site is not None:
            grants = self.sites[site].lock_table.cancel_wait(txn)
            self._process_grants(site, grants)

    def _process_grants(self, site: int, grants) -> None:
        for grant in grants:
            self.waiting_site.pop(grant.txn, None)
            self._lock_granted_at(grant.txn, site, grant.was_upgrade)

    def _lock_granted_at(self, txn: Transaction, owner: int,
                         was_upgrade: bool) -> None:
        if txn.is_blocked:
            self._track_blocked(txn, False)
            self._controller_of(txn).on_unblock(txn)
        txn.locks_completed += 1
        if (not txn.is_mature
                and txn.locks_completed >= txn.maturity_threshold):
            self._track_mature(txn)
        self._controller_of(txn).on_lock_granted(txn)
        if was_upgrade:
            self.sites[owner].cpu.request(
                self.params.page_cpu, self._write_cpu_done, txn, owner)
        else:
            self._start_page_read(txn, owner)

    def _start_page_read(self, txn: Transaction, owner: int) -> None:
        site = self.sites[owner]
        disk = site.disks.choose_disk(self._disk_rng)
        site.disks.access(disk, self.params.page_io,
                          self._page_io_done, txn, owner)

    def _page_io_done(self, txn: Transaction, owner: int) -> None:
        self.sites[owner].cpu.request(self.params.page_cpu,
                                      self._page_read_done, txn, owner)

    def _page_read_done(self, txn: Transaction, owner: int) -> None:
        if self.failure_mode and not self._work_is_current(txn, owner):
            return          # stale continuation of an aborted visit
        txn.attempt_reads += 1
        self.collector.on_page_read()
        if self._check_failed(txn):
            return
        page = txn.current_page()
        if page in txn.writeset:
            if self.params.locking_enabled:
                self._request_lock_at(txn, page, owner, True)
            else:
                self.sites[owner].cpu.request(
                    self.params.page_cpu, self._write_cpu_done, txn,
                    owner)
            return
        txn.step_index += 1
        if self.failure_mode and owner != self._home[txn]:
            self._finish_remote_op(txn)
            return
        # The reply travels back to the home site before the next
        # operation is issued from there.
        reply_delay = (self.params.msg_delay
                       if owner != self._home[txn] else 0.0)
        if reply_delay > 0.0:
            self.sim.schedule(reply_delay, self._next_operation, txn)
        else:
            self._next_operation(txn)

    def _write_cpu_done(self, txn: Transaction, owner: int) -> None:
        if self.failure_mode and not self._work_is_current(txn, owner):
            return
        if self._check_failed(txn):
            return
        txn.step_index += 1
        if self.failure_mode and owner != self._home[txn]:
            self._finish_remote_op(txn)
            return
        reply_delay = (self.params.msg_delay
                       if owner != self._home[txn] else 0.0)
        if reply_delay > 0.0:
            self.sim.schedule(reply_delay, self._next_operation, txn)
        else:
            self._next_operation(txn)

    # ------------------------------------------------------------------
    # Deferred updates and distributed commit
    # ------------------------------------------------------------------

    def _next_deferred_write(self, txn: Transaction) -> None:
        if self.failure_mode and self._check_failed(txn):
            return
        if not txn.pending_updates:
            self._prepare_commit(txn)
            return
        page = txn.pending_updates.pop()
        owner = self.partition.site_of(page)
        if self.failure_mode and owner != self._home[txn]:
            self._begin_remote_op(txn, page, owner, "write")
            return
        delay = (self.params.msg_delay
                 if owner != self._home[txn] else 0.0)
        if delay > 0.0:
            self.sim.schedule(delay, self._deferred_write_at, txn, owner)
        else:
            self._deferred_write_at(txn, owner)

    def _deferred_write_at(self, txn: Transaction, owner: int) -> None:
        site = self.sites[owner]
        disk = site.disks.choose_disk(self._disk_rng)
        site.disks.access(disk, self.params.page_io,
                          self._deferred_write_done, txn, owner)

    def _deferred_write_done(self, txn: Transaction, owner: int) -> None:
        if self.failure_mode and not self._work_is_current(txn, owner):
            return
        txn.attempt_writes += 1
        self.collector.on_page_written()
        if self.failure_mode:
            if self._check_failed(txn):
                return
            if owner != self._home[txn]:
                self._finish_remote_op(txn)
                return
        self._next_deferred_write(txn)

    def _touched_sites(self, txn: Transaction) -> List[int]:
        sites = []
        for site in self.sites:
            if site.lock_table.held_pages(txn):
                sites.append(site.site_id)
        return sites

    def _prepare_commit(self, txn: Transaction) -> None:
        touched = self._touched_sites(txn)
        home = self._home[txn]
        remote = [s for s in touched if s != home]
        if remote and self.failure_mode:
            # Real 2PC, always — regardless of ``two_phase_commit``:
            # the collapsed round-trip cannot express in-doubt
            # blocking, which is the point of the failure model.
            self._begin_two_pc(txn, home, remote)
            return
        if remote and self.params.two_phase_commit:
            # Prepare round: one round trip to the farthest participant
            # (messages travel in parallel).
            self.sim.schedule(2.0 * self.params.msg_delay,
                              self._commit, txn, touched)
        else:
            self._commit(txn, touched)

    # ------------------------------------------------------------------
    # Real 2PC (failure mode)
    # ------------------------------------------------------------------

    def _begin_two_pc(self, txn: Transaction, home: int,
                      remote: List[int]) -> None:
        rec = _TwoPC(remote, gen=txn.restarts)
        self._twopc[txn] = rec
        for p in remote:
            rec.calls[p] = self.network.call(
                home, p, self._prepare_at, txn, p, rec.gen,
                on_fail=lambda p=p: self._prepare_failed(txn, p))

    def _prepare_at(self, txn: Transaction, p: int, gen: int) -> None:
        """PREPARE arrives at participant ``p`` (idempotent)."""
        rec = self._twopc.get(txn)
        if rec is None or rec.gen != gen:
            return              # stale: the attempt was already decided
        home = self._home[txn]
        if txn.txn_id in self._indoubt[p]:
            # Duplicate prepare: the vote was lost; vote again.
            self.network.send(p, home, self._vote_at, txn, p, gen)
            return
        self._indoubt[p][txn.txn_id] = _InDoubt(txn, home, self.sim.now)
        self._log_site_event(p, "indoubt_hold", txn_id=txn.txn_id)
        self.sim.schedule(self.params.indoubt_timeout,
                          self._indoubt_timer, p, txn.txn_id)
        self.network.send(p, home, self._vote_at, txn, p, gen)

    def _vote_at(self, txn: Transaction, p: int, gen: int) -> None:
        """A YES vote arrives at the coordinator."""
        rec = self._twopc.get(txn)
        if rec is None or rec.gen != gen:
            return
        call = rec.calls.get(p)
        if call is not None:
            call.settle()
        rec.pending.discard(p)
        if not rec.pending:
            self._decide(txn, "commit")

    def _prepare_failed(self, txn: Transaction, p: int) -> None:
        """A prepare exchange ran out of retries."""
        rec = self._twopc.get(txn)
        if rec is None:
            return
        home = self._home[txn]
        if self._reachable(home, p):
            # The participant is reachable (the votes were lost or the
            # site is merely slow): keep asking rather than aborting a
            # finished transaction's work.
            rec.calls[p] = self.network.call(
                home, p, self._prepare_at, txn, p, rec.gen,
                on_fail=lambda: self._prepare_failed(txn, p))
            return
        self._decide(txn, "abort")

    def _decide(self, txn: Transaction, decision: str) -> None:
        """The coordinator reaches (and durably records) a decision."""
        rec = self._twopc.pop(txn, None)
        if rec is None:
            return
        for call in rec.calls.values():
            call.settle()
        waiters = sum(1 for p in rec.participants
                      if txn.txn_id in self._indoubt[p])
        if waiters:
            # The record is the durable log entry the presumed-abort
            # timer consults; garbage-collected once every in-doubt
            # participant has resolved.
            self.decision_record[txn.txn_id] = decision
            self._decision_waiters[txn.txn_id] = waiters
        if decision == "commit":
            self._commit_2pc(txn, rec)
        else:
            home = self._home[txn]
            for p in rec.participants:
                if txn.txn_id in self._indoubt[p]:
                    # Best-effort notification; the timer is the
                    # guaranteed fallback.
                    self.network.send(home, p, self._decision_at,
                                      p, txn.txn_id)
            self.abort_transaction(txn, AbortReason.REMOTE_TIMEOUT)

    def _commit_2pc(self, txn: Transaction, rec: _TwoPC) -> None:
        """Mirror of :meth:`_commit` for a 2PC transaction: home locks
        release now, participant locks when the decision reaches them."""
        home = self._home[txn]
        self._track_remove(txn)
        txn.phase = TxnPhase.COMMITTED
        self.site_commits[home] += 1
        self.collector.on_commit(
            pages=txn.attempt_reads + txn.attempt_writes,
            response_time=self.sim.now - txn.timestamp,
            restarts=txn.restarts, class_name=txn.class_name)
        self._release_at(txn, home)
        for p in rec.participants:
            if txn.txn_id in self._indoubt[p]:
                self.network.send(home, p, self._decision_at,
                                  p, txn.txn_id)
        controller = self.controllers.for_site(home)
        controller.on_commit(txn)
        controller.on_removed(txn)
        self._home.pop(txn, None)
        delay = self.streams.exponential("think_time",
                                         self.params.think_time)
        self.sim.schedule(delay, self._terminal_submits, txn.terminal_id)

    def _decision_at(self, p: int, txn_id: int) -> None:
        """A decision message arrives at a prepared participant."""
        decision = self.decision_record.get(txn_id, "abort")
        self._resolve_indoubt_entry(p, txn_id, decision, "decision")

    def _resolve_indoubt_entry(self, p: int, txn_id: int,
                               decision: str, source: str) -> None:
        rec = self._indoubt[p].pop(txn_id, None)
        if rec is None:
            return              # duplicate decision / already resolved
        grants = self.sites[p].lock_table.release_all(rec.txn)
        self._process_grants(p, grants)
        self._log_site_event(p, "indoubt_resolved", txn_id=txn_id,
                             detail=f"{decision} via {source}")
        waiters = self._decision_waiters.get(txn_id)
        if waiters is not None:
            if waiters <= 1:
                del self._decision_waiters[txn_id]
                self.decision_record.pop(txn_id, None)
            else:
                self._decision_waiters[txn_id] = waiters - 1
        if decision == "abort":
            sites_left = self._limbo.get(rec.txn)
            if sites_left is not None:
                sites_left.discard(p)
                if not sites_left:
                    del self._limbo[rec.txn]
                    self._schedule_restart(rec.txn)

    def _indoubt_timer(self, p: int, txn_id: int) -> None:
        """Periodic in-doubt resolution check at participant ``p``.

        Reads the coordinator's durable decision record directly — an
        oracle stand-in for a recovery-time inquiry message.  Presumes
        abort only once the coordinator demonstrably holds no volatile
        state for the attempt (its 2PC record is gone without a
        decision, i.e. it crashed before deciding)."""
        rec = self._indoubt[p].get(txn_id)
        if rec is None:
            return
        if not self._site_up[p]:
            # A down site can act on nothing; recovery resolves its
            # residual entries (or this timer does, after it).
            self.sim.schedule(self.params.indoubt_timeout,
                              self._indoubt_timer, p, txn_id)
            return
        decision = self.decision_record.get(txn_id)
        if decision is None and rec.txn in self._twopc:
            self.sim.schedule(self.params.indoubt_timeout,
                              self._indoubt_timer, p, txn_id)
            return
        self._resolve_indoubt_entry(
            p, txn_id, decision if decision is not None else "abort",
            "timer" if decision is not None else "presumed-abort")

    def _commit(self, txn: Transaction, touched: List[int]) -> None:
        home = self._home[txn]
        self._track_remove(txn)
        txn.phase = TxnPhase.COMMITTED
        self.site_commits[home] += 1
        self.collector.on_commit(
            pages=txn.attempt_reads + txn.attempt_writes,
            response_time=self.sim.now - txn.timestamp,
            restarts=txn.restarts, class_name=txn.class_name)
        for site_id in touched:
            if site_id == home:
                self._release_at(txn, site_id)
            else:
                # The commit decision travels to the participant.
                self.sim.schedule(self.params.msg_delay,
                                  self._release_at, txn, site_id)
        controller = self.controllers.for_site(home)
        controller.on_commit(txn)
        controller.on_removed(txn)
        self._home.pop(txn, None)
        delay = self.streams.exponential("think_time",
                                         self.params.think_time)
        self.sim.schedule(delay, self._terminal_submits, txn.terminal_id)

    def _release_at(self, txn: Transaction, site_id: int) -> None:
        grants = self.sites[site_id].lock_table.release_all(txn)
        self._process_grants(site_id, grants)

    # ------------------------------------------------------------------
    # Remote page/write exchanges (failure mode)
    # ------------------------------------------------------------------

    def _begin_remote_op(self, txn: Transaction, page: int, owner: int,
                         kind: str) -> None:
        op = _RemoteOp(txn, owner, page, kind)
        self._inflight[txn] = op
        op.call = self.network.call(
            self._home[txn], owner, self._remote_op_request, op,
            on_fail=lambda: self._remote_op_failed(op))

    def _remote_op_request(self, op: _RemoteOp) -> None:
        """The request arrives at the owning site (idempotent)."""
        if self._inflight.get(op.txn) is not op:
            return              # stale: the visit was torn down
        if op.replied:
            self._send_reply(op)    # the reply was lost; resend it
            return
        if op.started:
            return              # duplicate while work is in progress
        op.started = True
        if op.kind == "page":
            self._request_lock_at(op.txn, op.page, op.owner, False)
        else:
            self._deferred_write_at(op.txn, op.owner)

    def _finish_remote_op(self, txn: Transaction) -> None:
        """The visit's work completed at the owner; reply home."""
        op = self._inflight[txn]
        op.replied = True
        self._send_reply(op)

    def _send_reply(self, op: _RemoteOp) -> None:
        self.network.send(op.owner, self._home[op.txn],
                          self._remote_op_reply, op)

    def _remote_op_reply(self, op: _RemoteOp) -> None:
        """The reply arrives at the home site: continue execution."""
        if self._inflight.get(op.txn) is not op:
            return
        op.call.settle()
        del self._inflight[op.txn]
        if op.kind == "page":
            self._next_operation(op.txn)
        else:
            self._next_deferred_write(op.txn)

    def _remote_op_failed(self, op: _RemoteOp) -> None:
        """The exchange ran out of retries."""
        if self._inflight.get(op.txn) is not op:
            return
        home = self._home[op.txn]
        if self._reachable(home, op.owner):
            # The owner is reachable — the work is simply outstanding
            # (a long lock wait, a deep disk queue, or lost replies).
            # Re-arm rather than abort: retransmitted requests are
            # absorbed by the idempotency guards above.
            op.call = self.network.call(
                home, op.owner, self._remote_op_request, op,
                on_fail=lambda: self._remote_op_failed(op))
            return
        del self._inflight[op.txn]
        self.abort_transaction(
            op.txn, op.txn.doomed if op.txn.doomed is not None
            else AbortReason.REMOTE_TIMEOUT)

    def _work_is_current(self, txn: Transaction, owner: int) -> bool:
        """Is this completion callback the transaction's live work?

        False for stale continuations — device work that finished after
        the visit it belonged to was aborted."""
        home = self._home.get(txn)
        if home is None:
            return False
        op = self._inflight.get(txn)
        if owner == home:
            return op is None
        return (op is not None and op.owner == owner and op.started
                and not op.replied)

    # ------------------------------------------------------------------
    # Aborts
    # ------------------------------------------------------------------

    def abort_transaction(self, txn: Transaction, reason: str) -> None:
        if not self.tracker.is_active(txn):
            raise SimulationError(
                f"cannot abort {txn!r}: not an active transaction")
        home = self._home[txn]
        self._track_remove(txn)
        txn.phase = TxnPhase.ABORTED
        self.collector.on_abort(reason, class_name=txn.class_name)
        self._cancel_wait(txn)
        indoubt_sites: List[int] = []
        if self.failure_mode:
            op = self._inflight.pop(txn, None)
            if op is not None:
                op.call.settle()
            rec = self._twopc.pop(txn, None)
            if rec is not None:
                for call in rec.calls.values():
                    call.settle()
            for site in self.sites:
                if txn.txn_id in self._indoubt[site.site_id]:
                    # Prepared participant locks are untouchable until
                    # the decision (or presumed abort) resolves them.
                    indoubt_sites.append(site.site_id)
                    continue
                if site.lock_table.held_pages(txn):
                    grants = site.lock_table.release_all(txn)
                    self._process_grants(site.site_id, grants)
        else:
            for site in self.sites:
                if site.lock_table.held_pages(txn):
                    grants = site.lock_table.release_all(txn)
                    self._process_grants(site.site_id, grants)
        controller = self.controllers.for_site(home)
        controller.on_abort(txn, reason)
        txn.reset_for_restart()
        if indoubt_sites:
            # Restart is deferred until every in-doubt entry resolves
            # (see _resolve_indoubt_entry), so the next incarnation can
            # never collide with this one's frozen locks.
            self._limbo[txn] = set(indoubt_sites)
        else:
            self._schedule_restart(txn)
        controller.on_removed(txn)

    def _schedule_restart(self, txn: Transaction) -> None:
        if self.failure_mode and not self._site_up[self._home[txn]]:
            self._parked_txns.setdefault(self._home[txn],
                                         []).append(txn)
            return
        self.sim.schedule(self.params.effective_restart_delay,
                          self._arrival, txn)

    # ------------------------------------------------------------------
    # Site liveness, crashes, recovery, degraded mode (failure mode)
    # ------------------------------------------------------------------

    def _is_site_up(self, site: int) -> bool:
        return self._site_up[site]

    def _reachable(self, a: int, b: int) -> bool:
        """Could a message from ``a`` reach ``b`` right now?

        Oracle approximation of "would further retries eventually
        succeed": both endpoints up and no partition severing the pair."""
        if not (self._site_up[a] and self._site_up[b]):
            return False
        now = self.sim.now
        return not any(p.severs(a, b, now)
                       for p in self.network.partitions)

    def _note_heard(self, dst: int, src: int) -> None:
        """Any delivered message doubles as a liveness signal."""
        self._last_heard[dst][src] = self.sim.now

    def _admission_open(self, site: int) -> bool:
        """May ``site`` admit another home transaction right now?"""
        if not self._site_up[site]:
            return False
        if (self.params.degraded_admission and self._degraded[site]
                and self.site_views[site].tracker.n_active
                >= self.params.safe_mode_mpl):
            return False
        return True

    def _heartbeat(self, site: int) -> None:
        """Self-chaining per-site heartbeat + suspect check."""
        if self._site_up[site]:
            for other in range(self.params.num_sites):
                if other != site:
                    self.network.send(site, other,
                                      self._heartbeat_noop)
            self._check_suspects(site)
        self.sim.schedule(self.params.heartbeat_interval,
                          self._heartbeat, site)

    def _heartbeat_noop(self) -> None:
        """Heartbeat payload: delivery itself (``_note_heard``) is the
        signal."""

    def _check_suspects(self, site: int) -> None:
        now = self.sim.now
        heard = self._last_heard[site]
        degraded = any(
            now - heard[other] > self.params.suspect_after
            for other in range(self.params.num_sites) if other != site)
        if degraded == self._degraded[site]:
            return
        self._degraded[site] = degraded
        if degraded:
            self._log_site_event(site, "degraded_enter",
                                 measure=float(self.params.safe_mode_mpl))
        else:
            self._log_site_event(site, "degraded_exit")
            # Re-present the backlog: each queued transaction goes back
            # through _arrival so the controller rules on it normally.
            view = self.site_views[site]
            backlog = []
            while True:
                queued = view.ready_queue.pop()
                if queued is None:
                    break
                backlog.append(queued)
            for txn in backlog:
                self._arrival(txn)

    def _partition_event(self, part, begin: bool) -> None:
        self._log_site_event(
            None, "partition_begin" if begin else "partition_end",
            detail=str(part))

    def _crash_site(self, site: int) -> None:
        """The site loses all volatile state: see the module docstring
        for the crash semantics this implements."""
        if not self._site_up[site]:
            raise SimulationError(f"site {site} crashed while down")
        self._site_up[site] = False
        self._log_site_event(site, "site_crash")
        indoubt_here = self._indoubt[site]
        table = self.sites[site].lock_table
        active = sorted(self.tracker.active_transactions(),
                        key=lambda t: t.txn_id)
        # Pass 1: abort everything waiting at the crashed site, so the
        # lock releases of pass 2 cannot grant work to a dead site.
        for txn in active:
            if self.waiting_site.get(txn) == site:
                self.abort_transaction(txn, AbortReason.SITE_CRASH)
        # Pass 2: holders and home transactions.
        for txn in active:
            if not self.tracker.is_active(txn):
                continue        # aborted in pass 1
            if txn.txn_id in indoubt_here:
                continue        # prepared: locks survive the crash
            home = self._home[txn]
            held_here = bool(table.held_pages(txn))
            if home != site and not held_here:
                continue        # uninvolved (in-flight exchanges to
                #                 this site time out on their own)
            if txn in self._twopc:
                # A coordinator holds no volatile 2PC state across a
                # crash of any site it depends on: tear the attempt
                # down *without* a durable decision — participants
                # presume abort.  (Its own crash is the canonical case;
                # losing plain locks here forces the same abort.)
                rec = self._twopc.pop(txn)
                for call in rec.calls.values():
                    call.settle()
                self.abort_transaction(txn, AbortReason.SITE_CRASH)
                continue
            if txn in self.waiting_site:
                # Waiting (at another site) with state lost here: no
                # continuation is pending, so abort immediately.
                self.abort_transaction(txn, AbortReason.SITE_CRASH)
                continue
            # Running somewhere: flag for abort at the next checkpoint
            # (the wounded-flag discipline), but the crashed site's
            # locks vanish now.
            txn.doomed = AbortReason.SITE_CRASH
            if held_here:
                grants = table.release_all(txn)
                self._process_grants(site, grants)

    def _recover_site(self, site: int) -> None:
        if self._site_up[site]:
            raise SimulationError(f"site {site} recovered while up")
        self._site_up[site] = True
        now = self.sim.now
        # Fresh liveness grace period, so the recovered site does not
        # instantly suspect everyone it could not hear while down.
        self._last_heard[site] = [now] * self.params.num_sites
        self._log_site_event(site, "site_recover")
        # Resolve residual in-doubt entries from the durable decision
        # record (recovery-time inquiry); entries whose coordinator is
        # alive but undecided stay held — their timer keeps checking.
        for txn_id in sorted(self._indoubt[site]):
            rec = self._indoubt[site][txn_id]
            decision = self.decision_record.get(txn_id)
            if decision is None and rec.txn in self._twopc:
                continue
            self._resolve_indoubt_entry(
                site, txn_id,
                decision if decision is not None else "abort",
                "recovery")
        # Doomed home transactions whose reliable exchange settled
        # silently while the site was down are stuck: nothing will ever
        # fire for them again, so abort them now.
        stuck = sorted(
            (txn for txn in self.tracker.active_transactions()
             if self._home.get(txn) == site and txn.doomed is not None),
            key=lambda t: t.txn_id)
        for txn in stuck:
            op = self._inflight.get(txn)
            if op is not None and op.call.settled:
                self.abort_transaction(txn, txn.doomed)
        # Replay parked restarts and terminals.
        for txn in self._parked_txns.pop(site, []):
            self.sim.schedule(self.params.effective_restart_delay,
                              self._arrival, txn)
        for terminal_id in self._parked_terminals.pop(site, []):
            delay = self.streams.exponential("think_time",
                                             self.params.think_time)
            self.sim.schedule(delay, self._terminal_submits, terminal_id)

    def _log_site_event(self, site: Optional[int], action: str,
                        txn_id: Optional[int] = None,
                        measure: Optional[float] = None,
                        detail: str = "") -> None:
        """Record a system-level failure event in the decision log,
        attributed to the pseudo-controller ``siteN`` (or ``network``)."""
        log = self.decision_log
        if log is None:
            return
        if site is None:
            label, n_active = "network", self.tracker.n_active
        else:
            label = f"site{site}"
            n_active = self.site_views[site].tracker.n_active
        log.add(time=self.sim.now, controller=label, action=action,
                n_active=n_active, txn_id=txn_id, measure=measure,
                detail=detail)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def remote_fraction(self) -> float:
        total = self.remote_accesses + self.local_accesses
        return self.remote_accesses / total if total else 0.0

    def site_stats(self) -> List[dict]:
        """Per-site utilization and lock-manager statistics."""
        elapsed = self.sim.now
        stats = []
        for site, view in zip(self.sites, self.site_views):
            row = {
                "site": site.site_id,
                "cpu_utilization": site.cpu.utilization(elapsed),
                "disk_utilization": site.disks.utilization(elapsed),
                "lock_requests": site.lock_table.requests,
                "lock_blocks": site.lock_table.blocks,
                "home_active": view.tracker.n_active,
                "home_ready": len(view.ready_queue),
                "home_commits": self.site_commits[site.site_id],
            }
            if self.failure_mode:
                row["up"] = self._site_up[site.site_id]
                row["degraded"] = self._degraded[site.site_id]
                row["in_doubt"] = len(self._indoubt[site.site_id])
            stats.append(row)
        return stats

    def check_invariants(self) -> None:
        """Raise :class:`~repro.errors.InvariantViolation` if the
        cluster's state is inconsistent.

        Beyond each site's lock table and every tracker, checked
        invariants (by name):

        * ``site_population_partition`` — the site trackers partition
          the global active set;
        * ``blocked_flag_sync`` — a transaction is in the waiting map
          exactly when its blocked flag is set;

        and in failure mode:

        * ``lock_owner_live`` — every lock belongs to an active or an
          in-doubt (prepared) transaction;
        * ``down_site_prepared_only`` — a down site holds only in-doubt
          locks;
        * ``limbo_indoubt_backed`` — every limbo transaction names at
          least one site, each holding an in-doubt entry for it.

        Real exceptions, not ``assert``: the checks hold under
        ``python -O`` too.
        """
        def violate(invariant: str, message: str, **evidence) -> None:
            raise InvariantViolation(message, invariant=invariant,
                                     sim_time=self.sim.now,
                                     evidence=evidence)

        for site in self.sites:
            site.lock_table.check_invariants()
        self.tracker.check_invariants()
        for view in self.site_views:
            view.tracker.check_invariants()
        total = sum(v.tracker.n_active for v in self.site_views)
        if total != self.tracker.n_active:
            violate("site_population_partition",
                    f"site trackers hold {total} active transactions, "
                    f"the global tracker {self.tracker.n_active}",
                    site_active=total, n_active=self.tracker.n_active)
        for txn in self.tracker.active_transactions():
            waiting = txn in self.waiting_site
            if waiting != txn.is_blocked:
                violate("blocked_flag_sync",
                        f"{txn!r}: blocked flag {txn.is_blocked}, "
                        f"waiting map {waiting}",
                        txn_id=txn.txn_id, is_blocked=txn.is_blocked,
                        waiting=waiting)
        if not self.failure_mode:
            return
        for site in self.sites:
            indoubt = self._indoubt[site.site_id]
            for page in site.lock_table.locked_pages():
                for holder in site.lock_table.holders(page):
                    if not (self.tracker.is_active(holder)
                            or holder.txn_id in indoubt):
                        violate("lock_owner_live",
                                f"site {site.site_id} page {page}: lock "
                                f"held by {holder!r}, neither active "
                                f"nor in-doubt",
                                site=site.site_id, page=page,
                                txn_id=holder.txn_id)
            if not self._site_up[site.site_id]:
                for page in site.lock_table.locked_pages():
                    for holder in site.lock_table.holders(page):
                        if holder.txn_id not in indoubt:
                            violate("down_site_prepared_only",
                                    f"down site {site.site_id} holds a "
                                    f"non-in-doubt lock for {holder!r}",
                                    site=site.site_id, page=page,
                                    txn_id=holder.txn_id)
        for txn, sites_left in self._limbo.items():
            if not sites_left:
                violate("limbo_indoubt_backed",
                        f"{txn!r} in limbo with no sites left",
                        txn_id=txn.txn_id)
            for p in sites_left:
                if txn.txn_id not in self._indoubt[p]:
                    violate("limbo_indoubt_backed",
                            f"{txn!r} limbo references site {p} without "
                            f"an in-doubt entry",
                            txn_id=txn.txn_id, site=p)
