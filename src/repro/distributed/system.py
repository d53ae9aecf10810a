"""The distributed DBMS model: multiple sites, one simulation.

Model summary (extensions of the paper's Section 3 model; each choice
is documented where it is implemented):

* The database is range-partitioned across ``num_sites`` sites; every
  site owns a CPU pool, a disk array, a ``buf_size``-page buffer pool
  and a lock table for its pages.
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

One lifecycle: :class:`DistributedSystem` is a
:class:`repro.dbms.system.DBMSSystem` and runs its state machine, with
a page→site table over the range partition.  It adds only what
placement and transport change: the two seams (``_go_to_owner``,
``_reply_home``), home-site controllers and trackers, the commit
protocol, and the failure layer below.

Simplifications versus a production distributed DBMS, all noted here:
the network is pure delay (no bandwidth or queueing), abort/release
messages for aborts are instantaneous, deferred-write acknowledgements
are not modelled, and the 2PC vote collection is collapsed into a
single round-trip delay.

**Failure-realistic mode** (``params.failure_model`` or an installed
:class:`repro.distributed.failures.SiteFaultPlan`) replaces the
pure-delay transport and the collapsed commit with the real machinery:

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
the run's event calendar is byte-identical to the pure-delay model
above — the same zero-cost-off contract as telemetry and verify.
"""

from __future__ import annotations

from itertools import chain
from typing import (TYPE_CHECKING, Any, Callable, Collection, Dict,
                    Iterator, List, Optional, Set)

from repro.core.maturity import MaturityRule
from repro.core.state_tracker import StateTracker
from repro.dbms.ready_queue import ReadyQueue
from repro.dbms.system import DBMSSystem, SiteWork, equip_site
from repro.dbms.transaction import Transaction, TxnPhase
from repro.distributed.config import DistributedParameters
from repro.distributed.controllers import PerSiteControllerSet
from repro.distributed.failures import SiteFaultPlan
from repro.distributed.network import Network, ReliableCall
from repro.distributed.partition import RangePartition
from repro.distributed.workload import DistributedWorkload
from repro.errors import (ConfigurationError, InvariantViolation,
                          SimulationError)
from repro.lockmgr.lock_table import LockTable
from repro.lockmgr.modes import LockMode
from repro.lockmgr.prevention import DeadlockStrategy
from repro.metrics.collector import AbortReason, Collector
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - imported where rows are built
    from repro.telemetry.sites import SiteProbeSample

__all__ = ["DistributedSystem"]


class _Site:
    """One site's hardware, buffer pool and lock manager."""

    __slots__ = ("site_id", "cpu", "disks", "buffer", "lock_table")

    def __init__(self, site_id: int, sim: Simulator,
                 params: DistributedParameters):
        self.site_id = site_id
        equip_site(self, sim, params)


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
    """One remote visit in flight (failure mode only): ``work`` runs at
    the owning ``site``, ``resume`` at home once the reply arrives.

    Identity is the guard: retransmitted requests and late replies
    carry the op object itself, and handlers ignore anything that is
    not the transaction's *current* op."""

    __slots__ = ("txn", "home", "site", "page", "work", "resume", "call",
                 "started", "replied")

    def __init__(self, txn: Transaction, home: int, site: _Site, page: int,
                 work: SiteWork):
        self.txn = txn
        self.home = home                # the transaction's home site id
        self.site = site
        self.page = page
        self.work = work
        self.resume: Optional[Callable[[Transaction], None]] = None
        self.call: ReliableCall = None  # type: ignore[assignment]
        self.started = False            # work began at the owner
        self.replied = False            # owner sent the reply


class _GlobalLockView:
    """Union view over all site lock tables: the query surface deadlock
    handling, the controllers and the observers call on
    ``system.lock_table``.

    A transaction waits for at most one lock: the one on its current
    page, at that page's owning site.  Wait queries go there, page
    queries go to the page's owner, and the rest take the union over
    sites, in site order.
    """

    def __init__(self, sites: List[_Site], site_of: List[_Site]):
        self._sites = sites
        self._site_of = site_of

    def waiting_site(self, txn: Transaction) -> Optional[_Site]:
        """The site where ``txn`` waits for a lock, or None."""
        readset = txn.readset
        if txn.step_index < len(readset):
            site = self._site_of[readset[txn.step_index]]
            if site.lock_table.is_waiting(txn):
                return site
        return None

    # is_waiting and blocking_order run per deadlock-detection step:
    # they go to the current page's owner without waiting_site's frame.

    def is_waiting(self, txn: Transaction) -> bool:
        readset, step = txn.readset, txn.step_index
        return (step < len(readset)
                and self._site_of[readset[step]].lock_table.is_waiting(txn))

    def waiting_on(self, txn: Transaction) -> Optional[int]:
        site = self.waiting_site(txn)
        return None if site is None else site.lock_table.waiting_on(txn)

    def blocking_order(self, txn: Transaction) -> List[Transaction]:
        # The owner's table answers [] for a transaction not waiting.
        readset, step = txn.readset, txn.step_index
        if step < len(readset):
            return self._site_of[readset[step]].lock_table.blocking_order(
                txn)
        return []

    def blocking_set(self, txn: Transaction) -> Set[Transaction]:
        site = self.waiting_site(txn)
        if site is None:
            return set()
        return site.lock_table.blocking_set(txn)

    # The walk follows first blockers through blocking_order above, so
    # a chain crosses sites.
    wait_chain_depth = LockTable.wait_chain_depth

    def waiting_transactions(self) -> List[Transaction]:
        return [txn for site in self._sites
                for txn in site.lock_table.waiting_transactions()]

    # The per-event queries below loop rather than feed any()/sum() a
    # generator that resumes once per site.

    def is_blocking_others(self, txn: Transaction) -> bool:
        # A transaction holds locks only on its readset's pages: ask
        # their owners, each once (one bit per site asked).
        site_of = self._site_of
        asked = 0
        for page in txn.readset:
            site = site_of[page]
            bit = 1 << site.site_id
            if not asked & bit:
                if site.lock_table.is_blocking_others(txn):
                    return True
                asked |= bit
        return False

    def num_held(self, txn: Transaction) -> int:
        held = 0
        for site in self._sites:
            held += site.lock_table.num_held(txn)
        return held

    def held_pages(self, txn: Transaction) -> Set[int]:
        return set().union(*(site.lock_table.held_pages(txn)
                             for site in self._sites))

    def locked_pages(self) -> List[int]:
        return [page for site in self._sites
                for page in site.lock_table.locked_pages()]

    def holders(self, page: int) -> Dict[Transaction, LockMode]:
        return self._site_of[page].lock_table.holders(page)

    def holder_modes(self, page: int) -> Collection[LockMode]:
        return self._site_of[page].lock_table.holder_modes(page)

    def num_waiters(self, page: int) -> int:
        return self._site_of[page].lock_table.num_waiters(page)

    def dump(self) -> Dict[str, Any]:
        """Every site's :meth:`LockTable.dump`, in site order."""
        return {"sites": [site.lock_table.dump() for site in self._sites]}

    def check_invariants(self) -> None:
        for site in self._sites:
            site.lock_table.check_invariants()


class _ClusterTracker(StateTracker):
    """The cluster-wide tracker, which feeds the collector.  Each
    transition also moves the transaction in its home site's tracker,
    which that site's controller reads."""

    def __init__(self, collector: Collector,
                 by_terminal: List[StateTracker]):
        super().__init__(collector)
        self._by_terminal = by_terminal     # home tracker per terminal

    def add(self, txn: Transaction, now: float) -> None:
        super().add(txn, now)
        self._by_terminal[txn.terminal_id].add(txn, now)

    def remove(self, txn: Transaction, now: float) -> None:
        self._by_terminal[txn.terminal_id].remove(txn, now)
        super().remove(txn, now)

    # Each move below is one step between two buckets, as in
    # StateTracker; the home tracker moves its own buckets and flips the
    # transaction's flag.

    def set_blocked(self, txn: Transaction, blocked: bool,
                    now: float) -> None:
        if txn not in self._active:
            raise self._not_active(txn, now)
        if txn.is_blocked == blocked:
            return
        self._by_terminal[txn.terminal_id].set_blocked(txn, blocked, now)
        if txn.is_mature:
            if blocked:
                self.n_state1 -= 1
                self.n_state3 += 1
            else:
                self.n_state3 -= 1
                self.n_state1 += 1
        elif blocked:
            self.n_state2 -= 1
            self.n_state4 += 1
        else:
            self.n_state4 -= 1
            self.n_state2 += 1
        self._collector.set_populations(
            now, self.n_active, self.n_state1, self.n_state2,
            self.n_state3, self.n_state4)

    def set_mature(self, txn: Transaction, now: float) -> None:
        if txn not in self._active:
            raise self._not_active(txn, now)
        if txn.is_mature:
            return
        self._by_terminal[txn.terminal_id].set_mature(txn, now)
        if txn.is_blocked:
            self.n_state4 -= 1
            self.n_state3 += 1
        else:
            self.n_state2 -= 1
            self.n_state1 += 1
        self._collector.set_populations(
            now, self.n_active, self.n_state1, self.n_state2,
            self.n_state3, self.n_state4)


class _ClusterReadyQueue:
    """The home sites' ready queues as one: a push goes to the
    transaction's home queue, the length is the cluster total, iteration
    runs through the queues in site order, and an ``observer`` is every
    home queue's."""

    def __init__(self, by_terminal: List[ReadyQueue],
                 queues: List[ReadyQueue]):
        self._by_terminal = by_terminal     # home queue per terminal
        self._queues = queues

    def push(self, txn: Transaction) -> None:
        self._by_terminal[txn.terminal_id].push(txn)

    def __len__(self) -> int:
        # Runs at every admission and queueing: a loop, not sum() over a
        # generator that resumes once per site.
        length = 0
        for queue in self._queues:
            length += len(queue)
        return length

    def __iter__(self) -> Iterator[Transaction]:
        return chain.from_iterable(self._queues)

    @property
    def observer(self):
        return self._queues[0].observer

    @observer.setter
    def observer(self, observer) -> None:
        for queue in self._queues:
            queue.observer = observer


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
        # An empty queue answers first, as in DBMSSystem.try_admit_one.
        if not self.ready_queue._queue:
            return False
        system = self._system
        if system.failure_mode and not system._admission_open(
                self.site_id):
            return False
        return system._admit_from(self.ready_queue)

    def abort_transaction(self, txn: Transaction, reason: str) -> None:
        self._system.abort_transaction(txn, reason)


class DistributedSystem(DBMSSystem):
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
        streams = (streams if streams is not None
                   else RandomStreams(params.seed))
        self.partition = RangePartition(params.db_size, params.num_sites)
        if workload is None:
            workload = DistributedWorkload(streams, params, self.partition)
        # Each terminal's home site, where its transactions are homed.
        self.terminal_home = [workload.home_site_of_terminal(t)
                              for t in range(params.num_terms)]
        self.controllers = controllers
        self.failure_mode = params.failure_model or bool(fault_plan)
        super().__init__(params, controllers, workload=workload,
                         maturity_rule=maturity_rule, collector=collector,
                         sim=sim, streams=streams,
                         admission_order=admission_order,
                         deadlock_strategy=deadlock_strategy)
        self.remote_accesses = 0
        self.local_accesses = 0
        # Cumulative commits by home site (per-site telemetry series).
        self.site_commits = [0] * params.num_sites
        # ---- failure-realistic layer (zero-cost when off) ----
        self.fault_plan = fault_plan
        self._site_up = [True] * params.num_sites
        self._degraded = [False] * params.num_sites
        # _last_heard[i][j]: when site i last received anything from j.
        # The network stamps it at each delivery: any delivered message
        # doubles as a liveness signal.
        self._last_heard = [[0.0] * params.num_sites
                            for _ in range(params.num_sites)]
        self.network = Network(self.sim, self.streams, params,
                               self.failure_mode, self._site_up,
                               self._last_heard)
        # Per-site prepared participants: txn_id -> the transaction
        # whose locks there stay frozen until the coordinator's decision
        # arrives (or the presumed-abort timer resolves them).
        self._indoubt: List[Dict[int, Transaction]] = [
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
        if self.failure_mode:
            self._work_guard = self._work_is_current
        if fault_plan:
            fault_plan.install(self)

    def _build_sites(self) -> None:
        params = self.params
        self._sites = [_Site(i, self.sim, params)
                       for i in range(params.num_sites)]
        self._site_of = [self._sites[self.partition.site_of(page)]
                         for page in range(params.db_size)]
        # Deadlock handling, controller victim queries and the observers
        # see the union.
        self.lock_table = self.global_locks = _GlobalLockView(
            self._sites, self._site_of)
        self.site_views = [_SiteView(self, i)
                           for i in range(params.num_sites)]
        views = [self.site_views[home] for home in self.terminal_home]
        self.tracker = _ClusterTracker(
            self.collector, [view.tracker for view in views])
        self.ready_queue = _ClusterReadyQueue(
            [view.ready_queue for view in views],
            [view.ready_queue for view in self.site_views])

    @property
    def sites(self) -> List[_Site]:
        return self._sites

    def home_of(self, txn: Transaction) -> int:
        return self.terminal_home[txn.terminal_id]

    # ------------------------------------------------------------------
    # Startup and arrivals (failure mode: dark sites park their work)
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Schedule the first arrivals (and, in failure mode, beats)."""
        super().start()
        if self.failure_mode:
            for site_id in range(self.params.num_sites):
                self.sim.post(self.params.heartbeat_interval,
                              self._heartbeat, site_id)

    def _terminal_submits(self, terminal_id: int) -> None:
        home = self.terminal_home[terminal_id]
        if self.failure_mode and not self._site_up[home]:
            # The terminal's site is dark: nothing to submit to.
            # Parked before the transaction is generated, so the
            # workload stream is not consumed for it.
            self._parked_terminals.setdefault(home, []).append(
                terminal_id)
            return
        super()._terminal_submits(terminal_id)

    def _arrival(self, txn: Transaction) -> None:
        if self.failure_mode:
            home = self.terminal_home[txn.terminal_id]
            if not self._site_up[home]:
                self._parked_txns.setdefault(home, []).append(txn)
                return
            if not self._admission_open(home):
                # Safe-mode clamp: queue without consulting the
                # controller; drained (re-presented) at DEGRADED_EXIT.
                self.ready_queue.push(txn)
                self.collector.set_ready_queue_length(
                    self.sim.now, len(self.ready_queue))
                return
        super()._arrival(txn)

    # ------------------------------------------------------------------
    # Transport seams
    # ------------------------------------------------------------------

    def _go_to_owner(self, txn: Transaction, page: int, site: _Site,
                     work: SiteWork) -> None:
        home = self.terminal_home[txn.terminal_id]
        remote = site.site_id != home
        if txn.phase is TxnPhase.EXECUTING:
            # Readset pages count as accesses; deferred writes do not.
            if remote:
                self.remote_accesses += 1
            else:
                self.local_accesses += 1
        if remote and self.failure_mode:
            self._begin_remote_op(txn, home, page, site, work)
        else:
            self.network.send(home, site.site_id, work, txn, page, site)

    def _reply_home(self, txn: Transaction, site: _Site,
                    next_step: Callable[[Transaction], None]) -> None:
        home = self.terminal_home[txn.terminal_id]
        if site.site_id == home:
            next_step(txn)
        elif self.failure_mode:
            op = self._inflight[txn]
            op.replied = True
            op.resume = next_step
            self._send_reply(op)
        elif txn.phase is TxnPhase.UPDATING:
            # A deferred write's acknowledgement is not modelled on the
            # pure-delay network: home issues the next write at once.
            next_step(txn)
        else:
            self.network.send(site.site_id, home, next_step, txn)

    # ------------------------------------------------------------------
    # Distributed commit and lock release
    # ------------------------------------------------------------------

    def _commit(self, txn: Transaction) -> None:
        """Commit, after a prepare round if other sites hold locks."""
        # Read-only transactions too: wound-wait spares them from here.
        txn.phase = TxnPhase.UPDATING
        home = self.terminal_home[txn.terminal_id]
        remote = [site.site_id for site in self._sites
                  if site.site_id != home
                  and site.lock_table.num_held(txn)]
        if remote and self.failure_mode:
            # Real 2PC, always — regardless of ``two_phase_commit``:
            # the collapsed round-trip cannot express in-doubt
            # blocking, which is the point of the failure model.
            self._begin_two_pc(txn, home, remote)
        elif remote and self.params.two_phase_commit:
            # Prepare round: one round trip to the farthest participant
            # (messages travel in parallel).
            self.sim.post(2.0 * self.params.msg_delay,
                          self._commit_point, txn)
        else:
            self._commit_point(txn)

    def _commit_point(self, txn: Transaction) -> None:
        self.site_commits[self.terminal_home[txn.terminal_id]] += 1
        super()._commit(txn)

    def _release_locks(self, txn: Transaction) -> None:
        if txn.phase is TxnPhase.COMMITTED:
            home = self.terminal_home[txn.terminal_id]
            if self.failure_mode:
                # Home locks release now; a prepared participant's when
                # the decision reaches it.
                self._release_at(txn, home)
                self._send_decisions(txn)
                return
            for site in self._sites:
                if site.site_id == home:
                    self._release_at(txn, home)
                elif site.lock_table.num_held(txn):
                    # The commit decision travels to the participant.
                    self.sim.post(self.params.msg_delay,
                                  self._release_at, txn, site.site_id)
            return
        # Abort: cancel the wait, then release every site's locks but a
        # prepared participant's, which stay frozen until the decision
        # (or presumed abort) resolves them.
        site = self.global_locks.waiting_site(txn)
        if site is not None:
            self._process_grants(site.lock_table.cancel_wait(txn), site)
        for site in self._sites:
            if not (self.failure_mode
                    and txn.txn_id in self._indoubt[site.site_id]):
                self._release_at(txn, site.site_id)

    def _release_at(self, txn: Transaction, site_id: int) -> None:
        site = self._sites[site_id]
        self._process_grants(site.lock_table.release_all(txn), site)

    # ------------------------------------------------------------------
    # Real 2PC (failure mode)
    # ------------------------------------------------------------------

    def _begin_two_pc(self, txn: Transaction, home: int,
                      remote: List[int]) -> None:
        rec = _TwoPC(remote, gen=txn.restarts)
        self._twopc[txn] = rec
        for p in remote:
            self._send_prepare(txn, home, p, rec)

    def _send_prepare(self, txn: Transaction, home: int, p: int,
                      rec: _TwoPC) -> None:
        rec.calls[p] = self.network.call(
            home, p, self._prepare_at, txn, p, rec.gen,
            on_fail=lambda: self._prepare_failed(txn, p))

    def _prepare_at(self, txn: Transaction, p: int, gen: int) -> None:
        """PREPARE arrives at participant ``p`` (idempotent)."""
        rec = self._twopc.get(txn)
        if rec is None or rec.gen != gen:
            return              # stale: the attempt was already decided
        home = self.terminal_home[txn.terminal_id]
        if txn.txn_id in self._indoubt[p]:
            # Duplicate prepare: the vote was lost; vote again.
            self.network.send(p, home, self._vote_at, txn, p, gen)
            return
        self._indoubt[p][txn.txn_id] = txn
        self._log_site_event(p, "indoubt_hold", txn_id=txn.txn_id)
        self.sim.post(self.params.indoubt_timeout,
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
        home = self.home_of(txn)
        if self._reachable(home, p):
            # The participant is reachable (the votes were lost or the
            # site is merely slow): keep asking rather than aborting a
            # finished transaction's work.
            self._send_prepare(txn, home, p, rec)
            return
        self._decide(txn, "abort")

    def _decide(self, txn: Transaction, decision: str) -> None:
        """The coordinator reaches (and durably records) a decision."""
        rec = self._twopc.pop(txn, None)
        if rec is None:
            return
        for call in rec.calls.values():
            call.settle()
        txn_id, indoubt = txn.txn_id, self._indoubt
        waiters = 0
        for p in rec.participants:
            if txn_id in indoubt[p]:
                waiters += 1
        if waiters:
            # The record is the durable log entry the presumed-abort
            # timer consults; garbage-collected once every in-doubt
            # participant has resolved.
            self.decision_record[txn_id] = decision
            self._decision_waiters[txn_id] = waiters
        if decision == "commit":
            self._commit_point(txn)
        else:
            self._send_decisions(txn)
            self.abort_transaction(txn, AbortReason.REMOTE_TIMEOUT)

    def _send_decisions(self, txn: Transaction) -> None:
        # Best-effort notification of every prepared participant; the
        # in-doubt timer is the guaranteed fallback.
        home = self.terminal_home[txn.terminal_id]
        for p, indoubt in enumerate(self._indoubt):
            if txn.txn_id in indoubt:
                self.network.send(home, p, self._decision_at,
                                  p, txn.txn_id)

    def _decision_at(self, p: int, txn_id: int) -> None:
        """A decision message arrives at a prepared participant."""
        decision = self.decision_record.get(txn_id, "abort")
        self._resolve_indoubt_entry(p, txn_id, decision, "decision")

    def _resolve_indoubt_entry(self, p: int, txn_id: int,
                               decision: str, source: str) -> None:
        txn = self._indoubt[p].pop(txn_id, None)
        if txn is None:
            return              # duplicate decision / already resolved
        self._release_at(txn, p)
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
            sites_left = self._limbo.get(txn)
            if sites_left is not None:
                sites_left.discard(p)
                if not sites_left:
                    del self._limbo[txn]
                    self._schedule_restart(txn)

    def _indoubt_timer(self, p: int, txn_id: int) -> None:
        """Periodic in-doubt resolution check at participant ``p``.

        Reads the coordinator's durable decision record directly — an
        oracle stand-in for a recovery-time inquiry message.  Presumes
        abort only once the coordinator demonstrably holds no volatile
        state for the attempt (its 2PC record is gone without a
        decision, i.e. it crashed before deciding)."""
        txn = self._indoubt[p].get(txn_id)
        if txn is None:
            return
        decision = self.decision_record.get(txn_id)
        if not self._site_up[p] or (decision is None
                                    and txn in self._twopc):
            # A down site can act on nothing (recovery resolves its
            # residual entries, or this timer does, after it); a live,
            # undecided coordinator is waited for.
            self.sim.post(self.params.indoubt_timeout,
                          self._indoubt_timer, p, txn_id)
            return
        self._resolve_indoubt_entry(
            p, txn_id, decision if decision is not None else "abort",
            "timer" if decision is not None else "presumed-abort")

    # ------------------------------------------------------------------
    # Remote page/write exchanges (failure mode)
    # ------------------------------------------------------------------

    def _begin_remote_op(self, txn: Transaction, home: int, page: int,
                         site: _Site, work: SiteWork) -> None:
        op = _RemoteOp(txn, home, site, page, work)
        self._inflight[txn] = op
        self._call_owner(op)

    def _call_owner(self, op: _RemoteOp) -> None:
        op.call = self.network.call(
            op.home, op.site.site_id, self._remote_op_request,
            op, on_fail=lambda: self._remote_op_failed(op))

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
        op.work(op.txn, op.page, op.site)

    def _send_reply(self, op: _RemoteOp) -> None:
        self.network.send(op.site.site_id, op.home,
                          self._remote_op_reply, op)

    def _remote_op_reply(self, op: _RemoteOp) -> None:
        """The reply arrives at the home site: continue execution."""
        if self._inflight.get(op.txn) is not op:
            return
        op.call.settle()
        del self._inflight[op.txn]
        op.resume(op.txn)

    def _remote_op_failed(self, op: _RemoteOp) -> None:
        """The exchange ran out of retries."""
        if self._inflight.get(op.txn) is not op:
            return
        if self._reachable(op.home, op.site.site_id):
            # The owner is reachable — the work is simply outstanding
            # (a long lock wait, a deep disk queue, or lost replies).
            # Re-arm rather than abort: retransmitted requests are
            # absorbed by the idempotency guards above.
            self._call_owner(op)
            return
        del self._inflight[op.txn]
        self.abort_transaction(
            op.txn, op.txn.doomed if op.txn.doomed is not None
            else AbortReason.REMOTE_TIMEOUT)

    def _work_is_current(self, txn: Transaction, site: _Site) -> bool:
        """Is this completion callback the transaction's live work?  Not
        if its visit was torn down or the transaction committed."""
        if txn.phase is TxnPhase.COMMITTED:
            return False
        # Membership and subscript, not dict.get: this runs at every
        # lock request, page read and write.
        inflight = self._inflight
        if site.site_id == self.terminal_home[txn.terminal_id]:
            return txn not in inflight
        if txn not in inflight:
            return False
        op = inflight[txn]
        return op.site is site and op.started and not op.replied

    # ------------------------------------------------------------------
    # Aborts
    # ------------------------------------------------------------------

    def abort_transaction(self, txn: Transaction, reason: str) -> None:
        """Abort ``txn`` (see :meth:`DBMSSystem.abort_transaction`).  In
        failure mode its remote visit and 2PC attempt are settled first,
        and its restart waits for its in-doubt locks."""
        if self.failure_mode:
            op = self._inflight.pop(txn, None)
            if op is not None:
                op.call.settle()
            rec = self._twopc.pop(txn, None)
            if rec is not None:
                for call in rec.calls.values():
                    call.settle()
        super().abort_transaction(txn, reason)

    def _schedule_restart(self, txn: Transaction) -> None:
        if self.failure_mode:
            indoubt = {p for p, entries in enumerate(self._indoubt)
                       if txn.txn_id in entries}
            if indoubt:
                # Restart is deferred until every in-doubt entry
                # resolves (see _resolve_indoubt_entry), so the next
                # incarnation can never collide with this one's frozen
                # locks.
                self._limbo[txn] = indoubt
                return
            home = self.home_of(txn)
            if not self._site_up[home]:
                self._parked_txns.setdefault(home, []).append(txn)
                return
        super()._schedule_restart(txn)

    # ------------------------------------------------------------------
    # Site liveness, crashes, recovery, degraded mode (failure mode)
    # ------------------------------------------------------------------

    def _reachable(self, a: int, b: int) -> bool:
        """Could a message from ``a`` reach ``b`` right now?

        Oracle approximation of "would further retries eventually
        succeed": both endpoints up and no partition severing the pair."""
        if not (self._site_up[a] and self._site_up[b]):
            return False
        now = self.sim.now
        return not any(p.severs(a, b, now)
                       for p in self.network.partitions)

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
        self.sim.post(self.params.heartbeat_interval,
                      self._heartbeat, site)

    def _heartbeat_noop(self) -> None:
        """Heartbeat payload: delivery itself (the network's
        ``last_heard`` stamp) is the signal."""

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
            queue = self.site_views[site].ready_queue
            for txn in list(iter(queue.pop, None)):
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
        crashed = self._sites[site]
        active = sorted(self.tracker.active_transactions(),
                        key=lambda t: t.txn_id)
        # Pass 1: abort everything waiting at the crashed site, so the
        # lock releases of pass 2 cannot grant work to a dead site.
        for txn in active:
            if self.global_locks.waiting_site(txn) is crashed:
                self.abort_transaction(txn, AbortReason.SITE_CRASH)
        # Pass 2: holders and home transactions.
        for txn in active:
            if not self.tracker.is_active(txn):
                continue        # aborted in pass 1
            if txn.txn_id in indoubt_here:
                continue        # prepared: locks survive the crash
            held_here = bool(crashed.lock_table.num_held(txn))
            if self.home_of(txn) != site and not held_here:
                continue        # uninvolved (in-flight exchanges to
                #                 this site time out on their own)
            if txn in self._twopc or self.global_locks.is_waiting(txn):
                # A coordinator holds no volatile 2PC state across a
                # crash of any site it depends on: the attempt ends
                # *without* a durable decision — participants presume
                # abort.  (Its own crash is the canonical case; losing
                # plain locks here forces the same abort.)  A waiter
                # (at another site) has no continuation pending.
                self.abort_transaction(txn, AbortReason.SITE_CRASH)
                continue
            # Running somewhere: flag for abort at the next checkpoint
            # (the kill-flag discipline), but the crashed site's
            # locks vanish now.
            txn.doom(AbortReason.SITE_CRASH)
            if held_here:
                self._release_at(txn, site)

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
        for txn_id, txn in sorted(self._indoubt[site].items()):
            decision = self.decision_record.get(txn_id)
            if decision is None and txn in self._twopc:
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
             if self.home_of(txn) == site and txn.doomed is not None),
            key=lambda t: t.txn_id)
        for txn in stuck:
            op = self._inflight.get(txn)
            if op is not None and op.call.settled:
                self.abort_transaction(txn, txn.doomed)
        # Replay parked restarts and terminals.
        for txn in self._parked_txns.pop(site, []):
            self._schedule_restart(txn)
        for terminal_id in self._parked_terminals.pop(site, []):
            self.sim.post(self._think_delay(),
                          self._terminal_submits, terminal_id)

    def _log_site_event(self, site: Optional[int], action: str,
                        txn_id: Optional[int] = None,
                        measure: Optional[float] = None,
                        detail: str = "") -> None:
        """Record a system-level failure event in the controllers'
        decision log, attributed to the pseudo-controller ``siteN`` (or
        ``network``)."""
        log = self.controller.decision_log
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

    def teardown(self) -> None:
        """:meth:`DBMSSystem.teardown` (which also clears every home
        ready queue's observer), plus the site views' links back to the
        system, and the remote visits and 2PC attempts still in flight
        (their exchanges settled).
        ``site_stats()``, ``remote_fraction()`` and ``network.stats()``
        stay readable."""
        super().teardown()
        for view in self.site_views:
            view._system = None
        # A visit and its exchange point at each other until settled.
        for op in self._inflight.values():
            op.call.settle()
        self._inflight.clear()
        self._twopc.clear()

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
        for site, view in zip(self._sites, self.site_views):
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

    def site_probe_rows(self, now: float, cpu_utils: List[float],
                        disk_utils: List[float]) -> List["SiteProbeSample"]:
        """One :class:`~repro.telemetry.sites.SiteProbeSample` per site,
        in site order, given each site's interval utilizations (see
        :class:`repro.telemetry.probes.ProbeScheduler`)."""
        from repro.telemetry.sites import SiteProbeSample
        rows = []
        for i, (site, view) in enumerate(zip(self._sites,
                                             self.site_views)):
            home = view.tracker
            rows.append(SiteProbeSample(
                time=now,
                site=i,
                up=self._site_up[i],
                degraded=self._degraded[i],
                n_active=home.n_active,
                ready_queue=len(view.ready_queue),
                blocked_frac=(home.n_blocked / home.n_active
                              if home.n_active else 0.0),
                cpu_util=cpu_utils[i],
                disk_util=disk_utils[i],
                in_doubt=len(self._indoubt[i]),
                cum_commits=self.site_commits[i],
                cum_lock_requests=site.lock_table.requests,
                cum_lock_blocks=site.lock_table.blocks,
            ))
        return rows

    def offstage_population(self) -> Dict[str, int]:
        """:meth:`DBMSSystem.offstage_population`, plus the work parked
        while its home site is down and the limbo transactions whose
        restart waits for in-doubt locks: a crash that drops a
        transaction without rescheduling its terminal shows up in the
        checker's ``population_conservation`` at once."""
        population = super().offstage_population()
        population["parked_txns"] = sum(
            len(v) for v in self._parked_txns.values())
        population["parked_terminals"] = sum(
            len(v) for v in self._parked_terminals.values())
        population["limbo"] = len(self._limbo)
        return population

    def check_quiesce(self) -> None:
        """End-of-run obligations, binding only when every site is up at
        the horizon (a run that *ends* mid-crash legitimately holds
        parked work and unresolved in-doubt entries):

        * ``quiesce_no_parked_work`` — nothing remains parked;
        * ``quiesce_indoubt_resolvable`` — every unresolved in-doubt
          entry has a live resolution path: a deciding coordinator, a
          durable decision awaiting delivery, or a limbo-backed
          presumed abort.
        """
        if not all(self._site_up):
            return
        if self._parked_txns or self._parked_terminals:
            raise InvariantViolation(
                f"all sites are up but work is still parked: "
                f"txns={sorted(self._parked_txns)} "
                f"terminals={sorted(self._parked_terminals)}",
                invariant="quiesce_no_parked_work",
                sim_time=self.sim.now)
        for site, entries in enumerate(self._indoubt):
            for txn_id, txn in entries.items():
                if not (txn in self._twopc
                        or txn_id in self.decision_record
                        or txn in self._limbo):
                    raise InvariantViolation(
                        f"in-doubt entry for txn {txn_id} at site {site} "
                        f"has no live resolution path (coordinator gone, "
                        f"no decision record, not limbo-backed)",
                        invariant="quiesce_indoubt_resolvable",
                        sim_time=self.sim.now,
                        evidence={"site": site, "txn_id": txn_id})

    def check_invariants(self) -> None:
        """Raise :class:`~repro.errors.InvariantViolation` if the
        cluster's state is inconsistent.

        Beyond :meth:`DBMSSystem.check_invariants` (every site's lock
        table, the cluster tracker, ``blocked_flag_sync``) and each
        home-site tracker:

        * ``site_population_partition`` — the site trackers partition
          the global active set;
        * ``network_accounting`` — the transport's counters are
          non-negative and every sent message is accounted as
          delivered, lost, dropped, or still in flight;

        and, in failure mode:

        * ``decision_record_accounting`` — every retained coordinator
          decision has a positive waiter count equal to the number of
          in-doubt participant entries for that transaction (records
          are garbage-collected exactly when the last participant
          learns the outcome);
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

        super().check_invariants()
        for view in self.site_views:
            view.tracker.check_invariants()
        total = sum(v.tracker.n_active for v in self.site_views)
        if total != self.tracker.n_active:
            violate("site_population_partition",
                    f"site trackers hold {total} active transactions, "
                    f"the global tracker {self.tracker.n_active}",
                    site_active=total, n_active=self.tracker.n_active)
        stats = self.network.stats()
        for name, value in stats.items():
            if value < 0:
                violate("network_accounting",
                        f"network counter {name} is negative ({value})",
                        **stats)
        accounted = (stats["delivered"] + stats["lost"]
                     + stats["dropped_partition"] + stats["dropped_down"])
        if accounted > stats["sent"]:
            violate("network_accounting",
                    f"{accounted} messages accounted for but only "
                    f"{stats['sent']} sent", **stats)
        if not self.failure_mode:
            return
        indoubt_by_txn: Dict[int, int] = {}
        for entries in self._indoubt:
            for txn_id in entries:
                indoubt_by_txn[txn_id] = indoubt_by_txn.get(txn_id, 0) + 1
        for txn_id, decision in self.decision_record.items():
            waiters = self._decision_waiters.get(txn_id, 0)
            holders = indoubt_by_txn.get(txn_id, 0)
            if waiters <= 0 or waiters != holders:
                violate("decision_record_accounting",
                        f"decision record for txn {txn_id} ({decision}) "
                        f"has waiter count {waiters} but {holders} "
                        f"in-doubt entries exist",
                        txn_id=txn_id, waiters=waiters, holders=holders)
        for site in self._sites:
            indoubt = self._indoubt[site.site_id]
            for page in site.lock_table.locked_pages():
                for holder in site.lock_table.holders(page):
                    if holder.txn_id in indoubt:
                        continue
                    if not self.tracker.is_active(holder):
                        violate("lock_owner_live",
                                f"site {site.site_id} page {page}: lock "
                                f"held by {holder!r}, neither active "
                                f"nor in-doubt",
                                site=site.site_id, page=page,
                                txn_id=holder.txn_id)
                    if not self._site_up[site.site_id]:
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
