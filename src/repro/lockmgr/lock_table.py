"""The lock table: per-page holders, FCFS wait queues, and S→X upgrades.

Semantics implemented here, all pinned by the paper's Section 1 and 3:

* Shared locks are mutually compatible; exclusive conflicts with everything.
* Exclusive locks are acquired by *upgrading* a previously obtained shared
  lock (footnote 1).  An upgrade is granted immediately when the upgrading
  transaction is the lock's sole holder; otherwise the upgrader waits with
  priority over ordinary waiters (new grants on that page are suppressed
  while an upgrader waits, so readers cannot starve it).
* Ordinary requests are granted FCFS: a request is granted only when no
  other request is queued ahead of it and its mode is compatible with all
  current holders.
* Transactions wait for at most one lock at a time.

The lock table is a pure data structure: it records state and reports
outcomes (:class:`RequestOutcome`) and newly grantable requests
(:class:`Grant` records).  Deadlock detection and transaction aborts are
orchestrated by higher layers (:mod:`repro.lockmgr.deadlock` and the DBMS
system) on top of the :meth:`LockTable.blocking_set` view.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import (Any, Collection, Deque, Dict, Hashable, List, Optional,
                    Set, Tuple)

from repro.errors import InvariantViolation, LockProtocolError
from repro.lockmgr.modes import LockMode, compatible

__all__ = ["RequestOutcome", "Grant", "LockTable"]

Txn = Any        # any hashable transaction token
Page = Hashable


def _dump_label(txn: "Txn"):
    """Canonical transaction label for dump snapshots: ``txn_id`` when
    it has an integer one, else ``repr``."""
    tid = getattr(txn, "txn_id", None)
    return tid if isinstance(tid, int) else repr(txn)


class RequestOutcome(enum.Enum):
    """Result of a lock request."""

    GRANTED = "granted"
    BLOCKED = "blocked"


@dataclass(frozen=True)
class Grant:
    """A request granted as a side effect of a release or wait-cancel."""

    txn: Txn
    page: Page
    mode: LockMode
    was_upgrade: bool


# Enum members bound to module constants: reading a member off its class
# goes through the enum metaclass's attribute hook (about 0.1 µs a read
# on CPython 3.11), and a lock request reads several.
_S, _X = LockMode.S, LockMode.X
_GRANTED, _BLOCKED = RequestOutcome.GRANTED, RequestOutcome.BLOCKED


class _Lock:
    """State for one page: holders plus two-tier wait queue.

    ``num_s``/``num_x`` count current holders by mode.  They exist so
    grant checks are O(1) — the S/X matrix is tiny and static, so a
    request's compatibility with *every* holder collapses to a counter
    test (see :meth:`LockTable.request`) instead of a scan.  Invariant,
    enforced by :meth:`LockTable.check_invariants`: ``num_s + num_x ==
    len(holders)`` and each counter equals the recount of its mode.

    An entry that empties leaves the page index for the table's free
    list (linked through ``next_free``), from which a request on a page
    with no entry takes it again.
    """

    __slots__ = ("holders", "upgraders", "queue", "num_s", "num_x",
                 "next_free")

    def __init__(self) -> None:
        self.holders: Dict[Txn, LockMode] = {}
        self.upgraders: Deque[Txn] = deque()
        self.queue: Deque[Tuple[Txn, LockMode]] = deque()
        self.num_s = 0
        self.num_x = 0
        self.next_free: Optional[_Lock] = None

    def empty(self) -> bool:
        return not self.holders and not self.upgraders and not self.queue


class _WaitRecord:
    """What a blocked transaction is waiting for."""

    __slots__ = ("page", "mode", "is_upgrade")

    def __init__(self, page: Page, mode: LockMode, is_upgrade: bool):
        self.page = page
        self.mode = mode
        self.is_upgrade = is_upgrade


class LockTable:
    """Page lock table with S/X modes, upgrades, and FCFS wait queues."""

    def __init__(self) -> None:
        self._locks: Dict[Page, _Lock] = {}
        # Head of the free list of emptied entries (see _Lock).
        self._free: Optional[_Lock] = None
        # Insertion-ordered page index per transaction (dict keys),
        # so release_all order is deterministic run to run.
        self._held: Dict[Txn, Dict[Page, None]] = {}
        self._waits: Dict[Txn, _WaitRecord] = {}
        # Statistics.
        self.requests = 0
        self.blocks = 0
        self.upgrades_requested = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def holders(self, page: Page) -> Dict[Txn, LockMode]:
        """Current holders of a page lock (copy)."""
        lock = self._locks.get(page)
        return dict(lock.holders) if lock else {}

    def holder_modes(self, page: Page) -> Collection[LockMode]:
        """The modes of a page lock's current holders, in grant order:
        a live view, not a copy, so read it before the table changes."""
        lock = self._locks.get(page)
        return lock.holders.values() if lock else ()

    def held_pages(self, txn: Txn) -> Set[Page]:
        """Pages on which ``txn`` currently holds a lock (copy)."""
        return set(self._held.get(txn, ()))

    def num_locked_pages(self) -> int:
        """Pages with a live lock entry (holders or waiters) — the
        lock-table size a real lock manager would report."""
        return len(self._locks)

    def total_held(self) -> int:
        """Total page locks held, summed over all transactions."""
        return sum(len(pages) for pages in self._held.values())

    def num_held(self, txn: Txn) -> int:
        """Number of locks ``txn`` currently holds (O(1))."""
        held = self._held.get(txn)
        return len(held) if held else 0

    def holds(self, txn: Txn, page: Page,
              mode: Optional[LockMode] = None) -> bool:
        """True if ``txn`` holds ``page`` (optionally in exactly ``mode``)."""
        lock = self._locks.get(page)
        if lock is None or txn not in lock.holders:
            return False
        return mode is None or lock.holders[txn] is mode

    def waiting_on(self, txn: Txn) -> Optional[Page]:
        """The page ``txn`` is blocked on, or None if it is not waiting."""
        rec = self._waits.get(txn)
        return rec.page if rec else None

    def is_waiting(self, txn: Txn) -> bool:
        """True if ``txn`` has a pending (blocked) lock request."""
        return txn in self._waits

    def waiting_transactions(self) -> List[Txn]:
        """Every transaction with a pending (blocked) request.

        Deterministic: wait records are kept in insertion order, so two
        runs of the same seed enumerate waiters identically.  Used by
        the contention monitor to walk the waits-for graph per probe
        tick without reaching into private state.
        """
        return list(self._waits)

    def locked_pages(self) -> List[Page]:
        """Every page with a live lock entry (holders or waiters).

        Deterministic (entry-creation order); the per-tick queue-depth
        statistics iterate this instead of the private lock index.
        """
        return list(self._locks)

    def num_waiters(self, page: Page) -> int:
        """Total waiters (upgraders + ordinary) on one page."""
        lock = self._locks.get(page)
        if lock is None:
            return 0
        return len(lock.upgraders) + len(lock.queue)

    def waiter_modes(self, page: Page) -> List[LockMode]:
        """Requested modes of all waiters, upgraders first, in queue order."""
        lock = self._locks.get(page)
        if lock is None:
            return []
        modes = [_X] * len(lock.upgraders)
        modes.extend(mode for _txn, mode in lock.queue)
        return modes

    def is_blocking_others(self, txn: Txn) -> bool:
        """True if any page held by ``txn`` has waiters besides ``txn``.

        Used by the Half-and-Half overload correction, which only considers
        victims that "are in turn blocking other transactions".
        """
        for page in self._held.get(txn, ()):
            lock = self._locks[page]
            if lock.queue:
                return True
            for up in lock.upgraders:
                if up is not txn:
                    return True
        return False

    def blocking_set(self, txn: Txn) -> Set[Txn]:
        """Transactions that currently prevent ``txn``'s pending request.

        This is the waits-for adjacency of ``txn``: empty if it is not
        blocked.  For an upgrader, the blockers are the other holders.  For
        an ordinary waiter, the blockers are incompatible holders, all
        upgraders, and incompatible ordinary waiters queued ahead of it.
        """
        rec = self._waits.get(txn)
        if rec is None:
            return set()
        lock = self._locks[rec.page]
        blockers: Set[Txn] = set()
        if rec.is_upgrade:
            blockers.update(h for h in lock.holders if h is not txn)
            for up in lock.upgraders:
                if up is txn:
                    break
                blockers.add(up)
            return blockers
        for holder, held_mode in lock.holders.items():
            if not compatible(held_mode, rec.mode):
                blockers.add(holder)
        blockers.update(lock.upgraders)
        for waiter, mode in lock.queue:
            if waiter is txn:
                break
            if not (compatible(mode, rec.mode) and compatible(rec.mode, mode)):
                blockers.add(waiter)
        blockers.discard(txn)
        return blockers

    def blocking_order(self, txn: Txn) -> List[Txn]:
        """The blocking set in a *deterministic* order.

        Set iteration order over arbitrary objects depends on memory
        addresses, which would make deadlock-cycle discovery (and hence
        victim choice) vary between runs of the same seed.  This variant
        lists blockers in lock-table structural order: holders first (in
        grant order), then upgraders, then queued waiters.

        No candidate needs deduplicating: every upgrader holds the page
        in S, an X holder is the page's only holder, and a queued waiter
        neither holds the page nor waits twice.  So an upgrader's
        blockers are the other holders (the upgraders ahead of it among
        them); an X request's are every holder plus every queued waiter
        ahead; an S request's are an X holder, the upgraders, and the X
        requests queued ahead.
        """
        rec = self._waits.get(txn)
        if rec is None:
            return []
        lock = self._locks[rec.page]
        if rec.is_upgrade:
            return [holder for holder in lock.holders if holder is not txn]
        exclusive = rec.mode is _X
        if exclusive or lock.num_x:
            ordered = [*lock.holders]
        else:
            ordered = [*lock.upgraders]
        for waiter, mode in lock.queue:
            if waiter is txn:
                break
            if exclusive or mode is _X:
                ordered.append(waiter)
        return ordered

    def wait_chain_depth(self, txn: Txn, max_depth: int = 64) -> int:
        """Length of the wait chain hanging off ``txn``, in edges.

        Follows first-blocker edges (``blocking_order(...)[0]``) from
        ``txn`` until an unblocked transaction is reached: a transaction
        blocked directly behind a running holder has depth 1.  The walk
        is purely observational — the same deterministic edges deadlock
        detection uses — and stops at ``max_depth`` or on a cycle (a
        deadlock that has not been detected yet), so it always
        terminates.  Returns 0 if ``txn`` is not waiting.
        """
        depth = 0
        seen: Set[Txn] = {txn}
        cur = txn
        while depth < max_depth:
            order = self.blocking_order(cur)
            if not order:
                break
            depth += 1
            nxt = order[0]
            if nxt in seen:
                break
            seen.add(nxt)
            cur = nxt
        return depth

    def dump_page(self, page: Page) -> Optional[Dict[str, Any]]:
        """Canonical entry for one page, or ``None`` if it has no lock.

        Same shape as one value of ``dump()["pages"]``; lets the shadow
        table compare only the pages an operation touched instead of
        re-serializing the whole table per operation.
        """
        lock = self._locks.get(page)
        if lock is None:
            return None
        return {
            "holders": {str(_dump_label(t)): m.name
                        for t, m in lock.holders.items()},
            "upgraders": [_dump_label(t) for t in lock.upgraders],
            "queue": [[_dump_label(t), m.name] for t, m in lock.queue],
        }

    def dump(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of the full lock-table state.

        Pages map to their holders (txn label → mode name), the FIFO
        upgrader queue, and the ordinary wait queue, all in structural
        order.  Transactions are labelled by ``txn_id`` when they have
        one, else by ``repr``.  Used by the verification layer both as
        the canonical form for differential comparison against the
        reference implementation and as the evidence snapshot attached
        to :class:`~repro.errors.InvariantViolation`.
        """
        return {
            "pages": {str(page): self.dump_page(page)
                      for page in self._locks},
            "waiting": sorted(
                (str(_dump_label(t)) for t in self._waits), key=str),
            "requests": self.requests,
            "blocks": self.blocks,
            "upgrades_requested": self.upgrades_requested,
        }

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def request(self, txn: Txn, page: Page, mode: LockMode) -> RequestOutcome:
        """Request ``page`` in ``mode`` for ``txn``.

        Returns GRANTED or BLOCKED.  A blocked transaction is enqueued; the
        caller is responsible for deadlock detection (via
        :func:`repro.lockmgr.deadlock.find_cycle`) and for parking the
        transaction until a :class:`Grant` for it is returned by a later
        release.

        Raises :class:`LockProtocolError` if ``txn`` is already waiting for
        some lock, requests a lock it already holds in a sufficient mode in
        a *weaker* way (S after X is a no-op, tolerated), or requests X on
        a page it does not hold S on while other policies forbid it.
        """
        if txn in self._waits:
            raise LockProtocolError(
                f"transaction {txn!r} issued a lock request while "
                f"already waiting for page {self._waits[txn].page!r}")
        self.requests += 1
        lock = self._locks.get(page)
        if lock is None:
            # No entry: nobody holds or waits for the page, so the
            # request is granted, on an entry from the free list.
            lock = self._free
            if lock is None:
                lock = _Lock()
            else:
                self._free = lock.next_free
            self._locks[page] = lock
        else:
            held_mode = lock.holders.get(txn)
            if held_mode is not None:
                if mode is _S or held_mode is _X:
                    # Re-request in an already-covered mode: no-op grant.
                    return _GRANTED
                # S held, X requested: upgrade path.
                return self._request_upgrade(txn, page, lock)
            # Fresh request: FCFS — grant only if nothing is queued ahead
            # and the mode is compatible with every current holder.  With
            # only S/X modes that compatibility collapses to a counter
            # test: S coexists with anything but an X holder, X needs the
            # page free.
            if (lock.upgraders or lock.queue
                    or (lock.num_x if mode is _S else lock.holders)):
                lock.queue.append((txn, mode))
                self._waits[txn] = _WaitRecord(page, mode, is_upgrade=False)
                self.blocks += 1
                return _BLOCKED
        # _grant(), inlined: most requests take this branch.
        lock.holders[txn] = mode
        if mode is _S:
            lock.num_s += 1
        else:
            lock.num_x += 1
        held = self._held.get(txn)
        if held is None:
            held = self._held[txn] = {}
        held[page] = None
        return _GRANTED

    def _request_upgrade(self, txn: Txn, page: Page,
                         lock: _Lock) -> RequestOutcome:
        self.upgrades_requested += 1
        if len(lock.holders) == 1:
            lock.holders[txn] = _X
            lock.num_s -= 1
            lock.num_x += 1
            return _GRANTED
        lock.upgraders.append(txn)
        self._waits[txn] = _WaitRecord(page, _X, is_upgrade=True)
        self.blocks += 1
        return _BLOCKED

    def _grant(self, txn: Txn, page: Page, lock: _Lock,
               mode: LockMode) -> None:
        lock.holders[txn] = mode
        if mode is _S:
            lock.num_s += 1
        else:
            lock.num_x += 1
        self._held.setdefault(txn, {})[page] = None

    # ------------------------------------------------------------------
    # Releases
    # ------------------------------------------------------------------

    def release(self, txn: Txn, page: Page) -> List[Grant]:
        """Release a single page lock (used by the degree-2 protocol).

        Returns the requests that became grantable.
        """
        lock = self._locks.get(page)
        if lock is None or txn not in lock.holders:
            raise LockProtocolError(
                f"transaction {txn!r} released page {page!r} "
                f"which it does not hold")
        self._drop_holder(lock, txn)
        held = self._held.get(txn)
        if held is not None:
            held.pop(page, None)
            if not held:
                del self._held[txn]
        grants = self._promote_waiters(page, lock)
        self._gc(page, lock)
        return grants

    def release_all(self, txn: Txn) -> List[Grant]:
        """Release every lock held by ``txn`` and cancel any pending wait.

        Used at commit (release after deferred updates) and at abort.
        Returns all requests across all pages that became grantable.
        """
        grants = self.cancel_wait(txn) if txn in self._waits else []
        held = self._held.pop(txn, None)
        if held is None:
            return grants
        locks = self._locks
        # _drop_holder, _promote_waiters and _gc per page, inlined: this
        # runs at every commit and abort.  Promotion runs only where
        # someone waits; where nobody does, a page with no holder left
        # has an empty entry, which goes to the free list.
        for page in held:
            lock = locks[page]
            if lock.holders.pop(txn) is _S:
                lock.num_s -= 1
            else:
                lock.num_x -= 1
            if lock.upgraders or lock.queue:
                grants += self._promote_waiters(page, lock)
            elif not lock.holders:
                del locks[page]
                lock.next_free = self._free
                self._free = lock
        return grants

    def cancel_wait(self, txn: Txn) -> List[Grant]:
        """Withdraw ``txn``'s pending request (e.g. it was chosen as a
        deadlock victim while blocked, or a bounded-wait policy rejected
        it).  Removing a waiter from the middle of a queue can make later
        waiters grantable, so this also runs the grant scan.
        """
        rec = self._waits.pop(txn, None)
        if rec is None:
            return []
        lock = self._locks[rec.page]
        if rec.is_upgrade:
            lock.upgraders.remove(txn)
        else:
            for i, (waiter, _mode) in enumerate(lock.queue):
                if waiter is txn:
                    del lock.queue[i]
                    break
        grants = self._promote_waiters(rec.page, lock)
        self._gc(rec.page, lock)
        return grants

    def _promote_waiters(self, page: Page, lock: _Lock) -> List[Grant]:
        """Grant every request that the FCFS + upgrade rules now allow."""
        grants: List[Grant] = []
        # Upgraders first: an upgrade is grantable when its transaction is
        # the sole remaining holder.
        while lock.upgraders:
            up = lock.upgraders[0]
            if len(lock.holders) == 1 and up in lock.holders:
                lock.upgraders.popleft()
                lock.holders[up] = _X
                lock.num_s -= 1
                lock.num_x += 1
                del self._waits[up]
                grants.append(Grant(up, page, _X, was_upgrade=True))
            else:
                # A waiting upgrader suppresses all ordinary grants.
                return grants
        while lock.queue:
            txn, mode = lock.queue[0]
            # Counter form of "compatible with every holder" (see
            # request()): O(1) per head-of-queue test.
            if (lock.num_x == 0 if mode is _S
                    else not lock.holders):
                lock.queue.popleft()
                self._grant(txn, page, lock, mode)
                del self._waits[txn]
                grants.append(Grant(txn, page, mode, was_upgrade=False))
            else:
                break
        return grants

    @staticmethod
    def _drop_holder(lock: _Lock, txn: Txn) -> None:
        """Remove ``txn`` from a lock's holders, keeping the counters."""
        if lock.holders.pop(txn) is _S:
            lock.num_s -= 1
        else:
            lock.num_x -= 1

    def _gc(self, page: Page, lock: _Lock) -> None:
        if lock.empty():
            del self._locks[page]
            lock.next_free = self._free
            self._free = lock

    # ------------------------------------------------------------------
    # Invariant checking (used heavily by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`~repro.errors.InvariantViolation` if internal
        state is inconsistent.

        Checked invariants:
          * no two holders of one page have incompatible modes;
          * every waiting transaction appears in exactly one wait queue;
          * every upgrader currently holds the page in S mode;
          * the head ordinary waiter is genuinely blocked (not grantable);
          * the ``_held`` index mirrors ``holders`` exactly.

        Formerly these were bare ``assert`` statements, which vanish
        under ``python -O``; real exceptions keep the oracle honest in
        every interpreter mode.
        """
        def violate(message: str) -> None:
            raise InvariantViolation(
                message, invariant="lock_table_consistency")

        locks, held_index, waits = self._locks, self._held, self._waits
        # The matrix, asked of compatible() once per pass rather than
        # read from COMPATIBLE, so that a patched predicate reaches these
        # checks: with_s[m] / with_x[m] say whether mode m may join an
        # S / X holder.
        with_s = (compatible(_S, _S), compatible(_S, _X))
        with_x = (compatible(_X, _S), compatible(_X, _X))
        s_and_x = with_s[_X] and with_x[_S]
        seen_waiting: Set[Txn] = set()
        for page, lock in locks.items():
            holders = lock.holders
            # With only S and X, which mode pairs the holders form
            # follows from a recount of the modes, so the pairwise test
            # looks at each kind of pair present instead of each pair:
            # the set is compatible iff num_x == 0, or num_x == 1 and
            # num_s == 0.
            num_s = 0
            for mode in holders.values():
                if mode is _S:
                    num_s += 1
            num_x = len(holders) - num_s
            if ((num_s > 1 and not with_s[_S])
                    or (num_x > 1 and not with_x[_X])
                    or (num_s and num_x and not s_and_x)):
                violate(f"incompatible holders on page {page!r}")
            if lock.num_s != num_s or lock.num_x != num_x:
                violate(
                    f"holder-mode counters ({lock.num_s}S, {lock.num_x}X)"
                    f" disagree with a recount ({num_s}S, {num_x}X) "
                    f"on page {page!r}")
            for up in lock.upgraders:
                if holders.get(up) is not _S:
                    violate(f"upgrader {up!r} does not hold S "
                            f"on page {page!r}")
                if up in seen_waiting:
                    violate(f"upgrader {up!r} waits in more than "
                            f"one queue")
                seen_waiting.add(up)
                if up not in waits or waits[up].page != page:
                    violate(f"wait record of upgrader {up!r} does not "
                            f"name page {page!r}")
            if lock.queue and not lock.upgraders:
                txn, mode = lock.queue[0]
                if ((num_s == 0 or with_s[mode])
                        and (num_x == 0 or with_x[mode])):
                    violate(f"head waiter {txn!r} on page {page!r} "
                            f"is grantable")
            for txn, _mode in lock.queue:
                if txn in seen_waiting:
                    violate(f"waiter {txn!r} waits in more than "
                            f"one queue")
                seen_waiting.add(txn)
                if txn not in waits or waits[txn].page != page:
                    violate(f"wait record of waiter {txn!r} does not "
                            f"name page {page!r}")
            for holder in holders:
                if (holder not in held_index
                        or page not in held_index[holder]):
                    violate(f"held-index missing {page!r} "
                            f"for {holder!r}")
        if seen_waiting != set(waits):
            violate("wait-record index out of sync with queues")
        for txn, pages in held_index.items():
            for page in pages:
                if page not in locks or txn not in locks[page].holders:
                    violate(f"held-index lists {page!r} for {txn!r} "
                            f"but the lock entry disagrees")
