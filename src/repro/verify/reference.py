"""Naive reference implementations for differential testing.

Each reference here trades efficiency for obviousness: the
:class:`ReferenceLockTable` keeps plain per-page lists and rescans them
on every operation, and :func:`reference_classify_region` does exact rational
arithmetic.  They exist to be *diffed against* the optimised
implementations (:class:`repro.lockmgr.lock_table.LockTable`,
:func:`repro.core.regions.classify_region`) — a divergence means one of
the two sides is wrong, and the loser is almost always the clever one.

The reference lock table's one concession to speed is an index by
transaction (each transaction's wait, and the pages it holds), so that
"what does this transaction wait for?" and "release everything it
holds" do not scan every page of a large table.  The index only says
where to look: every answer about a page still comes from that page's
lists, and a stale index can raise a false alarm but never hide a
divergence (see :class:`ReferenceLockTable`).

The reference lock table implements the paper's locking semantics from
the prose, not from the optimised code:

* S is compatible with S; X is compatible with nothing (Section 1);
* X locks are acquired by upgrading a held S lock (footnote 1); an
  upgrade is immediate iff the upgrader is the sole holder, otherwise
  the upgrader waits with priority over ordinary waiters;
* ordinary requests are FCFS: grantable only when no waiter of any kind
  is queued on the page and the mode is compatible with every holder;
* a transaction waits for at most one lock at a time.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.core.regions import DEFAULT_DELTA, Region
from repro.errors import LockProtocolError
from repro.lockmgr.lock_table import Grant, RequestOutcome
from repro.lockmgr.modes import LockMode

__all__ = ["PageState", "ReferenceLockTable", "reference_classify_region"]

Txn = Any
Page = Hashable
#: (holders txn -> mode, upgraders in order, ordinary queue of (txn, mode))
PageState = Tuple[Dict[Txn, LockMode], List[Txn], List[Tuple[Txn, LockMode]]]


def _label(txn: Txn):
    tid = getattr(txn, "txn_id", None)
    return tid if isinstance(tid, int) else repr(txn)


class _Hold:
    __slots__ = ("txn", "mode")

    def __init__(self, txn: Txn, mode: LockMode):
        self.txn = txn
        self.mode = mode


class _Wait:
    __slots__ = ("txn", "page", "mode", "is_upgrade")

    def __init__(self, txn: Txn, page: Page, mode: LockMode,
                 is_upgrade: bool):
        self.txn = txn
        self.page = page
        self.mode = mode
        self.is_upgrade = is_upgrade


class ReferenceLockTable:
    """List-scan lock table: slow, simple, and trusted.

    Holds two maps of plain per-page lists — ``page -> [holds]`` and
    ``page -> [waits in arrival order]`` — and answers every question
    about a page by rescanning that page's lists.  A page's key is
    dropped when its list empties, so the keys are exactly the pages
    with live state.  The public surface mirrors the subset of
    :class:`~repro.lockmgr.lock_table.LockTable` the DBMS uses:
    ``request`` / ``release`` / ``release_all`` / ``cancel_wait`` plus
    read-only views, and the same ``requests`` / ``blocks`` /
    ``upgrades_requested`` statistics.

    Two per-transaction indexes, kept up to date by :meth:`_add` and
    :meth:`_remove` (the only places the lists change), find a
    transaction's entries without scanning every page: ``_wait_by_txn``
    maps a waiting transaction to its one wait (the paper lets a
    transaction wait for at most one lock), and ``_held_by_txn`` maps a
    holder to the pages it holds, in grant order.  No transaction has
    an empty entry.  The views ``held_pages``, ``waiters`` and
    ``snapshot`` still rescan the lists and never read the indexes.

    A wrong index cannot make the reference vouch for a wrong real
    table.  The shadow compares the pages the *real* table says an
    operation touched, and every :data:`~repro.verify.shadow.
    FULL_COMPARE_STRIDE` operations every page and waiter, always
    against the reference's lists.  A stale index can only make the
    reference take or reject a request wrongly, or leave or drop the
    wrong entries in its lists, so it disagrees with a correct real
    table: a false :class:`~repro.errors.ShadowDivergence` (or, for an
    indexed hold the lists lack, an error from :meth:`_remove`), never
    a missed one.
    """

    def __init__(self) -> None:
        self._holds: Dict[Page, List[_Hold]] = {}
        self._waits: Dict[Page, List[_Wait]] = {}
        self._wait_by_txn: Dict[Txn, _Wait] = {}
        self._held_by_txn: Dict[Txn, Dict[Page, None]] = {}
        self.requests = 0
        self.blocks = 0
        self.upgrades_requested = 0

    # ------------------------------------------------------------------
    # Scans of the per-page lists, and the per-transaction indexes
    # ------------------------------------------------------------------

    def _holds_on(self, page: Page) -> List[_Hold]:
        return self._holds.get(page, [])

    def _waits_on(self, page: Page) -> List[_Wait]:
        return self._waits.get(page, [])

    def _hold_of(self, txn: Txn, page: Page) -> Optional[_Hold]:
        for h in self._holds.get(page, ()):
            if h.txn is txn:
                return h
        return None

    def _wait_of(self, txn: Txn) -> Optional[_Wait]:
        return self._wait_by_txn.get(txn)

    def _add(self, lists: Dict[Page, list], page: Page, entry) -> None:
        lists.setdefault(page, []).append(entry)
        if lists is self._waits:
            self._wait_by_txn[entry.txn] = entry
        else:
            self._held_by_txn.setdefault(entry.txn, {})[page] = None

    def _remove(self, lists: Dict[Page, list], page: Page, entry) -> None:
        entries = lists[page]
        entries.remove(entry)
        if not entries:
            del lists[page]
        if lists is self._waits:
            del self._wait_by_txn[entry.txn]
        else:
            pages = self._held_by_txn[entry.txn]
            del pages[page]
            if not pages:
                del self._held_by_txn[entry.txn]

    @staticmethod
    def _modes_compatible(held: LockMode, requested: LockMode) -> bool:
        # Spelled out from the paper's compatibility matrix on purpose:
        # importing repro.lockmgr.modes.compatible here would let a bug
        # (or a test-injected corruption) in that function infect the
        # reference and hide the divergence.  The scans below spell the
        # same rule inline (S is compatible with S, and nothing else is
        # compatible), so a scan costs no call per list element.
        return held is LockMode.S and requested is LockMode.S

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def holders(self, page: Page) -> Dict[Txn, LockMode]:
        return {h.txn: h.mode for h in self._holds_on(page)}

    def held_pages(self, txn: Txn) -> Set[Page]:
        return {page for page, holds in self._holds.items()
                if any(h.txn is txn for h in holds)}

    def total_held(self) -> int:
        return sum(len(holds) for holds in self._holds.values())

    def holds(self, txn: Txn, page: Page,
              mode: Optional[LockMode] = None) -> bool:
        h = self._hold_of(txn, page)
        if h is None:
            return False
        return mode is None or h.mode is mode

    def is_waiting(self, txn: Txn) -> bool:
        return self._wait_of(txn) is not None

    def waiting_on(self, txn: Txn) -> Optional[Page]:
        w = self._wait_of(txn)
        return w.page if w else None

    def blocking_set(self, txn: Txn) -> Set[Txn]:
        """Waits-for adjacency of ``txn``, recomputed from first
        principles (same definition as the real table's docstring)."""
        rec = self._wait_of(txn)
        if rec is None:
            return set()
        blockers: Set[Txn] = set()
        if rec.is_upgrade:
            blockers.update(h.txn for h in self._holds_on(rec.page)
                            if h.txn is not txn)
            for w in self._waits_on(rec.page):
                if w.txn is txn:
                    break
                if w.is_upgrade:
                    blockers.add(w.txn)
            return blockers
        for h in self._holds_on(rec.page):
            if not self._modes_compatible(h.mode, rec.mode):
                blockers.add(h.txn)
        ahead = True
        for w in self._waits_on(rec.page):
            if w.txn is txn:
                ahead = False
            elif w.is_upgrade:
                # Every upgrader blocks an ordinary waiter, even one that
                # arrived later: upgraders suppress all ordinary grants.
                blockers.add(w.txn)
            elif ahead and not (
                    self._modes_compatible(w.mode, rec.mode)
                    and self._modes_compatible(rec.mode, w.mode)):
                blockers.add(w.txn)
        blockers.discard(txn)
        return blockers

    def pages(self) -> List[Page]:
        """Every page something holds or waits on, holds first."""
        return list(dict.fromkeys([*self._holds, *self._waits]))

    def waiters(self) -> List[Txn]:
        """Every waiting transaction (one wait each), page by page."""
        return [w.txn for waits in self._waits.values() for w in waits]

    def page_state(self, page: Page) -> Optional[PageState]:
        """One page as plain objects — holders (txn → mode), upgraders
        and ordinary queue (txn, mode), both in arrival order — or
        ``None`` when nothing holds or waits on it.  The shadow table
        compares this against the real lock entry per operation."""
        holds = self._holds_on(page)
        waits = self._waits.get(page)
        if waits is None:
            return ({h.txn: h.mode for h in holds}, [], []) if holds else None
        return (
            {h.txn: h.mode for h in holds},
            [w.txn for w in waits if w.is_upgrade],
            [(w.txn, w.mode) for w in waits if not w.is_upgrade],
        )

    def snapshot_page(self, page: Page) -> Optional[Dict[str, Any]]:
        """Canonical entry for one page (same shape as
        :meth:`LockTable.dump_page`), or ``None`` when nothing holds or
        waits on it."""
        state = self.page_state(page)
        if state is None:
            return None
        holders, upgraders, queue = state
        return {
            "holders": {str(_label(t)): m.name for t, m in holders.items()},
            "upgraders": [_label(t) for t in upgraders],
            "queue": [[_label(t), m.name] for t, m in queue],
        }

    def snapshot(self) -> Dict[str, Any]:
        """Same canonical form as :meth:`LockTable.dump` — the two are
        directly comparable with ``==``."""
        return {
            "pages": {str(page): self.snapshot_page(page)
                      for page in self.pages()},
            "waiting": sorted((str(_label(t)) for t in self.waiters()),
                              key=str),
            "requests": self.requests,
            "blocks": self.blocks,
            "upgrades_requested": self.upgrades_requested,
        }

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def request(self, txn: Txn, page: Page,
                mode: LockMode) -> RequestOutcome:
        if txn in self._wait_by_txn:
            raise LockProtocolError(
                f"transaction {txn!r} issued a lock request while "
                f"already waiting")
        self.requests += 1
        held = self._hold_of(txn, page)
        if held is not None:
            if mode is LockMode.S or held.mode is LockMode.X:
                return RequestOutcome.GRANTED
            # Upgrade path.
            self.upgrades_requested += 1
            if len(self._holds_on(page)) == 1:
                held.mode = LockMode.X
                return RequestOutcome.GRANTED
            self._add(self._waits, page,
                      _Wait(txn, page, LockMode.X, is_upgrade=True))
            self.blocks += 1
            return RequestOutcome.BLOCKED
        if (not self._waits_on(page)
                and all(h.mode is LockMode.S and mode is LockMode.S
                        for h in self._holds_on(page))):
            self._add(self._holds, page, _Hold(txn, mode))
            return RequestOutcome.GRANTED
        self._add(self._waits, page,
                  _Wait(txn, page, mode, is_upgrade=False))
        self.blocks += 1
        return RequestOutcome.BLOCKED

    def release(self, txn: Txn, page: Page) -> List[Grant]:
        h = self._hold_of(txn, page)
        if h is None:
            raise LockProtocolError(
                f"transaction {txn!r} released page {page!r} "
                f"which it does not hold")
        self._remove(self._holds, page, h)
        return self._promote(page)

    def release_all(self, txn: Txn) -> List[Grant]:
        grants = list(self.cancel_wait(txn))
        for page in list(self._held_by_txn.get(txn, ())):
            self._remove(self._holds, page, self._hold_of(txn, page))
            grants.extend(self._promote(page))
        return grants

    def cancel_wait(self, txn: Txn) -> List[Grant]:
        w = self._wait_by_txn.get(txn)
        if w is None:
            return []
        self._remove(self._waits, w.page, w)
        return self._promote(w.page)

    def _promote(self, page: Page) -> List[Grant]:
        """Grant everything the FCFS + upgrade rules now allow on
        ``page``, by repeated full rescans until a fixed point."""
        grants: List[Grant] = []
        while True:
            waiters = self._waits_on(page)
            if not waiters:
                return grants
            holds = self._holds_on(page)
            upgraders = [w for w in waiters if w.is_upgrade]
            if upgraders:
                up = upgraders[0]
                if len(holds) == 1 and holds[0].txn is up.txn:
                    holds[0].mode = LockMode.X
                    self._remove(self._waits, page, up)
                    grants.append(Grant(up.txn, page, LockMode.X,
                                        was_upgrade=True))
                    continue
                # A waiting upgrader suppresses all ordinary grants.
                return grants
            head = waiters[0]
            if all(h.mode is LockMode.S and head.mode is LockMode.S
                   for h in holds):
                self._remove(self._waits, page, head)
                self._add(self._holds, page, _Hold(head.txn, head.mode))
                grants.append(Grant(head.txn, page, head.mode,
                                    was_upgrade=False))
                continue
            return grants


def reference_classify_region(n_active: int, n_state1: int,
                              n_state3: int,
                              delta: float = DEFAULT_DELTA) -> Region:
    """Brute-force 50%-rule classifier using exact rational arithmetic.

    Mirrors :func:`repro.core.regions.classify_region` but compares the
    exact fraction ``n_state1 / n_active`` against ``1/2 + delta``
    computed in rational arithmetic, so no intermediate rounding can
    flip a boundary case.  ``delta`` arrives as a binary double that
    merely *approximates* the decimal the caller wrote (``0.3`` is
    really 0.299999...988), so the reference first snaps it back to the
    simplest nearby rational with ``limit_denominator``; summing the raw
    double value instead would misclassify exact-boundary cells such as
    a ratio of 4/5 against ``delta=0.3``.  (The production classifier
    divides in binary floating point; on the integer grids the simulator
    produces the two agree everywhere, and this reference exists to
    prove it.)
    """
    if n_active <= 0:
        return Region.UNDERLOADED
    threshold = Fraction(1, 2) + Fraction(delta).limit_denominator(10**6)
    if Fraction(n_state1, n_active) > threshold:
        return Region.UNDERLOADED
    if Fraction(n_state3, n_active) > threshold:
        return Region.OVERLOADED
    return Region.COMFORTABLE
