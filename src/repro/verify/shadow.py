"""Shadow-mode lock table: every mutation diffed against the reference.

:class:`ShadowLockTable` subclasses the real
:class:`~repro.lockmgr.lock_table.LockTable` and mirrors each public
mutation to a :class:`~repro.verify.reference.ReferenceLockTable`.
After every operation it compares

* the operation outcome (GRANTED/BLOCKED, or the raised protocol error),
* the set of side-effect grants (order-canonicalised: grants produced by
  releasing several pages are per-page independent, so ordering between
  pages is an implementation detail), and
* the state of every page the operation touched, as plain objects
  (the real lock entry vs the reference's lists for that page, the
  state :meth:`ReferenceLockTable.page_state` describes: holders
  compared as a txn → mode mapping, upgraders and queue in order,
  transactions by identity) plus the running statistics, and every
  :data:`FULL_COMPARE_STRIDE` operations the same object compare over
  every page either side knows, plus the identity multiset of the real
  table's waiters against the reference's.

Any mismatch raises :class:`~repro.errors.ShadowDivergence` carrying
both snapshots as evidence.  The string-keyed dumps
(:meth:`LockTable.dump`, :meth:`ReferenceLockTable.snapshot`) are built
only then, as evidence: no comparison reads them.  They label
transactions by ``txn_id``, so comparing them would also be weaker
than comparing the objects.

Because the class *is* a ``LockTable``, the DBMS system can use it as a
drop-in replacement — the real table still drives the simulation, the
reference only votes.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, List, Optional, Tuple

from repro.errors import LockProtocolError, ShadowDivergence
from repro.lockmgr.lock_table import Grant, LockTable, RequestOutcome, _Lock
from repro.lockmgr.modes import LockMode
from repro.verify.reference import ReferenceLockTable

__all__ = ["ShadowLockTable", "canonical_grants"]

Txn = Any
Page = Hashable

# A mutation can only change the pages it touches, so per-operation the
# shadow compares just those entries (plus the O(1) statistics).  Every
# FULL_COMPARE_STRIDE compared operations it still diffs the entire
# table, so state corruption introduced outside the mutation API cannot
# hide indefinitely.  Full-table dumps per operation made verified runs
# quadratic in table size and ~100x slower end to end.
FULL_COMPARE_STRIDE = 256

_END = object()     # exhausted-iterator sentinel for _same_page


def _same_page(lock: Optional[_Lock], holds: Optional[List[Any]],
               waits: Optional[List[Any]]) -> bool:
    """True when a real lock entry and the reference's state for the
    same page agree.

    ``holds`` and ``waits`` are the reference's lists for the page (its
    ``_holds`` and ``_waits`` values, ``None`` where it has no key).
    The walk compares what :meth:`ReferenceLockTable.page_state` would
    return without building it: the reference knows the page unless it
    has no wait list and no holds.

    Transactions are compared by identity (both sides store the objects
    the caller passed in, and transaction tokens hash by identity, as
    the real table's own holder index requires), which is at least as
    strict as comparing the ``txn_id`` labels of the canonical dumps.
    Holders are a mapping, so their insertion order does not matter;
    upgraders and the queue are FIFO, so theirs does.
    """
    if waits is None and not holds:
        return lock is None
    if lock is None:
        return False
    real = lock.holders
    if not holds:
        if real:
            return False
    elif len(holds) == 1:
        hold = holds[0]
        if len(real) != 1 or real.get(hold.txn) is not hold.mode:
            return False
    elif real != {hold.txn: hold.mode for hold in holds}:
        # Lock modes are enum members, so ``==`` on them is identity.
        return False
    upgraders, queue = lock.upgraders, lock.queue
    if not waits:
        return not upgraders and not queue
    if len(upgraders) + len(queue) != len(waits):
        return False
    # The reference keeps one arrival-ordered wait list per page; the
    # real table splits it into the upgraders and the ordinary queue.
    # With the lengths equal, consuming both in step with the list
    # without running dry means both match it exactly.
    upgrader = iter(upgraders)
    queued = iter(queue)
    for wait in waits:
        if wait.is_upgrade:
            if next(upgrader, _END) is not wait.txn:
                return False
        else:
            entry = next(queued, _END)
            if (entry is _END or entry[0] is not wait.txn
                    or entry[1] is not wait.mode):
                return False
    return True


def _label(txn: Txn):
    tid = getattr(txn, "txn_id", None)
    return tid if isinstance(tid, int) else repr(txn)


def canonical_grants(grants: List[Grant]) -> List[Tuple]:
    """Order-insensitive canonical form of a grant list."""
    return sorted(
        (str(_label(g.txn)), str(g.page), g.mode.name, g.was_upgrade)
        for g in grants)


class ShadowLockTable(LockTable):
    """A :class:`LockTable` that cross-examines itself.

    Counts successfully compared operations in :attr:`ops_checked`
    (useful for asserting the shadow actually ran).
    """

    def __init__(self) -> None:
        super().__init__()
        self.reference = ReferenceLockTable()
        self.ops_checked = 0
        # ops_checked value at which the next full-table diff is due.  A
        # due-counter rather than ``ops_checked % stride == 0``: rejected
        # operations are counted without a state compare, and a modulo
        # test would skip a full diff that fell due on one of them.
        self._full_compare_due = FULL_COMPARE_STRIDE
        # True while the real ``release_all`` runs: it withdraws a
        # pending wait through the public ``cancel_wait``, which
        # dispatches back to the override below.  Without this guard
        # the nested call would mirror to the reference a second time,
        # consuming its grants before the outer reference call runs.
        # No other real mutation calls a public mutator.
        self._mirroring = False

    # ------------------------------------------------------------------
    # Comparison machinery
    # ------------------------------------------------------------------

    def _diverge(self, operation: str, message: str, **extra) -> None:
        evidence = {
            "real": self.dump(),
            "reference": self.reference.snapshot(),
        }
        evidence.update(extra)
        raise ShadowDivergence(message, operation=operation,
                               evidence=evidence)

    def _compare_state(self, operation: str,
                       touched: Iterable[Page]) -> None:
        # ``request`` spells this out inline for its one page; keep the
        # two in step.
        ref = self.reference
        locks = self._locks
        holds = ref._holds
        waits = ref._waits
        for page in touched:
            if not _same_page(locks.get(page), holds.get(page),
                              waits.get(page)):
                self._page_diverged(operation, page)
        if (self.requests != ref.requests or self.blocks != ref.blocks
                or self.upgrades_requested != ref.upgrades_requested):
            self._diverge(operation, "lock statistics diverged")
        self.ops_checked += 1
        if self.ops_checked >= self._full_compare_due:
            self._full_compare(operation)

    def _page_diverged(self, operation: str, page: Page) -> None:
        self._diverge(
            operation,
            f"state diverged on page {page!r}",
            page=str(page),
            real_page=self.dump_page(page),
            reference_page=self.reference.snapshot_page(page))

    def _full_compare(self, operation: str) -> None:
        self._full_compare_due = self.ops_checked + FULL_COMPARE_STRIDE
        if not self._same_table():
            self._diverge(
                operation,
                "lock-table state diverged from the reference "
                "implementation (periodic full comparison)")

    def _same_table(self) -> bool:
        """The periodic full compare: every page either side knows,
        then the waiters as an identity multiset (a stale real wait
        record for a transaction in no queue shows up only there)."""
        ref = self.reference
        locks = self._locks
        holds = ref._holds
        waits = ref._waits
        for page in dict.fromkeys([*locks, *holds, *waits]):
            if not _same_page(locks.get(page), holds.get(page),
                              waits.get(page)):
                return False
        return (sorted(map(id, self._waits))
                == sorted(map(id, ref.waiters())))

    def _compare_grants(self, operation: str, real: List[Grant],
                        ref: List[Grant]) -> None:
        real_c = canonical_grants(real)
        ref_c = canonical_grants(ref)
        if real_c != ref_c:
            self._diverge(
                operation,
                f"side-effect grants diverged: real={real_c!r} "
                f"reference={ref_c!r}",
                real_grants=real_c, reference_grants=ref_c)

    def _mirror(self, operation: str, real_call, ref_call, *args):
        """Run the real mutation (``real_call(self, *args)``), then the
        reference one (``ref_call(*args)``), and require identical
        results — including identical protocol errors."""
        try:
            real = real_call(self, *args)
        except LockProtocolError as exc:
            self._rejected(operation, exc, ref_call, *args)
        try:
            ref = ref_call(*args)
        except LockProtocolError as exc:
            self._protocol_diverged(operation, None, exc)
        return real, ref

    def _rejected(self, operation: str, real_exc: LockProtocolError,
                  ref_call, *args) -> None:
        """The real mutation raised ``real_exc``: the reference must
        reject the same call too.  Always raises."""
        try:
            ref_call(*args)
        except LockProtocolError:
            pass
        else:
            self._protocol_diverged(operation, real_exc, None)
        # Both sides rejected the operation the same way; state is
        # untouched on both, so re-raise the real error unchanged.
        self.ops_checked += 1
        raise real_exc

    def _protocol_diverged(self, operation: str, real_exc, ref_exc) -> None:
        self._diverge(
            operation,
            f"protocol-error divergence: real raised {real_exc!r}, "
            f"reference raised {ref_exc!r}")

    # ------------------------------------------------------------------
    # Mirrored mutations
    # ------------------------------------------------------------------

    # Each passes the real implementation as ``LockTable.<method>``,
    # looked up per call, and the bound reference method: no closure
    # is built per operation.

    def request(self, txn: Txn, page: Page,
                mode: LockMode) -> RequestOutcome:
        # The lock manager's most frequent operation: ``_mirror`` and
        # ``_compare_state`` spelled out for one page, with the same
        # checks in the same order.
        reference = self.reference
        try:
            real = LockTable.request(self, txn, page, mode)
        except LockProtocolError as exc:
            self._rejected("request", exc, reference.request,
                           txn, page, mode)
        try:
            ref = reference.request(txn, page, mode)
        except LockProtocolError as exc:
            self._protocol_diverged("request", None, exc)
        if real is not ref:
            self._diverge(
                "request",
                f"outcome diverged for {txn!r} on page {page!r} "
                f"({mode.name}): real={real.value} reference={ref.value}")
        if not _same_page(self._locks.get(page),
                          reference._holds.get(page),
                          reference._waits.get(page)):
            self._page_diverged("request", page)
        if (self.requests != reference.requests
                or self.blocks != reference.blocks
                or self.upgrades_requested
                != reference.upgrades_requested):
            self._diverge("request", "lock statistics diverged")
        self.ops_checked += 1
        if self.ops_checked >= self._full_compare_due:
            self._full_compare("request")
        return real

    def release(self, txn: Txn, page: Page) -> List[Grant]:
        real, ref = self._mirror("release", LockTable.release,
                                 self.reference.release, txn, page)
        if real or ref:
            self._compare_grants("release", real, ref)
        self._compare_state("release", (page,))
        return real

    def release_all(self, txn: Txn) -> List[Grant]:
        touched = dict.fromkeys(self._held.get(txn, ()))
        rec = self._waits.get(txn)
        if rec is not None:
            touched[rec.page] = None
        self._mirroring = True
        try:
            real, ref = self._mirror("release_all", LockTable.release_all,
                                     self.reference.release_all, txn)
        finally:
            self._mirroring = False
        if real or ref:
            self._compare_grants("release_all", real, ref)
        self._compare_state("release_all", touched)
        return real

    def cancel_wait(self, txn: Txn) -> List[Grant]:
        if self._mirroring:      # nested call from the real release_all
            return LockTable.cancel_wait(self, txn)
        rec = self._waits.get(txn)
        touched = () if rec is None else (rec.page,)
        real, ref = self._mirror("cancel_wait", LockTable.cancel_wait,
                                 self.reference.cancel_wait, txn)
        if real or ref:
            self._compare_grants("cancel_wait", real, ref)
        self._compare_state("cancel_wait", touched)
        return real
