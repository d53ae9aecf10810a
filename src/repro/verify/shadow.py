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
  (the real lock entry vs :meth:`ReferenceLockTable.page_state`:
  holders compared as a txn → mode mapping, upgraders and queue in
  order, transactions by identity) plus the running statistics, and
  every :data:`FULL_COMPARE_STRIDE` operations the same object compare
  over every page either side knows, plus the identity multiset of the
  real table's waiters against the reference's.

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
from repro.verify.reference import PageState, ReferenceLockTable

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


def _same_page(lock: Optional[_Lock], ref: Optional[PageState]) -> bool:
    """True when a real lock entry and a reference page state agree.

    Transactions are compared by identity (both sides store the objects
    the caller passed in, and transaction tokens hash by identity, as
    the real table's own holder index requires), which is at least as
    strict as comparing the ``txn_id`` labels of the canonical dumps.
    Holders are a mapping, so their insertion order does not matter;
    upgraders and the queue are FIFO, so theirs does.
    """
    if lock is None or ref is None:
        return lock is None and ref is None
    holders, upgraders, queue = ref
    real = lock.holders
    if len(real) != len(holders):
        return False
    for txn, mode in real.items():
        if holders.get(txn) is not mode:
            return False
    if not (lock.upgraders or upgraders or lock.queue or queue):
        return True
    return (
        len(lock.upgraders) == len(upgraders)
        and all(a is b for a, b in zip(lock.upgraders, upgraders))
        and len(lock.queue) == len(queue)
        and all(a is b and m is n
                for (a, m), (b, n) in zip(lock.queue, queue)))


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
        # True while the *real* side of a mirrored operation runs.  The
        # real implementation calls its own public methods internally
        # (release_all -> cancel_wait), and those dispatch back to the
        # overrides below; without this guard the nested call would
        # mirror to the reference a second time, consuming its grants
        # before the outer reference call runs.
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
        ref = self.reference
        for page in touched:
            if not _same_page(self._locks.get(page), ref.page_state(page)):
                self._diverge(
                    operation,
                    f"state diverged on page {page!r}",
                    page=str(page),
                    real_page=self.dump_page(page),
                    reference_page=ref.snapshot_page(page))
        if (self.requests != ref.requests or self.blocks != ref.blocks
                or self.upgrades_requested != ref.upgrades_requested):
            self._diverge(operation, "lock statistics diverged")
        self.ops_checked += 1
        if self.ops_checked >= self._full_compare_due:
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
        page_state = ref.page_state
        for page in dict.fromkeys([*locks, *ref.pages()]):
            if not _same_page(locks.get(page), page_state(page)):
                return False
        return (sorted(map(id, self._waits))
                == sorted(map(id, ref.waiters())))

    def _compare_grants(self, operation: str, real: List[Grant],
                        ref: List[Grant]) -> None:
        if not real and not ref:
            return
        real_c = canonical_grants(real)
        ref_c = canonical_grants(ref)
        if real_c != ref_c:
            self._diverge(
                operation,
                f"side-effect grants diverged: real={real_c!r} "
                f"reference={ref_c!r}",
                real_grants=real_c, reference_grants=ref_c)

    def _mirror(self, operation: str, real_call, ref_call):
        """Run the real mutation, then the reference one, and require
        identical results — including identical protocol errors."""
        real_exc = ref_exc = None
        real_result = ref_result = None
        self._mirroring = True
        try:
            real_result = real_call()
        except LockProtocolError as exc:
            real_exc = exc
        finally:
            self._mirroring = False
        try:
            ref_result = ref_call()
        except LockProtocolError as exc:
            ref_exc = exc
        if (real_exc is None) != (ref_exc is None):
            self._diverge(
                operation,
                f"protocol-error divergence: real raised {real_exc!r}, "
                f"reference raised {ref_exc!r}")
        if real_exc is not None:
            # Both sides rejected the operation the same way; state is
            # untouched on both, so re-raise the real error unchanged.
            self.ops_checked += 1
            raise real_exc
        return real_result, ref_result

    # ------------------------------------------------------------------
    # Mirrored mutations
    # ------------------------------------------------------------------

    def request(self, txn: Txn, page: Page,
                mode: LockMode) -> RequestOutcome:
        if self._mirroring:      # nested call from the real side
            return super().request(txn, page, mode)
        real, ref = self._mirror(
            "request",
            lambda: super(ShadowLockTable, self).request(txn, page, mode),
            lambda: self.reference.request(txn, page, mode))
        if real is not ref:
            self._diverge(
                "request",
                f"outcome diverged for {txn!r} on page {page!r} "
                f"({mode.name}): real={real.value} reference={ref.value}")
        self._compare_state("request", (page,))
        return real

    def release(self, txn: Txn, page: Page) -> List[Grant]:
        if self._mirroring:
            return super().release(txn, page)
        real, ref = self._mirror(
            "release",
            lambda: super(ShadowLockTable, self).release(txn, page),
            lambda: self.reference.release(txn, page))
        self._compare_grants("release", real, ref)
        self._compare_state("release", (page,))
        return real

    def release_all(self, txn: Txn) -> List[Grant]:
        if self._mirroring:
            return super().release_all(txn)
        touched = set(self.held_pages(txn))
        waited = self.waiting_on(txn)
        if waited is not None:
            touched.add(waited)
        real, ref = self._mirror(
            "release_all",
            lambda: super(ShadowLockTable, self).release_all(txn),
            lambda: self.reference.release_all(txn))
        self._compare_grants("release_all", real, ref)
        self._compare_state("release_all", touched)
        return real

    def cancel_wait(self, txn: Txn) -> List[Grant]:
        if self._mirroring:
            return super().cancel_wait(txn)
        waited = self.waiting_on(txn)
        touched = () if waited is None else (waited,)
        real, ref = self._mirror(
            "cancel_wait",
            lambda: super(ShadowLockTable, self).cancel_wait(txn),
            lambda: self.reference.cancel_wait(txn))
        self._compare_grants("cancel_wait", real, ref)
        self._compare_state("cancel_wait", touched)
        return real
