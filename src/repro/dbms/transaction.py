"""Transaction objects and their lifecycle state.

A transaction is born at a terminal with a fixed *reference string*: an
ordered readset (pages sampled without replacement from the database) and a
writeset (a subset of the readset).  The paper's restart semantics pin two
details we keep faithfully:

* an aborted transaction "goes to the back of the ready queue [and] then
  begins making all of the same concurrency control requests and page
  accesses over again" — so the reference string survives restarts; and
* "transactions are timestamped when they first arrive, and retain their
  timestamps even if aborted (to avoid starvation)" — so ``timestamp`` is
  immutable after creation.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Set

from repro.lockmgr.protocols import LockProtocol

__all__ = ["TxnPhase", "Transaction"]


class TxnPhase(enum.Enum):
    """Where a transaction is in its lifecycle."""

    THINKING = "thinking"        # being generated at a terminal
    READY = "ready"              # in the external ready queue
    EXECUTING = "executing"      # active: reading pages / acquiring locks
    UPDATING = "updating"        # active: writing deferred updates
    COMMITTED = "committed"
    ABORTED = "aborted"          # transient, between abort and re-queue
    PARKED = "parked"            # passivated into the cold set


class Transaction:
    """One transaction: immutable plan plus mutable execution state."""

    __slots__ = (
        "txn_id", "terminal_id", "class_name", "timestamp",
        "readset", "writeset", "lock_protocol",
        "estimated_locks", "maturity_threshold",
        "phase", "step_index", "locks_completed", "is_mature", "is_blocked",
        "pending_updates", "wounded", "doomed",
        "restarts", "admitted_at", "attempt_reads", "attempt_writes",
    )

    def __init__(self, txn_id: int, terminal_id: int, timestamp: float,
                 readset: Sequence[int], writeset: Set[int],
                 lock_protocol: LockProtocol = LockProtocol.TWO_PHASE,
                 class_name: str = "default"):
        self.txn_id = txn_id
        self.terminal_id = terminal_id
        self.class_name = class_name
        self.timestamp = timestamp          # immutable across restarts
        self.readset: List[int] = list(readset)
        self.writeset: Set[int] = set(writeset)
        self.lock_protocol = lock_protocol
        # Filled in by the system at admission time (depends on the
        # configured estimate error and the controller's maturity rule).
        self.estimated_locks = self.total_lock_requests()
        self.maturity_threshold = 1

        self.phase = TxnPhase.THINKING
        self.step_index = 0                 # next readset position
        self.locks_completed = 0            # granted lock requests so far
        self.is_mature = False
        self.is_blocked = False
        self.wounded = False                # wound-wait: abort at checkpoint
        self.doomed: Optional[str] = None   # failure model: abort at
        #                                     checkpoint with this reason
        self.pending_updates: List[int] = []  # dirty pages left to flush
        self.restarts = 0
        self.admitted_at: Optional[float] = None
        self.attempt_reads = 0              # page reads this attempt
        self.attempt_writes = 0             # deferred writes this attempt

    # ------------------------------------------------------------------

    @property
    def num_reads(self) -> int:
        """Pages this transaction reads."""
        return len(self.readset)

    @property
    def num_writes(self) -> int:
        """Pages this transaction writes (deferred)."""
        return len(self.writeset)

    @property
    def is_read_only(self) -> bool:
        return not self.writeset

    def total_lock_requests(self) -> int:
        """Lock requests in a full successful execution.

        One S request per page read plus one upgrade request per page
        written (when upgrades are in effect the upgrade is a separate
        request; with immediate X locking the count is the same because
        the X request simply replaces the S request + upgrade pair with a
        single stronger request — we count *requests*, so immediate-X
        transactions make only ``num_reads`` requests and callers account
        for that via :meth:`repro.dbms.system.DBMSSystem`).
        """
        return self.num_reads + self.num_writes

    def current_page(self) -> int:
        """The page the transaction is working on."""
        return self.readset[self.step_index]

    def finished_reading(self) -> bool:
        """True once every readset page has been processed."""
        return self.step_index >= len(self.readset)

    def reset_for_restart(self) -> None:
        """Rewind execution state after an abort (plan is preserved)."""
        self.phase = TxnPhase.READY
        self.step_index = 0
        self.locks_completed = 0
        self.is_mature = False
        self.is_blocked = False
        self.wounded = False
        self.doomed = None
        self.pending_updates = []
        self.restarts += 1
        self.admitted_at = None
        self.attempt_reads = 0
        self.attempt_writes = 0

    def __repr__(self) -> str:
        return (f"<Txn {self.txn_id} cls={self.class_name} "
                f"r={self.num_reads} w={self.num_writes} "
                f"phase={self.phase.value} restarts={self.restarts}>")
