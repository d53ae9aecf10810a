"""Deadlock detection and victim selection.

Per the paper (Section 1): "A waits-for graph of transactions is
maintained, and deadlock detection is performed when a transaction is
required to block.  In the event of a deadlock, one of the transactions
involved (e.g., the youngest one) is chosen as the victim and is aborted."

Detection therefore runs only at block time, starting from the transaction
that just blocked: any new cycle must pass through it.  Victim selection is
*youngest first* by original arrival timestamp — and because aborted
transactions retain their timestamps on restart (footnote 4), an old
transaction eventually becomes the oldest in any cycle and can no longer be
victimized, which prevents starvation.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.lockmgr.lock_table import LockTable

__all__ = ["find_cycle", "choose_victim", "resolve_deadlocks"]

Txn = Any


def find_cycle(lock_table: LockTable, start: Txn) -> Optional[List[Txn]]:
    """Find a waits-for cycle through ``start``, or None.

    Performs an iterative DFS over the lazy waits-for adjacency
    (:meth:`LockTable.blocking_set`).  Returns the cycle as a list of
    transactions beginning and ending conceptually at ``start`` (the list
    contains each cycle member once).
    """
    # DFS with explicit stack; path tracks the current chain from start.
    # ``visited`` holds transactions themselves, as the lock table's
    # dicts do.  Everything on the path has been visited, so one
    # ``visited`` test covers both skips below.
    path: List[Txn] = [start]
    iter_stack = [iter(lock_table.blocking_order(start))]
    visited = {start}
    while iter_stack:
        for nxt in iter_stack[-1]:
            if nxt is start:
                # Completed a cycle back to the start node.
                return list(path)
            if nxt in visited:
                # Either on the path -- a cycle not through ``start``,
                # which existed before this block (detection at block
                # time only reports cycles through the new waiter, so
                # such cycles were resolved when they formed) -- or
                # already explored.
                continue
            visited.add(nxt)
            blockers = lock_table.blocking_order(nxt)
            if not blockers:
                continue  # running transaction: dead end
            path.append(nxt)
            iter_stack.append(iter(blockers))
            break
        else:
            path.pop()
            iter_stack.pop()
    return None


def choose_victim(cycle: List[Txn],
                  timestamp: Callable[[Txn], float]) -> Txn:
    """Pick the youngest transaction in the cycle (largest timestamp).

    Callers should pass a unique key (``DBMSSystem`` passes
    ``(timestamp, txn_id)``); among equal keys the first in cycle order
    wins, which is deterministic but depends on the cycle's order.
    """
    return max(cycle, key=timestamp)


def resolve_deadlocks(lock_table: LockTable, start: Txn,
                      timestamp: Callable[[Txn], float],
                      abort: Callable[[Txn], None],
                      max_iterations: int = 1000) -> List[Txn]:
    """Repeatedly find and break cycles through ``start``.

    ``abort(victim)`` must remove the victim from the lock table (releasing
    its locks and cancelling its wait) as a side effect; this function loops
    until no cycle through ``start`` remains or ``start`` itself was chosen
    as the victim.  Returns the victims aborted, in order.
    """
    victims: List[Txn] = []
    for _ in range(max_iterations):
        if not lock_table.is_waiting(start):
            break  # start was granted (a victim's release unblocked it)
        cycle = find_cycle(lock_table, start)
        if cycle is None:
            break
        victim = choose_victim(cycle, timestamp)
        victims.append(victim)
        abort(victim)
        if victim is start:
            break
    return victims
