"""Two-phase locking substrate: lock table, deadlocks, protocols, policies."""

from repro._lazy import lazy_exports

__all__ = [
    "LockMode",
    "compatible",
    "Grant",
    "LockTable",
    "RequestOutcome",
    "WaitsForGraph",
    "build_graph",
    "choose_victim",
    "find_cycle",
    "resolve_deadlocks",
    "BoundedWaitPolicy",
    "NoWaitPolicy",
    "UnboundedWaitPolicy",
    "WaitPolicy",
    "compatible_groups",
    "LockProtocol",
    "DeadlockStrategy",
    "wait_die_should_die",
    "wound_wait_victims",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.lockmgr.deadlock": ("choose_victim", "find_cycle",
                               "resolve_deadlocks"),
    "repro.lockmgr.lock_table": ("Grant", "LockTable", "RequestOutcome"),
    "repro.lockmgr.modes": ("LockMode", "compatible"),
    "repro.lockmgr.prevention": ("DeadlockStrategy", "wait_die_should_die",
                                 "wound_wait_victims"),
    "repro.lockmgr.protocols": ("LockProtocol",),
    "repro.lockmgr.wait_policy": ("BoundedWaitPolicy", "NoWaitPolicy",
                                  "UnboundedWaitPolicy", "WaitPolicy",
                                  "compatible_groups"),
    "repro.lockmgr.waits_for": ("WaitsForGraph", "build_graph"),
})
