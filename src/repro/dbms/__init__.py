"""The logical DBMS model: configuration, transactions, queues, system."""

from repro._lazy import lazy_exports

__all__ = [
    "LRUBuffer",
    "NullBuffer",
    "SimulationParameters",
    "ReadyQueue",
    "DBMSSystem",
    "Transaction",
    "TxnPhase",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.dbms.buffer": ("LRUBuffer", "NullBuffer"),
    "repro.dbms.config": ("SimulationParameters",),
    "repro.dbms.ready_queue": ("ReadyQueue",),
    "repro.dbms.system": ("DBMSSystem",),
    "repro.dbms.transaction": ("Transaction", "TxnPhase"),
})
