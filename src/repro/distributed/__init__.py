"""Distributed DBMS load control (paper Section 5, future work).

"We have considered only the case of a single, centralized DBMS.  The
question of how to add load control to a distributed DBMS with
decentralized control seems to be an interesting one, as load control
deadlocks must be carefully prevented."

This subpackage explores that question with a multi-site extension of
the paper's model: the database is range-partitioned across sites, each
site owns a CPU pool, a disk array, and a lock table, transactions
originate at a home site and access remote pages over a constant-delay
network, and each site runs its *own* Half-and-Half controller over the
transactions homed there.  See :mod:`repro.distributed.system` for the
modelling decisions and :mod:`repro.distributed.controllers` for how
admission stays deadlock-free.

The failure-realistic layer (:mod:`repro.distributed.failures`,
:mod:`repro.distributed.network`) adds deterministic site crashes and
network partitions, a lossy message transport with timeout/retry, a
real two-phase commit with in-doubt participant state, and
degraded-mode admission — all zero-cost when off: a run without a
fault plan and with ``failure_model=False`` is byte-identical to the
constant-delay model.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DistributedParameters",
    "RangePartition",
    "DistributedWorkload",
    "PerSiteControllerSet",
    "make_fixed_mpl_sites",
    "make_half_and_half_sites",
    "make_no_control_sites",
    "NetworkPartition",
    "SiteCrash",
    "SiteFaultPlan",
    "Network",
    "ReliableCall",
    "DistributedSystem",
    "run_distributed_simulation",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.distributed.config": ("DistributedParameters",),
    "repro.distributed.controllers": ("PerSiteControllerSet",
                                      "make_fixed_mpl_sites",
                                      "make_half_and_half_sites",
                                      "make_no_control_sites"),
    "repro.distributed.failures": ("NetworkPartition", "SiteCrash",
                                   "SiteFaultPlan"),
    "repro.distributed.network": ("Network", "ReliableCall"),
    "repro.distributed.partition": ("RangePartition",),
    "repro.distributed.runner": ("run_distributed_simulation",),
    "repro.distributed.system": ("DistributedSystem",),
    "repro.distributed.workload": ("DistributedWorkload",),
})
