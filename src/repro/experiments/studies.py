"""Shared multi-figure studies.

Several paper figures are different views of one underlying sweep
(Figures 8–10 and 16–17 all come from the transaction-size study).  The
studies here submit every run of the sweep as one flat batch to the
parallel execution layer — so all runs fan out together under ``--jobs``
and land in the on-disk cache — and memoize the assembled study on the
*full* run-spec fingerprint (parameters, controllers, seeds, code
version), not just the scale's name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.control.fixed_mpl import FixedMPLController
from repro.control.tay import TayRuleController
from repro.core.half_and_half import HalfAndHalfController
from repro.dbms.config import SimulationParameters
from repro.experiments.parallel import RunSpec, run_specs, spec_key
from repro.experiments.scales import Scale
from repro.experiments.sweeps import default_mpl_candidates, select_optimal_mpl
from repro.fingerprint import sha256
from repro.metrics.results import SimulationResults

__all__ = [
    "base_params",
    "terminal_sweep_points",
    "txn_size_points",
    "TxnSizeStudy",
    "txn_size_study",
]

# Fixed MPL reference lines used across the transaction-size figures:
# 35 is the base case optimum; 20 "chosen simply as another example".
REFERENCE_MPLS = (35, 20)


def base_params(scale: Scale, **overrides) -> SimulationParameters:
    """Table 2 base parameters at the given measurement scale."""
    params = SimulationParameters(**overrides)
    return scale.apply(params)


def terminal_sweep_points(scale: Scale) -> List[int]:
    """#terminals grid for the Figure 1/3/7/18/22-style sweeps."""
    fine = [5, 10, 15, 20, 25, 30, 35, 40, 50, 60, 75,
            100, 125, 150, 175, 200]
    coarse = [5, 15, 25, 35, 50, 75, 100, 150, 200]
    return scale.pick(fine, coarse)


def txn_size_points(scale: Scale) -> List[int]:
    """Mean transaction sizes for the Figure 8–10/16–17/21 sweeps."""
    fine = [4, 8, 12, 16, 24, 32, 40, 48, 56, 64, 72]
    coarse = [4, 8, 16, 32, 48, 72]
    return scale.pick(fine, coarse)


@dataclass
class TxnSizeStudy:
    """All runs of the transaction-size sweep (Figures 8–10, 16–17)."""

    sizes: List[int]
    half_and_half: Dict[int, SimulationResults]
    fixed: Dict[Tuple[int, int], SimulationResults]   # (mpl, size) -> result
    optimal_mpl: Dict[int, int]                       # size -> best MPL
    optimal: Dict[int, SimulationResults]             # size -> best result
    tay: Dict[int, SimulationResults]
    tay_mpl: Dict[int, int]


# In-process memo for assembled studies, keyed on a fingerprint of every
# run spec in the study (the old cache was keyed on the scale *name*
# alone, which silently served stale results to any caller that tweaked
# parameters, grids, or seeds between calls).
_STUDY_CACHE: Dict[str, TxnSizeStudy] = {}


def _tay_spec(params: SimulationParameters) -> RunSpec:
    """Tay's-rule run for one parameter point (MPL capped at #terminals)."""
    return RunSpec(params=params,
                   controller_factory=TayRuleController,
                   controller_args=(params.db_size, params.tran_size,
                                    params.write_prob),
                   controller_kwargs=(("max_mpl", params.num_terms),))


def txn_size_study(scale: Scale) -> TxnSizeStudy:
    """Run (or fetch) the transaction-size sweep at this scale.

    200 terminals, base parameters, mean size varying from 4 to 72 pages;
    curves for Half-and-Half, the two reference fixed MPLs, the searched
    optimal MPL, and Tay's rule.  All runs go out as a single batch.
    """
    sizes = txn_size_points(scale)

    # (kind, size, mpl-or-None) bookkeeping parallel to the spec list.
    specs: List[RunSpec] = []
    index: List[Tuple[str, int, object]] = []
    for size in sizes:
        params = base_params(scale, tran_size=size)
        specs.append(RunSpec(params=params,
                             controller_factory=HalfAndHalfController))
        index.append(("hh", size, None))
        for mpl in REFERENCE_MPLS:
            specs.append(RunSpec(params=params,
                                 controller_factory=FixedMPLController,
                                 controller_args=(mpl,)))
            index.append(("fixed", size, mpl))
        for mpl in default_mpl_candidates(params.num_terms,
                                          dense=scale.dense):
            specs.append(RunSpec(params=params,
                                 controller_factory=FixedMPLController,
                                 controller_args=(mpl,)))
            index.append(("candidate", size, mpl))
        specs.append(_tay_spec(params))
        index.append(("tay", size, None))

    digest = sha256(
        "\n".join(spec_key(s) for s in specs).encode()).hexdigest()
    cached = _STUDY_CACHE.get(digest)
    if cached is not None:
        return cached

    results = run_specs(specs, label="txn-size-study")

    hh: Dict[int, SimulationResults] = {}
    fixed: Dict[Tuple[int, int], SimulationResults] = {}
    by_size_candidates: Dict[int, Dict[int, SimulationResults]] = {}
    tay: Dict[int, SimulationResults] = {}
    tay_mpls: Dict[int, int] = {}
    for (kind, size, mpl), spec, result in zip(index, specs, results):
        if kind == "hh":
            hh[size] = result
        elif kind == "fixed":
            fixed[(mpl, size)] = result
        elif kind == "candidate":
            by_size_candidates.setdefault(size, {})[mpl] = result
        else:
            tay[size] = result
            tay_mpls[size] = spec.make_controller().mpl

    opt_mpl: Dict[int, int] = {}
    opt: Dict[int, SimulationResults] = {}
    for size in sizes:
        best = select_optimal_mpl(by_size_candidates[size])
        opt_mpl[size] = best
        opt[size] = by_size_candidates[size][best]

    study = TxnSizeStudy(sizes=sizes, half_and_half=hh, fixed=fixed,
                         optimal_mpl=opt_mpl, optimal=opt,
                         tay=tay, tay_mpl=tay_mpls)
    _STUDY_CACHE[digest] = study
    return study
