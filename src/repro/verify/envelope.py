"""The analytic model as a differential reference for the simulator.

The mean-value model in :mod:`repro.control.analytic` and the
discrete-event simulator are two independent derivations of the same
quantity — committed page throughput — from the same workload
parameters.  The model cannot *pin* the simulator (it is a fluid
approximation that knows nothing about batching, restart delays, or
deadlock geometry), but it can bound it: if simulated throughput falls
outside a generous multiplicative envelope around the model's
prediction at the observed MPL, one of the two sides is wrong.

That catches a class of bug the trajectory-hash goldens cannot: a
golden pins *change* ("the trajectory moved"), the envelope pins
*plausibility* ("the throughput is the kind of number this workload can
produce").  A consistent mis-accounting — double-counted commits, a
lock manager that silently stopped blocking anyone, service times
applied in the wrong unit — shifts goldens and envelope together, but
only the envelope knows the new number is physically absurd.

:func:`check_envelope` runs the pinned suite at smoke scale and
compares each entry's simulated page throughput against
:func:`~repro.control.analytic.predict_throughput` evaluated at that
run's *observed* average MPL (so the check is about the model's
throughput surface, not about whether a controller found the optimum).
The default band accepts simulated values between ``0.25×`` and
``1.6×`` the prediction — wide, deliberately: the model ignores abort
waste and restart pauses (simulated < predicted under contention) and
fluid-approximates blocking (predicted can undershoot at very low
MPL).  The band is calibrated so every pinned entry sits comfortably
inside it today; a regression has to move throughput by more than any
plausible modelling slack to hide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.verify.suite import BenchEntry, suite_for
from repro.control.analytic import predict_throughput
from repro.errors import VerificationError

__all__ = ["EnvelopeResult", "check_entry", "check_envelope",
           "DEFAULT_LOWER", "DEFAULT_UPPER"]

# Accepted simulated/predicted ratio band.  See the module docstring
# for why it is this wide.
DEFAULT_LOWER = 0.25
DEFAULT_UPPER = 1.6


@dataclass(frozen=True)
class EnvelopeResult:
    """One entry's predicted-vs-simulated comparison."""

    name: str
    observed_mpl: float
    simulated: float       # pages/s, batch-means
    predicted: float       # pages/s, model at the observed MPL
    ratio: float           # simulated / predicted
    lower: float
    upper: float

    @property
    def passed(self) -> bool:
        return self.lower <= self.ratio <= self.upper

    def summary_line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        return (f"{status} {self.name:<18} mpl={self.observed_mpl:6.1f}  "
                f"sim={self.simulated:8.2f}  pred={self.predicted:8.2f}  "
                f"ratio={self.ratio:5.2f}  band=[{self.lower}, {self.upper}]")


def check_entry(entry: BenchEntry, *,
                lower: float = DEFAULT_LOWER,
                upper: float = DEFAULT_UPPER) -> EnvelopeResult:
    """Run one bench entry and compare it against the model."""
    # Imported here: runner -> telemetry -> ... would cycle at module
    # import time through repro.verify.
    from repro.experiments.runner import run_simulation

    results = run_simulation(entry.params, entry.make_controller())
    params = entry.params
    # Evaluate the model at the MPL the run actually sustained (at
    # least 1 — an idle system predicts nothing).
    mpl = max(1, round(results.avg_mpl))
    predicted = predict_throughput(
        mpl, params.tran_size, params.db_size, params.write_prob,
        num_cpus=params.num_cpus, num_disks=params.num_disks,
        page_cpu=params.page_cpu, page_io=params.page_io)
    simulated = results.page_throughput.mean
    ratio = simulated / predicted if predicted > 0 else float("inf")
    return EnvelopeResult(
        name=entry.name, observed_mpl=results.avg_mpl,
        simulated=simulated, predicted=predicted, ratio=ratio,
        lower=lower, upper=upper)


def check_envelope(scale: str = "smoke", *,
                   lower: float = DEFAULT_LOWER,
                   upper: float = DEFAULT_UPPER,
                   names: Optional[Sequence[str]] = None,
                   raise_on_failure: bool = True) -> List[EnvelopeResult]:
    """Check every pinned bench entry against the analytic envelope.

    Args:
        scale: bench scale (``smoke`` or ``full``).
        lower / upper: accepted simulated/predicted ratio band.
        names: restrict to these entry names (default: all).
        raise_on_failure: raise :class:`VerificationError` naming every
            out-of-band entry instead of returning silently.
    """
    entries = suite_for(scale)
    if names is not None:
        wanted = set(names)
        unknown = wanted - {e.name for e in entries}
        if unknown:
            raise VerificationError(
                f"unknown bench entries: {sorted(unknown)}")
        entries = tuple(e for e in entries if e.name in wanted)
    results = [check_entry(e, lower=lower, upper=upper)
               for e in entries]
    failures = [r for r in results if not r.passed]
    if failures and raise_on_failure:
        lines = "\n  ".join(r.summary_line() for r in failures)
        raise VerificationError(
            f"simulated throughput escaped the analytic envelope for "
            f"{len(failures)} of {len(results)} entries:\n  {lines}")
    return results
