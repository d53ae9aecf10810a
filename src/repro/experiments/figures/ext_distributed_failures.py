"""Distributed load control through a crash + partition window
(extension figure).

The paper's Section 5 asks how load control generalises to a
distributed DBMS; this extension asks the *operational* version of the
question: what happens when a site actually fails?  A four-site
cluster runs the failure-realistic model (lossy messages with
timeout/retry, real two-phase commit with in-doubt participants,
degraded-mode admission), and over the middle quarter of the
measurement window one site crashes while a network partition isolates
another.  Transactions homed at the crashed site abort or park, 2PC
participants hold prepared locks in doubt, and every surviving site's
liveness detector flips to degraded.

Two policies ride through the disturbance:

* **Half-and-Half + safe mode** — per-site adaptive control plus the
  degraded-mode admission clamp (``safe_mode_mpl``): suspected
  cluster-wide trouble caps fresh admissions until the remotes are
  heard from again;
* **fixed MPL** — a static per-site limit tuned for the healthy
  cluster, with the degraded-mode clamp disabled — it keeps admitting
  its steady-state population into a cluster that cannot finish
  remote work.

The figure is a *time series* (unlike the steady-state sweeps): the
x-axis is simulated time, each point one probe interval's cluster page
throughput.  The claim is about the recovery shape — the adaptive
policy sheds load through the window and re-converges to its pre-fault
operating point after recovery, while the static policy degrades
deeper through the window.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List

from repro.distributed.config import DistributedParameters
from repro.distributed.controllers import (
    PerSiteControllerSet,
    make_fixed_mpl_sites,
    make_half_and_half_sites,
)
from repro.distributed.failures import (
    NetworkPartition,
    SiteCrash,
    SiteFaultPlan,
)
from repro.distributed.system import DistributedSystem
from repro.experiments.figures.base import FigureResult, FigureSpec
from repro.experiments.parallel import current_context
from repro.experiments.runner import measure
from repro.experiments.scales import Scale
from repro.telemetry.sites import DistributedProbeScheduler

__all__ = ["FIGURE", "run", "fault_plan_for"]

NUM_SITES = 4
LOCALITY = 0.8
NUM_TERMS = 160          # 40 terminals per home site
FIXED_MPL = 16           # per-site static limit, tuned for health
CRASH_SITE = 1
ISOLATED_SITE = 3
INTERVALS = 20           # probe points across the whole horizon


def fault_plan_for(scale: Scale) -> SiteFaultPlan:
    """Crash site 1 and isolate site 3 over the middle quarter of the
    measurement window (all times deterministic, so the plan is too)."""
    measured = scale.num_batches * scale.batch_time
    start = scale.warmup_time + 0.375 * measured
    duration = 0.25 * measured
    others = tuple(s for s in range(NUM_SITES) if s != ISOLATED_SITE)
    return SiteFaultPlan(
        crashes=(SiteCrash(site=CRASH_SITE, at=start, duration=duration),),
        partitions=(NetworkPartition(start=start, duration=duration,
                                     group_a=others,
                                     group_b=(ISOLATED_SITE,)),))


def _params_for(scale: Scale, degraded_admission: bool
                ) -> DistributedParameters:
    return DistributedParameters(
        num_sites=NUM_SITES, num_terms=NUM_TERMS, locality=LOCALITY,
        warmup_time=scale.warmup_time, batch_time=scale.batch_time,
        num_batches=scale.num_batches,
        failure_model=True, msg_loss_prob=0.01, msg_jitter=0.0005,
        degraded_admission=degraded_admission)


def _throughput_series(scale: Scale,
                       params: DistributedParameters,
                       controllers: PerSiteControllerSet,
                       plan: SiteFaultPlan,
                       run_id: str) -> Dict[str, object]:
    """One policy's run: per-interval cluster pages/s plus evidence.

    Honors the ambient execution context's ``verify`` and ``telemetry``
    settings the way the spec executor does for batch figures — this
    figure drives the system directly because it needs the probe
    stream, which the batch-means result type does not carry.
    """
    ctx = current_context()
    system = DistributedSystem(params=params, controllers=controllers,
                               fault_plan=plan)
    horizon = (params.warmup_time
               + params.num_batches * params.batch_time)
    session = None
    if ctx.telemetry is not None:
        session = ctx.telemetry.session_for(run_id)
        session.install_distributed(system)
    # The figure's own probe stream: fixed point count at any scale,
    # independent of the telemetry session's probe interval.
    probes = DistributedProbeScheduler(system,
                                       interval=horizon / INTERVALS)
    probes.start()
    check_end = None
    if ctx.verify is not None:
        from repro.verify.distributed import (DistributedInvariantChecker,
                                              check_quiesce)
        checker = DistributedInvariantChecker(ctx.verify)
        checker.attach(system)

        def check_end() -> None:
            checker.check_all(context="figure horizon")
            check_quiesce(system)
    measure(system, perf_counter(), telemetry=session, check_end=check_end,
            extra={"fault_plan": str(plan)})
    times: List[float] = []
    pages_per_sec: List[float] = []
    prev_pages = 0
    for sample in probes.samples:
        times.append(sample.time)
        pages_per_sec.append((sample.cum_pages - prev_pages)
                             / probes.interval)
        prev_pages = sample.cum_pages
    return {
        "times": times,
        "series": pages_per_sec,
        "aborts_by_reason": dict(sorted(
            system.collector.aborts_by_reason.items())),
        "network": system.network.stats(),
    }


def run(scale: Scale) -> FigureResult:
    plan = fault_plan_for(scale)
    measured = scale.num_batches * scale.batch_time
    window = (scale.warmup_time + 0.375 * measured,
              scale.warmup_time + 0.625 * measured)

    hh = _throughput_series(
        scale, _params_for(scale, degraded_admission=True),
        make_half_and_half_sites(NUM_SITES), plan,
        run_id="ext_distributed_failures-hh")
    fixed = _throughput_series(
        scale, _params_for(scale, degraded_admission=False),
        make_fixed_mpl_sites(NUM_SITES, FIXED_MPL), plan,
        run_id="ext_distributed_failures-mpl")

    def recovery_ratio(run: Dict[str, object]) -> float:
        """Post-window throughput relative to pre-window (1.0 = full
        re-convergence)."""
        times: List[float] = run["times"]          # type: ignore
        series: List[float] = run["series"]        # type: ignore
        before = [y for t, y in zip(times, series)
                  if scale.warmup_time <= t <= window[0]]
        after = [y for t, y in zip(times, series) if t > window[1]]
        if not before or not after or sum(before) == 0.0:
            return 0.0
        return (sum(after) / len(after)) / (sum(before) / len(before))

    return FigureResult(
        figure_id="ext_distributed_failures",
        title=(f"Cluster throughput through a site crash + partition "
               f"({NUM_SITES} sites, locality {LOCALITY:.0%})"),
        x_label="simulated seconds",
        y_label="pages/second (cluster, per interval)",
        x_values=hh["times"],                      # type: ignore
        series={"Half-and-Half + safe mode": hh["series"],
                f"fixed MPL {FIXED_MPL}": fixed["series"]},
        notes=(f"site {CRASH_SITE} crashes and site {ISOLATED_SITE} is "
               f"partitioned off over [{window[0]:g}, {window[1]:g}); "
               f"prepared 2PC participants hold locks in doubt until "
               f"the coordinator's decision or presumed abort"),
        extras={
            "fault_plan": str(plan),
            "fault_window": list(window),
            "hh_aborts_by_reason": hh["aborts_by_reason"],
            "fixed_aborts_by_reason": fixed["aborts_by_reason"],
            "hh_network": hh["network"],
            "fixed_network": fixed["network"],
            "hh_recovery_ratio": recovery_ratio(hh),
            "fixed_recovery_ratio": recovery_ratio(fixed),
        },
    )


FIGURE = FigureSpec(
    figure_id="ext_distributed_failures",
    title="Load control through site failures (extension)",
    paper_claim=("adaptive per-site control with degraded-mode "
                 "admission sheds load during a crash + partition "
                 "window and re-converges after recovery; a static "
                 "MPL keeps admitting into the degraded cluster and "
                 "loses more throughput"),
    run=run,
    tags=("extension", "distributed", "fault-injection"),
)
