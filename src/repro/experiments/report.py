"""Generate EXPERIMENTS.md: paper-vs-measured for every figure.

Runs every registered figure at the requested scale and renders a
markdown report with, per figure, the paper's qualitative claim, the
measured data table, and an automatic verdict computed from the same
shape checks the benchmark suite asserts (re-implemented here in a
summarized form: the bench suite remains the source of truth).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import List

from repro.experiments.figures import all_figures
from repro.experiments.figures.base import FigureResult, FigureSpec
from repro.experiments.scales import Scale

__all__ = ["generate_report"]

_HEADER = """\
# EXPERIMENTS — paper vs measured

Reproduction of every evaluation figure from Carey, Krishnamurthi &
Livny, *Load Control for Locking: The 'Half-and-Half' Approach* (1990).

* Scale: **{scale}** (warmup {warmup:.0f}s, {batches} batches x
  {batch:.0f}s{dense}).
* Absolute pages/second are not expected to match the paper (different
  simulator internals, same model); *shapes* — peaks, crossovers,
  who-wins orderings — are the reproduction target and are asserted
  mechanically by ``pytest benchmarks/``.
* Regenerate this file: ``repro-experiment report --scale {scale}``.
* Digging into *why* a configuration thrashes: rerun it with
  ``--telemetry-dir tel/ --spans`` and read the blame table
  (``repro-experiment telemetry latency tel/``).  Interpretation: the
  **top blockers** are transactions ranked by lock-wait seconds they
  *induced in others* — in a thrashing run expect a few mature
  (State-2) writers near the top holding hot X locks; the **hottest
  pages** row shows whether waits concentrate on a handful of pages
  (hot-spot contention) or spread thin (pure MPL overload); the **mean
  chain depth** separates the two thrashing modes — depth near 1 means
  independent pairwise conflicts (throughput-limited), while growing
  depth means convoys are forming and admission control is late.
* Watching a thrashing transition *as it happens*: rerun with
  ``--telemetry-dir tel/ --contention --online``.  ``--contention``
  exports the per-page hot-page table and per-probe-tick wait-for-graph
  statistics (``contention.jsonl``); ``--online`` runs streaming
  detectors (EWMA + CUSUM) over the live state fractions and logs
  typed ``regime_change`` decisions (stable → pre_thrash → thrashing).
  Roll a whole sweep up with ``repro-experiment telemetry sweep tel/``:
  one ``sweep_summary.json`` with per-run onset estimates, the knee of
  each MPL→throughput curve, and the sweep-wide hottest pages.
* Finding out where the *simulator's own wall time* goes (as opposed
  to the simulated system's): rerun with ``--telemetry-dir tel/
  --spans --perf --alloc`` and open ``tel/<run>/flame.speedscope.json``
  in speedscope (or feed ``flame.collapsed`` to any flamegraph tool).
  Reading the flamegraph: frames nest **phase → subsystem → event type
  → page class**, so the first split tells you whether warmup is
  eating the run, the second whether time sits in ``dbms.system``
  state transitions or ``sim.resources.cpu`` / ``sim.resources.disk``
  service completions, and the
  leaf whether the read set or the commit path dominates.  Wide
  ``read_page`` leaves under ``request_lock`` with a thrashing
  workload are expected (every page touch is a lock request); a wide
  ``commit_path`` under a *light* workload usually means per-commit
  bookkeeping grew.  Per-event-type ns/event lives in ``perf.json``
  and the dashboard's perf section; ``trace.json`` opens in Perfetto
  to scrub individual transactions against the State 1–4 counter
  tracks.  The profiled loop pays the hook cost, so compare profiled
  rates only with profiled rates — the hook-free numbers come from
  ``python3 perfbench/run.py --trace 0``, which repeats each workload
  and reports the median and spread of every metric.
* Reading ``ext_controller_bakeoff``: the four series differ in their
  *shedding currency*, not just throughput.  Half-and-Half pays in
  discarded work (its abort column grows fast past the knee);
  Malthusian pays in parked time (aborts stay near the deadlock-only
  floor because excess waiters are passivated with their state intact);
  Analytic MPC pays in idle terminals (it never sheds, it just refuses
  to admit past its model's argmax).  Passivation wins wherever
  overload is *population* pressure — uniform workloads past the knee,
  where the cheapest fix is simply fewer concurrent transactions and
  aborting a blocked transaction wastes its finished reads.
  Abort-shedding keeps an edge where overload is a *formed clot* — a
  hot-spot convoy whose members already hold locks on the hot pages:
  aborting a convoy member releases its locks and dissolves the clot,
  while passivation (restricted to zero-lock waiters, anything
  stronger would strand locks in the cold set) can only prevent the
  next convoy, never unwind the current one.  Compare the hotspot
  series with the abort extras to see both regimes in one figure.
* Reading a model-refit trail: rerun any Analytic MPC point with
  ``--telemetry-dir tel/`` and filter ``decisions.jsonl`` for
  ``"action": "refit"``.  Each refit row logs the newly fitted
  conflict coefficient in ``measure`` and the admission-target move in
  ``detail`` (``mpl old -> new``); a healthy trail converges — target
  changes shrink toward zero — while a drifting workload shows the
  target tracking the drift.  The ``shrink_cap`` /``passivate`` /
  ``readmit`` actions give the same offline replay for Malthusian's
  AIMD cap.
* ``ext_distributed_failures`` is a *time series*, not a sweep: a
  four-site cluster under the failure-realistic model (lossy messages
  with retries, real 2PC with in-doubt participants) rides through a
  deterministic site-crash + partition window.  Rerunning it with
  ``--telemetry-dir tel/ --verify`` checks the distributed invariant
  catalog (population conservation across parked/limbo/in-doubt
  states, network and 2PC decision-record accounting) and exports the
  per-site probe stream; ``repro-experiment telemetry sites tel/``
  renders the per-site story — who was down, who ran degraded, where
  in-doubt participants piled up, and each site's recovery.

"""


def _verdict(result: FigureResult) -> str:
    """A light-weight measured-shape summary for the report."""
    lines: List[str] = []
    for name, ys in result.series.items():
        values = [y for y in ys if y is not None]
        if not values:
            continue
        peak = max(values)
        peak_x = result.x_values[ys.index(peak)]
        lines.append(
            f"  * `{name}`: peak {peak:.1f} at {result.x_label} "
            f"{peak_x:g}, final {values[-1]:.1f}")
    return "\n".join(lines)


def generate_report(scale: Scale, out_path: str = "EXPERIMENTS.md",
                    echo=print) -> Path:
    """Run all figures at ``scale`` and write the markdown report."""
    parts: List[str] = [_HEADER.format(
        scale=scale.name, warmup=scale.warmup_time,
        batches=scale.num_batches, batch=scale.batch_time,
        dense=", dense sweep grids" if scale.dense else "")]
    specs: List[FigureSpec] = all_figures()
    total_start = time.time()
    for spec in specs:
        echo(f"running {spec.figure_id} ...", file=sys.stderr)
        start = time.time()
        result = spec.run(scale)
        elapsed = time.time() - start
        parts.append(f"## {spec.figure_id}: {spec.title}\n")
        parts.append(f"**Paper claim.** {spec.paper_claim}.\n")
        parts.append("**Measured.**\n")
        parts.append("```")
        parts.append(result.as_table())
        parts.append("```")
        verdict = _verdict(result)
        if verdict:
            parts.append("\nSeries summary:\n")
            parts.append(verdict)
        parts.append(f"\n_({elapsed:.0f}s at scale {scale.name})_\n")
    parts.append(
        f"\n---\nTotal generation time: "
        f"{time.time() - total_start:.0f}s.\n")
    path = Path(out_path)
    path.write_text("\n".join(parts))
    return path
