"""Every shedding controller's results and decision rows, pinned.

The golden manifest pins Half-and-Half's trajectories and the export
digests pin one Half-and-Half session; this test pins the rest of the
three-region shedding controllers byte for byte.  For each controller
configuration, two model shapes and two seeds it records the sha256 of
the run's results (commits, aborts and the page-throughput and raw
page-rate means) and of every decision row, in full and in order.  Each
configuration runs twice, without a decision log and with one, and
both runs must measure the same results: logging never feeds back.

A deliberate change of a controller's results or rows regenerates the
digests::

    PYTHONPATH=src python tests/control/test_controller_digests.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from repro.control.blocked_fraction import BlockedFractionController
from repro.control.conflict_ratio import ConflictRatioController
from repro.control.malthusian import MalthusianController
from repro.core.half_and_half import HalfAndHalfController
from repro.dbms.config import SimulationParameters
from repro.experiments.runner import run_simulation
from repro.fingerprint import sha256
from repro.telemetry.decisions import DecisionLog

DIGESTS = (Path(__file__).resolve().parents[1] / "goldens"
           / "controller_decisions.json")

CONTROLLERS = {
    "hh": HalfAndHalfController,
    "hh-oldest": lambda: HalfAndHalfController(victim_policy="oldest"),
    "hh-random": lambda: HalfAndHalfController(victim_policy="random"),
    "hh-any-blocked": lambda: HalfAndHalfController(
        require_blocking_victims=False),
    "hh-delta0": lambda: HalfAndHalfController(delta=0.0),
    "bf": BlockedFractionController,
    "cr": ConflictRatioController,
    "cr-tight": lambda: ConflictRatioController(critical_ratio=1.05,
                                                abort_margin=0.0),
    "malthusian": MalthusianController,
}

#: (terminals, pages, write probability)
SHAPES = ((120, 300, 0.5), (100, 1000, 0.25))
SEEDS = (1, 7)

CASES = [f"{name}/{terms}x{pages}/seed{seed}"
         for name in CONTROLLERS
         for terms, pages, _write in SHAPES
         for seed in SEEDS]


def _params(terms, pages, write, seed):
    return SimulationParameters(
        num_terms=terms, db_size=pages, write_prob=write, seed=seed,
        warmup_time=5.0, num_batches=3, batch_time=10.0)


def _hash_lines(lines) -> str:
    return sha256("\n".join(lines).encode()).hexdigest()


def _results_digest(results) -> str:
    return _hash_lines(repr(value) for value in (
        results.commits, results.aborts,
        results.page_throughput.mean, results.raw_page_rate.mean))


def case_digest(case: str) -> dict:
    """Run one case without and with a decision log; its digests."""
    name, shape, seed = case.split("/")
    terms, pages = (int(part) for part in shape.split("x"))
    write = next(w for t, p, w in SHAPES if (t, p) == (terms, pages))
    params = _params(terms, pages, write, int(seed[len("seed"):]))
    bare = run_simulation(params, CONTROLLERS[name]())
    controller = CONTROLLERS[name]()
    log = DecisionLog(capacity=None)
    controller.decision_log = log
    logged = run_simulation(params, controller)
    results = _results_digest(bare)
    assert _results_digest(logged) == results, "logging moved the results"
    rows = list(log.rows())
    # Rows must serialise: a non-finite measure would not.
    assert all(row[8] is None or math.isfinite(row[8]) for row in rows)
    return {"results": results,
            "decisions": _hash_lines(repr(row) for row in rows),
            "rows": len(rows)}


@pytest.fixture(scope="module")
def expected():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("case", CASES)
def test_controller_keeps_its_results_and_rows(case, expected):
    assert case_digest(case) == expected[case]


def test_every_case_is_pinned(expected):
    assert sorted(expected) == sorted(CASES)


if __name__ == "__main__":
    digests = {case: case_digest(case) for case in CASES}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True)
                       + "\n")
    sys.stdout.write(f"wrote {DIGESTS}\n")
