"""Golden-run manifests: end-to-end regression pinning for the simulator.

A golden manifest records, for every pinned configuration
(:mod:`repro.verify.suite`, smoke scale), a sha256 over the canonical
JSON of the run's results and a second sha256 over the full lifecycle
trace, plus the raw commit/abort counts for human-readable diffs.  The
simulator is deterministic for a given seed, so these hashes are stable
across machines and Python versions — any change means the simulated
*trajectory* changed, which is either an intentional semantic change
(regenerate with ``repro-experiments verify golden --update``) or a
regression (fix it).

The manifest lives at ``tests/goldens/golden_runs.json`` and is checked
by the tier-1 test suite and by the CI ``verify-smoke`` job.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.control.analytic import AnalyticMPCController
from repro.control.malthusian import MalthusianController
from repro.dbms.config import SimulationParameters
from repro.experiments.export import results_to_dict
from repro.experiments.runner import run_simulation
from repro.fingerprint import sha256
from repro.metrics.trace import Tracer
from repro.telemetry.export import trace_event_to_dict
from repro.verify.suite import SCALES, BenchEntry, suite_for

__all__ = ["GOLDEN_SCALE", "MANIFEST_FORMAT", "default_golden_path",
           "compute_golden_manifest", "load_golden_manifest",
           "compare_manifests", "check_goldens", "update_goldens",
           "extra_golden_entries"]

PathLike = Union[str, Path]

# Bench scale the goldens pin.  Smoke is deliberate: seconds per entry,
# yet a trajectory change anywhere upstream still flips the hashes.
GOLDEN_SCALE = "smoke"

# Bump when the manifest layout (not the simulation) changes.
MANIFEST_FORMAT = 1


def default_golden_path() -> Path:
    """``tests/goldens/golden_runs.json`` relative to the repo root."""
    return (Path(__file__).resolve().parents[3]
            / "tests" / "goldens" / "golden_runs.json")


def _canonical_sha256(payload) -> str:
    encoded = json.dumps(payload, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return sha256(encoded).hexdigest()


def extra_golden_entries(scale: str = GOLDEN_SCALE) -> List[BenchEntry]:
    """Golden-only pinned configurations, beyond the pinned suite.

    ``verify envelope`` runs exactly the five suite entries, so the
    configurations that exist only to pin controller *trajectories*
    live here rather than in the suite: one Malthusian run hot enough
    to drive passivation/readmission churn, and one analytic-MPC run
    with several refit epochs.
    """
    overrides = SCALES[scale]
    contended = SimulationParameters(num_terms=100, db_size=300,
                                     write_prob=0.5, **overrides)
    return [
        BenchEntry("malthusian_hot", contended, MalthusianController),
        BenchEntry("analytic_mpc_hot", contended, AnalyticMPCController),
    ]


def compute_golden_manifest(scale: str = GOLDEN_SCALE) -> Dict:
    """Run every pinned entry and hash its results and trace."""
    entries = {}
    for entry in (*suite_for(scale), *extra_golden_entries(scale)):
        tracer = Tracer(capacity=None)
        results = run_simulation(entry.params, entry.make_controller(),
                                 tracer=tracer)
        result_dict = results_to_dict(results)
        trace_dicts = [trace_event_to_dict(e) for e in tracer]
        entries[entry.name] = {
            "results_sha256": _canonical_sha256(result_dict),
            "trace_sha256": _canonical_sha256(trace_dicts),
            "trace_events": len(trace_dicts),
            "commits": result_dict["commits"],
            "aborts": result_dict["aborts"],
        }
    return {
        "format": MANIFEST_FORMAT,
        "scale": scale,
        "entries": entries,
    }


def load_golden_manifest(path: Optional[PathLike] = None) -> Dict:
    path = Path(path) if path is not None else default_golden_path()
    return json.loads(path.read_text())


def compare_manifests(expected: Dict, actual: Dict) -> List[str]:
    """Human-readable mismatches between two manifests (empty = match)."""
    problems: List[str] = []
    if expected.get("format") != actual.get("format"):
        problems.append(
            f"manifest format {actual.get('format')} != expected "
            f"{expected.get('format')} (regenerate with --update)")
        return problems
    if expected.get("scale") != actual.get("scale"):
        problems.append(
            f"manifest scale {actual.get('scale')!r} != expected "
            f"{expected.get('scale')!r}")
    exp_entries = expected.get("entries", {})
    act_entries = actual.get("entries", {})
    for name in sorted(set(exp_entries) | set(act_entries)):
        exp = exp_entries.get(name)
        act = act_entries.get(name)
        if exp is None:
            problems.append(f"{name}: not in the golden manifest")
            continue
        if act is None:
            problems.append(f"{name}: pinned in the manifest but the "
                            f"pinned suite no longer defines it")
            continue
        for key in ("results_sha256", "trace_sha256"):
            if exp.get(key) != act.get(key):
                problems.append(
                    f"{name}: {key} changed "
                    f"(expected {exp.get(key)}, got {act.get(key)}; "
                    f"commits {exp.get('commits')} -> "
                    f"{act.get('commits')}, aborts {exp.get('aborts')} "
                    f"-> {act.get('aborts')})")
    return problems


def check_goldens(path: Optional[PathLike] = None) -> List[str]:
    """Re-run the pinned configurations and diff against the manifest.

    Returns mismatch descriptions; an empty list means every golden
    still reproduces bit-for-bit.
    """
    expected = load_golden_manifest(path)
    actual = compute_golden_manifest(expected.get("scale", GOLDEN_SCALE))
    return compare_manifests(expected, actual)


def update_goldens(path: Optional[PathLike] = None) -> Path:
    """Regenerate the manifest in place and return its path."""
    path = Path(path) if path is not None else default_golden_path()
    manifest = compute_golden_manifest()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                    + "\n")
    return path
