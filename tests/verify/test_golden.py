"""Golden-run regression: the five pinned bench configs must reproduce.

The committed manifest at ``tests/goldens/golden_runs.json`` pins a
sha256 of the results and of the full lifecycle trace for every bench
suite entry at smoke scale, plus the controller-coverage extras
(``extra_golden_entries``).  ``test_goldens_reproduce`` re-runs them
all and diffs — a failure means the simulated trajectory changed.  If the
change is intentional, regenerate with::

    PYTHONPATH=src python -m repro.experiments.cli verify golden --update

and commit the new manifest alongside the semantic change.
"""

from __future__ import annotations

import copy
import json

from repro.verify.suite import suite_for
from repro.verify.golden import (GOLDEN_SCALE, MANIFEST_FORMAT,
                                 check_goldens, compare_manifests,
                                 default_golden_path,
                                 extra_golden_entries,
                                 load_golden_manifest, update_goldens)


def test_manifest_is_committed_and_well_formed():
    path = default_golden_path()
    assert path.is_file()
    manifest = load_golden_manifest()
    assert manifest["format"] == MANIFEST_FORMAT
    assert manifest["scale"] == GOLDEN_SCALE
    expected_names = {entry.name
                      for entry in (*suite_for(GOLDEN_SCALE),
                                    *extra_golden_entries(GOLDEN_SCALE))}
    assert set(manifest["entries"]) == expected_names
    # The five bench-suite configs plus the controller-coverage extras
    # (the passivating and model-predictive controllers, pinned hot).
    assert len(expected_names) == 7
    for entry in manifest["entries"].values():
        assert len(entry["results_sha256"]) == 64
        assert len(entry["trace_sha256"]) == 64
        assert entry["commits"] > 0


def test_goldens_reproduce():
    assert check_goldens() == []


def test_update_writes_the_same_manifest(tmp_path):
    # Regenerating from scratch must reproduce the committed bytes —
    # the documented --update workflow is deterministic.
    regenerated = update_goldens(tmp_path / "regen.json")
    assert (regenerated.read_text()
            == default_golden_path().read_text())


# ----------------------------------------------------------------------
# compare_manifests reporting
# ----------------------------------------------------------------------

def _manifest():
    return json.loads(default_golden_path().read_text())


def test_compare_identical_manifests_is_clean():
    assert compare_manifests(_manifest(), _manifest()) == []


def test_compare_reports_hash_drift_with_counts():
    expected, actual = _manifest(), _manifest()
    name = sorted(actual["entries"])[0]
    actual["entries"][name]["results_sha256"] = "0" * 64
    actual["entries"][name]["commits"] += 7
    problems = compare_manifests(expected, actual)
    assert len(problems) == 1
    assert name in problems[0]
    assert "results_sha256" in problems[0]
    assert "commits" in problems[0]


def test_compare_reports_missing_and_extra_entries():
    expected, actual = _manifest(), _manifest()
    name = sorted(expected["entries"])[0]
    del actual["entries"][name]
    actual["entries"]["brand_new"] = copy.deepcopy(
        expected["entries"][sorted(expected["entries"])[1]])
    problems = compare_manifests(expected, actual)
    assert any(name in p and "no longer defines" in p for p in problems)
    assert any("brand_new" in p and "not in the golden manifest" in p
               for p in problems)


def test_compare_format_mismatch_short_circuits():
    expected, actual = _manifest(), _manifest()
    actual["format"] = MANIFEST_FORMAT + 1
    problems = compare_manifests(expected, actual)
    assert len(problems) == 1
    assert "format" in problems[0]
