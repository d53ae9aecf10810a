"""Tests for telemetry on distributed runs: the session's observers,
the site probe stream, and the sites report."""

from __future__ import annotations

import json

import pytest

from repro.distributed.config import DistributedParameters
from repro.distributed.controllers import make_half_and_half_sites
from repro.distributed.failures import SiteFaultPlan
from repro.distributed.runner import run_distributed_simulation
from repro.errors import ExperimentError
from repro.telemetry import (
    TelemetryConfig,
    render_sites_report,
    validate_run_dir,
)
from repro.verify import VerifyConfig

PLAN = SiteFaultPlan.parse("crash@1:8:4; part@8:4:0-1|2")


def _params(**overrides):
    defaults = dict(num_sites=3, num_terms=30, db_size=300,
                    warmup_time=3.0, num_batches=2, batch_time=8.0,
                    failure_model=True, msg_loss_prob=0.02)
    defaults.update(overrides)
    return DistributedParameters(**defaults)


def _run_session(root, run_id="dist-run", **overrides):
    config = TelemetryConfig(root=str(root), probe_interval=0.5)
    session = config.session_for(run_id)
    result = run_distributed_simulation(
        _params(**overrides), make_half_and_half_sites(3),
        fault_plan=PLAN, telemetry=session)
    return result, root / run_id


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    root = tmp_path_factory.mktemp("telemetry")
    return _run_session(root)


def test_exports_site_probe_stream(exported):
    _, run_dir = exported
    rows = [json.loads(line) for line in
            (run_dir / "site_probes.jsonl").read_text().splitlines()]
    assert rows
    assert {row["site"] for row in rows} == {0, 1, 2}
    # Within each probe tick, sites appear in ascending order.
    by_time = {}
    for row in rows:
        by_time.setdefault(row["time"], []).append(row["site"])
    assert all(sites == sorted(sites) for sites in by_time.values())
    # The crash window is visible: site 1 down, survivors degraded.
    assert any(not row["up"] for row in rows if row["site"] == 1)
    assert any(row["degraded"] for row in rows if row["site"] != 1)
    # In-doubt 2PC participants appear somewhere in the run.
    assert any(row["in_doubt"] > 0 for row in rows)


def test_run_dir_validates_and_manifest_counts_sites(exported):
    _, run_dir = exported
    assert validate_run_dir(run_dir) == []
    manifest = json.loads((run_dir / "manifest.json").read_text())
    rows = (run_dir / "site_probes.jsonl").read_text().splitlines()
    assert manifest["records"]["site_probes"] == len(rows)
    assert manifest["fault_plan"] == str(PLAN)


def test_decision_log_tags_per_site_controllers(exported):
    _, run_dir = exported
    controllers = {json.loads(line)["controller"] for line in
                   (run_dir / "decisions.jsonl").read_text().splitlines()}
    assert any(name.endswith("@site0") for name in controllers)
    actions = [json.loads(line)["action"] for line in
               (run_dir / "decisions.jsonl").read_text().splitlines()]
    assert "site_crash" in actions
    assert "site_recover" in actions
    assert "degraded_enter" in actions


def test_telemetry_is_observational(exported):
    result, _ = exported
    bare = run_distributed_simulation(_params(),
                                      make_half_and_half_sites(3),
                                      fault_plan=PLAN)
    assert (result.commits, result.aborts, result.page_throughput.mean) \
        == (bare.commits, bare.aborts, bare.page_throughput.mean)


def test_exports_are_byte_identical(tmp_path):
    _, dir_a = _run_session(tmp_path / "a")
    _, dir_b = _run_session(tmp_path / "b")
    for name in ("site_probes.jsonl", "probes.jsonl", "decisions.jsonl"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_sites_report_renders(exported):
    _, run_dir = exported
    report = render_sites_report(run_dir)
    assert "site 0:" in report and "site 2:" in report
    assert "down" in report and "in-doubt" in report
    # Also renders from the telemetry root.
    assert "site 1:" in render_sites_report(run_dir.parent)


def test_sites_report_requires_site_probes(tmp_path):
    (tmp_path / "manifest.json").write_text("{}")
    with pytest.raises(ExperimentError):
        render_sites_report(tmp_path)


def test_every_observer_exports_on_a_faulted_four_site_run(tmp_path):
    config = TelemetryConfig(root=str(tmp_path), probe_interval=0.5,
                             spans=True, contention=True, online=True)
    plan = SiteFaultPlan.parse("crash@1:8:4; part@8:4:0-1|2-3")
    run_distributed_simulation(
        _params(num_sites=4, num_terms=40, db_size=400),
        make_half_and_half_sites(4), fault_plan=plan,
        telemetry=config.session_for("all"), verify=VerifyConfig())
    run_dir = tmp_path / "all"
    for name in ("spans.jsonl", "latency.json", "contention.jsonl",
                 "contention.json", "regimes.json", "site_probes.jsonl"):
        assert (run_dir / name).stat().st_size > 0, name
    assert validate_run_dir(run_dir) == []
    spans = [json.loads(line) for line in
             (run_dir / "spans.jsonl").read_text().splitlines()]
    # Lock waits carry their blocker and wait-chain depth, read from
    # the union lock view.
    waits = [row for row in spans if row["kind"] == "lock_wait"]
    assert waits and all(row["depth"] >= 1 for row in waits)
    assert all(row["blocker"] is not None for row in waits)
    contention = [json.loads(line) for line in
                  (run_dir / "contention.jsonl").read_text().splitlines()]
    assert any(row["waiters"] > 0 for row in contention)
