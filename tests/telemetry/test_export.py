"""Telemetry export: session lifecycle, determinism, schema validity."""

from __future__ import annotations

import json
from functools import partial

import pytest

from repro.control.fixed_mpl import FixedMPLController
from repro.core.half_and_half import HalfAndHalfController
from repro.experiments.parallel import RunSpec, run_specs, spec_key
from repro.experiments.runner import run_simulation
from repro.metrics.trace import Tracer
from repro.telemetry import (TelemetryConfig, TelemetrySession,
                             validate_run_dir, write_cache_hit_manifest)
from repro.telemetry.export import json_dump, jsonl_dump

RUN_FILES = ["manifest.json", "probes.jsonl", "decisions.jsonl",
             "trace.jsonl", "profile.json"]


def _run_session(params, out_dir, **session_kwargs):
    session = TelemetrySession(out_dir, **session_kwargs)
    results = run_simulation(params, HalfAndHalfController(),
                             telemetry=session)
    return session, results


def test_session_emits_all_files(tiny_params, tmp_path):
    _run_session(tiny_params, tmp_path / "run")
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == \
        sorted(RUN_FILES)
    assert validate_run_dir(tmp_path / "run") == []


def test_manifest_provenance(tiny_params, tmp_path):
    session, _ = _run_session(tiny_params, tmp_path / "run",
                              probe_interval=2.0)
    session.manifest_extra  # attribute exists even when unused
    manifest = json.loads(
        (tmp_path / "run" / "manifest.json").read_text())
    assert manifest["format"] == "repro-telemetry-v1"
    assert manifest["seed"] == tiny_params.seed
    assert manifest["params"]["num_terms"] == tiny_params.num_terms
    assert manifest["probe_interval"] == 2.0
    assert manifest["cache_hit"] is False
    assert manifest["records"]["probes"] > 0
    assert manifest["records"]["decisions"] > 0
    assert len(manifest["code_fingerprint"]) == 16


def test_dump_bytes_match_per_call_json_dumps(tmp_path):
    # The writers share one encoder; their bytes must equal a fresh
    # ``json.dumps`` with the same options, record by record.
    records = [
        {"b": 1, "a": [1.5, None, True], "z": {"y": "\u00e9", "x": -0.0}},
        {"nan": float("nan"), "inf": float("inf"), "big": 10 ** 20},
        {},
    ]

    def dumps(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    jsonl_dump(records, tmp_path / "r.jsonl")
    assert (tmp_path / "r.jsonl").read_text(encoding="utf-8") == "".join(
        dumps(r) + "\n" for r in records)
    json_dump(records, tmp_path / "r.json")
    assert (tmp_path / "r.json").read_text(encoding="utf-8") == \
        dumps(records) + "\n"


def test_deterministic_bytes_across_runs(tiny_params, tmp_path):
    """Identical specs produce byte-identical deterministic artifacts."""
    _run_session(tiny_params, tmp_path / "a")
    _run_session(tiny_params, tmp_path / "b")
    for name in RUN_FILES:
        if name == "profile.json":
            continue  # wall-clock: the one deliberately variable file
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_profile_quarantines_wall_clock(tiny_params, tmp_path):
    _run_session(tiny_params, tmp_path / "run")
    profile = json.loads((tmp_path / "run" / "profile.json").read_text())
    assert profile["wall_time_seconds"] > 0.0
    loop = profile["event_loop"]
    assert loop["events"] > 0
    assert "telemetry.probes" in loop["subsystems"]
    # Wall-clock facts must NOT leak into the deterministic manifest.
    manifest = json.loads(
        (tmp_path / "run" / "manifest.json").read_text())
    assert "wall_time_seconds" not in manifest


def test_telemetry_and_tracer_are_mutually_exclusive(tiny_params, tmp_path):
    session = TelemetrySession(tmp_path / "run")
    with pytest.raises(ValueError):
        run_simulation(tiny_params, HalfAndHalfController(),
                       tracer=Tracer(), telemetry=session)


def test_cache_hit_manifest_never_clobbers(tiny_params, tmp_path):
    run_dir = tmp_path / "run"
    _run_session(tiny_params, run_dir)
    full = (run_dir / "manifest.json").read_bytes()
    assert write_cache_hit_manifest(run_dir, seed=1) is None
    assert (run_dir / "manifest.json").read_bytes() == full

    fresh = tmp_path / "hit"
    path = write_cache_hit_manifest(fresh, seed=7, params=tiny_params,
                                    extra={"spec_key": "abc", "tag": None})
    manifest = json.loads(path.read_text())
    assert manifest["cache_hit"] is True
    assert manifest["seed"] == 7
    assert validate_run_dir(fresh) == []


def test_run_specs_serial_and_pool_write_identical_bytes(tiny_params,
                                                         tmp_path):
    specs = [
        RunSpec(params=tiny_params,
                controller_factory=HalfAndHalfController),
        RunSpec(params=tiny_params,
                controller_factory=partial(FixedMPLController, 4)),
    ]
    serial = run_specs(specs, jobs=1, telemetry=tmp_path / "serial")
    pooled = run_specs(specs, jobs=2, telemetry=tmp_path / "pool")
    assert serial == pooled
    keys = [spec_key(s) for s in specs]
    for key in keys:
        for name in RUN_FILES:
            if name == "profile.json":
                continue
            assert (tmp_path / "serial" / key / name).read_bytes() == \
                (tmp_path / "pool" / key / name).read_bytes(), (key, name)
        manifest = json.loads(
            (tmp_path / "serial" / key / "manifest.json").read_text())
        assert manifest["spec_key"] == key


def test_run_specs_cache_hits_record_provenance(tiny_params, tmp_path):
    specs = [RunSpec(params=tiny_params,
                     controller_factory=HalfAndHalfController)]
    run_specs(specs, cache=tmp_path / "cache")  # populate
    run_specs(specs, cache=tmp_path / "cache",
              telemetry=tmp_path / "tel")
    key = spec_key(specs[0])
    run_dir = tmp_path / "tel" / key
    assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.json"]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["cache_hit"] is True
    assert manifest["spec_key"] == key
    assert validate_run_dir(run_dir) == []


def test_session_with_monitors_emits_their_files(tiny_params, tmp_path):
    _run_session(tiny_params, tmp_path / "run",
                 contention=True, online=True)
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == \
        sorted(RUN_FILES + ["contention.jsonl", "contention.json",
                            "regimes.json"])
    assert validate_run_dir(tmp_path / "run") == []
    manifest = json.loads(
        (tmp_path / "run" / "manifest.json").read_text())
    assert "contention" in manifest["records"]
    assert "regime_changes" in manifest["records"]


def test_monitored_runs_keep_deterministic_bytes(tiny_params, tmp_path):
    _run_session(tiny_params, tmp_path / "a", contention=True, online=True)
    _run_session(tiny_params, tmp_path / "b", contention=True, online=True)
    for name in RUN_FILES + ["contention.jsonl", "contention.json",
                             "regimes.json"]:
        if name == "profile.json":
            continue
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_telemetry_config_round_trips_through_pickle(tmp_path):
    import pickle
    config = TelemetryConfig(root=str(tmp_path), probe_interval=0.5,
                             trace_capacity=100, contention=True,
                             online=True)
    assert pickle.loads(pickle.dumps(config)) == config
    session = config.session_for("run-id")
    assert session.contention is not None
    assert session.online is not None


def test_schema_validator_flags_bad_records(tmp_path):
    from repro.telemetry import PROBE_SCHEMA, validate_record
    errors = validate_record({"time": "not-a-number"}, PROBE_SCHEMA)
    assert any("missing required" in e for e in errors)
    assert any("'time'" in e and "str" in e for e in errors)
    # Booleans are not integers.
    from repro.telemetry import TRACE_SCHEMA
    errors = validate_record(
        {"time": 1.0, "type": "admit", "txn_id": True, "detail": ""},
        TRACE_SCHEMA)
    assert any("txn_id" in e for e in errors)


def test_jsonl_validator_reports_lines_and_unreadable_files(tmp_path):
    from repro.telemetry import TRACE_SCHEMA, validate_jsonl
    path = tmp_path / "trace.jsonl"
    path.write_text(
        '{"detail":"","time":1.0,"txn_id":1,"type":"admit"}\n'
        '\n'
        '{"detail":"","time":2.0,"txn_id":1,"type":"commit"\n'
        '   \n'
        '{"detail":"","time":3.0,"txn_id":true,"type":"admit"}\n'
        '{"time":4.0}', encoding="utf-8")
    # Blank lines count but are not records; a truncated record's
    # decode error stays on its own line.
    assert validate_jsonl(path, TRACE_SCHEMA) == [
        "trace.jsonl:3: invalid JSON (Expecting ',' delimiter: line 1 "
        "column 51 (char 50))",
        "trace.jsonl:5: field 'txn_id' has type bool, expected integer",
        "trace.jsonl:6: missing required field 'type'",
        "trace.jsonl:6: missing required field 'txn_id'",
        "trace.jsonl:6: missing required field 'detail'",
    ]
    for unreadable in (tmp_path / "missing.jsonl", tmp_path):
        errors = validate_jsonl(unreadable, TRACE_SCHEMA)
        assert len(errors) == 1
        assert errors[0].startswith(f"{unreadable}: unreadable (")


# ----------------------------------------------------------------------
# Fixed-field row encoders: byte for byte the sort_keys encoder
# ----------------------------------------------------------------------

def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


EDGE_NUMBERS = [float("nan"), float("inf"), float("-inf"), -0.0, 1e-7,
                1e16, 10 ** 20, 0, -3, 0.1 + 0.2]
EDGE_TEXTS = ["", 'say "hi"', "back\\slash", "ctl\x00\x01\t\n\x1f",
              "café 日本 \U0001f600", "  \x7f"]


def test_trace_row_matches_sort_keys_encoder():
    from repro.metrics.trace import TraceEvent, TraceEventType
    from repro.telemetry.export import trace_event_to_dict, trace_row
    rows = [(t, kind, txn_id, detail)
            for t in EDGE_NUMBERS
            for kind in (TraceEventType.BLOCK, TraceEventType.ABORT)
            for txn_id in (0, 7, 10 ** 20)
            for detail in EDGE_TEXTS]
    for row in rows:
        assert trace_row(row) == _dumps(trace_event_to_dict(TraceEvent(*row)))


def test_span_row_matches_sort_keys_encoder():
    from repro.telemetry.export import span_row
    from repro.telemetry.spans import Span, SpanKind
    rows = []
    for value in EDGE_NUMBERS:
        rows.append((3, SpanKind.CPU, value, value, 1, None, None, None))
        rows.append((3, SpanKind.LOCK_WAIT, 0.5, value, 2, 17, 4, 1))
    for missing in range(3):        # None in each optional field
        optional = [17, 4, 2]
        optional[missing] = None
        rows.append((9, SpanKind.LOCK_WAIT, 1.0, 2.0, 1, *optional))
    for kind in SpanKind:
        rows.append((10 ** 20, kind, -0.0, 1e16, 3, 0, 0, 0))
    for row in rows:
        assert span_row(row) == _dumps(Span(*row).to_dict())


def test_decision_row_matches_sort_keys_encoder():
    from repro.telemetry.decisions import ControllerDecision
    from repro.telemetry.export import decision_row
    decisions = [
        ControllerDecision(time=t, controller=name, action="admit",
                           region=None, n_active=n, n_state1=n // 2,
                           n_state3=0, txn_id=None, measure=t,
                           threshold=None, detail=detail)
        for t in EDGE_NUMBERS
        for name in ("HalfAndHalf@site0", 'q"uote')
        for n in (0, 5)
        for detail in EDGE_TEXTS[:3]]
    decisions.append(ControllerDecision(
        time=1.0, controller="c", action="abort", region="overloaded",
        n_active=3, n_state1=1, n_state3=2, txn_id=42, measure=0.6,
        threshold=0.8, detail=EDGE_TEXTS[4]))
    for missing in ("region", "txn_id", "measure", "threshold"):
        fields = dict(time=2.0, controller="c", action="x",
                      region="comfortable", n_active=4, n_state1=1,
                      n_state3=1, txn_id=1, measure=0.25, threshold=0.8)
        fields[missing] = None
        decisions.append(ControllerDecision(**fields))
    for decision in decisions:
        assert decision_row(decision) == _dumps(decision.to_dict())


def test_observed_run_exports_equal_the_record_dicts(tiny_params,
                                                     tmp_path):
    # The full observed configuration: every observer plus the
    # verifier.  The rows the encoders wrote must be the bytes
    # jsonl_dump writes for the records' own dicts.
    from repro.telemetry.export import trace_event_to_dict
    from repro.verify import VerifyConfig
    run_dir = tmp_path / "run"
    session = TelemetrySession(run_dir, spans=True, contention=True,
                               online=True)
    run_simulation(tiny_params, HalfAndHalfController(),
                   telemetry=session, verify=VerifyConfig())
    expected = {
        "spans.jsonl": [s.to_dict() for s in session.spans],
        "trace.jsonl": [trace_event_to_dict(e) for e in session.tracer],
        "decisions.jsonl": [d.to_dict() for d in session.decisions],
    }
    for name, records in expected.items():
        assert records, name
        jsonl_dump(records, tmp_path / name)
        assert (run_dir / name).read_bytes() == \
            (tmp_path / name).read_bytes(), name
    assert validate_run_dir(run_dir) == []


def test_observed_shape_rows_equal_the_encoder_of_each_record(tmp_path):
    # The benchmark's observed shape (100 terminals, 1000 pages, every
    # observer and the default verification): each exported row is, byte
    # for byte, the shared encoder applied to its record's dict.
    from repro.dbms.config import SimulationParameters
    from repro.telemetry.export import _ENCODER, trace_event_to_dict
    from repro.verify import VerifyConfig
    params = SimulationParameters(num_terms=100, db_size=1000, seed=1,
                                  warmup_time=10.0, num_batches=1,
                                  batch_time=10.0)
    run_dir = tmp_path / "run"
    session = TelemetrySession(run_dir, spans=True, contention=True,
                               online=True)
    run_simulation(params, HalfAndHalfController(), telemetry=session,
                   verify=VerifyConfig())
    expected = {
        "trace.jsonl": [trace_event_to_dict(e) for e in session.tracer],
        "spans.jsonl": [s.to_dict() for s in session.spans],
        "decisions.jsonl": [d.to_dict() for d in session.decisions],
    }
    for name, records in expected.items():
        lines = (run_dir / name).read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(records) > 100, name
        for line, record in zip(lines, records):
            assert line == _ENCODER.encode(record), name


def test_row_encoders_fall_back_only_for_what_they_cannot_type(
        monkeypatch):
    # Hand-built rows: None in the optional span fields, text with
    # quotes and non-ASCII characters, and non-finite floats.  Every
    # row must equal the encoder's bytes for its record; only the rows
    # carrying a non-finite float may reach the encoder.
    import repro.telemetry.export as export
    from repro.metrics.trace import TraceEvent, TraceEventType
    from repro.telemetry.decisions import ControllerDecision
    from repro.telemetry.spans import Span, SpanKind
    encoder = export._ENCODER
    fallbacks = []

    class CountingEncoder:
        def encode(self, obj):
            fallbacks.append(obj)
            return encoder.encode(obj)

    monkeypatch.setattr(export, "_ENCODER", CountingEncoder())
    text = 'say "hi" \\ café 日本 \U0001f600'
    nan, inf = float("nan"), float("inf")
    typed = [
        (export.span_row, (3, SpanKind.CPU, 1.0, 2.5, 1, None, None, None),
         lambda row: Span(*row).to_dict()),
        (export.span_row,
         (4, SpanKind.LOCK_WAIT, 1.0, 2.5, 2, 17, None, None),
         lambda row: Span(*row).to_dict()),
        (export.span_row, (4, SpanKind.LOCK_WAIT, 1.0, 2.5, 2, 17, 9, 3),
         lambda row: Span(*row).to_dict()),
        (export.trace_row, (1.5, TraceEventType.BLOCK, 7, text),
         lambda row: export.trace_event_to_dict(TraceEvent(*row))),
        (export.decision_row,
         ControllerDecision(time=2.0, controller="c", action="admit",
                            detail=text),
         ControllerDecision.to_dict),
        (export.decision_row,
         ControllerDecision(time=2.0, controller="c", action="abort",
                            region="overloaded", n_active=3, n_state1=1,
                            n_state3=2, txn_id=42, measure=4,
                            threshold=0.5),
         ControllerDecision.to_dict),
    ]
    for encode, record, to_dict in typed:
        assert encode(record) == encoder.encode(to_dict(record))
    assert fallbacks == []
    untyped = [
        (export.span_row, (3, SpanKind.DISK, 1.0, inf, 1, None, None, None),
         lambda row: Span(*row).to_dict()),
        (export.trace_row, (nan, TraceEventType.ABORT, 7, text),
         lambda row: export.trace_event_to_dict(TraceEvent(*row))),
        (export.decision_row,
         ControllerDecision(time=2.0, controller="c", action="refit",
                            measure=nan, threshold=-inf),
         ControllerDecision.to_dict),
    ]
    for encode, record, to_dict in untyped:
        before = len(fallbacks)
        assert encode(record) == encoder.encode(to_dict(record))
        assert len(fallbacks) == before + 1
