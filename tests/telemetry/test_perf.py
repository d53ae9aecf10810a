"""Perf layer: attribution profiler, flamegraph/trace export, zero-cost-off."""

from __future__ import annotations

import json

import pytest

from repro.control.no_control import NoControlController
from repro.experiments.runner import run_simulation
from repro.telemetry import (
    CHROME_TRACE_SCHEMA,
    PERF_SCHEMA,
    SPEEDSCOPE_SCHEMA,
    AllocationProbe,
    EngineProfiler,
    PerfProfiler,
    TelemetrySession,
    canonical_qualname,
    chrome_trace_document,
    collapsed_stacks,
    page_class_of,
    speedscope_document,
    validate_record,
    validate_run_dir,
)

# ---------------------------------------------------------------------------
# canonical qualnames and event-type keying


class _Callbacks:
    def _page_read_done(self):
        pass

    def _request_lock(self):
        pass


def test_canonical_qualname_handles_nameless_callables():
    # partial objects carry neither __qualname__ nor __name__: the key
    # falls back to the type name instead of raising.
    import functools
    partial = functools.partial(lambda: None)
    assert canonical_qualname(partial) == "partial"


def test_engine_profiler_keys_bound_methods_by_qualname():
    # Bound methods are fresh objects per attribute access (and differ
    # per instance); one method still keys as one event type.
    profiler = EngineProfiler()
    profiler.record(_Callbacks()._page_read_done, 0.001)
    profiler.record(_Callbacks()._page_read_done, 0.002)
    (key,) = profiler.by_event_type
    assert key.endswith("._Callbacks._page_read_done")
    assert profiler.by_event_type[key][0] == 2
    assert profiler.by_event_type[key][1] == pytest.approx(0.003)


def test_engine_profiler_record_accepts_args():
    profiler = EngineProfiler()
    profiler.record(_Callbacks()._page_read_done, 0.001, ("anything",))
    assert profiler.events == 1


# ---------------------------------------------------------------------------
# page classes and logical stacks


class _FakeTxn:
    def __init__(self, step, reads, writes):
        self.step_index = step
        self.readset = list(range(reads))
        self.writeset = set(range(writes))


def test_page_class_of():
    assert page_class_of(()) == "-"
    assert page_class_of((object(),)) == "-"
    assert page_class_of((_FakeTxn(0, 3, 1),)) == "read_page"
    assert page_class_of((_FakeTxn(2, 3, 1),)) == "read_page"
    assert page_class_of((_FakeTxn(3, 3, 1),)) == "write_page"
    assert page_class_of((_FakeTxn(3, 3, 0),)) == "commit_path"


def test_perf_profiler_stacks_and_phases():
    profiler = PerfProfiler()
    cb = _Callbacks()
    profiler.set_phase("warmup")
    profiler.record(cb._page_read_done, 0.001, (_FakeTxn(0, 2, 1),))
    profiler.set_phase("measure")
    profiler.record(cb._page_read_done, 0.002, (_FakeTxn(0, 2, 1),))
    profiler.record(cb._page_read_done, 0.004, (_FakeTxn(2, 2, 1),))
    keys = set(profiler.stacks)
    subsystem = next(iter(profiler.by_subsystem))
    assert keys == {
        ("warmup", subsystem, "_Callbacks._page_read_done", "read_page"),
        ("measure", subsystem, "_Callbacks._page_read_done", "read_page"),
        ("measure", subsystem, "_Callbacks._page_read_done", "write_page"),
    }
    phases = profiler.phase_totals()
    assert phases["warmup"]["events"] == 1
    assert phases["measure"]["events"] == 2
    rows = profiler.stack_rows()
    # Hottest first, with per-event cost attached.
    assert rows[0]["seconds"] == pytest.approx(0.004)
    assert rows[0]["ns_per_event"] == pytest.approx(4e6)


# ---------------------------------------------------------------------------
# export builders


def _toy_profiler():
    profiler = PerfProfiler()
    cb = _Callbacks()
    profiler.set_phase("measure")
    profiler.record(cb._page_read_done, 0.001, (_FakeTxn(0, 2, 1),))
    profiler.record(cb._request_lock, 0.003, (_FakeTxn(3, 2, 1),))
    return profiler


def test_collapsed_stacks_format():
    text = collapsed_stacks(_toy_profiler())
    lines = text.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        frames, weight = line.rsplit(" ", 1)
        assert len(frames.split(";")) == 4  # phase;subsys;type;class
        assert int(weight) > 0
    assert collapsed_stacks(PerfProfiler()) == ""


def test_speedscope_document_structure():
    doc = speedscope_document(_toy_profiler(), name="toy")
    assert validate_record(doc, SPEEDSCOPE_SCHEMA) == []
    (profile,) = doc["profiles"]
    assert profile["unit"] == "microseconds"
    assert len(profile["samples"]) == len(profile["weights"]) == 2
    n_frames = len(doc["shared"]["frames"])
    for sample in profile["samples"]:
        assert all(0 <= index < n_frames for index in sample)
    assert profile["endValue"] == pytest.approx(sum(profile["weights"]))
    assert profile["endValue"] == pytest.approx(4000.0)


def test_chrome_trace_document_structure():
    spans = [{"txn_id": 3, "kind": "lock_wait", "start": 1.0, "end": 2.5,
              "attempt": 1, "page": 17, "blocker": 4, "depth": 2}]
    probes = [{"time": 1.0, "n_state1": 2, "n_state2": 0, "n_state3": 1,
               "n_state4": 0, "cpu_util": 0.5, "disk_util": 0.25}]
    doc = chrome_trace_document(spans, probes, profiler=_toy_profiler(),
                                name="toy")
    assert validate_record(doc, CHROME_TRACE_SCHEMA) == []
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    (span_event,) = complete
    assert span_event["tid"] == 3
    assert span_event["ts"] == pytest.approx(1.0e6)
    assert span_event["dur"] == pytest.approx(1.5e6)
    assert span_event["args"]["page"] == 17
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert {e["name"] for e in counters} == {"populations", "utilization"}
    assert doc["otherData"]["events"] == 2


def test_allocation_probe_ticks_and_sites():
    probe = AllocationProbe(top_n=3)
    try:
        junk = [bytearray(1024) for _ in range(64)]
        tick = probe.tick()
        assert set(tick) == {"gc_collections", "gc_collected", "traced_kb"}
        assert tick["traced_kb"] > 0.0
        sites = probe.top_sites()
        assert 0 < len(sites) <= 3
        assert all(":" in s["site"] for s in sites)
        del junk
    finally:
        probe.stop()
    # After stop the captured table keeps serving (tracemalloc is off).
    summary = probe.summary()
    assert summary["peak_traced_kb"] > 0.0
    assert summary["top_sites"]


# ---------------------------------------------------------------------------
# end-to-end: zero-cost-off determinism and exported artifacts

PERF_FILES = ("perf.json", "flame.collapsed", "flame.speedscope.json",
              "trace.json")
SHARED_FILES = ("manifest.json", "probes.jsonl", "decisions.jsonl",
                "trace.jsonl", "spans.jsonl", "latency.json")


@pytest.fixture(scope="module")
def profiled_pair(tmp_path_factory):
    """One plain and one fully profiled run of the same tiny config."""
    from repro.dbms.config import SimulationParameters
    params = SimulationParameters(num_terms=10, db_size=200,
                                  warmup_time=2.0, num_batches=2,
                                  batch_time=5.0)
    root = tmp_path_factory.mktemp("perf-pair")
    results = {}
    for name, kwargs in (("plain", {}),
                         ("perf", {"perf": True, "alloc": True})):
        session = TelemetrySession(root / name, probe_interval=1.0,
                                   spans=True, **kwargs)
        results[name] = run_simulation(params, NoControlController(),
                                       telemetry=session)
    return root, results


def test_profiled_run_results_equal_unprofiled(profiled_pair):
    _, results = profiled_pair
    assert results["plain"] == results["perf"]


def test_profiled_run_existing_exports_byte_identical(profiled_pair):
    root, _ = profiled_pair
    for filename in SHARED_FILES:
        plain = (root / "plain" / filename).read_bytes()
        perf = (root / "perf" / filename).read_bytes()
        assert plain == perf, filename


def test_profiled_run_emits_perf_artifacts_and_validates(profiled_pair):
    root, _ = profiled_pair
    for filename in PERF_FILES:
        assert (root / "perf" / filename).is_file(), filename
    for filename in PERF_FILES:
        assert not (root / "plain" / filename).exists(), filename
    assert validate_run_dir(root / "perf") == []
    assert validate_run_dir(root / "plain") == []


def test_perf_json_phases_stacks_and_alloc(profiled_pair):
    root, _ = profiled_pair
    perf = json.loads((root / "perf" / "perf.json").read_text())
    assert validate_record(perf, PERF_SCHEMA) == []
    # The runner marked both phases.
    assert set(perf["phases"]) >= {"warmup", "measure"}
    assert perf["stacks"]
    page_classes = {row["page_class"] for row in perf["stacks"]}
    assert "read_page" in page_classes
    # Ticks: one per probe sample, wall rates attached, alloc fields
    # merged in.
    assert perf["ticks"]
    for tick in perf["ticks"]:
        assert tick["events"] >= 0
        assert "traced_kb" in tick
    assert perf["alloc"] is not None
    assert perf["alloc"]["top_sites"]


def test_trace_json_covers_spans_and_probes(profiled_pair):
    root, _ = profiled_pair
    doc = json.loads((root / "perf" / "trace.json").read_text())
    spans = [json.loads(line) for line in
             (root / "perf" / "spans.jsonl").read_text().splitlines()]
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == len(spans)
    probes = [json.loads(line) for line in
              (root / "perf" / "probes.jsonl").read_text().splitlines()]
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert len(counters) == 2 * len(probes)


def test_fast_and_slow_dispatch_profile_under_same_keys(tiny_params):
    # Hook-free run (a bare profiler attaches no system hook).
    fast_profiler = EngineProfiler()
    run_simulation(tiny_params, NoControlController(),
                   profiler=fast_profiler)
    # Hooked run: tracer installed.
    from repro.metrics.trace import Tracer
    slow_profiler = EngineProfiler()
    run_simulation(tiny_params, NoControlController(), tracer=Tracer(),
                   profiler=slow_profiler)
    fast_keys = {k for k in fast_profiler.by_event_type
                 if k.startswith("dbms.system.")}
    slow_keys = {k for k in slow_profiler.by_event_type
                 if k.startswith("dbms.system.")}
    assert fast_keys and slow_keys
    # Both runs execute the same state-machine methods.
    assert fast_keys == slow_keys


def test_alloc_requires_perf(tmp_path):
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        TelemetrySession(tmp_path / "x", alloc=True)


def test_profile_json_gains_event_types(profiled_pair):
    root, _ = profiled_pair
    profile = json.loads((root / "perf" / "profile.json").read_text())
    loop = profile["event_loop"]
    assert loop["event_types"]


def test_dashboard_renders_perf_section(profiled_pair):
    from repro.telemetry.report import render_run_report
    root, _ = profiled_pair
    report = render_run_report(root / "perf")
    assert "perf:" in report
    assert "events/s" in report
    assert "ns/event" in report
    assert "alloc: peak" in report
    # The plain run renders without a perf section.
    assert "perf:" not in render_run_report(root / "plain")


# ---------------------------------------------------------------------------
# validator: nested-object recursion


def test_validate_record_recurses_into_nested_objects():
    schema = {
        "type": "object",
        "required": ["outer"],
        "properties": {
            "outer": {
                "type": "object",
                "required": ["inner"],
                "properties": {"inner": {"type": "integer"}},
            },
        },
    }
    assert validate_record({"outer": {"inner": 3}}, schema) == []
    errors = validate_record({"outer": {}}, schema)
    assert errors and "inner" in errors[0]
    errors = validate_record({"outer": {"inner": "three"}}, schema)
    assert errors and "inner" in errors[0]


def test_validate_record_checks_scalar_and_array_items():
    schema = {
        "type": "object",
        "properties": {
            "weights": {"type": "array", "items": {"type": "number"}},
            "samples": {"type": "array", "items": {"type": "array"}},
        },
    }
    good = {"weights": [1.0, 2], "samples": [[0, 1], []]}
    assert validate_record(good, schema) == []
    errors = validate_record({"weights": [1.0, "x"]}, schema)
    assert errors and "weights[1]" in errors[0]
    errors = validate_record({"samples": [[0], 3]}, schema)
    assert errors and "samples[1]" in errors[0]


# ---------------------------------------------------------------------------
# counting profiler vs timed profiler


def test_counting_profiler_counts_are_deterministic(tiny_params):
    profilers = []
    for _ in range(2):
        profiler = EngineProfiler()
        run_simulation(tiny_params, NoControlController(),
                       profiler=profiler)
        profilers.append(profiler)
    first, second = profilers
    assert first.events > 0
    assert first.events == sum(n for n, _ in first.by_subsystem.values())
    for table in ("by_subsystem", "by_event_type"):
        counts = [{name: bucket[0]
                   for name, bucket in getattr(p, table).items()}
                  for p in profilers]
        assert counts[0] == counts[1], table
    # No per-event timing: callback seconds stay zero, the tally is
    # folded away at the end of each run, and the loop itself is timed.
    assert first.callback_seconds == 0.0
    assert all(s == 0.0 for _, s in first.by_event_type.values())
    assert first.tally == {}
    assert first.loop_seconds > 0.0
    summary = first.summary()
    assert "callback_seconds" not in summary
    assert all(set(bucket) == {"events"}
               for bucket in summary["subsystems"].values())
    assert summary["wall_seconds"] == first.loop_seconds


def test_perf_profile_keeps_per_event_seconds(profiled_pair):
    root, _ = profiled_pair
    loop = json.loads(
        (root / "perf" / "profile.json").read_text())["event_loop"]
    assert loop["callback_seconds"] > 0.0
    assert all("seconds" in bucket for bucket in loop["subsystems"].values())
    assert sum(b["seconds"] for b in loop["event_types"].values()) > 0.0
    plain = json.loads(
        (root / "plain" / "profile.json").read_text())["event_loop"]
    assert "callback_seconds" not in plain
    assert plain["events"] == loop["events"]
    assert ({name: b["events"] for name, b in plain["subsystems"].items()}
            == {name: b["events"]
                for name, b in loop["subsystems"].items()})


def test_dashboard_ranks_counting_profile_by_events(profiled_pair):
    from repro.telemetry.report import render_run_report
    root, _ = profiled_pair
    report = render_run_report(root / "plain")
    assert "event loop:" in report
    assert "% of events" in report
    assert "% of callback time" in render_run_report(root / "perf")


def test_profile_json_validates_in_both_shapes(profiled_pair, tmp_path):
    from repro.telemetry import PROFILE_SCHEMA
    root, _ = profiled_pair
    for name in ("plain", "perf"):
        profile = json.loads((root / name / "profile.json").read_text())
        assert validate_record(profile, PROFILE_SCHEMA) == []
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_text(
        (root / "plain" / "manifest.json").read_text())
    (bad / "profile.json").write_text(
        json.dumps({"wall_time_seconds": 1.0, "event_loop": {"events": 3}}))
    assert any("profile.json" in e for e in validate_run_dir(bad))
