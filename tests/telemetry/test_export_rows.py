"""Edge cases of the row encoders' time memo, the chunked writer, the
tracer's lazily built index and the decision log's tuple rows."""

from __future__ import annotations

from collections import Counter
from dataclasses import fields

import pytest

import repro.telemetry.export as export
from repro.metrics.trace import TraceEvent, TraceEventType, Tracer
from repro.telemetry import TelemetrySession
from repro.telemetry.decisions import (ControllerDecision, DecisionAction,
                                       DecisionLog)
from repro.telemetry.export import (_ENCODER, decision_row, span_row,
                                    trace_event_to_dict, trace_row)
from repro.telemetry.spans import Span, SpanKind

# -0.0 next to 0.0 (one dict key), repeats, and the floats whose repr
# switches notation.
EDGE_TIMES = [0.0, -0.0, 0.0, 5.0, 5.0, -0.0, 1e-07, 1e16, 1e-07, 2.5,
              -0.0, 1e16, 0.0]


def _times():
    """The edge times, then enough distinct times to cross the memo's
    bound twice, then the edge times again."""
    bound = export._MEMO_BOUND
    crossing = [i / 7 for i in range(1, 2 * bound + 50)]
    return EDGE_TIMES + crossing + crossing[-bound:] + EDGE_TIMES


def _trace_rows():
    return [(t, TraceEventType.BLOCK, i, "page 3")
            for i, t in enumerate(_times())]


def _span_rows():
    times = _times()
    return [(i, SpanKind.LOCK_WAIT, start, end, 1, 17, 4, 1)
            for i, (start, end) in enumerate(zip(times, times[3:]))]


def _decisions():
    return [ControllerDecision(time=t, controller="HalfAndHalf",
                               action="admit", region="comfortable",
                               n_active=4, n_state1=1, n_state3=2,
                               txn_id=i, measure=0.25, threshold=0.5,
                               detail="")
            for i, t in enumerate(_times())]


def test_trace_rows_through_the_memo_equal_the_encoder():
    for row in _trace_rows():
        assert trace_row(row) == _ENCODER.encode(
            trace_event_to_dict(TraceEvent(*row)))


def test_span_rows_through_the_memo_equal_the_encoder():
    for row in _span_rows():
        assert span_row(row) == _ENCODER.encode(Span(*row).to_dict())


def test_decision_rows_through_the_memo_equal_the_encoder():
    for decision in _decisions():
        assert decision_row(decision) == _ENCODER.encode(
            decision.to_dict())


def test_memo_stays_bounded():
    for row in _trace_rows():
        trace_row(row)
    assert 0 < len(export._TRACE_TIMES) <= export._MEMO_BOUND
    assert 0.0 not in export._TRACE_TIMES


def test_finalize_writes_the_encoder_bytes_of_every_row(tmp_path):
    session = TelemetrySession(tmp_path / "run", spans=True)
    for row in _trace_rows():
        session.tracer.record(*row)
    for decision in _decisions():
        session.decisions.record(decision)
    session.spans._spans.extend(_span_rows())
    run_dir = session.finalize()
    expected = {
        "trace.jsonl": [trace_event_to_dict(TraceEvent(*row))
                        for row in _trace_rows()],
        "spans.jsonl": [Span(*row).to_dict() for row in _span_rows()],
        "decisions.jsonl": [d.to_dict() for d in _decisions()],
    }
    for name, records in expected.items():
        assert (run_dir / name).read_text(encoding="utf-8") == "".join(
            _ENCODER.encode(record) + "\n" for record in records), name


@pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 600])
def test_chunked_writes_equal_one_write_per_line(tmp_path, count):
    rows = [f'{{"i":{i}}}' for i in range(count)]
    path = tmp_path / "rows.jsonl"
    export._write_rows(iter(rows), path)
    with (tmp_path / "lines.jsonl").open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row + "\n")
    assert path.read_bytes() == (tmp_path / "lines.jsonl").read_bytes()


def test_trace_queries_between_records_see_later_records():
    tracer = Tracer(capacity=4)
    tracer.record(1.0, TraceEventType.ADMIT, 1)
    assert [e.time for e in tracer.history_of(1)] == [1.0]
    tracer.record(2.0, TraceEventType.BLOCK, 1)
    assert [e.time for e in tracer.events(txn_id=1)] == [1.0, 2.0]
    tracer.record(3.0, TraceEventType.ADMIT, 2)
    assert [e.time for e in tracer.history_of(2)] == [3.0]
    assert [e.time for e in tracer.history_of(1)] == [1.0, 2.0]
    for t in (4.0, 5.0, 6.0):       # the last two evict txn 1's events
        tracer.record(t, TraceEventType.COMMIT, 2)
    assert tracer.history_of(1) == []
    assert [e.time for e in tracer.events(txn_id=2)] == [3.0, 4.0, 5.0,
                                                          6.0]
    tracer.record(7.0, TraceEventType.ADMIT, 1)     # evicts txn 2's admit
    assert [e.time for e in tracer.history_of(1)] == [7.0]
    assert tracer.events(TraceEventType.ADMIT, txn_id=2) == []
    assert [e.time for e in tracer.history_of(2)] == [4.0, 5.0, 6.0]


def _assert_queries_match_the_objects(log, expected):
    """Every query answers what the list of decision objects does."""
    assert list(log) == expected
    assert len(log) == len(expected)
    assert log.decisions() == expected
    for action in {d.action for d in expected} | {"no_such_action"}:
        assert log.decisions(action) == [d for d in expected
                                         if d.action == action]
    assert log.counts() == dict(Counter(d.action for d in expected))
    assert log.victims() == [d.txn_id for d in expected
                             if d.action == DecisionAction.ABORT_VICTIM
                             and d.txn_id is not None]
    assert log.format() == "\n".join(str(d) for d in expected)
    assert log.format(limit=2) == "\n".join(str(d) for d in expected[-2:])


def test_decision_log_add_record_and_positional_fields_agree():
    decisions = [
        ControllerDecision(time=1.0, controller="c", action="admit"),
        ControllerDecision(time=2.0, controller="c",
                           action=DecisionAction.ABORT_VICTIM,
                           region="overloaded", n_active=3, n_state1=1,
                           n_state3=2, txn_id=42, measure=0.6,
                           threshold=0.8, detail="youngest"),
        ControllerDecision(time=3.0, controller="c",
                           action=DecisionAction.ABORT_VICTIM),
    ]
    by_record, by_name, by_position = (DecisionLog(capacity=2)
                                       for _ in range(3))
    for d in decisions:
        by_record.record(d)
        by_name.add(**{f.name: getattr(d, f.name) for f in fields(d)})
        by_position.add(d.time, d.controller, d.action, d.region,
                        d.n_active, d.n_state1, d.n_state3, d.txn_id,
                        d.measure, d.threshold, d.detail)
    for log in (by_record, by_name, by_position):
        assert log.dropped == 1
        _assert_queries_match_the_objects(log, decisions[1:])
    with pytest.raises(TypeError):
        DecisionLog().add(time=1.0, controller="c", action="a", bogus=1)


def test_decision_log_queries_on_an_observed_run(tmp_path):
    # A run's log holds controller rows and the online monitor's
    # regime_change rows side by side.
    from repro.core.half_and_half import HalfAndHalfController
    from repro.dbms.config import SimulationParameters
    from repro.experiments.runner import run_simulation
    params = SimulationParameters(num_terms=100, db_size=1000, seed=1,
                                  warmup_time=10.0, num_batches=1,
                                  batch_time=10.0)
    session = TelemetrySession(tmp_path / "run", online=True)
    run_simulation(params, HalfAndHalfController(), telemetry=session)
    expected = list(session.decisions)
    regime_rows = [d for d in expected if d.action == "regime_change"]
    assert regime_rows == [c.to_decision() for c in session.online.changes]
    assert regime_rows and len(regime_rows) < len(expected)
    _assert_queries_match_the_objects(session.decisions, expected)
