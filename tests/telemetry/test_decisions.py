"""Decision log: data model, capacity, and controller integration."""

from __future__ import annotations

import pytest

from repro.control.blocked_fraction import BlockedFractionController
from repro.control.conflict_ratio import ConflictRatioController
from repro.control.fixed_mpl import FixedMPLController
from repro.control.tay import TayRuleController
from repro.core.half_and_half import HalfAndHalfController
from repro.dbms.config import SimulationParameters
from repro.experiments.runner import run_simulation
from repro.telemetry.decisions import (ControllerDecision, DecisionAction,
                                       DecisionLog)


def _decision(time=1.0, action=DecisionAction.ADMIT, **kwargs):
    return ControllerDecision(time=time, controller="test",
                              action=action, **kwargs)


def test_fractions_guard_against_empty_system():
    d = _decision(n_active=0, n_state1=0, n_state3=0)
    assert d.frac_state1 == 0.0
    assert d.frac_state3 == 0.0
    d = _decision(n_active=4, n_state1=2, n_state3=1)
    assert d.frac_state1 == 0.5
    assert d.frac_state3 == 0.25


def test_to_dict_is_the_jsonl_row():
    row = _decision(n_active=4, n_state1=2, n_state3=1,
                    txn_id=9, measure=0.5, threshold=0.525,
                    region="comfortable").to_dict()
    assert row["action"] == "admit"
    assert row["region"] == "comfortable"
    assert row["frac_state1"] == 0.5
    assert row["txn_id"] == 9


def test_capacity_drops_oldest():
    log = DecisionLog(capacity=3)
    for i in range(5):
        log.record(_decision(time=float(i), txn_id=i))
    assert len(log) == 3
    assert log.dropped == 2
    assert [d.txn_id for d in log] == [2, 3, 4]


def test_queries():
    log = DecisionLog()
    log.record(_decision(action=DecisionAction.ADMIT, txn_id=1))
    log.record(_decision(action=DecisionAction.DEFER, txn_id=2))
    log.record(_decision(action=DecisionAction.ABORT_VICTIM, txn_id=3))
    assert log.counts() == {"admit": 1, "defer": 1, "abort_victim": 1}
    assert [d.txn_id for d in log.decisions("defer")] == [2]
    assert log.victims() == [3]
    assert "abort_victim" in log.format(limit=1)


def _run_with_log(params, controller):
    log = DecisionLog()
    controller.decision_log = log
    run_simulation(params, controller)
    return log


def test_half_and_half_logs_admissions(fast_params):
    log = _run_with_log(fast_params, HalfAndHalfController())
    counts = log.counts()
    assert counts.get(DecisionAction.ADMIT, 0) > 0
    # Every decision carries evidence: the measured fraction and the
    # threshold it was compared against.
    for d in log.decisions(DecisionAction.ADMIT):
        assert d.measure is not None and d.threshold is not None
        assert d.region is not None


def test_fixed_mpl_logs_defers_under_saturation(fast_params):
    log = _run_with_log(fast_params, FixedMPLController(2))
    counts = log.counts()
    assert counts.get(DecisionAction.DEFER, 0) > 0
    assert counts.get(DecisionAction.ADMIT_QUEUED, 0) > 0
    for d in log.decisions(DecisionAction.DEFER):
        assert d.measure >= d.threshold == 2.0


def test_blocked_fraction_logs_fractions_in_range(fast_params):
    log = _run_with_log(fast_params, BlockedFractionController())
    admits = log.decisions(DecisionAction.ADMIT)
    assert admits
    assert all(0.0 <= d.measure <= 1.0 for d in admits)


@pytest.mark.parametrize("controller", [HalfAndHalfController,
                                        BlockedFractionController])
def test_admission_rows_carry_the_compared_value(controller):
    """A transaction is admitted, on arrival or from the ready queue on
    a lock grant, exactly when its measure exceeds the threshold (an
    empty system admits whatever it measures), and the row's
    populations are the ones that measure was taken over.
    """
    params = SimulationParameters(num_terms=100, db_size=1000, seed=1,
                                  warmup_time=5.0, num_batches=3,
                                  batch_time=10.0)
    log = _run_with_log(params, controller())
    queued = log.decisions(DecisionAction.ADMIT_QUEUED)
    admits = [d for d in (*log.decisions(DecisionAction.ADMIT), *queued)
              if d.n_active > 0]
    defers = log.decisions(DecisionAction.DEFER)
    assert queued
    assert defers
    assert all(d.measure > d.threshold for d in admits)
    assert all(d.measure <= d.threshold for d in defers)
    if controller is HalfAndHalfController:
        assert all(d.measure == d.frac_state1 for d in admits)


def test_conflict_ratio_serializes_measure_as_finite_or_none(fast_params):
    log = _run_with_log(fast_params, ConflictRatioController())
    assert len(log) > 0
    for d in log:
        assert d.measure is None or d.measure == d.measure  # no NaN/inf
        row = d.to_dict()
        import json
        json.dumps(row)  # must be JSON-serializable (inf would fail repr)


def test_tay_logs_derived_mpl_on_attach(fast_params):
    controller = TayRuleController.from_params(fast_params)
    log = DecisionLog()
    controller.decision_log = log
    controller.on_decision_log_attached()
    (d,) = log.decisions("set_mpl")
    assert d.measure == float(controller.mpl)
    assert "D_eff" in d.detail


def test_no_log_means_no_recording(fast_params):
    """Controllers run identically with and without a decision log."""
    with_log = HalfAndHalfController()
    with_log.decision_log = DecisionLog()
    r1 = run_simulation(fast_params, with_log)
    r2 = run_simulation(fast_params, HalfAndHalfController())
    assert r1 == r2
