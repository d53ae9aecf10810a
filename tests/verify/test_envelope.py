"""Tests for the analytic throughput envelope (predicted vs simulated)."""

from __future__ import annotations

import pytest

from repro.verify.suite import BenchEntry
from repro.control.no_control import NoControlController
from repro.dbms.config import SimulationParameters
from repro.errors import VerificationError
from repro.verify.envelope import (
    DEFAULT_LOWER,
    DEFAULT_UPPER,
    EnvelopeResult,
    check_entry,
    check_envelope,
)


def _result(ratio, lower=DEFAULT_LOWER, upper=DEFAULT_UPPER):
    return EnvelopeResult(name="x", observed_mpl=10.0, simulated=ratio,
                          predicted=1.0, ratio=ratio,
                          lower=lower, upper=upper)


def test_band_membership():
    assert _result(1.0).passed
    assert _result(DEFAULT_LOWER).passed
    assert _result(DEFAULT_UPPER).passed
    assert not _result(DEFAULT_LOWER / 2).passed
    assert not _result(DEFAULT_UPPER * 2).passed


def test_summary_line_marks_failures():
    assert _result(1.0).summary_line().startswith("ok")
    assert _result(99.0).summary_line().startswith("FAIL")


def test_unknown_entry_name_rejected_before_running():
    with pytest.raises(VerificationError, match="unknown bench"):
        check_envelope(names=["not_a_bench_entry"])


def test_check_entry_runs_and_compares():
    entry = BenchEntry(
        "tiny", SimulationParameters(num_terms=10, db_size=200,
                                     warmup_time=2.0, num_batches=2,
                                     batch_time=5.0),
        NoControlController)
    result = check_entry(entry, lower=0.01, upper=100.0)
    assert result.simulated > 0
    assert result.predicted > 0
    assert result.observed_mpl > 0
    assert result.passed


def test_out_of_band_entry_raises():
    entry = BenchEntry(
        "tiny", SimulationParameters(num_terms=10, db_size=200,
                                     warmup_time=2.0, num_batches=2,
                                     batch_time=5.0),
        NoControlController)
    # An impossible band turns any healthy run into a failure,
    # exercising the raise path without needing a broken simulator.
    result = check_entry(entry, lower=50.0, upper=100.0)
    assert not result.passed


@pytest.mark.slow
def test_all_pinned_entries_inside_envelope():
    """The acceptance criterion: every pinned bench configuration's
    simulated throughput sits inside the model's envelope."""
    results = check_envelope(scale="smoke")
    assert len(results) == 5
    assert all(r.passed for r in results)
