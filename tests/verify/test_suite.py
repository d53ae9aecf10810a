"""The pinned suite that ``verify golden`` and ``verify envelope`` run."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.verify.suite import suite_for


def test_suite_is_pinned():
    smoke = suite_for("smoke")
    full = suite_for("full")
    assert [e.name for e in smoke] == ["base_hh", "fixed_mpl_50",
                                       "no_control", "buffered_hh",
                                       "high_contention"]
    assert [e.name for e in smoke] == [e.name for e in full]
    # Scales differ only in the measurement window.
    assert smoke[0].params.num_batches < full[0].params.num_batches
    with pytest.raises(ExperimentError):
        suite_for("galactic")
