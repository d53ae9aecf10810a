"""The pinned suite: five configurations shared by ``verify golden``
and ``verify envelope``.

Each configuration exercises a distinct hot path of the simulator, so
a trajectory change anywhere in the engine, the lock manager, or a
controller shows up in at least one entry:

* ``base_hh``         — the paper's base case under Half-and-Half
  (arrival pressure + admission control + deadlock detection);
* ``fixed_mpl_50``    — static MPL limit (the cheap-controller path);
* ``no_control``      — everything admitted (maximum blocking, long
  wait chains: the lock-table stress case);
* ``buffered_hh``     — LRU buffer pool on (buffer hit bookkeeping);
* ``high_contention`` — small database, write-heavy (abort/restart
  churn and wound-free deadlock cycles dominate).

Entries are *pinned*: changing parameters here moves every golden
manifest hash and every envelope ratio, so treat the suite like a
schema.  Two scales share the same entries — ``smoke`` (seconds, what
the goldens pin) and ``full`` (``verify envelope --scale full``); both
are deterministic in their simulated trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

from repro.control.fixed_mpl import FixedMPLController
from repro.control.no_control import NoControlController
from repro.core.half_and_half import HalfAndHalfController
from repro.dbms.config import SimulationParameters
from repro.errors import ExperimentError

__all__ = ["BenchEntry", "SCALES", "suite_for"]


@dataclass(frozen=True)
class BenchEntry:
    """One pinned benchmark configuration."""

    name: str
    params: SimulationParameters
    controller_factory: Callable[..., Any]
    controller_args: Tuple[Any, ...] = ()

    def make_controller(self):
        return self.controller_factory(*self.controller_args)


# Scale name -> measurement-window overrides applied to every entry.
SCALES: Dict[str, Dict[str, Any]] = {
    "smoke": {"warmup_time": 5.0, "num_batches": 4, "batch_time": 10.0},
    "full": {"warmup_time": 30.0, "num_batches": 10, "batch_time": 30.0},
}


def _entries(scale_overrides: Dict[str, Any]) -> Tuple[BenchEntry, ...]:
    base = SimulationParameters(num_terms=100, db_size=1000,
                                **scale_overrides)
    return (
        BenchEntry("base_hh", base, HalfAndHalfController),
        BenchEntry("fixed_mpl_50", base, FixedMPLController, (50,)),
        BenchEntry("no_control", base, NoControlController),
        BenchEntry("buffered_hh", base.replace(buf_size=250),
                   HalfAndHalfController),
        BenchEntry("high_contention",
                   base.replace(db_size=300, write_prob=0.5),
                   HalfAndHalfController),
    )


def suite_for(scale: str) -> Tuple[BenchEntry, ...]:
    """The pinned entries at one scale (``smoke`` or ``full``)."""
    overrides = SCALES.get(scale)
    if overrides is None:
        raise ExperimentError(
            f"unknown bench scale {scale!r}; "
            f"choose from {sorted(SCALES)}")
    return _entries(overrides)
