"""Registry of reproduced paper figures.

Each ``figNN_*`` module reproduces one figure of the paper's evaluation;
``ext_*`` modules reconstruct experiments the paper describes but does
not plot.  Use :func:`get_figure` / :func:`all_figures` to access them
programmatically, or the ``repro-experiment`` CLI.
"""

from __future__ import annotations

import importlib
from typing import Iterator, List, Mapping, TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.errors import ExperimentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.figures.base import FigureSpec

__all__ = ["FigureResult", "FigureSpec", "REGISTRY", "get_figure",
           "all_figures"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.figures.base": ("FigureResult", "FigureSpec"),
})

# Figure id -> the module that reproduces it, in paper order.  A module
# is imported the first time its figure is looked up.
_MODULES = {
    "fig01": "fig01_thrashing",
    "fig02": "fig02_fixed_mpl_mismatch",
    "fig03": "fig03_populations_base",
    "fig04": "fig04_populations_large",
    "fig07": "fig07_base_case",
    "fig08": "fig08_txn_size_thruput",
    "fig09": "fig09_txn_size_raw",
    "fig10": "fig10_txn_size_mpl",
    "fig11": "fig11_db_size",
    "fig12": "fig12_mixed",
    "fig13": "fig13_mixed_degree2",
    "fig14": "fig14_varying_slow",
    "fig15": "fig15_varying_fast",
    "fig16": "fig16_tay_thruput",
    "fig17": "fig17_tay_mpl",
    "fig18": "fig18_bounded_wait",
    "fig19": "fig19_bounded_wait_raw",
    "fig20": "fig20_maturity_fraction",
    "fig21": "fig21_maturity_cap",
    "fig22": "fig22_buffer_small",
    "fig23": "fig23_buffer_full",
    "ext_write_prob": "ext_write_prob",
    "ext_distributed": "ext_distributed",
    "ext_distributed_failures": "ext_distributed_failures",
    "ext_fault_recovery": "ext_fault_recovery",
    "ext_controller_bakeoff": "ext_controller_bakeoff",
}


class _Registry(Mapping[str, "FigureSpec"]):
    """Read-only ``figure id -> FigureSpec`` mapping that imports a
    figure's module on first lookup."""

    def __getitem__(self, figure_id: str) -> "FigureSpec":
        module = importlib.import_module(
            f"{__name__}.{_MODULES[figure_id]}")
        return module.FIGURE

    def __contains__(self, figure_id: object) -> bool:
        return figure_id in _MODULES

    def __iter__(self) -> Iterator[str]:
        return iter(_MODULES)

    def __len__(self) -> int:
        return len(_MODULES)


REGISTRY: Mapping[str, "FigureSpec"] = _Registry()


def get_figure(figure_id: str) -> "FigureSpec":
    """Look up a figure by id (e.g. ``"fig07"``)."""
    try:
        return REGISTRY[figure_id]
    except KeyError:
        raise ExperimentError(
            f"unknown figure {figure_id!r}; "
            f"known: {', '.join(sorted(REGISTRY))}") from None


def all_figures() -> List["FigureSpec"]:
    """Every registered figure, in paper order."""
    return [REGISTRY[figure_id] for figure_id in REGISTRY]
