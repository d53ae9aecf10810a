"""The public API surface: everything advertised in __all__ imports."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_every_package_export_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        assert export in listed, f"{name}.{export} missing from dir()"
        getattr(package, export)


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_package_attribute_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")
    assert not hasattr(package, "no_such_name")


def test_lazy_export_is_the_defining_object():
    from repro.core.half_and_half import HalfAndHalfController
    from repro.experiments.figures import REGISTRY, get_figure
    assert repro.HalfAndHalfController is HalfAndHalfController
    assert repro.control.HalfAndHalfController is HalfAndHalfController
    assert "fig07" in REGISTRY and "fig99" not in REGISTRY
    for figure_id in REGISTRY:
        assert get_figure(figure_id).figure_id == figure_id


def test_key_classes_exposed():
    # The objects a downstream user needs for the quickstart.
    assert callable(repro.run_simulation)
    params = repro.SimulationParameters(num_terms=5, warmup_time=1.0,
                                        num_batches=2, batch_time=2.0)
    controller = repro.HalfAndHalfController()
    result = repro.run_simulation(params, controller)
    assert isinstance(result, repro.SimulationResults)
    assert result.page_throughput.mean > 0


def test_errors_form_hierarchy():
    assert issubclass(repro.ConfigurationError, repro.ReproError)
    assert issubclass(repro.SimulationError, repro.ReproError)
    assert issubclass(repro.LockManagerError, repro.ReproError)
    assert issubclass(repro.WorkloadError, repro.ReproError)
    assert issubclass(repro.ExperimentError, repro.ReproError)
