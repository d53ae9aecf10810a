"""Import layering: every module imports on its own, and a run loads
only the layers it uses.

Each check runs in a fresh interpreter, because the test session itself
has long since imported most of the package.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

# Layers a plain simulation must not load.
OPTIONAL_LAYERS = (
    "repro.telemetry", "repro.verify", "repro.distributed",
    "repro.faultinject", "repro.analysis",
    "repro.resilience", "repro.experiments.parallel",
    "repro.experiments.figures",
)

# The imports the benchmark's ``contended`` workload builds itself from.
CONTENDED_IMPORTS = """
from repro.core.half_and_half import HalfAndHalfController
from repro.dbms.config import SimulationParameters
from repro.experiments import runner
from repro.sim.engine import Simulator
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, text=True,
                          capture_output=True, check=False, timeout=120)


def _modules(code: str) -> set:
    """The modules a fresh interpreter holds after ``code``."""
    proc = _python("-c", code + "\nimport sys, json\n"
                   "print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _loaded(code: str) -> set:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    return {m for m in _modules(code) if m.split(".")[0] == "repro"}


def _imported_by(*args: str) -> set:
    """The ``repro`` modules ``python -X importtime <args>`` imports."""
    proc = _python("-X", "importtime", *args)
    names = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[-1].strip()
            if name.split(".")[0] == "repro":
                names.add(name)
    return names


def _under(module: str, prefixes) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def test_every_module_imports_on_its_own():
    # One interpreter; before each module, every repro module is
    # dropped, so an import cycle that only works because some other
    # module happened to be imported first shows up here.
    code = """
import importlib, json, pkgutil, sys, traceback
import repro

names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
         if m.name.rsplit(".", 1)[-1] != "__main__"]
failures = {}
for name in names:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failures[name] = traceback.format_exc(limit=3)
print(json.dumps({"count": len(names), "failures": failures}))
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["count"] > 100
    assert report["failures"] == {}


def test_a_plain_simulation_loads_no_optional_layer():
    loaded = _loaded(
        "from repro.core.half_and_half import HalfAndHalfController\n"
        "from repro.experiments.runner import run_simulation")
    assert sorted(m for m in loaded if _under(m, OPTIONAL_LAYERS)) == []


def test_contended_workload_module_budget():
    loaded = _loaded(CONTENDED_IMPORTS)
    assert len(loaded) <= 45, sorted(loaded)


def _smoke_run(tmp_path, session: str, verify: str = "None") -> str:
    """Code for a small run under ``TelemetrySession(<dir>, <session>)``
    whose exports must validate."""
    return f"""
from repro.core.half_and_half import HalfAndHalfController
from repro.dbms.config import SimulationParameters
from repro.experiments.runner import run_simulation
from repro.telemetry import TelemetrySession, validate_run_dir
from repro.verify.config import VerifyConfig

out = {str(tmp_path / "run")!r}
params = SimulationParameters(num_terms=10, db_size=200, warmup_time=2.0,
                              num_batches=1, batch_time=5.0)
session = TelemetrySession(out, {session})
run_simulation(params, HalfAndHalfController(), telemetry=session,
               verify={verify})
assert validate_run_dir(out) == []
"""


# What the ``observed`` configuration (every observer but the perf
# profiler, plus verification, on a centralized run) must not load:
# OpenSSL behind hashlib, the perf profiler with tracemalloc, and the
# distributed model with its site-probe rows — the observers serve both
# system kinds without importing the distributed one.
NOT_OBSERVED = ("hashlib", "_hashlib", "tracemalloc",
                "repro.telemetry.perf", "repro.telemetry.sites",
                "repro.distributed")


def test_an_observed_run_loads_no_openssl_or_perf_profiler(tmp_path):
    loaded = _modules(_smoke_run(
        tmp_path, "spans=True, contention=True, online=True",
        verify="VerifyConfig()"))
    assert "repro.telemetry.spans" in loaded
    assert sorted(m for m in loaded if _under(m, NOT_OBSERVED)) == []


def test_a_default_session_loads_no_optional_observer(tmp_path):
    loaded = _loaded(_smoke_run(tmp_path, ""))
    assert "repro.telemetry.export" in loaded
    assert sorted(m for m in loaded if m in (
        "repro.telemetry.spans", "repro.telemetry.contention",
        "repro.telemetry.online", "repro.telemetry.perf",
        "repro.telemetry.sites")) == []


def test_a_perf_session_loads_the_perf_profiler(tmp_path):
    loaded = _loaded(_smoke_run(tmp_path, "perf=True"))
    assert "repro.telemetry.perf" in loaded


def test_import_repro_loads_no_implementation_module():
    assert _loaded("import repro") == {"repro", "repro._lazy"}


def test_cli_help_loads_no_figure_module():
    imported = _imported_by("-m", "repro.experiments.cli", "--help")
    # The registry package itself is loaded; no figure module and no
    # other optional layer is.
    assert "repro.experiments.figures" in imported
    assert sorted(m for m in imported if _under(m, OPTIONAL_LAYERS)
                  and m != "repro.experiments.figures") == []


def test_one_figure_loads_one_figure_module():
    loaded = _loaded(
        "from repro.experiments.figures import get_figure\n"
        "get_figure('fig20')")
    figures = sorted(m for m in loaded
                     if m.startswith("repro.experiments.figures."))
    assert figures == ["repro.experiments.figures.base",
                       "repro.experiments.figures.fig20_maturity_fraction"]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="pool workers inherit modules only under fork")
@pytest.mark.parametrize("flags", ["", "verify", "telemetry",
                                   "observers"])
def test_pool_workers_import_nothing_the_parent_lacks(tmp_path, flags):
    # Each cold batch forks a fresh pool, so a module a worker imports
    # on its own is paid again on every batch.  Every worker records
    # the repro modules it holds after its run, less those it inherited
    # at fork time.
    code = f"""
import json, os, sys
from repro.control.no_control import NoControlController
from repro.core.half_and_half import HalfAndHalfController
from repro.experiments import parallel
from repro.experiments.scales import SMOKE
from repro.experiments.studies import base_params

OUT = {str(tmp_path)!r}
FLAGS = {flags!r}
inherited = set()


def _repro_modules():
    return {{m for m in sys.modules if m.split(".")[0] == "repro"}}


os.register_at_fork(after_in_child=lambda: inherited.update(
    _repro_modules()))
execute = parallel._execute_spec


def recording_execute(*args, **kwargs):
    outcome = execute(*args, **kwargs)
    extra = sorted(_repro_modules() - inherited)
    with open(os.path.join(OUT, f"worker-{{os.getpid()}}.json"), "a") as fh:
        fh.write(json.dumps(extra) + "\\n")
    return outcome


parallel._execute_spec = recording_execute
verify = None
if FLAGS == "verify":
    from repro.verify.config import VerifyConfig
    verify = VerifyConfig.parse("sampled")
telemetry = None
if FLAGS == "telemetry":
    telemetry = os.path.join(OUT, "tel")
elif FLAGS == "observers":
    from repro.telemetry import TelemetryConfig
    telemetry = TelemetryConfig(root=os.path.join(OUT, "tel"), spans=True,
                                contention=True, online=True)
specs = []
for terms in (5, 10):
    params = base_params(SMOKE, num_terms=terms, seed=1)
    specs.append(parallel.RunSpec(
        params=params, controller_factory=HalfAndHalfController))
    specs.append(parallel.RunSpec(
        params=params, controller_factory=NoControlController))
parallel.run_specs(
    specs, jobs=2, cache=os.path.join(OUT, "cache"),
    verify=verify, telemetry=telemetry)
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line)
               for path in tmp_path.glob("worker-*.json")
               for line in path.read_text().splitlines()]
    assert len(records) == 4
    assert all(extra == [] for extra in records), records
