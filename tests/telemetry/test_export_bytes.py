"""The exported bytes of an ``observed``-shape session, pinned.

The other export tests compare each line with ``_ENCODER.encode`` of
the same record, which cannot see a field written in the wrong place
by both.  This test pins the sha256 of every deterministic file of one
session at seed 1 with every observer on and ``VerifyConfig()``: the
shape of the benchmark's ``observed`` workload.  ``profile.json``
holds wall-clock times and is left out; ``manifest.json`` is hashed
with its ``code_fingerprint`` value blanked, since every source edit
changes it.

A deliberate change of an export's bytes regenerates the digests::

    PYTHONPATH=src python tests/telemetry/test_export_bytes.py
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

from repro.core.half_and_half import HalfAndHalfController
from repro.dbms.config import SimulationParameters
from repro.experiments.runner import run_simulation
from repro.fingerprint import sha256
from repro.telemetry import TelemetrySession
from repro.verify.config import VerifyConfig

DIGESTS = (Path(__file__).resolve().parents[1] / "goldens"
           / "observed_exports.json")

_FINGERPRINT = re.compile(rb'"code_fingerprint":"[0-9a-f]*"')


def export_digests(out_dir: Path) -> dict:
    """Run the session into ``out_dir``; sha256 of each deterministic
    file, by name."""
    params = SimulationParameters(
        num_terms=100, db_size=1000, seed=1,
        warmup_time=10.0, num_batches=1, batch_time=10.0)
    session = TelemetrySession(out_dir, spans=True, contention=True,
                               online=True)
    run_simulation(params, HalfAndHalfController(), telemetry=session,
                   verify=VerifyConfig())
    digests = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "profile.json":
            continue
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = _FINGERPRINT.sub(b'"code_fingerprint":""', data)
        digests[path.name] = sha256(data).hexdigest()
    return digests


def test_observed_exports_keep_their_bytes(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    assert export_digests(tmp_path / "run") == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = export_digests(Path(tmp) / "run")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True)
                       + "\n")
    sys.stdout.write(f"wrote {DIGESTS}\n")
