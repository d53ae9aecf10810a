"""The package's sha256 and the digests built on it.

``repro.fingerprint.sha256`` is CPython's built-in implementation, not
``hashlib``'s OpenSSL one.  Every digest the package records (the source
fingerprint, cache keys, cache integrity footers) must be the bytes
``hashlib`` gives.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

import repro
from repro.control.fixed_mpl import FixedMPLController
from repro.dbms.config import SimulationParameters
from repro.experiments import parallel
from repro.fingerprint import code_fingerprint, sha256

MEGABYTE = bytes(range(256)) * 4096


@pytest.mark.parametrize("payload", [b"", MEGABYTE], ids=["empty", "1MB"])
def test_sha256_equals_hashlib(payload):
    assert sha256(payload).digest() == hashlib.sha256(payload).digest()
    assert sha256(payload).hexdigest() == hashlib.sha256(payload).hexdigest()


def test_sha256_incremental_update_equals_hashlib():
    ours, theirs = sha256(), hashlib.sha256()
    offset = 0
    # Chunks on both sides of the 64-byte block size.
    for size in (0, 1, 63, 64, 65, 1000, 4096, len(MEGABYTE)):
        chunk = MEGABYTE[offset:offset + size]
        offset = (offset + size) % len(MEGABYTE)
        ours.update(chunk)
        theirs.update(chunk)
        assert ours.hexdigest() == theirs.hexdigest()
    assert ours.copy().digest() == theirs.copy().digest()


def test_code_fingerprint_equals_a_hashlib_recomputation():
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    assert code_fingerprint() == digest.hexdigest()[:16]


# The key hashlib gives for the spec below, with the source fingerprint
# fixed so the key does not move with every edit to the package.
PINNED_SPEC_KEY = (
    "cf2fce8e1ada451bcab2774253a3cbb9ed47f171d17a2bce9a4bc39256ecac45")


def test_spec_key_is_pinned(monkeypatch):
    monkeypatch.setattr(parallel, "code_fingerprint",
                        lambda: "0123456789abcdef")
    spec = parallel.RunSpec(
        params=SimulationParameters(num_terms=25, db_size=500, seed=7),
        controller_factory=FixedMPLController, controller_args=(10,))
    assert parallel.spec_key(spec) == PINNED_SPEC_KEY


def test_cache_footer_is_the_hashlib_digest(tmp_path):
    cache = parallel.ResultCache(tmp_path)
    cache.put("k", {"throughput": 1.5})
    blob = cache.path_for("k").read_bytes()
    payload = blob[:-parallel._FOOTER_LEN]
    footer = blob[-parallel._FOOTER_LEN:-len(parallel._FOOTER_MAGIC)]
    assert footer == hashlib.sha256(payload).digest()
    assert cache.get("k") == {"throughput": 1.5}
