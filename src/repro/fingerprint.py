"""Source fingerprint of the ``repro`` package.

A leaf module: the result cache keys on the fingerprint, and telemetry
manifests and bench files record it, so all three import it from here
rather than from each other.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

__all__ = ["code_fingerprint"]


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every source file in the ``repro`` package.

    Folded into each cache key so that stale results can never survive a
    code change — any edit anywhere in the package invalidates the cache.
    """
    root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]
