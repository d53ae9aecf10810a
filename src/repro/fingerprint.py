"""Source fingerprint of the ``repro`` package, and the package's sha256.

A leaf module: the result cache keys on the fingerprint, and telemetry
manifests and bench files record it, so all three import it from here
rather than from each other.

``sha256`` is CPython's built-in implementation (``_sha2`` from 3.12,
``_sha256`` before).  ``hashlib`` would give the same digests but loads
OpenSSL's ``libcrypto`` on import, several MB of resident memory for a
run that hashes one source tree; CPython's own ``random`` picks its
``sha512`` the same way.  ``hashlib`` remains the fallback for builds
without the built-in module.
"""

from __future__ import annotations

import functools
from pathlib import Path

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = ["code_fingerprint", "sha256"]


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every source file in the ``repro`` package.

    Folded into each cache key so that stale results can never survive a
    code change — any edit anywhere in the package invalidates the cache.
    """
    root = Path(__file__).resolve().parent
    digest = sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]
