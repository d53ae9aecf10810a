"""Lazy package facades (PEP 562).

Every ``repro`` package ``__init__`` re-exports names from its
submodules, but importing a package must not import the submodules:
a run that only simulates should not pay for telemetry, verification
or the figure catalogue.  A package declares where each name lives and
installs the pair this module builds::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.sim.engine": ("Event", "Simulator"),
        "repro.sim.rng": ("RandomStreams",),
    })

The first access to ``package.Simulator`` imports ``repro.sim.engine``
and stores the value on the package, so later accesses are plain
attribute lookups.  Unknown names raise :class:`AttributeError`, which
also lets ``from package import submodule`` fall through to the import
system.  ``dir(package)`` lists the lazy names next to the loaded ones.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Mapping[str, Iterable[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Build the module-level ``__getattr__`` and ``__dir__`` of
    ``package``: ``exports`` maps a module path to the names the
    package re-exports from it."""
    origin = {name: module
              for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
