"""Lazy package exports (PEP 562, in the style of scientific-python SPEC 1).

A package ``__init__`` names what it exports and where each name lives,
and imports nothing::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "Simulation": "runner",     # repro.core.runner.Simulation
        "core": "core",             # a name equal to its submodule: the module
    })

The first access to an exported name imports its submodule and caches
the value on the package, so later lookups never reach ``__getattr__``.
A process therefore loads only the modules it touches: a rank worker
never pays for the serve gateway or the cluster simulator.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each exported name to the submodule (relative to
    ``package``) that defines it.
    """

    def __getattr__(name: str) -> Any:
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        submodule = exports[name]
        module = importlib.import_module(f"{package}.{submodule}")
        value = module if submodule == name else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
