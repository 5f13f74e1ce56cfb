"""Lazy package exports: one name map per package (PEP 562).

Every package ``__init__`` in ``repro`` is one call::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "tbs_syrk": "core",
        ...
    })

A name's submodule is imported the first time the name is read, so
``import repro.serve`` loads the serve path and not the analysis sweeps,
the renderers or the pebble machines, while ``from repro import tbs_syrk``
and ``from repro.graph import DependencyGraph`` work as before.  Lazy
resolution also keeps package init out of import cycles: ``sched.validate``
and the executor import ``repro.check.findings`` at module load, and the
analyzers of ``repro.check`` import ``sched`` and ``graph`` right back, so
eager re-exports would close that cycle while the packages initialise.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable


def lazy_exports(
    package: str, names: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of ``package``, which
    exports each key of ``names`` from the submodule (relative to
    ``package``) it maps to.

    The first read of a name stores it in the package namespace, so each
    name goes through ``__getattr__`` once.  A name that is also the name
    of its submodule (``analysis.lru_replay``) is bound now: importing a
    submodule sets the package attribute of that name to the module, and
    Python never asks ``__getattr__`` for an attribute that exists.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = names.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f".{module}", package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(names))

    for name, module in names.items():
        if name == module:
            __getattr__(name)
    return __getattr__, __dir__, list(names)
