"""Tests for the lazy package exports (:mod:`repro._exports`).

Every package ``__init__`` is one name map: a name's submodule is imported
the first time the name is read.  Each check runs in a fresh interpreter,
because what a package has loaded depends on what the process imported
before, in two orders: every name read before any submodule is imported,
and every submodule imported before any name is read.  A name that is also
the name of its submodule (``repro.analysis.lru_replay``) must resolve to
the function in both orders, although importing the submodule sets the
package attribute of that name to the module.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent("""
    import importlib, pkgutil, sys, types

    import repro

    infos = list(pkgutil.walk_packages(repro.__path__, "repro."))
    packages = [repro] + [importlib.import_module(i.name) for i in infos if i.ispkg]
    assert len(packages) == 16, [p.__name__ for p in packages]

    def read_names():
        found = {}
        for package in packages:
            for name in package.__all__:
                value = getattr(package, name)
                assert not isinstance(value, types.ModuleType), (package.__name__, name)
                found[package.__name__, name] = value
        return found

    def import_modules():
        for info in infos:
            importlib.import_module(info.name)

    if sys.argv[1] == "names-first":
        first = read_names()
        import_modules()
    else:
        import_modules()
        first = read_names()
    again = read_names()
    moved = [key for key, value in first.items() if again[key] is not value]
    assert not moved, moved

    for package in packages:
        assert len(set(package.__all__)) == len(package.__all__), package.__name__
        assert set(package.__all__) <= set(dir(package)), package.__name__
        try:
            getattr(package, "no_such_name")
        except AttributeError as exc:
            assert repr(package.__name__) in str(exc), str(exc)
        else:
            raise AssertionError(f"{package.__name__}.no_such_name resolved")
    assert repro.__version__ == "1.0.0" and "__version__" in repro.__all__
""")


@pytest.mark.parametrize("order", ["names-first", "modules-first"])
def test_every_export_resolves_in_a_fresh_interpreter(order):
    """Every ``__all__`` name of the root and its 15 subpackages resolves
    to a non-module object, the same one after every submodule has been
    imported; ``dir()`` covers ``__all__``, and an unknown name raises an
    ``AttributeError`` that names the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, order],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_names_resolve_from_their_package():
    """``from package import name`` and attribute access give the object
    the submodule defines, and a package re-exporting a subpackage's name
    gives that same object."""
    import repro
    import repro.graph
    from repro import DependencyGraph, tbs_syrk
    from repro.core.tbs import tbs_syrk as defined
    from repro.graph.dependency import DependencyGraph as graph_defined

    assert tbs_syrk is defined and repro.tbs_syrk is defined
    assert DependencyGraph is graph_defined is repro.graph.DependencyGraph
