"""Shared fixtures: seeded RNG, machine factories, canonical shapes.

Conventions used across the suite:

* ``S = 15`` is the canonical small memory (triangle side k=5, square tile
  s=3) — large enough for every schedule, small enough that numeric
  verification runs are fast;
* the machine has two configurations: numeric machines
  (``TwoLevelMachine(s)``) verify numerics, counting machines
  (``numerics=False``) are for I/O-only assertions;
* all inputs come from the seeded generators in :mod:`repro.utils.rng`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import TwoLevelMachine


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20220711)


@pytest.fixture
def small_s() -> int:
    return 15


def make_machine(s: int, mats: dict[str, np.ndarray], **kw) -> TwoLevelMachine:
    """A numeric machine pre-loaded with matrices (copied)."""
    m = TwoLevelMachine(s, **kw)
    for name, arr in mats.items():
        m.add_matrix(name, arr)
    return m


def make_counting_machine(s: int, shapes: dict[str, tuple[int, int]]) -> TwoLevelMachine:
    """A fast counting-only machine with zero matrices of given shapes."""
    m = TwoLevelMachine(s, numerics=False)
    for name, shape in shapes.items():
        m.add_matrix(name, np.zeros(shape))
    return m


@pytest.fixture
def machine_factory():
    return make_machine


@pytest.fixture
def counting_factory():
    return make_counting_machine
