"""Shared helpers for the experiment benches.

Every bench regenerates one experiment from DESIGN.md's per-experiment
index (E1-E9), printing its table(s) to stdout and asserting the paper's
*shape* claims (who wins, by what factor, where the crossovers are).

pytest-benchmark timing wraps the headline computation of each experiment
(one round — the quantities measured are deterministic counts, not noisy
wall-clock samples; the timing is informative only).

Run:  pytest benchmarks/ --benchmark-only -s

The test suite's oracles (``tests/replay_oracles.py`` and its siblings)
are importable from every bench: E13 times the array replays against the
tuple-walking walkers kept there.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro import TwoLevelMachine

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))


def counting_machine(s: int, shapes: dict[str, tuple[int, int]]) -> TwoLevelMachine:
    m = TwoLevelMachine(s, numerics=False)
    for name, shape in shapes.items():
        m.add_matrix(name, np.zeros(shape))
    return m


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="shrink problem sizes in benches that consume the `smoke` "
        "fixture (currently E13-E16, whose full sizes take tens of "
        "seconds; E1-E12, including the parallel bench E11, are already "
        "CI-sized). Shape claims stay asserted; E13's absolute-speedup "
        "claims are skipped",
    )


@pytest.fixture
def smoke(request):
    """True when the suite runs with --smoke (CI-sized problems)."""
    return request.config.getoption("--smoke")


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under pytest-benchmark."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
