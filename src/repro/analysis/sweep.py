"""Parameter-sweep harness: one place that runs any schedule on any shape.

Benches and EXPERIMENTS.md are generated from :class:`SweepRow` records:
measured loads/stores (total and per matrix), work, the matching exact
model prediction, the paper lower bound, and the derived leading constant

    c_hat = (A-traffic) * sqrt(S) / (N^2 M)        (SYRK)
    c_hat = Q * sqrt(S) / N^3                      (Cholesky)

which is the number the paper's theorems pin down (1/sqrt(2), 1, 1/(3 sqrt 2),
1/3, ...).  Counting machines (``numerics=False``) make large-N sweeps
cheap; numeric verification happens in the test suite on smaller shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..baselines import ooc_chol, ooc_syrk
from ..core.bounds import cholesky_lower_bound, syrk_lower_bound
from ..core.lbc import lbc_cholesky
from ..core.tbs import tbs_syrk
from ..core.tbs_tiled import tbs_tiled_syrk
from ..errors import ConfigurationError
from ..machine.machine import TwoLevelMachine
from .model import (
    IOPrediction,
    lbc_model,
    ooc_chol_model,
    ooc_syrk_model,
    tbs_model,
    tbs_tiled_model,
)

SYRK_ALGS = ("tbs", "tiled", "ocs")
CHOL_ALGS = ("lbc", "occ")


@dataclass(frozen=True)
class SweepRow:
    """One (kernel, algorithm, shape) measurement."""

    kernel: str
    alg: str
    n: int
    m: int            # SYRK: columns of A; Cholesky: == n
    s: int
    loads: int
    stores: int
    a_loads: int      # loads attributed to streamed input (A) where separable
    c_loads: int      # loads attributed to the output matrix where separable
    mults: int
    model_loads: int
    lower_bound: float

    @property
    def q(self) -> int:
        return self.loads

    @property
    def ratio_to_bound(self) -> float:
        return self.loads / self.lower_bound if self.lower_bound else math.inf

    @property
    def leading_constant(self) -> float:
        """Measured constant in front of ``N^2 M / sqrt(S)`` (SYRK, A-traffic
        only) or ``N^3 / sqrt(S)`` (Cholesky, total)."""
        if self.kernel == "syrk":
            return self.a_loads * math.sqrt(self.s) / (self.n**2 * self.m)
        return self.loads * math.sqrt(self.s) / (self.n**3)

    @property
    def oi_mults(self) -> float:
        return self.mults / self.loads if self.loads else math.inf


def _counting_machine(s: int, shapes: dict[str, tuple[int, int]]) -> TwoLevelMachine:
    m = TwoLevelMachine(s, numerics=False)
    for name, shape in shapes.items():
        m.add_matrix(name, np.zeros(shape))
    return m


def run_syrk_once(alg: str, n: int, mcols: int, s: int, **kw) -> SweepRow:
    """Run one SYRK schedule in counting mode and package the row."""
    if alg not in SYRK_ALGS:
        raise ConfigurationError(f"unknown SYRK algorithm {alg!r} (want one of {SYRK_ALGS})")
    m = _counting_machine(s, {"A": (n, mcols), "C": (n, n)})
    rows, cols = range(n), range(mcols)
    if alg == "tbs":
        stats = tbs_syrk(m, "A", "C", rows, cols, **kw)
        model = tbs_model(n, mcols, s, k=kw.get("k"))
    elif alg == "tiled":
        stats = tbs_tiled_syrk(m, "A", "C", rows, cols, **kw)
        model = tbs_tiled_model(n, mcols, s, k=kw.get("k", 4), b=kw.get("b"))
    else:
        stats = ooc_syrk(m, "A", "C", rows, cols, **kw)
        model = ooc_syrk_model(n, mcols, s, tile=kw.get("tile"))
    m.assert_empty()
    return SweepRow(
        kernel="syrk", alg=alg, n=n, m=mcols, s=s,
        loads=stats.loads, stores=stats.stores,
        a_loads=stats.loads_by_matrix.get("A", 0),
        c_loads=stats.loads_by_matrix.get("C", 0),
        mults=stats.mults, model_loads=model.loads,
        lower_bound=syrk_lower_bound(n, mcols, s),
    )


def run_cholesky_once(alg: str, n: int, s: int, **kw) -> SweepRow:
    """Run one Cholesky schedule in counting mode and package the row."""
    if alg not in CHOL_ALGS:
        raise ConfigurationError(f"unknown Cholesky algorithm {alg!r} (want one of {CHOL_ALGS})")
    m = _counting_machine(s, {"A": (n, n)})
    if alg == "lbc":
        stats = lbc_cholesky(m, "A", range(n), **kw)
        from ..config import lbc_block_size

        b = kw.get("b") or lbc_block_size(n)
        model = lbc_model(n, s, b, syrk=kw.get("syrk", "tbs"), k=kw.get("k"))
    else:
        # OCC understands only the tile override; drop LBC-only kwargs so
        # mixed sweeps can pass one kwargs dict for both algorithms.
        occ_kw = {k2: v for k2, v in kw.items() if k2 == "tile"}
        stats = ooc_chol(m, "A", range(n), **occ_kw)
        model = ooc_chol_model(n, s, tile=occ_kw.get("tile"))
    m.assert_empty()
    return SweepRow(
        kernel="cholesky", alg=alg, n=n, m=n, s=s,
        loads=stats.loads, stores=stats.stores,
        a_loads=stats.loads_by_matrix.get("A", 0), c_loads=0,
        mults=stats.mults, model_loads=model.loads,
        lower_bound=cholesky_lower_bound(n, s),
    )


def sweep_syrk(
    ns: Iterable[int], ms: Iterable[int], ss: Iterable[int], algs: Iterable[str] = SYRK_ALGS
) -> list[SweepRow]:
    """Cartesian sweep over shapes and algorithms (E2's data)."""
    out = []
    for s in ss:
        for n in ns:
            for mcols in ms:
                for alg in algs:
                    out.append(run_syrk_once(alg, n, mcols, s))
    return out


def sweep_cholesky(
    ns: Iterable[int], ss: Iterable[int], algs: Iterable[str] = CHOL_ALGS, **kw
) -> list[SweepRow]:
    """Cartesian sweep over shapes and algorithms (E3's data)."""
    out = []
    for s in ss:
        for n in ns:
            for alg in algs:
                out.append(run_cholesky_once(alg, n, s, **kw))
    return out
