"""Roofline assembly (experiment E7): measured OI of every schedule vs the
model's ceilings.

Each row pairs a schedule's measured operational intensity (multiplies per
loaded element) with the relevant ceiling — ``sqrt(S/2)`` for the symmetric
kernels (Theorem 4.1 via Lemma 3.1), ``sqrt(S)`` for GEMM/LU — and reports
the fraction achieved.  The paper's headline reads off this table: TBS and
LBC sit near their (higher-per-output) symmetric ceiling, while the
square-tile baselines cap out a factor ``sqrt(2)`` lower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..baselines import ooc_chol, ooc_gemm, ooc_lu, ooc_syrk
from ..core.bounds import max_operational_intensity
from ..core.lbc import lbc_cholesky
from ..core.tbs import tbs_syrk
from ..machine.machine import TwoLevelMachine


@dataclass(frozen=True)
class RooflineRow:
    schedule: str
    kernel_class: str      # "symmetric" | "gemm"
    n: int
    s: int
    q: int
    mults: int
    oi: float
    ceiling: float

    @property
    def fraction(self) -> float:
        return self.oi / self.ceiling if self.ceiling else math.inf


def _machine(s: int, shapes: dict[str, tuple[int, int]]) -> TwoLevelMachine:
    m = TwoLevelMachine(s, numerics=False)
    for name, shape in shapes.items():
        m.add_matrix(name, np.zeros(shape))
    return m


def roofline_rows(n: int, mcols: int, s: int, lbc_b: int | None = None) -> list[RooflineRow]:
    """Measure OI for all six schedules at one shape (E7's table body)."""
    rows: list[RooflineRow] = []

    def add(schedule: str, kernel_class: str, stats) -> None:
        ceiling = max_operational_intensity(s, kernel=kernel_class, per="mults")
        rows.append(
            RooflineRow(
                schedule=schedule, kernel_class=kernel_class, n=n, s=s,
                q=stats.loads, mults=stats.mults,
                oi=stats.mults / stats.loads if stats.loads else math.inf,
                ceiling=ceiling,
            )
        )

    m = _machine(s, {"A": (n, mcols), "C": (n, n)})
    add("TBS (syrk)", "symmetric", tbs_syrk(m, "A", "C", range(n), range(mcols)))
    m = _machine(s, {"A": (n, mcols), "C": (n, n)})
    add("OOC_SYRK", "symmetric", ooc_syrk(m, "A", "C", range(n), range(mcols)))
    m = _machine(s, {"A": (n, n)})
    add("LBC (cholesky)", "symmetric", lbc_cholesky(m, "A", range(n), b=lbc_b))
    m = _machine(s, {"A": (n, n)})
    add("OOC_CHOL", "symmetric", ooc_chol(m, "A", range(n)))
    m = _machine(s, {"A": (n, mcols), "B": (mcols, n), "C": (n, n)})
    add("OOC_GEMM", "gemm", ooc_gemm(m, "A", "B", "C", range(n), range(mcols), range(n)))
    m = _machine(s, {"A": (n, n)})
    add("OOC_LU", "gemm", ooc_lu(m, "A", range(n)))
    return rows
