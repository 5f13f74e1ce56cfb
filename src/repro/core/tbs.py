"""TBS — Triangle Block SYRK (Algorithm 4), the paper's optimal SYRK schedule.

The memory of size ``S`` fits a triangle block of side ``k`` from the result
(``k(k-1)/2`` elements) plus one length-``k`` column segment of ``A``:
``S >= k(k+1)/2``.  Each of the ``c^2`` triangle blocks is loaded once, all
``M`` columns of ``A`` are streamed past it (``k`` elements per column —
the symmetric footprint, *not* ``2k``), and the block is written back:

* A-traffic per block: ``k * M``  ->  total ``c^2 k M <= N^2 M / k``;
* summed over the ``O(log N)`` recursion levels: ``N^2 M / (k - 1)``;
* with ``k - 1 ~ sqrt(2 S)``:  ``Q_TBS = N^2 M / sqrt(2 S) + N^2/2 +
  O(N M log N)`` (Theorem 5.6) — a factor ``sqrt(2)`` below OOC_SYRK and
  matching the Corollary 4.7 lower bound.

The leftover strip (``l = N - c k`` rows) and the recursion base case
(``c < k - 1``) fall back to OOC_SYRK, exactly as in Algorithm 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines.ooc_syrk import ooc_syrk, ooc_syrk_strip
from ..config import triangle_side_for_memory
from ..errors import ConfigurationError
from ..machine.machine import TwoLevelMachine
from ..machine.tracker import IOStats
from ..sched.ops import TriangleUpdate
from ..utils.intervals import as_distinct_index_array, as_index_array
from .partition import plan_partition, recursion_profile


@dataclass
class TBSReport:
    """Structural record of one TBS run (what E5 reports)."""

    n: int
    m: int
    k: int
    levels: list[dict[str, int | str]] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.levels)

    def fallback_rows(self) -> int:
        """Rows ultimately handled by OOC_SYRK across all levels (strips + base)."""
        total = 0
        for lv in self.levels:
            total += int(lv["l"]) * int(lv["count"])
        return total


def tbs_syrk(
    m: TwoLevelMachine,
    a: str,
    c: str,
    rows,
    cols,
    sign: float = 1.0,
    k: int | None = None,
) -> IOStats:
    """Run TBS: ``C[rows, rows] += sign * A[rows, cols] A[rows, cols]ᵀ``
    (lower triangle incl. diagonal).  Returns the I/O stats delta.

    ``rows``/``cols`` are global indices into the named matrices, so LBC
    can aim TBS at the trailing submatrix with the just-solved panel as
    input.  ``k`` defaults to the largest triangle side the memory fits
    (``k(k+1)/2 <= S``); passing a smaller ``k`` under-uses memory (useful
    for experiments).
    """
    rows = as_distinct_index_array(rows)
    cols = as_index_array(cols)
    if k is None:
        k = triangle_side_for_memory(m.capacity)
    if k < 2:
        raise ConfigurationError(f"memory S={m.capacity} cannot fit any triangle block (k={k})")
    if k * (k + 1) // 2 > m.capacity:
        raise ConfigurationError(f"k={k} needs S >= {k * (k + 1) // 2}, got {m.capacity}")
    before = m.stats.snapshot()
    _tbs_recurse(m, a, c, rows, cols, sign, k)
    return m.stats.diff(before)


def _tbs_recurse(
    m: TwoLevelMachine,
    a: str,
    c: str,
    rows: np.ndarray,
    cols: np.ndarray,
    sign: float,
    k: int,
) -> None:
    n = rows.size
    part = plan_partition(n, k)
    if part is None:
        # c too small: Algorithm 4's fallback to square-tile OOC_SYRK.
        ooc_syrk(m, a, c, rows, cols, sign=sign)
        return

    ck = part.covered
    # (1) leftover strip: last l rows, via OOC_SYRK (Figure 2, right).
    if part.leftover:
        ooc_syrk_strip(m, a, c, rows[ck:], rows[:ck], cols, sign=sign)

    # (2) recursive calls on the k diagonal (triangular) zones.
    for u in range(k):
        sub = rows[part.group(u)]
        _tbs_recurse(m, a, c, sub, cols, sign, k)

    # (3) the c^2 triangle blocks over the square zones.
    for (_ij, local_rows) in part.iter_blocks():
        r_global = rows[local_rows]
        block = m.triangle_block(c, r_global)
        m.load(block)
        for kk, seg in zip(cols, m.column_segments(a, r_global, cols)):
            m.load(seg)
            m.compute(TriangleUpdate(m, c, a, r_global, int(kk), sign=sign, include_diagonal=False))
            m.evict(seg)
        m.evict(block, writeback=True)


def tbs_report(n: int, mcols: int, s: int, k: int | None = None) -> TBSReport:
    """Structural report of what :func:`tbs_syrk` would do (no machine run)."""
    if k is None:
        k = triangle_side_for_memory(s)
    return TBSReport(n=n, m=mcols, k=k, levels=recursion_profile(n, k))
