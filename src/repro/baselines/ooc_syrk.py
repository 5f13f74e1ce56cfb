"""OOC_SYRK: Bereux's square-tile out-of-core SYRK (the pre-paper baseline).

One-tile, narrow-block variant (denoted OCS in the paper): hold one
``s x s`` tile of the result ``C`` resident and stream columns of ``A`` past
it, two length-``s`` segments per column, so the memory requirement is
``s^2 + 2s <= S``.  Diagonal tiles hold only their lower triangle
(including the diagonal) and need a *single* segment per column.

I/O volume (paper, Section 5): ``Q_OCS(N, M) = N^2 M / sqrt(S) + O(N M)``
for the ``A`` traffic, plus one pass over ``C``'s lower triangle
(``N(N+1)/2`` loads + as many writebacks).  The square tile is optimal
*without* exploiting the symmetric reuse of ``A`` — exactly the factor
``sqrt(2)`` TBS recovers.

All entry points operate on global index sets so TBS can delegate its
leftover strip and recursion base cases here (Algorithm 4's fallback).
"""

from __future__ import annotations

import numpy as np

from ..config import square_tile_side_for_memory
from ..errors import ConfigurationError
from ..machine.machine import TwoLevelMachine
from ..machine.regions import Region
from ..machine.tracker import IOStats
from ..sched.ops import OuterColsUpdate, TriangleUpdate
from ..utils.intervals import as_distinct_index_array, as_index_array, split_indices


def _check_disjoint(a: np.ndarray, b: np.ndarray) -> None:
    if np.isin(a, b).any():
        raise ConfigurationError("row sets must be disjoint")


def ooc_syrk(
    m: TwoLevelMachine,
    a: str,
    c: str,
    rows,
    cols,
    sign: float = 1.0,
    tile: int | None = None,
) -> IOStats:
    """Full lower triangle (incl. diagonal): ``C[rows, rows] += sign * A Aᵀ``.

    ``rows`` are global row indices into both ``A`` and ``C``; ``cols`` are
    the ``A`` columns to accumulate over.  Returns the I/O stats delta of
    this call.
    """
    rows = as_distinct_index_array(rows)
    cols = as_index_array(cols)
    before = m.stats.snapshot()
    s = tile if tile is not None else square_tile_side_for_memory(m.capacity)
    if s * s + 2 * s > m.capacity:
        raise ConfigurationError(f"tile {s} too large for S={m.capacity}")
    blocks = split_indices(rows, s)
    # Every tile of a block row streams that row set's column segments of
    # A, so they are built once per row set and held for the whole call.
    segments = [m.column_segments(a, ri, cols) for ri in blocks]
    for bi, ri in enumerate(blocks):
        # Diagonal tile: lower triangle only, single streamed segment.
        with m.hold(m.lower_tile(c, ri), writeback=True):
            for k, seg in zip(cols, segments[bi]):
                m.load(seg)
                m.compute(TriangleUpdate(m, c, a, ri, int(k), sign=sign, include_diagonal=True))
                m.evict(seg)
        # Tiles strictly below the diagonal in this block column.
        for bj, rj in enumerate(blocks[:bi]):
            _rect_tile(m, a, c, ri, rj, cols, sign, segments[bi], segments[bj])
    return m.stats.diff(before)


def ooc_syrk_rect(
    m: TwoLevelMachine,
    a: str,
    c: str,
    rows_i,
    rows_j,
    cols,
    sign: float = 1.0,
    tile: int | None = None,
) -> IOStats:
    """Rectangular SYRK block: ``C[rows_i, rows_j] += sign * A[rows_i,:] A[rows_j,:]ᵀ``.

    Requires disjoint row sets (every pair is then a valid subdiagonal
    element when ``rows_j`` precede ``rows_i``).  Used for the part of
    TBS's leftover strip that lies below previously computed rows.
    """
    rows_i = as_index_array(rows_i)
    rows_j = as_index_array(rows_j)
    cols = as_index_array(cols)
    _check_disjoint(rows_i, rows_j)
    before = m.stats.snapshot()
    s = tile if tile is not None else square_tile_side_for_memory(m.capacity)
    blocks_j = split_indices(rows_j, s)
    segments_j = [m.column_segments(a, rj, cols) for rj in blocks_j]
    for ri in split_indices(rows_i, s):
        segments_i = m.column_segments(a, ri, cols)
        for rj, segs_j in zip(blocks_j, segments_j):
            _rect_tile(m, a, c, ri, rj, cols, sign, segments_i, segs_j)
    return m.stats.diff(before)


def _rect_tile(
    m: TwoLevelMachine, a: str, c: str, ri: np.ndarray, rj: np.ndarray, cols: np.ndarray,
    sign: float, segs_i: list[Region], segs_j: list[Region],
) -> None:
    """Hold one rectangular tile of C and stream column pairs of A past it.

    ``segs_i`` and ``segs_j`` are the column segments of ``ri`` and ``rj``
    over ``cols``.
    """
    with m.hold(m.tile(c, ri, rj), writeback=True):
        for k, seg_i, seg_j in zip(cols, segs_i, segs_j):
            m.load(seg_i)
            m.load(seg_j)
            m.compute(OuterColsUpdate(m, c, a, a, ri, rj, int(k), int(k), sign=sign))
            m.evict(seg_i)
            m.evict(seg_j)


def ooc_syrk_strip(
    m: TwoLevelMachine,
    a: str,
    c: str,
    strip_rows,
    prior_rows,
    cols,
    sign: float = 1.0,
    tile: int | None = None,
) -> IOStats:
    """The trapezoid ``{C[i, j] : i in strip, j in prior U strip, j <= i}``.

    This is the region Algorithm 4 assigns to OOC_SYRK for the last
    ``l = N - c k`` rows: a full rectangle against all earlier rows plus the
    lower triangle within the strip.  ``prior_rows`` must all precede
    ``strip_rows``.
    """
    strip_rows = as_index_array(strip_rows)
    prior_rows = as_index_array(prior_rows)
    before = m.stats.snapshot()
    if strip_rows.size == 0:
        return m.stats.diff(before)
    if prior_rows.size and prior_rows.max() >= strip_rows.min():
        raise ConfigurationError("prior_rows must all precede strip_rows")
    if prior_rows.size:
        ooc_syrk_rect(m, a, c, strip_rows, prior_rows, cols, sign=sign, tile=tile)
    ooc_syrk(m, a, c, strip_rows, cols, sign=sign, tile=tile)
    return m.stats.diff(before)
