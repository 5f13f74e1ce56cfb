"""OOC_CHOL: Bereux's one-tile, left-looking out-of-core Cholesky.

The pre-paper Cholesky baseline (denoted OCC): square ``s x s`` tiles,
processed left-looking by block column, each tile loaded exactly once and
written back exactly once, with all its updates streamed past it as narrow
column pairs.

For block column ``jb`` over a row set ``rows``:

* the **diagonal tile** holds its lower triangle (incl. diagonal); for each
  already-final global column ``t`` to its left, stream the single segment
  ``L[Ij, t]`` and apply the symmetric rank-1 downdate; then factor the
  resident tile in place (zero I/O) and write it back;
* each **sub-diagonal tile** ``(ib, jb)`` holds its full square; for each
  prior column ``t``, stream ``L[Ii, t]`` and ``L[Ij, t]`` and downdate;
  then solve against the (already written back) diagonal factor by
  streaming its rows one at a time, and write back.

Memory: ``s^2 + 2s <= S``.  I/O volume: ``Q_OCC(N) = N^3 / (3 sqrt(S)) +
O(N^2)`` — the constant ``1/3`` the paper's LBC improves to
``1/(3 sqrt 2)``.  The leading term comes entirely from the streamed
updates; tile loads, writebacks and the row-streamed solves are ``O(N^2)``.
"""

from __future__ import annotations

from ..config import square_tile_side_for_memory
from ..errors import ConfigurationError
from ..machine.machine import TwoLevelMachine
from ..machine.tracker import IOStats
from ..sched.ops import CholFactorResident, OuterColsUpdate, TriangleUpdate, TrsmSolveStep
from ..utils.intervals import as_distinct_index_array, split_indices


def ooc_chol(
    m: TwoLevelMachine,
    a: str,
    rows,
    tile: int | None = None,
) -> IOStats:
    """In-place Cholesky of ``A[rows, rows]`` (lower triangle).

    ``rows`` are global indices into the backing matrix ``a``, so LBC can
    factor diagonal blocks of a larger matrix in place.  Returns the I/O
    stats delta of this call.
    """
    rows = as_distinct_index_array(rows)
    before = m.stats.snapshot()
    s = tile if tile is not None else square_tile_side_for_memory(m.capacity)
    if s * s + 2 * s > m.capacity:
        raise ConfigurationError(f"tile {s} too large for S={m.capacity}")
    blocks = split_indices(rows, s)
    for jb, ij in enumerate(blocks):
        prior_cols = rows[: int(jb) * s] if jb else rows[:0]
        # The diagonal tile and every tile below it stream the same
        # segments of this block column, built once.
        segs_j = m.column_segments(a, ij, prior_cols)
        # --- diagonal tile: downdate, factor resident, write back ---------
        with m.hold(m.lower_tile(a, ij), writeback=True):
            for t, seg in zip(prior_cols, segs_j):
                m.load(seg)
                m.compute(TriangleUpdate(m, a, a, ij, int(t), sign=-1.0, include_diagonal=True))
                m.evict(seg)
            m.compute(CholFactorResident(m, a, ij))
        # --- sub-diagonal tiles: downdate, solve vs diagonal, write back --
        for ii in blocks[jb + 1 :]:
            with m.hold(m.tile(a, ii, ij), writeback=True):
                segs_i = m.column_segments(a, ii, prior_cols)
                for t, seg_i, seg_j in zip(prior_cols, segs_i, segs_j):
                    m.load(seg_i)
                    m.load(seg_j)
                    m.compute(OuterColsUpdate(m, a, a, a, ii, ij, int(t), int(t), sign=-1.0))
                    m.evict(seg_i)
                    m.evict(seg_j)
                for t_local in range(ij.size):
                    lrow = m.row_segment(a, int(ij[t_local]), ij[: t_local + 1])
                    m.load(lrow)
                    m.compute(TrsmSolveStep(m, a, a, ii, ij, t_local))
                    m.evict(lrow)
    return m.stats.diff(before)
