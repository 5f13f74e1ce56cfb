"""SYR2K — the paper's "future work" extension, worked out.

The conclusion of the paper suggests extending the triangle-block idea "to
other kernels which use the same input several times".  The canonical next
kernel is the symmetric rank-2k update::

    C += A Bᵀ + B Aᵀ        (A, B of size N x M, C symmetric N x N)

whose element operation ``C[i,j] += A[i,k] B[j,k] + B[i,k] A[j,k]`` reads
*four* streamed values per subdiagonal pair but — crucially — the footprint
of a triangle block's update at iteration ``k`` is only ``2 |R|`` (the two
column segments over the same row set), feeding ``|R|(|R|-1)/2`` pairs.

Carrying the paper's Section 4 analysis through (the balanced-solution
constraint becomes ``I(I-1)/2 + 2 K I <= X``) gives a maximal OI of
``sqrt(S/2)`` multiplies per load — the *same* ceiling as SYRK — hence a
lower bound ``Q >= sqrt(2) N^2 M / sqrt(S)`` (twice SYRK's: there are twice
the multiplies).  The triangle-block schedule below matches it:

* memory: a triangle block (``k(k-1)/2``) plus *two* length-``k`` column
  segments: ``k(k+3)/2 <= S``;
* per block, per column: ``2k`` loads feed ``k(k-1)`` multiplies, so the
  A/B traffic is ``2 N^2 M / (k-1) -> sqrt(2) N^2 M / sqrt(S)``;
* the square-tile baseline streams ``4s`` per column per tile:
  ``2 N^2 M / s -> 2 N^2 M / sqrt(S)`` — the same ``sqrt(2)`` gap as SYRK.

The geometry (zones, indexing family, recursion, strip) is *identical* to
TBS — reused directly from :mod:`repro.core.partition`.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import triangle_side_for_memory
from ..errors import ConfigurationError
from ..machine.machine import TwoLevelMachine
from ..machine.tracker import IOStats
from ..sched.ops import OuterColsUpdate, TriangleCrossUpdate
from ..utils.intervals import as_distinct_index_array, as_index_array, split_indices
from .partition import plan_partition


def syr2k_triangle_side_for_memory(s: int) -> int:
    """Largest ``k`` with ``k(k+3)/2 <= S`` (triangle block + two segments).

    >>> syr2k_triangle_side_for_memory(14)
    4
    >>> syr2k_triangle_side_for_memory(13)
    3
    """
    if s < 2:
        raise ConfigurationError(f"S must be >= 2, got {s}")
    k = int(math.isqrt(2 * s))
    while k * (k + 3) // 2 > s:
        k -= 1
    while (k + 1) * (k + 4) // 2 <= s:
        k += 1
    return max(k, 0)


def syr2k_square_tile_side(s: int) -> int:
    """Largest tile side with ``t^2 + 4t <= S`` (four streamed segments)."""
    if s < 5:
        raise ConfigurationError(f"S must be >= 5 for a 1x1 tile plus four vectors, got {s}")
    t = int(math.isqrt(s))
    while t * t + 4 * t > s:
        t -= 1
    return t


def syr2k_lower_bound(n: int, m: int, s: int, form: str = "asymptotic") -> float:
    """SYR2K lower bound: ``sqrt(2) N^2 M / sqrt(S)``.

    Derivation mirrors Corollary 4.7: the balanced-solution problem with
    doubled per-iteration footprint has optimum ``<= (1/2) * H''`` in pair
    count, so the OI ceiling per *multiply* is unchanged at ``sqrt(S/2)``
    while the multiply count doubles to ``~N^2 M``.
    """
    if form == "exact":
        mults = n * (n - 1) * m  # 2 per strict subdiagonal pair-triple
    elif form == "asymptotic":
        mults = float(n * n * m)
    else:
        raise ConfigurationError(f"unknown form {form!r}")
    return mults / math.sqrt(s / 2.0)


def ooc_syr2k(
    m: TwoLevelMachine,
    a: str,
    b: str,
    c: str,
    rows,
    cols,
    sign: float = 1.0,
    tile: int | None = None,
) -> IOStats:
    """Square-tile SYR2K baseline (the OOC_SYRK analogue).

    Holds one tile of ``C`` and streams *four* column segments per inner
    step; diagonal tiles hold their lower triangle and stream two.
    """
    rows = as_distinct_index_array(rows)
    cols = as_index_array(cols)
    before = m.stats.snapshot()
    t = tile if tile is not None else syr2k_square_tile_side(m.capacity)
    if t * t + 4 * t > m.capacity:
        raise ConfigurationError(f"tile {t} too large for S={m.capacity}")
    blocks = split_indices(rows, t)
    # As in OOC_SYRK: each row set's column segments, built once per call.
    seg_a = [m.column_segments(a, ri, cols) for ri in blocks]
    seg_b = [m.column_segments(b, ri, cols) for ri in blocks]
    for bi, ri in enumerate(blocks):
        with m.hold(m.lower_tile(c, ri), writeback=True):
            for k, sa, sb in zip(cols, seg_a[bi], seg_b[bi]):
                m.load(sa)
                m.load(sb)
                m.compute(TriangleCrossUpdate(m, c, a, b, ri, int(k), sign=sign, include_diagonal=True))
                m.evict(sa)
                m.evict(sb)
        for bj, rj in enumerate(blocks[:bi]):
            _syr2k_tile(
                m, a, b, c, ri, rj, cols, sign, (seg_a[bi], seg_b[bj], seg_b[bi], seg_a[bj])
            )
    return m.stats.diff(before)


def tbs_syr2k(
    m: TwoLevelMachine,
    a: str,
    b: str,
    c: str,
    rows,
    cols,
    sign: float = 1.0,
    k: int | None = None,
) -> IOStats:
    """Triangle-block SYR2K: ``C[rows, rows] += sign * (A Bᵀ + B Aᵀ)``.

    The TBS extension: identical partition geometry, two streamed segments
    per column instead of one.  Falls back to :func:`ooc_syr2k` below the
    applicability threshold, exactly like Algorithm 4.
    """
    rows = as_distinct_index_array(rows)
    cols = as_index_array(cols)
    if k is None:
        k = syr2k_triangle_side_for_memory(m.capacity)
    if k < 2:
        raise ConfigurationError(f"memory S={m.capacity} cannot fit any SYR2K triangle block")
    if k * (k + 3) // 2 > m.capacity:
        raise ConfigurationError(f"k={k} needs S >= {k * (k + 3) // 2}, got {m.capacity}")
    before = m.stats.snapshot()
    _syr2k_recurse(m, a, b, c, rows, cols, sign, k)
    return m.stats.diff(before)


def _syr2k_recurse(
    m: TwoLevelMachine,
    a: str,
    b: str,
    c: str,
    rows: np.ndarray,
    cols: np.ndarray,
    sign: float,
    k: int,
) -> None:
    n = rows.size
    part = plan_partition(n, k)
    if part is None:
        ooc_syr2k(m, a, b, c, rows, cols, sign=sign)
        return
    ck = part.covered
    if part.leftover:
        strip, prior = rows[ck:], rows[:ck]
        # rectangle part (strip x prior), then the strip's own triangle
        _syr2k_rect(m, a, b, c, strip, prior, cols, sign)
        ooc_syr2k(m, a, b, c, strip, cols, sign=sign)
    for u in range(k):
        _syr2k_recurse(m, a, b, c, rows[part.group(u)], cols, sign, k)
    for (_ij, local_rows) in part.iter_blocks():
        r_global = rows[local_rows]
        block = m.triangle_block(c, r_global)
        m.load(block)
        seg_a = m.column_segments(a, r_global, cols)
        seg_b = m.column_segments(b, r_global, cols)
        for kk, sa, sb in zip(cols, seg_a, seg_b):
            m.load(sa)
            m.load(sb)
            m.compute(TriangleCrossUpdate(m, c, a, b, r_global, int(kk), sign=sign))
            m.evict(sa)
            m.evict(sb)
        m.evict(block, writeback=True)


def _syr2k_rect(
    m: TwoLevelMachine,
    a: str,
    b: str,
    c: str,
    rows_i: np.ndarray,
    rows_j: np.ndarray,
    cols: np.ndarray,
    sign: float,
) -> None:
    t = syr2k_square_tile_side(m.capacity)
    blocks_j = split_indices(rows_j, t)
    segs_j = [(m.column_segments(a, rj, cols), m.column_segments(b, rj, cols)) for rj in blocks_j]
    for ri in split_indices(rows_i, t):
        seg_a, seg_b = m.column_segments(a, ri, cols), m.column_segments(b, ri, cols)
        for rj, (seg_aj, seg_bj) in zip(blocks_j, segs_j):
            _syr2k_tile(m, a, b, c, ri, rj, cols, sign, (seg_a, seg_bj, seg_b, seg_aj))


def _syr2k_tile(
    m: TwoLevelMachine,
    a: str,
    b: str,
    c: str,
    ri: np.ndarray,
    rj: np.ndarray,
    cols: np.ndarray,
    sign: float,
    streams: tuple[list, list, list, list],
) -> None:
    """Hold tile ``C[ri, rj]`` and stream four column segments per column past it.

    ``streams`` holds the segments of ``A[ri]``, ``B[rj]``, ``B[ri]`` and
    ``A[rj]`` over ``cols``, in that load order.
    """
    with m.hold(m.tile(c, ri, rj), writeback=True):
        for kk, *segs in zip(cols, *streams):
            for seg in segs:
                m.load(seg)
            m.compute(OuterColsUpdate(m, c, a, b, ri, rj, int(kk), int(kk), sign=sign))
            m.compute(OuterColsUpdate(m, c, b, a, ri, rj, int(kk), int(kk), sign=sign))
            for seg in segs:
                m.evict(seg)


def syr2k_reference(a: np.ndarray, b: np.ndarray, c: np.ndarray | None = None, sign: float = 1.0) -> np.ndarray:
    """In-memory oracle: ``C += sign * tril(A Bᵀ + B Aᵀ)``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ConfigurationError(f"A and B must share a shape, got {a.shape} vs {b.shape}")
    n = a.shape[0]
    out = np.zeros((n, n)) if c is None else np.asarray(c, dtype=np.float64).copy()
    out += sign * np.tril(a @ b.T + b @ a.T)
    return out
