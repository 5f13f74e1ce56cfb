"""Regions: named sets of matrix elements, the unit of load/evict.

A :class:`Region` is a matrix name plus a sorted, duplicate-free array of
*flat* (row-major) element indices.  All machine traffic is expressed in
regions; their sizes are what the tracker counts.  Constructors build the
region shapes the paper's schedules use:

* ``tile_region``      — a rectangular ``rows x cols`` tile;
* ``triangle_block_region`` — the paper's triangle block ``TB(R)``: all
  strictly-subdiagonal pairs ``(r, r')`` with ``r > r'`` drawn from a row
  set ``R`` (Definition 3.5).  Note ``R`` need not be contiguous — this is
  exactly what makes TBS work;
* ``lower_tile_region`` — the at-or-below-diagonal part of a diagonal tile
  (used by OOC_SYRK/OOC_CHOL for tiles on the main diagonal);
* ``column_segment_region`` / ``row_segment_region`` — the narrow streamed
  operands of the one-tile algorithms.

Flat indexing requires the backing matrix's column count, so constructors
take ``ncols``; the :class:`~repro.machine.machine.TwoLevelMachine` facade
offers shape-aware wrappers.  The triangle-shaped constructors and the
triangle ops of :mod:`repro.sched.ops` draw their element pairs from one
shared table, :func:`tril_pairs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from ..utils.intervals import as_index_array, is_strictly_increasing


@dataclass(frozen=True)
class Region:
    """A set of elements of one named matrix.

    Attributes
    ----------
    matrix:
        Name of the matrix in slow memory.
    flat:
        Sorted, duplicate-free ``int64`` array of row-major flat indices.
    """

    matrix: str
    flat: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.flat, dtype=np.int64)
        object.__setattr__(self, "flat", arr)

    @property
    def size(self) -> int:
        """Number of elements in the region."""
        return int(self.flat.size)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = ", ".join(str(int(i)) for i in self.flat[:6])
        suffix = ", ..." if self.size > 6 else ""
        return f"Region({self.matrix!r}, n={self.size}, [{preview}{suffix}])"


@lru_cache(maxsize=64)
def tril_pairs(n: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``np.tril_indices(n, k=k)``, built once per ``(n, k)`` and read-only.

    The table depends on ``(n, k)`` alone, and a schedule asks for the
    same few sizes once per op, so it is cached process-wide (bounded:
    the sizes in use are the handful of tile and row-set sides).  Every
    caller shares the arrays, so they are read-only.
    """
    il, jl = np.tril_indices(n, k=k)
    il.setflags(write=False)
    jl.setflags(write=False)
    return il, jl


def _flat_from_pairs(rows: np.ndarray, cols: np.ndarray, ncols: int) -> np.ndarray:
    return rows.astype(np.int64) * np.int64(ncols) + cols.astype(np.int64)


def _finalize(matrix: str, flat: np.ndarray, *, assume_sorted: bool = False) -> Region:
    flat = np.asarray(flat, dtype=np.int64).ravel()
    if not assume_sorted:
        flat = np.unique(flat)
    return Region(matrix, flat)


def tile_region(matrix: str, rows, cols, ncols: int) -> Region:
    """The rectangular tile ``matrix[rows, cols]`` as a region.

    ``rows`` and ``cols`` are 1-D global index collections (need not be
    contiguous).  The region has ``len(rows) * len(cols)`` elements.
    """
    r = as_index_array(rows)
    c = as_index_array(cols)
    flat = (r[:, None] * np.int64(ncols) + c[None, :]).ravel()
    sorted_ok = is_strictly_increasing(r) and is_strictly_increasing(c)
    return _finalize(matrix, flat, assume_sorted=False if not sorted_ok else True)


def triangle_block_region(matrix: str, R, ncols: int) -> Region:
    """The triangle block ``TB(R)`` of Definition 3.5 as a region of ``matrix``.

    ``TB(R) = {(r, r') : r, r' in R, r > r'}`` — the strictly-subdiagonal
    pairs of the row set ``R``; it has ``|R| (|R|-1) / 2`` elements.  ``R``
    may be any duplicate-free index collection (TBS uses one row per zone
    row, so ``R`` is scattered across the matrix).
    """
    r = as_index_array(R)
    r = np.sort(r)
    if np.any(np.diff(r) == 0):
        raise ValueError("triangle block row set R must be duplicate-free")
    # k=-1 yields the pairs (i, j) with i > j: the subdiagonal pairs.
    il, jl = tril_pairs(r.size, -1)
    rows = r[il]
    cols = r[jl]
    flat = _flat_from_pairs(rows, cols, ncols)
    return _finalize(matrix, flat)


def lower_tile_region(matrix: str, rows, ncols: int, *, strict: bool = False) -> Region:
    """The lower-triangular part of the diagonal tile ``matrix[rows, rows]``.

    Includes the diagonal unless ``strict=True``.  Used for diagonal tiles
    of symmetric outputs, where only ``|R|(|R|+1)/2`` (or ``|R|(|R|-1)/2``)
    elements are referenced.
    """
    r = np.sort(as_index_array(rows))
    il, jl = tril_pairs(r.size, -1 if strict else 0)
    rows_idx = r[il]
    cols_idx = r[jl]
    flat = _flat_from_pairs(rows_idx, cols_idx, ncols)
    return _finalize(matrix, flat)


def column_segment_region(matrix: str, rows, col: int, ncols: int) -> Region:
    """The column segment ``matrix[rows, col]`` (a streamed narrow operand)."""
    r = as_index_array(rows)
    flat = _flat_from_pairs(r, np.full(r.size, int(col), dtype=np.int64), ncols)
    return _finalize(matrix, flat, assume_sorted=is_strictly_increasing(r))


def row_segment_region(matrix: str, row: int, cols, ncols: int) -> Region:
    """The row segment ``matrix[row, cols]`` (streamed by the TRSM solves)."""
    c = as_index_array(cols)
    flat = _flat_from_pairs(np.full(c.size, int(row), dtype=np.int64), c, ncols)
    return _finalize(matrix, flat, assume_sorted=is_strictly_increasing(c))


def merge_regions(regions: Sequence[Region]) -> list[Region]:
    """Merge same-matrix regions into one region per matrix (union of indices).

    Overlapping regions are unioned, not double-counted; used by the
    machine-independent schedule validator to summarize footprints.
    """
    by_matrix: dict[str, list[np.ndarray]] = {}
    for reg in regions:
        by_matrix.setdefault(reg.matrix, []).append(reg.flat)
    return [
        Region(name, np.unique(np.concatenate(parts)))
        for name, parts in sorted(by_matrix.items())
    ]
