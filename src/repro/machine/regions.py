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
  operands of the one-tile algorithms (``column_segment_regions`` builds
  every column of one row set at once).

Flat indexing requires the backing matrix's column count, so constructors
take ``ncols``; :class:`ShapeAwareRegions` offers them by matrix name, to
the :class:`~repro.machine.machine.TwoLevelMachine` facade and to
:class:`MatrixShapes`.  The triangle-shaped constructors and the triangle
ops of :mod:`repro.sched.ops` draw their element pairs from one shared
table, :func:`tril_pairs`.

**One region table.**  A kernel builds a region to load it, and the op it
then computes names the same region again, so every constructor looks its
input up in one process-wide table keyed on (constructor, matrix, column
count, index bytes, scalars).  A miss checks the input once — no repeated
index, no negative index, columns below ``ncols`` (unsorted input is
sorted) — and builds the flat with plain arithmetic; a hit returns the
same :class:`Region` object and runs nothing.  A bad input raises
:class:`~repro.errors.ConfigurationError` on every call, since failures
are never stored.  Because many holders share one region, its flat is
read-only, and an in-place write raises.  The table holds its regions
weakly: an entry lives as long as a kernel, an op or a recorded schedule
holds the region, so a long counting-only run keeps nothing alive.  The
machine, the compute ops and :func:`~repro.trace.io.load_schedule` all
build their regions through it.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..utils.intervals import as_index_array, is_strictly_increasing


@dataclass(frozen=True, eq=False)
class Region:
    """A set of elements of one named matrix.

    Regions compare and hash by identity: the process-wide region table
    builds one object per distinct input, and fast memory holds loaded
    regions by identity too.

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


#: The process-wide region table: (constructor, matrix, ncols, index
#: bytes..., scalars) -> the one Region built for that input.  Values are
#: held weakly, so an entry lives exactly as long as something else (a
#: kernel's local, an op, a recorded schedule) holds its region.
_TABLE: "weakref.WeakValueDictionary[tuple, Region]" = weakref.WeakValueDictionary()
#: Serializes misses, so threads recording at once (the serve front end
#: runs one search per thread) still get one object per input.
_MISS_LOCK = threading.Lock()


def _shared(key: tuple, build, *args) -> Region:
    """The table's region for ``key``, built by ``build(*args)`` on a miss.

    A build that raises stores nothing, so a bad input raises on every
    call.  A hit takes no lock.
    """
    region = _TABLE.get(key)
    if region is None:
        with _MISS_LOCK:
            region = _TABLE.get(key)
            if region is None:
                region = build(*args)
                region.flat.setflags(write=False)
                _TABLE[key] = region
    return region


def _sorted_distinct(idx: np.ndarray, what: str) -> np.ndarray:
    """``idx`` in increasing order; raise if it repeats or holds a negative index."""
    if not is_strictly_increasing(idx):
        idx = np.sort(idx)
        if not is_strictly_increasing(idx):
            raise ConfigurationError(f"{what} must be duplicate-free")
    if idx.size and idx[0] < 0:
        raise ConfigurationError(f"{what} holds a negative index")
    return idx


def _columns(idx: np.ndarray, ncols: int, what: str) -> np.ndarray:
    """``_sorted_distinct(idx)``, also checked to lie below ``ncols``.

    Every flat below is then ``row * ncols + col`` with ``col < ncols`` over
    sorted, distinct rows and columns, so it comes out sorted and
    duplicate-free with no ``np.unique``.
    """
    idx = _sorted_distinct(idx, what)
    if idx.size and idx[-1] >= ncols:
        raise ConfigurationError(f"{what} reaches column {int(idx[-1])} of {ncols}")
    return idx


def _build_tile(matrix: str, rows: np.ndarray, cols: np.ndarray, ncols: int) -> Region:
    r = _sorted_distinct(rows, "tile rows")
    c = _columns(cols, ncols, "tile columns")
    return Region(matrix, (r[:, None] * ncols + c[None, :]).ravel())


def _build_triangle(matrix: str, R: np.ndarray, ncols: int, k: int) -> Region:
    # R indexes both the rows and the columns of the pairs.
    r = _columns(R, ncols, "triangle row set R")
    il, jl = tril_pairs(r.size, k)
    return Region(matrix, r[il] * ncols + r[jl])


def _build_column_segments(
    matrix: str, rows: np.ndarray, cols: list[int], ncols: int
) -> list[Region]:
    r = _sorted_distinct(rows, "column segment rows")
    if min(cols) < 0 or max(cols) >= ncols:
        raise ConfigurationError(f"column segment columns {cols} outside [0, {ncols})")
    # One arithmetic block; row t of it is column cols[t]'s segment.
    block = np.array(cols, dtype=np.int64)[:, None] + r * ncols
    return [Region(matrix, flat) for flat in block]


def _build_column_segment(matrix: str, rows: np.ndarray, col: int, ncols: int) -> Region:
    return _build_column_segments(matrix, rows, [col], ncols)[0]


def _build_row_segment(matrix: str, row: int, cols: np.ndarray, ncols: int) -> Region:
    c = _columns(cols, ncols, "row segment columns")
    if row < 0:
        raise ConfigurationError(f"row segment row {row} is negative")
    return Region(matrix, row * ncols + c)


def tile_region(matrix: str, rows, cols, ncols: int) -> Region:
    """The rectangular tile ``matrix[rows, cols]`` as a region.

    ``rows`` and ``cols`` are 1-D global index collections (need not be
    contiguous or sorted, but may not repeat an index).  The region has
    ``len(rows) * len(cols)`` elements.
    """
    r, c = as_index_array(rows), as_index_array(cols)
    key = ("tile", matrix, int(ncols), r.tobytes(), c.tobytes())
    return _shared(key, _build_tile, matrix, r, c, int(ncols))


def triangle_block_region(matrix: str, R, ncols: int) -> Region:
    """The triangle block ``TB(R)`` of Definition 3.5 as a region of ``matrix``.

    ``TB(R) = {(r, r') : r, r' in R, r > r'}`` — the strictly-subdiagonal
    pairs of the row set ``R``; it has ``|R| (|R|-1) / 2`` elements.  ``R``
    may be any duplicate-free index collection (TBS uses one row per zone
    row, so ``R`` is scattered across the matrix).
    """
    return lower_tile_region(matrix, R, ncols, strict=True)


def lower_tile_region(matrix: str, rows, ncols: int, *, strict: bool = False) -> Region:
    """The lower-triangular part of the diagonal tile ``matrix[rows, rows]``.

    Includes the diagonal unless ``strict=True``.  Used for diagonal tiles
    of symmetric outputs, where only ``|R|(|R|+1)/2`` (or ``|R|(|R|-1)/2``)
    elements are referenced.  The pairs come in :func:`tril_pairs` order,
    so the flat of a sorted row set lines up with ``tril_pairs(|R|, k)``.
    """
    r = as_index_array(rows)
    k = -1 if strict else 0
    key = ("triangle", matrix, int(ncols), r.tobytes(), k)
    return _shared(key, _build_triangle, matrix, r, int(ncols), k)


def column_segment_region(matrix: str, rows, col: int, ncols: int) -> Region:
    """The column segment ``matrix[rows, col]`` (a streamed narrow operand)."""
    r = as_index_array(rows)
    key = ("column_segment", matrix, int(ncols), r.tobytes(), int(col))
    return _shared(key, _build_column_segment, matrix, r, int(col), int(ncols))


def column_segment_regions(matrix: str, rows, cols, ncols: int) -> list[Region]:
    """The column segments ``matrix[rows, k]`` for each ``k`` in ``cols``.

    The same table entries as :func:`column_segment_region` per column, but
    the misses of one call check ``rows`` once and are built as one
    arithmetic block.  A kernel that streams every column of a row set past
    a tile builds them here, and holding the list keeps them in the table.
    """
    r = as_index_array(rows)
    prefix = ("column_segment", matrix, int(ncols), r.tobytes())
    keys = [prefix + (k,) for k in as_index_array(cols).tolist()]
    found = [_TABLE.get(key) for key in keys]
    missing = [t for t, region in enumerate(found) if region is None]
    if missing:
        with _MISS_LOCK:
            built = _build_column_segments(
                matrix, r, [keys[t][-1] for t in missing], int(ncols)
            )
            for t, region in zip(missing, built):
                region.flat.setflags(write=False)
                # Another thread, or a repeated column, may have filed it.
                found[t] = _TABLE.setdefault(keys[t], region)
    return found


def row_segment_region(matrix: str, row: int, cols, ncols: int) -> Region:
    """The row segment ``matrix[row, cols]`` (streamed by the TRSM solves)."""
    c = as_index_array(cols)
    key = ("row_segment", matrix, int(ncols), int(row), c.tobytes())
    return _shared(key, _build_row_segment, matrix, int(row), c, int(ncols))


class ShapeAwareRegions:
    """The region constructors by matrix name, for anything that knows ``ncols``.

    Compute ops name their regions this way.  :class:`~repro.machine.machine.
    TwoLevelMachine` answers ``ncols`` from slow memory, and
    :class:`MatrixShapes` answers it from a recorded shapes map.  Every call
    goes through the process-wide region table.
    """

    def ncols(self, name: str) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def tile(self, name: str, rows, cols) -> Region:
        return tile_region(name, rows, cols, self.ncols(name))

    def triangle_block(self, name: str, R) -> Region:
        return triangle_block_region(name, R, self.ncols(name))

    def lower_tile(self, name: str, rows, *, strict: bool = False) -> Region:
        return lower_tile_region(name, rows, self.ncols(name), strict=strict)

    def column_segment(self, name: str, rows, col: int) -> Region:
        return column_segment_region(name, rows, col, self.ncols(name))

    def column_segments(self, name: str, rows, cols) -> list[Region]:
        return column_segment_regions(name, rows, cols, self.ncols(name))

    def row_segment(self, name: str, row: int, cols) -> Region:
        return row_segment_region(name, row, cols, self.ncols(name))


class MatrixShapes(ShapeAwareRegions):
    """Shape-aware region constructors over a ``{name: (rows, cols)}`` map.

    What :func:`~repro.trace.io.load_schedule` rebuilds compute ops against:
    the ops see column counts and region constructors, and no machine.
    """

    def __init__(self, shapes: dict[str, tuple[int, int]]) -> None:
        self._ncols = {name: int(cols) for name, (_, cols) in shapes.items()}

    def ncols(self, name: str) -> int:
        try:
            return self._ncols[name]
        except KeyError:
            raise ConfigurationError(
                f"compute op names matrix {name!r}, absent from shapes"
            ) from None


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
