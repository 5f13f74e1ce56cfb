"""Integer index-interval helpers used to tile matrices.

All algorithms in the library address submatrices with *global* integer index
arrays so they can operate in place on sub-blocks of a larger backing matrix
(LBC hands TBS the trailing submatrix, TBS recurses into diagonal zones).
These helpers cut ``[lo, hi)`` ranges into blocks and manipulate index
arrays.  They are deliberately tiny and heavily unit-tested: every schedule's
region arithmetic rests on them.
"""

from __future__ import annotations

import operator

import numpy as np

from ..errors import ConfigurationError


def block_starts(lo: int, hi: int, size: int) -> list[int]:
    """Start offsets of consecutive ``size``-wide blocks covering ``[lo, hi)``.

    The final block may be short.

    >>> block_starts(0, 10, 4)
    [0, 4, 8]
    >>> block_starts(3, 3, 4)
    []
    """
    if size <= 0:
        raise ValueError(f"block size must be positive, got {size}")
    if hi < lo:
        raise ValueError(f"empty-range bounds reversed: [{lo}, {hi})")
    return list(range(lo, hi, size))


def block_ranges(lo: int, hi: int, size: int) -> list[tuple[int, int]]:
    """Half-open ``(start, stop)`` pairs of blocks covering ``[lo, hi)``.

    >>> block_ranges(0, 10, 4)
    [(0, 4), (4, 8), (8, 10)]
    """
    return [(s, min(s + size, hi)) for s in block_starts(lo, hi, size)]


def split_indices(indices: np.ndarray, size: int) -> list[np.ndarray]:
    """Split an index array into consecutive chunks of at most ``size``.

    >>> [list(c) for c in split_indices(np.arange(5), 2)]
    [[0, 1], [2, 3], [4]]
    """
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    indices = np.asarray(indices, dtype=np.int64)
    return [indices[s : s + size] for s in range(0, len(indices), size)]


def contiguous_runs(indices: np.ndarray) -> list[tuple[int, int]]:
    """Decompose a sorted index array into maximal half-open runs.

    Useful for compact printing of regions and for fast slicing when a
    region happens to be contiguous.

    >>> contiguous_runs(np.array([0, 1, 2, 5, 6, 9]))
    [(0, 3), (5, 7), (9, 10)]
    >>> contiguous_runs(np.array([], dtype=np.int64))
    []
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return []
    if np.any(np.diff(indices) <= 0):
        raise ValueError("indices must be strictly increasing")
    breaks = np.nonzero(np.diff(indices) != 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks, [indices.size - 1]))
    return [(int(indices[a]), int(indices[b]) + 1) for a, b in zip(starts, stops)]


def span_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices ``start, ..., start + length - 1`` of every span, back
    to back: gathering with them concatenates the spans, scattering to them
    fills the spans.

    >>> span_indices(np.array([5, 0]), np.array([2, 3])).tolist()
    [5, 6, 0, 1, 2]
    """
    offsets = np.cumsum(lengths) - lengths
    return np.arange(int(np.sum(lengths))) + np.repeat(starts - offsets, lengths)


def as_index_array(x) -> np.ndarray:
    """Coerce ``x`` (range, list, slice-free array) to an int64 index array."""
    if isinstance(x, range):
        return np.arange(x.start, x.stop, x.step, dtype=np.int64)
    arr = np.asarray(x, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"index arrays must be 1-D, got shape {arr.shape}")
    return arr


def as_distinct_index_array(x) -> np.ndarray:
    """:func:`as_index_array`, rejecting an index set that repeats an index.

    Kernels take their row sets through this, so a repeated row fails at
    the call with :class:`~repro.errors.ConfigurationError` (a
    ``ValueError``) rather than deep inside the schedule.  The order of
    ``x`` is kept.
    """
    arr = as_index_array(x)
    if not is_strictly_increasing(arr) and np.unique(arr).size != arr.size:
        raise ConfigurationError("rows must be duplicate-free")
    return arr


#: Below this length a Python comparison beats numpy's per-call overhead.
_SHORT = 48


def is_strictly_increasing(arr: np.ndarray) -> bool:
    """True iff the 1-D array is strictly increasing (thus duplicate-free).

    Schedules check row sets of a handful of indices, for which one numpy
    call costs more than comparing the values in plain Python.
    """
    arr = np.asarray(arr)
    if arr.size > _SHORT:
        return bool((arr[1:] > arr[:-1]).all())
    values = arr.tolist()
    return all(map(operator.lt, values, values[1:]))
