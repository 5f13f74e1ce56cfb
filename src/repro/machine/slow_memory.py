"""Slow memory: the unbounded backing store of named matrices.

In the two-level model the slow memory holds all data initially and receives
results via explicit writebacks.  Here it is a dictionary of named float64
NumPy arrays.  The arrays handed in are *copied* so that callers keep their
originals for verification (the whole point of the library is to compare the
machine's final state against a NumPy reference computed from the original).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..utils.checks import check_matrix


class SlowMemory:
    """Named float64 matrices, copied on entry, addressed by flat index."""

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def add(self, name: str, array: np.ndarray) -> None:
        """Register ``array`` (copied, as C-contiguous float64) under ``name``."""
        if name in self._arrays:
            raise ConfigurationError(f"matrix {name!r} already registered")
        arr = check_matrix(name, array)
        self._arrays[name] = np.ascontiguousarray(arr, dtype=np.float64).copy()

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def names(self) -> list[str]:
        """Registered matrix names, in insertion order."""
        return list(self._arrays)

    def array(self, name: str) -> np.ndarray:
        """The backing array (mutable; writebacks land here)."""
        try:
            return self._arrays[name]
        except KeyError:
            raise ConfigurationError(f"unknown matrix {name!r}") from None

    def shape(self, name: str) -> tuple[int, int]:
        return self.array(name).shape  # type: ignore[return-value]

    def ncols(self, name: str) -> int:
        """Column count, i.e. the row stride used for flat region indices."""
        return int(self.array(name).shape[1])
