"""Fast memory: residency tracking, capacity enforcement, NaN-poisoned shadow.

The fast memory never stores "the data" as a separate buffer pool; instead it
tracks, per matrix, a boolean residency mask over the flat element space,
plus (on a numeric machine) a full-shape *shadow* array that holds the
fast-memory copy of resident elements and ``NaN`` everywhere else.

The NaN poison is the library's strongest correctness weapon: a compute op
that reads an element the schedule forgot to load pulls NaN into the result,
and since every schedule's final output is compared against a NumPy
reference, the omission cannot go unnoticed.  Likewise an omitted writeback
leaves the slow array stale and fails verification.

Capacity is enforced on every load: occupancy is the total number of
resident elements across all matrices, and a load pushing it beyond ``S``
raises :class:`~repro.errors.CapacityError` *before* mutating any state.
A load of an element that is already resident raises
:class:`~repro.errors.RedundantLoadError`.
"""

from __future__ import annotations

import numpy as np

from ..errors import CapacityError, RedundantLoadError, ResidencyError
from .regions import Region
from .slow_memory import SlowMemory


class FastMemory:
    """Residency masks, plus the shadow arrays of a numeric machine."""

    def __init__(self, capacity: int, numerics: bool = True):
        self.capacity = int(capacity)
        self.numerics = bool(numerics)
        self.occupancy = 0
        self._masks: dict[str, np.ndarray] = {}
        self._shadows: dict[str, np.ndarray] = {}

    def attach(self, name: str, shape: tuple[int, int]) -> None:
        """Create residency state for a newly registered matrix."""
        n = int(shape[0]) * int(shape[1])
        self._masks[name] = np.zeros(n, dtype=bool)
        if self.numerics:
            self._shadows[name] = np.full(shape, np.nan, dtype=np.float64)

    def shadow(self, name: str) -> np.ndarray:
        """The shadow array (full shape, NaN-poisoned) of a numeric machine."""
        return self._shadows[name]

    # ------------------------------------------------------------------ #
    # core operations
    # ------------------------------------------------------------------ #
    def load(self, region: Region, slow: SlowMemory) -> int:
        """Bring ``region`` into fast memory; returns the element count loaded.

        Raises :class:`RedundantLoadError` if any element is already
        resident and :class:`CapacityError` if occupancy would exceed
        capacity.
        """
        mask = self._masks[region.matrix]
        idx = region.flat
        n = idx.size
        if n == 0:
            return 0
        already = mask[idx]
        if already.any():
            raise RedundantLoadError(
                f"load of {region!r}: {int(already.sum())} element(s) already resident"
            )
        if self.occupancy + n > self.capacity:
            raise CapacityError(n, self.occupancy, self.capacity)
        mask[idx] = True
        self.occupancy += n
        if self.numerics:
            shadow = self._shadows[region.matrix].ravel()
            shadow[idx] = slow.array(region.matrix).ravel()[idx]
        return int(n)

    def evict(self, region: Region, slow: SlowMemory, writeback: bool) -> int:
        """Drop ``region`` from fast memory; returns elements written back.

        Raises :class:`ResidencyError` if any element is not resident.
        With ``writeback=True`` a numeric machine copies the shadow values
        to slow memory before the poison is restored.
        """
        mask = self._masks[region.matrix]
        idx = region.flat
        if idx.size == 0:
            return 0
        resident = mask[idx]
        if not resident.all():
            raise ResidencyError(
                f"evict of {region!r}: {int((~resident).sum())} element(s) not resident"
            )
        if self.numerics:
            shadow = self._shadows[region.matrix].ravel()
            if writeback:
                slow.array(region.matrix).ravel()[idx] = shadow[idx]
            shadow[idx] = np.nan
        mask[idx] = False
        self.occupancy -= int(idx.size)
        return int(idx.size) if writeback else 0

    def assert_resident(self, region: Region) -> None:
        """Raise :class:`ResidencyError` unless every element of ``region`` is resident."""
        mask = self._masks[region.matrix]
        resident = mask[region.flat]
        if not resident.all():
            missing = int((~resident).sum())
            raise ResidencyError(
                f"compute touches {missing} non-resident element(s) of {region.matrix!r}"
            )
