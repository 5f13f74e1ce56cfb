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

**Held regions.**  The masks are the one residency truth, and every load
checks them.  Beside them each matrix keeps a ledger of *held* regions:
region objects that were loaded whole, have a read-only flat, and have
lost no element since.  A residency check or an evict that names a held
region (by identity) needs no element gather, since the ledger already
proves every element resident.  This is exact:

* a held region's elements are all resident from its load onward;
* two held regions of one matrix never overlap, since the second load
  would fail its redundant-load check;
* so evicting a held region removes only its own elements, and any other
  evict that passes its check empties the matrix's ledger, because it may
  take part of a held region with it.

Only a region whose flat is read-only is held, since the ledger trusts
such a flat not to change: the region table's regions and the loader's
views are read-only, and a hand-built :class:`Region` with a writable
flat always takes the element checks.  The ledger holds its regions, so
an ``id`` cannot be reused while it is in the ledger.  Every check,
error and count is the one the masks alone give.
"""

from __future__ import annotations

import numpy as np

from ..errors import CapacityError, RedundantLoadError, ResidencyError
from .regions import Region
from .slow_memory import SlowMemory


class FastMemory:
    """Residency masks and held-region ledgers, plus the shadow arrays of a
    numeric machine."""

    def __init__(self, capacity: int, numerics: bool = True):
        self.capacity = int(capacity)
        self.numerics = bool(numerics)
        self.occupancy = 0
        self._masks: dict[str, np.ndarray] = {}
        self._shadows: dict[str, np.ndarray] = {}
        # matrix -> {id(region): region} of the held regions.
        self._held: dict[str, dict[int, Region]] = {}

    def attach(self, name: str, shape: tuple[int, int]) -> None:
        """Create residency state for a newly registered matrix."""
        n = int(shape[0]) * int(shape[1])
        self._masks[name] = np.zeros(n, dtype=bool)
        self._held[name] = {}
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
        capacity.  A loaded region with a read-only flat is held.
        """
        mask = self._masks[region.matrix]
        idx = region.flat
        n = idx.size
        if n == 0:
            return 0
        already = np.count_nonzero(mask[idx])
        if already:
            raise RedundantLoadError(
                f"load of {region!r}: {already} element(s) already resident"
            )
        if self.occupancy + n > self.capacity:
            raise CapacityError(n, self.occupancy, self.capacity)
        mask[idx] = True
        self.occupancy += n
        if self.numerics:
            shadow = self._shadows[region.matrix].ravel()
            shadow[idx] = slow.array(region.matrix).ravel()[idx]
        if not idx.flags.writeable:
            self._held[region.matrix][id(region)] = region
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
        held = self._held[region.matrix]
        if held.pop(id(region), None) is None:
            missing = idx.size - np.count_nonzero(mask[idx])
            if missing:
                raise ResidencyError(
                    f"evict of {region!r}: {missing} element(s) not resident"
                )
            held.clear()
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
        if id(region) in self._held[region.matrix]:
            return
        idx = region.flat
        missing = idx.size - np.count_nonzero(self._masks[region.matrix][idx])
        if missing:
            raise ResidencyError(
                f"compute touches {missing} non-resident element(s) of {region.matrix!r}"
            )
