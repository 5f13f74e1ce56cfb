"""The :class:`TwoLevelMachine` facade: what every schedule programs against.

A machine bundles slow memory, fast memory and an :class:`IOStats` tracker
behind the three verbs of the model — ``load``, ``evict``, ``compute`` —
plus shape-aware region constructors and a ``hold`` context manager for the
ubiquitous *load, work, evict* pattern of the one-tile algorithms.

Compute ops (:mod:`repro.sched.ops`) declare the regions they read and
write; :meth:`TwoLevelMachine.compute` asserts all of them are resident
and credits the op's flops to the tracker.

The machine has two configurations, and both run the same checks
(capacity, residency, no redundant load) and count the same I/O:

* ``TwoLevelMachine(S)`` is *numeric*: it keeps a NaN-poisoned shadow of
  fast memory, applies each compute op to the shadow, and copies
  writebacks to slow memory, so a forgotten load or writeback shows up in
  the results;
* ``TwoLevelMachine(S, numerics=False)`` is *counting*: it keeps only the
  residency masks, allocates no shadow and does no arithmetic.  It is
  what :func:`~repro.graph.compare.record_case` records on, so a served
  miss runs no numerics at all.

Every region the machine hands out comes from the process-wide region
table of :mod:`repro.machine.regions`: a kernel's load and the op that
reads it share one read-only region, checked and built once per distinct
input.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..errors import ConfigurationError
from .fast_memory import FastMemory
from .regions import Region, ShapeAwareRegions
from .slow_memory import SlowMemory
from .tracker import IOStats

if TYPE_CHECKING:  # pragma: no cover
    from ..sched.ops import ComputeOp


class TwoLevelMachine(ShapeAwareRegions):
    """Simulated two-level memory machine (fast memory of ``S`` elements).

    The shape-aware region constructors (``tile``, ``triangle_block``,
    ``lower_tile``, ``column_segment``, ``row_segment``) come from
    :class:`~repro.machine.regions.ShapeAwareRegions`.
    """

    def __init__(self, capacity: int, *, numerics: bool = True) -> None:
        capacity = int(capacity)
        if capacity <= 0:
            raise ConfigurationError(f"capacity S must be positive, got {capacity}")
        self.capacity = capacity
        self.numerics = bool(numerics)
        self.slow = SlowMemory()
        self.fast = FastMemory(capacity, numerics=self.numerics)
        self.stats = IOStats()
        self._recorders: list = []  # sched.record attaches here

    # ------------------------------------------------------------------ #
    # matrix management
    # ------------------------------------------------------------------ #
    def add_matrix(self, name: str, array: np.ndarray) -> None:
        """Register a matrix in slow memory (copied) and attach residency state."""
        self.slow.add(name, array)
        self.fast.attach(name, self.slow.shape(name))

    def shape(self, name: str) -> tuple[int, int]:
        return self.slow.shape(name)

    def ncols(self, name: str) -> int:
        return self.slow.ncols(name)

    def result(self, name: str) -> np.ndarray:
        """The slow-memory array (where results live after writebacks)."""
        return self.slow.array(name)

    def workspace(self, name: str) -> np.ndarray:
        """The array compute ops operate on: a numeric machine's shadow."""
        return self.fast.shadow(name)

    # ------------------------------------------------------------------ #
    # the three verbs
    # ------------------------------------------------------------------ #
    def load(self, region: Region) -> None:
        """Move ``region`` into fast memory (counted; capacity-checked)."""
        moved = self.fast.load(region, self.slow)
        self.stats.record_load(region.matrix, moved, self.fast.occupancy)
        for rec in self._recorders:
            rec.on_load(region)

    def evict(self, region: Region, writeback: bool = False) -> None:
        """Drop ``region`` from fast memory, writing back iff requested."""
        written = self.fast.evict(region, self.slow, writeback)
        self.stats.record_evict(region.matrix, written)
        for rec in self._recorders:
            rec.on_evict(region, writeback)

    def compute(self, op: "ComputeOp") -> None:
        """Apply a compute op after checking all its operands are resident."""
        for region in op.reads():
            self.fast.assert_resident(region)
        for region in op.writes():
            self.fast.assert_resident(region)
        if self.numerics:
            op.apply(self)
        self.stats.record_compute(op.mults, op.flops)
        for rec in self._recorders:
            rec.on_compute(op)

    # ------------------------------------------------------------------ #
    # conveniences
    # ------------------------------------------------------------------ #
    @contextmanager
    def hold(self, region: Region, *, writeback: bool = False) -> Iterator[Region]:
        """Load a region, yield it, evict on exit (the one-tile pattern)."""
        self.load(region)
        try:
            yield region
        finally:
            self.evict(region, writeback=writeback)

    def occupancy(self) -> int:
        return self.fast.occupancy

    def assert_empty(self) -> None:
        """Raise if fast memory is not empty (schedules must clean up)."""
        if self.fast.occupancy != 0:
            raise ConfigurationError(
                f"fast memory not empty at end of schedule: {self.fast.occupancy} resident"
            )
