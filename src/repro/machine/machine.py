"""The :class:`TwoLevelMachine` facade: what every schedule programs against.

A machine bundles slow memory, fast memory and an :class:`IOStats` tracker
behind the three verbs of the model — ``load``, ``evict``, ``compute`` —
plus shape-aware region constructors and a ``hold`` context manager for the
ubiquitous *load, work, evict* pattern of the one-tile algorithms.

Compute ops (:mod:`repro.sched.ops`) declare the regions they read and
write; :meth:`TwoLevelMachine.compute` asserts all of them are resident
before applying the op's numeric update to the *workspace* array — the
NaN-poisoned shadow in strict mode, the slow array otherwise — and credits
the op's flops to the tracker.

One performance switch exists for large counting-only sweeps (the paper's
volumes grow like ``N^3/sqrt(S)``, so benches run many machine ops):
``numerics=False`` skips the numeric ``apply`` (I/O counts, capacity and
residency checking are unaffected).

A *counting machine* — ``TwoLevelMachine(S, strict=False, numerics=False)``
— keeps residency and capacity checks but allocates no shadow and does no
arithmetic.  It is what :func:`~repro.graph.compare.record_case` records
on, so a served miss runs no numerics at all.  Every region the machine
hands out comes from the process-wide region table of
:mod:`repro.machine.regions`: a kernel's load and the op that reads it
share one read-only region, checked and built once per distinct input.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..config import MachineConfig
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

    def __init__(
        self,
        capacity: int | MachineConfig,
        *,
        strict: bool | None = None,
        allow_redundant_loads: bool | None = None,
        record_events: bool | None = None,
        numerics: bool = True,
    ) -> None:
        if isinstance(capacity, MachineConfig):
            cfg = capacity
        else:
            cfg = MachineConfig(capacity=int(capacity))
        if strict is not None:
            cfg = MachineConfig(cfg.capacity, strict, cfg.allow_redundant_loads, cfg.record_events)
        if allow_redundant_loads is not None:
            cfg = MachineConfig(cfg.capacity, cfg.strict, allow_redundant_loads, cfg.record_events)
        if record_events is not None:
            cfg = MachineConfig(cfg.capacity, cfg.strict, cfg.allow_redundant_loads, record_events)
        self.config = cfg
        self.capacity = cfg.capacity
        self.numerics = bool(numerics)
        self.slow = SlowMemory()
        self.fast = FastMemory(cfg.capacity, strict=cfg.strict, allow_redundant_loads=cfg.allow_redundant_loads)
        self.stats = IOStats(events=[] if cfg.record_events else None)
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
        """The array compute ops operate on (shadow in strict mode)."""
        if self.config.strict:
            return self.fast.shadow(name)
        return self.slow.array(name)

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
        # In non-strict mode computation happens in place in slow memory, so
        # a writeback still represents traffic the model must count.
        if not self.config.strict and writeback:
            written = region.size
        self.stats.record_evict(region.matrix, written, self.fast.occupancy)
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
        self.stats.record_compute(op.name, op.mults, op.flops, self.fast.occupancy)
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
