"""Op-stream recording and replay.

A :class:`Schedule` is the flat, machine-independent trace of a run: a list
of :class:`LoadStep` / :class:`EvictStep` / :class:`ComputeStep`.  Recording
hooks into :class:`~repro.machine.machine.TwoLevelMachine` via its
``_recorders`` list, so any algorithm can be traced without modification;
replaying feeds the same steps to a fresh machine.  The round-trip property
(recorded stats == replayed stats, and identical numeric results) is part of
the integration test suite.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ..machine.machine import TwoLevelMachine
from ..machine.regions import Region
from .ops import ComputeOp


@dataclass(frozen=True)
class LoadStep:
    region: Region


@dataclass(frozen=True)
class EvictStep:
    region: Region
    writeback: bool


@dataclass(frozen=True)
class ComputeStep:
    op: ComputeOp


Step = LoadStep | EvictStep | ComputeStep


class Schedule:
    """A recorded op stream plus the matrix shapes it addresses.

    ``steps`` is a plain list.  A schedule read from disk
    (:func:`repro.trace.io.load_schedule`) builds that list once, on first
    access, and until then answers ``len()``, ``counts()`` and
    ``io_volume()`` from counts its loader seeded (:meth:`deferred`).
    """

    def __init__(
        self,
        steps: list[Step] | None = None,
        shapes: dict[str, tuple[int, int]] | None = None,
    ):
        self._steps: list[Step] | None = [] if steps is None else steps
        self.shapes: dict[str, tuple[int, int]] = {} if shapes is None else shapes
        self._build: Callable[[], list[Step]] | None = None
        self._lock: threading.Lock | None = None
        # One-pass step statistics, keyed by len(steps).  Recording only
        # ever appends, so a length match means the cache is current; any
        # append (or truncation) invalidates it automatically.  In-place
        # *replacement* of a step without a length change is not supported
        # — steps are frozen dataclasses and nothing in the library rewrites
        # them in place.
        self._stats_cache: tuple[int, dict[str, int], tuple[int, int]] | None = None

    @classmethod
    def deferred(
        cls,
        shapes: dict[str, tuple[int, int]],
        build: Callable[[], list[Step]],
        counts: dict[str, int],
        io_volume: tuple[int, int],
    ) -> "Schedule":
        """A schedule whose steps ``build()`` makes on first access.

        ``counts`` and ``io_volume`` are what :meth:`counts` and
        :meth:`io_volume` would compute from the built steps; ``len()``
        is their step total.  Concurrent first accesses build once and
        all get the same list.
        """
        schedule = cls(shapes=shapes)
        schedule._steps = None
        schedule._build = build
        schedule._lock = threading.Lock()
        schedule._stats_cache = (sum(counts.values()), dict(counts), io_volume)
        return schedule

    @property
    def steps(self) -> list[Step]:
        steps = self._steps
        if steps is None:
            with self._lock:
                if self._steps is None:
                    self._steps = self._build()
                    self._build = None
                steps = self._steps
        return steps

    def __getstate__(self) -> dict:
        # The build closure and the lock do not pickle; the built steps do.
        return {"steps": self.steps, "shapes": self.shapes}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["steps"], state["shapes"])

    def __repr__(self) -> str:
        return f"Schedule({len(self)} steps, shapes={self.shapes!r})"

    def __len__(self) -> int:
        steps = self._steps
        return self._stats_cache[0] if steps is None else len(steps)

    def __iter__(self):
        return iter(self.steps)

    def _stats(self) -> tuple[dict[str, int], tuple[int, int]]:
        cache = self._stats_cache
        if cache is not None and cache[0] == len(self):
            return cache[1], cache[2]
        counts = {"load": 0, "evict": 0, "compute": 0}
        loads = stores = 0
        for s in self.steps:
            if isinstance(s, LoadStep):
                counts["load"] += 1
                loads += s.region.size
            elif isinstance(s, EvictStep):
                counts["evict"] += 1
                if s.writeback:
                    stores += s.region.size
            else:
                counts["compute"] += 1
        self._stats_cache = (len(self.steps), counts, (loads, stores))
        return counts, (loads, stores)

    def counts(self) -> dict[str, int]:
        """Step-type histogram (loads / evicts / computes); cached."""
        return dict(self._stats()[0])

    def io_volume(self) -> tuple[int, int]:
        """(loads, stores) in elements, computed from the trace alone; cached."""
        return self._stats()[1]


class _Recorder:
    def __init__(self, schedule: Schedule):
        self.schedule = schedule

    def on_load(self, region: Region) -> None:
        self.schedule.steps.append(LoadStep(region))

    def on_evict(self, region: Region, writeback: bool) -> None:
        self.schedule.steps.append(EvictStep(region, writeback))

    def on_compute(self, op: ComputeOp) -> None:
        self.schedule.steps.append(ComputeStep(op))


def record_schedule(machine: TwoLevelMachine, body: Callable[[], None]) -> Schedule:
    """Run ``body()`` (which drives ``machine``) while recording every step."""
    schedule = Schedule(shapes={n: machine.shape(n) for n in machine.slow.names()})
    rec = _Recorder(schedule)
    machine._recorders.append(rec)
    try:
        body()
    finally:
        machine._recorders.remove(rec)
    return schedule


def access_sequence(ops: "list[ComputeOp] | Schedule") -> list[tuple[tuple[str, int], bool]]:
    """Element-granular ``((matrix, flat), is_write)`` touches of an op stream.

    The canonical traversal all cache replayers walk, so their load counts
    are directly comparable.  Each op touches its read regions element by
    element (flagged as writes where the element is also written), then any
    written elements not covered by a read region.  In this library written
    regions are subsets of reads, so the second group is empty — kept for
    generality.

    This is now a thin compatibility shim over the compiled trace IR
    (:func:`repro.trace.compiled.compile_trace`): new consumers should
    compile once and keep the arrays instead of materializing tuples.  The
    original tuple-per-touch loop survives as
    :func:`access_sequence_reference`, and the test suite asserts the two
    are bit-identical.
    """
    from ..trace.compiled import compile_trace  # local import: avoid cycle

    return compile_trace(ops).to_access_sequence()


def access_sequence_reference(
    ops: "list[ComputeOp] | Schedule",
) -> list[tuple[tuple[str, int], bool]]:
    """The original pure-Python traversal (cross-check path for the IR)."""
    if isinstance(ops, Schedule):
        ops = [s.op for s in ops.steps if isinstance(s, ComputeStep)]
    seq: list[tuple[tuple[str, int], bool]] = []
    for op in ops:
        write_keys = {
            (region.matrix, int(i)) for region in op.writes() for i in region.flat
        }
        read_keys: set[tuple[str, int]] = set()
        for region in op.reads():
            for i in region.flat:
                key = (region.matrix, int(i))
                read_keys.add(key)
                seq.append((key, key in write_keys))
        for region in op.writes():
            for i in region.flat:
                key = (region.matrix, int(i))
                if key not in read_keys:
                    seq.append((key, True))
    return seq


def replay_schedule(schedule: Schedule, machine: TwoLevelMachine) -> None:
    """Feed a recorded schedule to another machine (shapes must match).

    The compute ops embed flat indices computed against the original
    machine's matrix shapes, so the replay machine must register matrices
    with identical shapes (values may differ).
    """
    for name, shape in schedule.shapes.items():
        if name in machine.slow and machine.shape(name) != shape:
            raise ValueError(
                f"shape mismatch for {name!r}: schedule has {shape}, machine has {machine.shape(name)}"
            )
    for step in schedule.steps:
        if isinstance(step, LoadStep):
            machine.load(step.region)
        elif isinstance(step, EvictStep):
            machine.evict(step.region, writeback=step.writeback)
        else:
            machine.compute(step.op)
