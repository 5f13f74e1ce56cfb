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
from typing import TYPE_CHECKING, Callable

from ..machine.machine import TwoLevelMachine
from ..machine.regions import Region
from .ops import ComputeOp

if TYPE_CHECKING:
    from .columns import ScheduleColumns


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

    ``steps`` is a plain list.  A schedule the rewriter wrote
    (:func:`repro.graph.rewriter.rewrite_trace`) or read from disk
    (:func:`repro.trace.io.load_schedule`) carries its container
    ``columns`` (:class:`~repro.sched.columns.ScheduleColumns`) instead: it
    builds that list once, on first access, and answers ``len()``,
    ``counts()`` and ``io_volume()`` from the columns, the last two on
    first call (:meth:`deferred`).
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
        self._columns: ScheduleColumns | None = None
        # One-pass step statistics, keyed by len(steps).  Recording only
        # ever appends, so a length match means the cache is current; any
        # append (or truncation) invalidates it automatically.  In-place
        # *replacement* of a step without a length change is not supported
        # — steps are frozen dataclasses and nothing in the library rewrites
        # them in place.
        self._stats_cache: tuple[int, dict[str, int], tuple[int, int]] | None = None

    @classmethod
    def deferred(
        cls, columns: "ScheduleColumns", build: Callable[[], list[Step]]
    ) -> "Schedule":
        """A schedule that carries ``columns`` and whose steps ``build()``
        makes from them on first access.

        ``len()``, :meth:`counts` and :meth:`io_volume` come from the
        columns, the last two computed on first call, so a disk hit that
        nobody asks for statistics pays nothing for them.  Concurrent
        first accesses build once and all get the same list.
        """
        schedule = cls(shapes=columns.shapes)
        schedule._steps = None
        schedule._build = build
        schedule._lock = threading.Lock()
        schedule._columns = columns
        return schedule

    @property
    def columns(self) -> "ScheduleColumns | None":
        """The container columns this schedule carries, or ``None`` for a
        recorded or hand-built one.  Like the statistics cache, they stay
        current while the built steps keep their length."""
        columns = self._columns
        if columns is not None and self._steps is not None and len(self._steps) != len(columns):
            return None
        return columns

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
        return len(self._columns) if steps is None else len(steps)

    def __iter__(self):
        return iter(self.steps)

    def _stats(self) -> tuple[dict[str, int], tuple[int, int]]:
        cache = self._stats_cache
        n = len(self)
        if cache is not None and cache[0] == n:
            return cache[1], cache[2]
        columns = self.columns
        if columns is not None:
            counts, volume = columns.counts(), columns.io_volume()
        else:
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
            volume = (loads, stores)
        self._stats_cache = (n, counts, volume)
        return counts, volume

    def counts(self) -> dict[str, int]:
        """Step-type histogram (loads / evicts / computes); cached."""
        return dict(self._stats()[0])

    def io_volume(self) -> tuple[int, int]:
        """(loads, stores) in elements, computed from the trace alone; cached."""
        return self._stats()[1]


class _Recorder:
    def __init__(self, schedule: Schedule):
        self.append = schedule.steps.append

    def on_load(self, region: Region) -> None:
        self.append(LoadStep(region))

    def on_evict(self, region: Region, writeback: bool) -> None:
        self.append(EvictStep(region, writeback))

    def on_compute(self, op: ComputeOp) -> None:
        self.append(ComputeStep(op))


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
