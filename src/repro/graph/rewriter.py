"""Regenerate explicit load/evict streams for a (re)ordered op sequence.

The dependency layer deals in *compute* orders only; to run one on a
:class:`~repro.machine.machine.TwoLevelMachine` (or validate it against the
model's rules) it must be dressed back up as a full
:class:`~repro.sched.schedule.Schedule` with explicit
:class:`~repro.sched.schedule.LoadStep` / :class:`~repro.sched.schedule.EvictStep`
traffic.  :func:`rewrite_trace` does this for a fixed order:

* **load on demand** — before each compute, load exactly the op's
  non-resident elements (grouped into one region per matrix);
* **evict by furthest next use** — under capacity pressure, evict the
  resident elements whose next use (at op granularity) is furthest away,
  dead elements first: Belady's MIN rule applied between ops.  Every
  element of an op stays resident while it runs, whereas element-level
  MIN (:func:`~repro.trace.replay.belady_replay_trace`) may evict an op's
  own operand between two of its accesses, so that replay's load count
  is a floor on the stream's, not equal to it;
* **lazy writeback** — an evicted element is written back iff some executed
  op wrote it since it was (re)loaded; everything still resident at the end
  is flushed, so the stream satisfies the validator's empty-end rule.

The rewrite core runs on the compiled trace IR
(:class:`~repro.trace.compiled.CompiledTrace`) held as Python lists:
per-op touched/write sets are slices of the trace's element-ID and
write-flag lists, residency is one set and dirtiness one list indexed by
element ID, and each element's next use is the first op after its
latest touch, read from one list computed by a single argsort of the
access stream.  The walk only decides which elements each op evicts and
loads; it appends them to one list.  A few numpy passes then group each
eviction and each load into its steps and write the schedule
container's columns (:mod:`repro.sched.columns`): a kind, a
matrix id, a writeback flag, a length and the sorted flats per load or
evict, and an op-type id, a params row and the index arrays per compute.
No step object is built.  The returned schedule answers ``len()``,
``counts()`` and ``io_volume()`` from the columns, the certifier and the
saver read them as they are, and its ``steps`` are built only when a
caller reads them, with load and evict regions as read-only views and
the trace's own op objects in the compute steps.  Reordering reuses the
interning (:meth:`CompiledTrace.reorder`), so sweeps over many orders of
one recorded trace stay cheap.

:func:`reschedule` is the end-to-end pipeline: dependency graph → list
scheduler → rewrite → :func:`~repro.sched.validate.validate_schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from ..errors import ScheduleError
from ..sched.columns import (
    COLUMNS,
    COMPUTE,
    EVICT,
    LOAD,
    MatrixIds,
    ScheduleColumns,
    build_steps,
)
from ..sched.schedule import Schedule
from ..sched.validate import validate_schedule
from ..trace.compiled import CompiledTrace, compile_trace
from .dependency import DependencyGraph, dependency_graph
from .policies import NEVER
from .scheduler import ListScheduleResult, list_schedule


@dataclass
class RewriteResult:
    """A rewritten schedule plus the order and I/O volume that produced it."""

    schedule: Schedule
    order: list[int]
    heuristic: str
    loads: int
    stores: int
    summary: dict[str, int]

    @property
    def io_volume(self) -> int:
        return self.loads + self.stores


def _next_ops(trace: CompiledTrace) -> list[int]:
    """Per access, the first later op touching the same element (``NEVER``
    if none), as a Python list.

    One stable argsort groups each element's accesses in op order; an
    access's answer is the op of the next (element, op) run, when that run
    is the same element's.
    """
    acc_ops = np.repeat(np.arange(trace.n_ops, dtype=np.int64), np.diff(trace.op_starts))
    order = np.argsort(trace.elem_ids, kind="stable")
    elems, ops = trace.elem_ids[order], acc_ops[order]
    head = np.ones(order.size, dtype=bool)
    head[1:] = (elems[1:] != elems[:-1]) | (ops[1:] != ops[:-1])
    heads = np.flatnonzero(head)
    later = np.full(heads.size, NEVER, dtype=np.int64)
    same = elems[heads[1:]] == elems[heads[:-1]]
    later[:-1][same] = ops[heads[1:]][same]
    after = np.empty(order.size, dtype=np.int64)
    after[order] = later[np.cumsum(head) - 1]
    return after.tolist()


def _columns(
    trace: CompiledTrace, moved: list[int], writeback: list[bool], sizes: list[int]
) -> ScheduleColumns:
    """The columns of a rewrite, from its emitted elements.

    ``moved`` holds the elements each event emits, back to back, with
    ``writeback`` beside it; ``sizes`` holds the events' lengths: op
    ``p``'s evictions, then its loads, and the final flush last.  An
    event goes out as one step per (matrix, writeback) group, in (trace
    matrix index, writeback) order, each with its flats sorted; op ``p``'s
    compute step follows its two events.
    """
    n_ops = len(trace.ops)
    elems = np.array(moved, dtype=np.int64)
    event = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    mi = trace.key_matrix[elems].astype(np.int64)
    flats = trace.key_flat[elems]
    # (event, matrix, writeback) is a group; flats are distinct in one.
    group = (event * len(trace.matrices) + mi) * 2 + np.array(writeback, dtype=np.int64)
    order = np.argsort(group * (int(flats.max(initial=0)) + 1) + flats)
    group, flats = group[order], flats[order]
    heads = np.flatnonzero(np.diff(group, prepend=-1))
    lengths = np.diff(heads, append=group.size)
    group_event, group_wb = group[heads] // (2 * len(trace.matrices)), group[heads] % 2
    group_mi = group[heads] // 2 % len(trace.matrices)

    matrix_ids = MatrixIds(trace.shapes)
    mats = np.array([matrix_ids[name] for name in trace.matrices], dtype=np.int64)
    kind = np.full(heads.size + n_ops, COMPUTE, dtype=COLUMNS["kind"])
    # Op p's compute step follows events 2p and 2p + 1, so a group of
    # event e has e // 2 compute steps before it.
    kind[np.arange(heads.size) + group_event // 2] = np.where(group_event % 2, LOAD, EVICT)
    moves = (mats[group_mi], group_wb.astype(bool), lengths, flats)
    return ScheduleColumns.assemble(dict(trace.shapes), matrix_ids, kind, moves, list(trace.ops))


def rewrite_trace(trace: CompiledTrace, capacity: int) -> Schedule:
    """Dress a compiled trace up as an explicit schedule (module docstring).

    The trace must carry its op objects (compiled in-process).
    """
    if trace.ops is None:
        raise ScheduleError("cannot rewrite a trace without op objects")
    ops = trace.ops
    ids, flags = trace.elem_ids.tolist(), trace.is_write.tolist()
    starts = trace.op_starts.tolist()
    after = _next_ops(trace)

    resident: set[int] = set()
    dirty = [False] * trace.n_elements
    #: each touched element's next use: the first op after its latest touch
    next_use: dict[int, int] = {}
    moved: list[int] = []  # every evicted or loaded element, in step order
    writeback: list[bool] = []  # whether each is written back
    sizes: list[int] = []  # per op, how many it evicts, then how many it loads

    for p, op in enumerate(ops):
        s, e = starts[p], starts[p + 1]
        sl = ids[s:e]
        touched = set(sl)
        if len(touched) > capacity:
            raise ScheduleError(
                f"op {p} ({op.name!r}) touches {len(touched)} elements; "
                f"cannot fit capacity {capacity}"
            )
        missing = touched - resident
        overflow = len(resident) + len(missing) - capacity
        victims = []
        if overflow > 0:
            # Furthest next use first, ties by lowest element ID.  No op
            # since a candidate's latest touch has touched it, so its next
            # use after that touch is its next use after op p.
            candidates = sorted(resident.difference(touched))
            candidates.sort(key=next_use.__getitem__, reverse=True)
            victims = candidates[:overflow]
            for elem in victims:
                writeback.append(dirty[elem])
                dirty[elem] = False
            resident.difference_update(victims)
        moved += victims
        moved += missing
        writeback += [False] * len(missing)
        sizes += (len(victims), len(missing))
        resident.update(missing)
        for elem in compress(sl, flags[s:e]):
            dirty[elem] = True
        next_use.update(zip(sl, after[s:e]))

    moved += resident
    writeback += [dirty[elem] for elem in resident]
    sizes.append(len(resident))
    columns = _columns(trace, moved, writeback, sizes)
    return Schedule.deferred(columns, lambda: build_steps(columns))


def rewrite_schedule(
    schedule: Schedule | CompiledTrace,
    capacity: int,
    order: list[int] | None = None,
    *,
    graph: DependencyGraph | None = None,
    relax_reductions: bool = False,
) -> RewriteResult:
    """Rewrite ``schedule``'s compute ops (optionally re-ordered) into an
    explicit stream, and validate it against the model's rules.

    Accepts a recorded schedule or an already-compiled trace; a graph built
    by :func:`~repro.graph.dependency.dependency_graph` carries its trace,
    so the end-to-end pipeline compiles exactly once.
    """
    trace = compile_trace(schedule)
    n_ops = trace.n_ops
    if order is None:
        order = list(range(n_ops))
    if sorted(order) != list(range(n_ops)):
        raise ScheduleError(
            f"order must be a permutation of 0..{n_ops - 1} ({len(order)} entries given)"
        )
    if graph is not None and not graph.is_valid_order(order, relax_reductions=relax_reductions):
        raise ScheduleError("order violates the dependency graph")
    reordered = trace if order == list(range(n_ops)) else trace.reorder(order)
    new = rewrite_trace(reordered, capacity)
    summary = validate_schedule(new, capacity)
    loads, stores = new.io_volume()
    return RewriteResult(
        schedule=new,
        order=list(order),
        heuristic="explicit",
        loads=loads,
        stores=stores,
        summary=summary,
    )


def reschedule(
    schedule: Schedule | CompiledTrace,
    capacity: int,
    heuristic: str = "locality",
    *,
    relax_reductions: bool = False,
    graph: DependencyGraph | None = None,
) -> RewriteResult:
    """End-to-end: extract the DAG, list-schedule it, rewrite, validate."""
    if graph is None:
        graph = dependency_graph(schedule)
    trace = graph.trace if graph.trace is not None else compile_trace(schedule)
    listed: ListScheduleResult = list_schedule(
        graph, heuristic, relax_reductions=relax_reductions
    )
    result = rewrite_schedule(
        trace, capacity, listed.order, graph=graph, relax_reductions=relax_reductions
    )
    result.heuristic = heuristic
    return result
