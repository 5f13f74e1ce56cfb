"""Regenerate explicit load/evict streams for a (re)ordered op sequence.

The dependency layer deals in *compute* orders only; to run one on a
:class:`~repro.machine.machine.TwoLevelMachine` (or validate it against the
model's rules) it must be dressed back up as a full
:class:`~repro.sched.schedule.Schedule` with explicit
:class:`~repro.sched.schedule.LoadStep` / :class:`~repro.sched.schedule.EvictStep`
traffic.  :func:`rewrite_ops` does this for a fixed order:

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
(:class:`~repro.trace.compiled.CompiledTrace`): per-op touched/write sets
are slices of the trace's element-ID and write-flag lists, residency is
one set and dirtiness one list indexed by element ID, and the
op-granularity next-use oracle is a CSR walk over one argsort of the
access stream — no per-element tuples.
Reordering reuses the interning (:meth:`CompiledTrace.reorder`), so sweeps
over many orders of one recorded trace stay cheap.

:func:`reschedule` is the end-to-end pipeline: dependency graph → list
scheduler → rewrite → :func:`~repro.sched.validate.validate_schedule`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from ..errors import ScheduleError
from ..machine.regions import Region
from ..sched.ops import ComputeOp
from ..sched.schedule import ComputeStep, EvictStep, LoadStep, Schedule, Step
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


class _OpNextUse:
    """Op-granularity next-use oracle over a compiled trace (CSR + pointers).

    ``positions`` holds, for every element, the sorted op indices touching
    it (one argsort of the access stream, duplicates kept — the pointer
    walk skips them).  Pointers only ever advance, as in the original
    dict-of-lists implementation, because queries come with monotonically
    increasing op positions.
    """

    def __init__(self, trace: CompiledTrace):
        acc_ops = np.repeat(
            np.arange(trace.n_ops, dtype=np.int64), np.diff(trace.op_starts)
        )
        order = np.argsort(trace.elem_ids, kind="stable")
        self.ops_sorted = acc_ops[order]
        counts = np.bincount(trace.elem_ids, minlength=trace.n_elements)
        self.starts = np.zeros(trace.n_elements + 1, dtype=np.int64)
        np.cumsum(counts, out=self.starts[1:])
        self.ptr = self.starts[:-1].copy()

    def next_use(self, elem: int, p: int) -> int:
        """First op position > ``p`` touching ``elem``, else ``NEVER``."""
        i = int(self.ptr[elem])
        end = int(self.starts[elem + 1])
        ops_sorted = self.ops_sorted
        while i < end and ops_sorted[i] <= p:
            i += 1
        self.ptr[elem] = i
        return int(ops_sorted[i]) if i < end else NEVER


def _emit_regions(
    steps: list[Step],
    elems: list[int],
    decode: tuple[tuple[str, ...], list[int], list[int]],
    dirty: list[bool] | None,
) -> None:
    """Append one Load/Evict step per (matrix[, dirty]) group of ``elems``.

    Groups go out in (matrix index, writeback) order, each as one region
    of sorted flats; ``decode`` is the trace's ``(matrices, key_matrix,
    key_flat)`` with both tables as lists.
    """
    if not elems:
        return
    names, mats, flats = decode
    groups: dict[tuple[int, bool], list[int]] = {}
    for elem in elems:
        key = (mats[elem], dirty is not None and dirty[elem])
        groups.setdefault(key, []).append(flats[elem])
    for mi, wb in sorted(groups):
        region = Region(names[mi], np.array(sorted(groups[mi, wb]), dtype=np.int64))
        if dirty is None:
            steps.append(LoadStep(region))
        else:
            steps.append(EvictStep(region, writeback=wb))


def rewrite_trace(trace: CompiledTrace, capacity: int) -> Schedule:
    """Dress a compiled trace up as an explicit schedule (module docstring).

    The trace must carry its op objects (compiled in-process).
    """
    if trace.ops is None:
        raise ScheduleError("cannot rewrite a trace without op objects")
    ops = trace.ops
    ids, flags = trace.elem_ids.tolist(), trace.is_write.tolist()
    starts = trace.op_starts.tolist()
    decode = (trace.matrices, trace.key_matrix.tolist(), trace.key_flat.tolist())
    oracle = _OpNextUse(trace)

    resident: set[int] = set()
    dirty = [False] * trace.n_elements
    steps: list[Step] = []

    for p, op in enumerate(ops):
        s, e = starts[p], starts[p + 1]
        sl = ids[s:e]
        # Touched elements in first-occurrence (region) order, as the
        # original tuple walker produced them.
        touched = dict.fromkeys(sl)
        if len(touched) > capacity:
            raise ScheduleError(
                f"op {p} ({op.name!r}) touches {len(touched)} elements; "
                f"cannot fit capacity {capacity}"
            )
        missing = [elem for elem in touched if elem not in resident]
        overflow = len(resident) + len(missing) - capacity
        if overflow > 0:
            candidates = [elem for elem in resident if elem not in touched]
            candidates.sort(key=lambda elem: (-oracle.next_use(elem, p), elem))
            victims = candidates[:overflow]
            _emit_regions(steps, victims, decode, dirty)
            for elem in victims:
                dirty[elem] = False
            resident.difference_update(victims)
        if missing:
            _emit_regions(steps, missing, decode, None)
            resident.update(missing)
        steps.append(ComputeStep(op))
        for elem in compress(sl, flags[s:e]):
            dirty[elem] = True

    _emit_regions(steps, sorted(resident), decode, dirty)
    return Schedule(steps=steps, shapes=dict(trace.shapes))


def rewrite_ops(
    ops: list[ComputeOp],
    shapes: dict[str, tuple[int, int]],
    capacity: int,
) -> Schedule:
    """Compatibility wrapper: compile ``ops`` and :func:`rewrite_trace`."""
    trace = compile_trace(ops, shapes=dict(shapes))
    return rewrite_trace(trace, capacity)


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
