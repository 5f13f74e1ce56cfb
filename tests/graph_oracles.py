"""Reference implementations of the graph layer's three per-op passes.

Each oracle is the straightforward form of a production pass that now
runs incrementally or on plain lists; the tests pin each production pass
to its oracle, output for output:

* :func:`rescan_locality_order` — the locality list scheduler as a full
  rescan: every emission scores every ready op from scratch
  (:class:`LocalityScore`) and picks with :func:`argbest`;
* :func:`numpy_dependency_graph` — DAG extraction with per-op access
  sets from ``np.unique`` / ``np.setdiff1d`` slices of the compiled trace;
* :func:`numpy_rewrite_trace` — the load/evict rewrite with residency and
  dirtiness as flat bool arrays, a pointer-walk next-use oracle and numpy
  grouping of emitted regions.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.errors import ScheduleError
from repro.graph.dependency import DependencyGraph, OpNode, is_commuting_accumulation
from repro.graph.policies import NEVER
from repro.graph.scheduler import Worklist
from repro.machine.regions import Region
from repro.sched.schedule import ComputeStep, EvictStep, LoadStep, Schedule, Step
from repro.trace.compiled import CompiledTrace


def argbest(candidates: Iterable[int], score: Callable[[int], float]) -> int | None:
    """The candidate with the *highest* score, ties broken by lowest index.

    The guard is explicit — the first candidate wins outright — so the
    rule never compares a node against an absent ``best`` and stays right
    for score functions that can go negative.  Returns ``None`` only for
    an empty candidate set.
    """
    best: int | None = None
    best_score = 0.0
    for v in candidates:
        s = score(v)
        if best is None or s > best_score or (s == best_score and v < best):
            best, best_score = v, s
    return best


class LocalityScore:
    """Scores a node by how many of its elements were touched within the
    last ``window`` emitted ops; :meth:`emit` advances the clock."""

    __slots__ = ("graph", "window", "last_touch", "step")

    def __init__(self, graph: DependencyGraph, window: int = 4):
        self.graph = graph
        self.window = window
        self.last_touch: dict[int, int] = {}
        self.step = 0

    def score(self, v: int) -> int:
        floor = self.step - self.window
        last_touch = self.last_touch
        score = 0
        for key in self.graph.nodes[v].touched_keys():
            if last_touch.get(key, -(10 ** 9)) >= floor:
                score += 1
        return score

    def emit(self, v: int) -> None:
        step = self.step
        for key in self.graph.nodes[v].touched_keys():
            self.last_touch[key] = step
        self.step = step + 1

    def clone(self) -> "LocalityScore":
        other = object.__new__(LocalityScore)
        other.graph = self.graph
        other.window = self.window
        other.last_touch = self.last_touch.copy()
        other.step = self.step
        return other


def rescan_locality_order(
    graph: DependencyGraph, *, relax_reductions: bool = False, window: int = 4
) -> list[int]:
    """The locality order by rescanning every ready op on each emission."""
    worklist = Worklist(graph, relax_reductions=relax_reductions)
    scorer = LocalityScore(graph, window)
    order: list[int] = []
    while worklist.ready:
        best = argbest(worklist.ready, scorer.score)
        worklist.emit(best)
        scorer.emit(best)
        order.append(best)
    return order


def numpy_dependency_graph(trace: CompiledTrace) -> DependencyGraph:
    """:meth:`DependencyGraph.from_trace` with per-op numpy access sets."""
    nodes = []
    ids, flags = trace.elem_ids, trace.is_write
    starts, read_ends = trace.op_starts, trace.op_read_ends
    for i, op in enumerate(trace.ops):
        s, e = int(starts[i]), int(starts[i + 1])
        writes = np.unique(ids[s:e][flags[s:e]])
        reads = np.unique(ids[s : int(read_ends[i])])
        if is_commuting_accumulation(op):
            inputs = np.setdiff1d(reads, writes, assume_unique=True)
        else:
            inputs = reads
        nodes.append(
            OpNode(
                index=i,
                op=op,
                input_keys=frozenset(inputs.tolist()),
                write_keys=frozenset(writes.tolist()),
            )
        )
    graph = DependencyGraph(nodes, trace=trace)
    graph._build_edges()
    return graph


class _OpNextUse:
    """Op-granularity next use by pointer walk: per element, the sorted op
    indices touching it (duplicates kept), and a pointer that only ever
    advances, because queries come with increasing op positions."""

    def __init__(self, trace: CompiledTrace):
        acc_ops = np.repeat(
            np.arange(trace.n_ops, dtype=np.int64), np.diff(trace.op_starts)
        )
        order = np.argsort(trace.elem_ids, kind="stable")
        self.ops_sorted = acc_ops[order].tolist()
        counts = np.bincount(trace.elem_ids, minlength=trace.n_elements)
        ends = np.cumsum(counts)
        self.ends = ends.tolist()
        self.ptr = (ends - counts).tolist()

    def next_use(self, elem: int, p: int) -> int:
        """First op position > ``p`` touching ``elem``, else ``NEVER``."""
        i = self.ptr[elem]
        end = self.ends[elem]
        ops_sorted = self.ops_sorted
        while i < end and ops_sorted[i] <= p:
            i += 1
        self.ptr[elem] = i
        return ops_sorted[i] if i < end else NEVER


def _numpy_emit_regions(
    steps: list[Step],
    elems: list[int],
    trace: CompiledTrace,
    dirty: np.ndarray | None,
) -> None:
    if not elems:
        return
    arr = np.asarray(elems, dtype=np.int64)
    mats = trace.key_matrix[arr]
    flags = (
        dirty[arr].astype(np.int8) if dirty is not None else np.zeros(arr.size, np.int8)
    )
    for mi in np.unique(mats):
        name = trace.matrices[int(mi)]
        for wb in (0, 1):
            group = arr[(mats == mi) & (flags == wb)]
            if not group.size:
                continue
            region = Region(name, np.sort(trace.key_flat[group]))
            if dirty is None:
                steps.append(LoadStep(region))
            else:
                steps.append(EvictStep(region, writeback=bool(wb)))


def numpy_rewrite_trace(trace: CompiledTrace, capacity: int) -> Schedule:
    """Load on demand, evict by furthest next use, lazy writeback — on
    numpy bool arrays, one ``np.unique`` pass per op."""
    ops = trace.ops
    ids, flags = trace.elem_ids, trace.is_write
    starts = trace.op_starts
    oracle = _OpNextUse(trace)

    resident = np.zeros(trace.n_elements, dtype=bool)
    resident_set: set[int] = set()
    dirty = np.zeros(trace.n_elements, dtype=bool)
    touched_mask = np.zeros(trace.n_elements, dtype=bool)
    steps: list[Step] = []

    for p, op in enumerate(ops):
        s, e = int(starts[p]), int(starts[p + 1])
        sl = ids[s:e]
        _u, first_idx = np.unique(sl, return_index=True)
        touched = sl[np.sort(first_idx)]
        writes = np.unique(sl[flags[s:e]])
        if touched.size > capacity:
            raise ScheduleError(f"op {p} cannot fit capacity {capacity}")
        missing = touched[~resident[touched]]
        overflow = len(resident_set) + int(missing.size) - capacity
        if overflow > 0:
            touched_mask[touched] = True
            candidates = [elem for elem in resident_set if not touched_mask[elem]]
            touched_mask[touched] = False
            candidates.sort(key=lambda elem: (-oracle.next_use(elem, p), elem))
            victims = candidates[:overflow]
            _numpy_emit_regions(steps, victims, trace, dirty)
            varr = np.asarray(victims, dtype=np.int64)
            resident[varr] = False
            dirty[varr] = False
            resident_set.difference_update(victims)
        if missing.size:
            _numpy_emit_regions(steps, missing.tolist(), trace, None)
            resident[missing] = True
            resident_set.update(missing.tolist())
        steps.append(ComputeStep(op))
        dirty[writes] = True

    leftovers = np.flatnonzero(resident).tolist()
    _numpy_emit_regions(steps, leftovers, trace, dirty)
    return Schedule(steps=steps, shapes=dict(trace.shapes))
