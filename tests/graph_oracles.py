"""Reference implementations of the graph layer's three per-op passes.

Each oracle is the straightforward form of a production pass that now
runs incrementally, on plain lists or in whole-array passes; the tests pin each production pass
to its oracle, output for output:

* :func:`rescan_locality_order` — the locality list scheduler as a full
  rescan: every emission scores every ready op from scratch
  (:class:`LocalityScore`) and picks with :func:`argbest`;
* :func:`heap_locality_order` — the same scheduler as the fast
  reference: every unemitted op's score kept incrementally, the pick
  taken off a lazy max-heap.  It reaches sizes (N=60 and up) that the
  rescan cannot in tier-1 time, and E12 times the production pass, which
  scores only ready ops on score levels, against it;
* :func:`walk_dependency_graph` — DAG extraction as a walk over the ops
  with per-element last-writer / reader / accumulator maps, and per-op
  access sets from ``np.unique`` / ``np.setdiff1d`` slices of the
  compiled trace;
* :func:`numpy_rewrite_trace` — the load/evict rewrite with residency and
  dirtiness as flat bool arrays, a pointer-walk next-use oracle and numpy
  grouping of emitted regions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.errors import ScheduleError
from repro.graph.dependency import DependencyGraph, is_commuting_accumulation
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
        for key in self.graph.touched(v):
            if last_touch.get(key, -(10 ** 9)) >= floor:
                score += 1
        return score

    def emit(self, v: int) -> None:
        step = self.step
        for key in self.graph.touched(v):
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


def heap_locality_order(
    graph: DependencyGraph, *, relax_reductions: bool = False, window: int = 4
) -> list[int]:
    """The locality order with every unemitted op's score kept
    incrementally and the pick taken off a lazy max-heap."""
    worklist = Worklist(graph, relax_reductions=relax_reductions)
    # Emitting an op changes the hot status of two groups of elements
    # only: its own (hot for the next ``window`` steps) and those of the
    # op emitted ``window`` steps earlier that nothing has touched since
    # (they leave the window).  Each change moves the score of every
    # unemitted op on that element by one; a heap entry ``(-score, index)``
    # is pushed on release and on every score change, and skipped on pop
    # when stale.
    elems = graph.op_elements.rows()
    ops_on = [list(ops) for ops in graph.element_ops.rows()]
    score = [0] * len(elems)
    # Untouched elements sit below every window floor, t - window >= -window.
    last_touch = [-window - 1] * len(ops_on)
    ready = worklist.ready
    heap = [(0, v) for v in sorted(ready)]
    heappop, heappush = heapq.heappop, heapq.heappush
    order: list[int] = []
    while heap:
        neg, v = heappop(heap)
        if v not in ready or -neg != score[v]:
            continue  # stale: emitted, or re-pushed since with a new score
        t = len(order)
        changed = set(worklist.emit(v))
        order.append(v)
        for key in elems[v]:
            ops_on[key].remove(v)  # lists hold unemitted ops only
        if window:  # at window 0 nothing is ever hot: every score stays 0
            floor = t - window
            for key in elems[v]:
                if last_touch[key] < floor:  # enters the window
                    for w in ops_on[key]:
                        score[w] += 1
                        if w in ready:
                            changed.add(w)
                last_touch[key] = t
            if floor >= 0:
                for key in elems[order[floor]]:
                    if last_touch[key] == floor:  # leaves the window
                        for w in ops_on[key]:
                            score[w] -= 1
                            if w in ready:
                                changed.add(w)
        for w in changed:
            heappush(heap, (-score[w], w))
    return order


@dataclass
class WalkGraph:
    """The dependence DAG as the per-element walk builds it.

    Per op, its input and written element IDs; per node, its neighbours
    mapped to their kind-name sets, in the order the walk inserted them.
    """

    inputs: list[frozenset[int]]
    writes: list[frozenset[int]]
    succs: list[dict[int, set[str]]]
    preds: list[dict[int, set[str]]]

    def edges(self) -> list[tuple[int, int, frozenset[str]]]:
        return [
            (u, v, frozenset(kinds))
            for u, succs in enumerate(self.succs)
            for v, kinds in sorted(succs.items())
        ]


def walk_dependency_graph(trace: CompiledTrace) -> WalkGraph:
    """The dependence DAG by a walk over the ops with last-writer/reader
    maps, per-op access sets taken from ``np.unique`` / ``np.setdiff1d``
    slices of the compiled trace."""
    inputs, writes = [], []
    ids, flags = trace.elem_ids, trace.is_write
    starts, read_ends = trace.op_starts, trace.op_read_ends
    for i, op in enumerate(trace.ops):
        s, e = int(starts[i]), int(starts[i + 1])
        written = np.unique(ids[s:e][flags[s:e]])
        reads = np.unique(ids[s : int(read_ends[i])])
        if is_commuting_accumulation(op):
            reads = np.setdiff1d(reads, written, assume_unique=True)
        inputs.append(frozenset(reads.tolist()))
        writes.append(frozenset(written.tolist()))
    n = trace.n_ops
    graph = WalkGraph(inputs, writes, [{} for _ in range(n)], [{} for _ in range(n)])

    def add_edge(u: int, v: int, kind: str) -> None:
        if u != v:
            graph.succs[u].setdefault(v, set()).add(kind)
            graph.preds[v].setdefault(u, set()).add(kind)

    # Per-element dependence state, cleared by sequential (non-commuting)
    # writes: the last sequential writer, the commuting accumulators
    # since, and the input-readers since.
    last_seq: dict[int, int] = {}
    accs: dict[int, list[int]] = {}
    readers: dict[int, list[int]] = {}
    for v, op in enumerate(trace.ops):
        for key in sorted(inputs[v]):
            if key in last_seq:
                add_edge(last_seq[key], v, "raw")
            # A true read needs *every* accumulation so far: partial sums
            # are meaningless, so each contributes a RAW edge.
            for u in accs.get(key, ()):
                add_edge(u, v, "raw")
            readers.setdefault(key, []).append(v)
        if is_commuting_accumulation(op):
            for key in sorted(writes[v]):
                if key in last_seq:
                    add_edge(last_seq[key], v, "raw")
                for u in readers.get(key, ()):
                    add_edge(u, v, "war")
                chain = accs.setdefault(key, [])
                if chain:
                    add_edge(chain[-1], v, "reduction")
                chain.append(v)
        else:
            for key in sorted(writes[v]):
                for u in readers.get(key, ()):
                    add_edge(u, v, "war")
                if key in last_seq:
                    add_edge(last_seq[key], v, "waw")
                for u in accs.get(key, ()):
                    # Accumulations must finish before an overwrite.
                    add_edge(u, v, "waw")
                last_seq[key] = v
                accs.pop(key, None)
                readers.pop(key, None)
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
