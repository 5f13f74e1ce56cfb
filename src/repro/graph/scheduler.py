"""Worklist list scheduling over a :class:`~repro.graph.dependency.DependencyGraph`.

The scheduler emits compute ops one at a time: a worklist holds every node
whose (effective) dependences are all resolved, a pluggable priority
heuristic picks the next node, and emitting a node releases its successors
whose dependence count drops to zero — the classic list-scheduling loop, in
the style of trace re-schedulers like PyPy's vectorizer.

Heuristics (``HEURISTICS``):

``"original"``     lowest original index first — reproduces the recorded
                   order exactly (the identity schedule, and the proof that
                   the DAG admits it);
``"depth-first"``  most recently released first (LIFO): chase one dependence
                   chain to completion before starting the next, the order
                   that keeps a reduction's accumulator hot;
``"locality"``     among ready nodes, prefer the one with the most elements
                   touched within the last ``window`` emitted ops (a greedy
                   reuse-distance rule): reuse what is still in fast memory
                   before moving on;
``"fan-out"``      most effective successors first: release as much of the
                   DAG as possible early (a span-reduction order, useful as
                   a parallel-frontier baseline).

Every heuristic breaks ties by original index, so schedules are
deterministic and replayable.

The locality pass scores only ready ops, on score levels: a set of ready
ops per score, and a running bound on the highest non-empty level, whose
lowest index is the pick.  Emitting an op changes the hot status of two
groups of elements only: its own (hot for the next ``window`` steps) and
those of the op emitted ``window`` steps earlier that nothing has touched
since (they leave the window).  Each change moves every ready op on that
element one level.  A released op is scored afresh from its elements, so
an op that is not ready has no score to keep.  At window 0 nothing is
ever hot, and the order is ``"original"``'s.

:class:`Worklist`, the copyable ready-frontier state of a scheduling pass,
is exposed so the order-search engine (:mod:`repro.graph.search`) can
drive the same machinery incrementally.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..errors import ConfigurationError, ScheduleError
from .dependency import DependencyGraph

HEURISTICS = ("original", "depth-first", "locality", "fan-out")


class Worklist:
    """The copyable ready-frontier state of a list-scheduling pass.

    Tracks per-node unresolved dependence counts and the set of ready
    nodes under one ``relax_reductions`` setting.  :meth:`emit` retires a
    ready node and returns the successors it released — the one state
    transition every scheduling loop (greedy, beam, lookahead rollout)
    shares.  :meth:`clone` is cheap (one list copy + one set copy), which
    is what makes beam expansion and lookahead rollouts affordable.
    """

    __slots__ = ("graph", "relax_reductions", "indeg", "ready", "succs")

    def __init__(self, graph: DependencyGraph, *, relax_reductions: bool = False):
        self.graph = graph
        self.relax_reductions = relax_reductions
        self.indeg = graph.indegrees(relax_reductions=relax_reductions)
        self.ready = {v for v, d in enumerate(self.indeg) if d == 0}
        self.succs = graph.succ_lists(relax_reductions=relax_reductions)

    def __len__(self) -> int:
        return len(self.ready)

    def emit(self, v: int) -> list[int]:
        """Retire ready node ``v``; returns the newly released successors."""
        if v not in self.ready:
            raise ScheduleError(f"node {v} is not ready")
        self.ready.discard(v)
        released = []
        indeg = self.indeg
        for w in self.succs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                released.append(w)
        self.ready.update(released)
        return released

    def clone(self) -> "Worklist":
        other = object.__new__(Worklist)
        other.graph = self.graph
        other.relax_reductions = self.relax_reductions
        other.indeg = self.indeg.copy()
        other.ready = self.ready.copy()
        other.succs = self.succs
        return other


@dataclass
class ListScheduleResult:
    """A legal total order produced by :func:`list_schedule`."""

    graph: DependencyGraph
    heuristic: str
    relax_reductions: bool
    order: list[int] = field(default_factory=list)


def _schedule_by_priority(
    succs: list[tuple[int, ...]], indeg: list[int], priority
) -> list[int]:
    """Generic heap-driven worklist: smallest ``priority(node)`` first."""
    heap = [(priority(v), v) for v, d in enumerate(indeg) if d == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        _, v = heapq.heappop(heap)
        order.append(v)
        for w in succs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, (priority(w), w))
    return order


def _schedule_depth_first(succs: list[tuple[int, ...]], indeg: list[int]) -> list[int]:
    # LIFO worklist: successors released by the last emitted node are
    # scheduled next (pushed in reverse index order so the lowest-index
    # chain is chased first).
    stack = [v for v in range(len(indeg) - 1, -1, -1) if indeg[v] == 0]
    order: list[int] = []
    while stack:
        v = stack.pop()
        order.append(v)
        released = []
        for w in succs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                released.append(w)
        stack.extend(reversed(released))  # successors come ascending
    return order


def _schedule_locality(worklist: Worklist, window: int) -> list[int]:
    # Ready ops only, on score levels (see the module docstring).
    elems = worklist.graph.op_elements.rows()
    # Untouched elements sit below every window floor, t - window >= -window.
    last_touch = [-window - 1] * (worklist.graph.element_ops.ptr.size - 1)
    ready_on: list[set[int]] = [set() for _ in last_touch]
    score = [0] * len(elems)
    levels: list[set[int]] = [set() for _ in range(max(map(len, elems), default=0) + 1)]
    top = 0  # no level above it holds an op
    order: list[int] = []
    released, hot = worklist.ready, -window
    while True:
        for w in released:
            s = 0
            for key in elems[w]:
                if last_touch[key] >= hot:
                    s += 1
                ready_on[key].add(w)
            score[w] = s
            levels[s].add(w)
            if s > top:
                top = s
        while top and not levels[top]:
            top -= 1
        if not levels[top]:
            return order
        v = min(levels[top])
        levels[top].remove(v)
        t = len(order)
        order.append(v)
        floor = t - window
        for key in elems[v]:
            on = ready_on[key]
            on.remove(v)
            if last_touch[key] < floor:  # enters the window
                for w in on:
                    s = score[w]
                    levels[s].remove(w)
                    levels[s + 1].add(w)
                    score[w] = s + 1
                    if s + 1 > top:
                        top = s + 1
            last_touch[key] = t
        if floor >= 0:
            for key in elems[order[floor]]:
                if last_touch[key] == floor:  # leaves the window
                    for w in ready_on[key]:
                        s = score[w]
                        levels[s].remove(w)
                        levels[s - 1].add(w)
                        score[w] = s - 1
        # Hot after step t means touched at step t + 1 - window or later.
        released, hot = worklist.emit(v), t + 1 - window


def list_schedule(
    graph: DependencyGraph,
    heuristic: str = "original",
    *,
    relax_reductions: bool = False,
    locality_window: int = 4,
) -> ListScheduleResult:
    """Emit a legal total order of ``graph`` under the chosen heuristic.

    With ``relax_reductions=True`` edges that carry only the ``"reduction"``
    kind are ignored, enlarging the legal order space at the cost of
    bit-exactness (results then match only up to FP reassociation).
    ``locality_window`` is the ``"locality"`` look-back in emitted ops, an
    ``int`` >= 0 (``ConfigurationError`` otherwise; 0 gives index order).
    """
    if heuristic not in HEURISTICS:
        raise ConfigurationError(
            f"unknown heuristic {heuristic!r}; choose from {', '.join(HEURISTICS)}"
        )
    if (
        not isinstance(locality_window, int)
        or isinstance(locality_window, bool)
        or locality_window < 0
    ):
        raise ConfigurationError(
            f"locality_window must be an int >= 0, got {locality_window!r}"
        )
    if heuristic == "locality" and locality_window:
        worklist = Worklist(graph, relax_reductions=relax_reductions)
        order = _schedule_locality(worklist, locality_window)
    else:
        succs = graph.succ_lists(relax_reductions=relax_reductions)
        indeg = graph.indegrees(relax_reductions=relax_reductions)
        if heuristic == "depth-first":
            order = _schedule_depth_first(succs, indeg)
        elif heuristic == "fan-out":
            order = _schedule_by_priority(succs, indeg, lambda v: (-len(succs[v]), v))
        else:  # original, or locality at window 0, where nothing is ever hot
            order = _schedule_by_priority(succs, indeg, lambda v: v)
    if len(order) != len(graph):
        raise ScheduleError(
            f"list scheduler emitted {len(order)} of {len(graph)} nodes — dependence cycle"
        )
    return ListScheduleResult(
        graph=graph, heuristic=heuristic, relax_reductions=relax_reductions, order=order
    )
