"""Incremental I/O objectives for searching over legal compute orders.

Every strategy in :mod:`repro.graph.search` asks the same two questions
thousands of times: *what would emitting this op cost right now?* and
*which ready ops are even worth considering?*  This module answers both on
top of the trace layer's incremental hooks:

* :class:`IncrementalObjective` wraps a
  :class:`~repro.trace.replay.LruCursor` (element-level LRU at the target
  capacity) plus a :class:`~repro.graph.scheduler.Worklist`, so a search
  state is one cheap-to-clone object whose accumulated ``cost`` is exactly
  the LRU load count of the partial order emitted so far;
* the graph's element-by-op records
  (:attr:`~repro.graph.dependency.DependencyGraph.element_ops`) map each
  element to the ops touching it, and
  :meth:`IncrementalObjective.candidates` uses them to propose only
  the ready ops *coupled to the current cache contents* — each proposal
  comes with its miss count for free (footprint size minus resident
  overlap), so ranking candidates costs one counter sweep instead of a
  cache probe per (candidate, element) pair.  The count is an optimistic
  lower bound on what emitting the op costs: it is exact unless the op's
  own misses evict a footprint element before the op touches it, which
  then loads again;
* :func:`order_cost` evaluates a complete candidate order by replaying the
  reordered trace (:meth:`~repro.trace.compiled.CompiledTrace.reorder`
  shares the element interning, so no recompilation happens per
  candidate) — the annealing loop's ground-truth objective.

The objective is LRU load volume, not the rewrite's furthest-next-use
volume: LRU is what can be maintained incrementally in O(footprint) per
op, and the two track each other closely enough to rank orders (the bench
re-measures every winning order with the validated explicit rewrite).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..obs.probe import get_probe
from ..trace.compiled import CompiledTrace
from ..trace.replay import LruCursor, lru_replay_trace
from .dependency import DependencyGraph
from .scheduler import Worklist


def _coupling(graph: DependencyGraph) -> tuple[list[tuple[int, ...]], list[int]]:
    """Per element, the ops touching it (ascending, each once); per op, the
    number of distinct elements it touches.  A shared table of the graph,
    read from its access records.

    The coupling index behind candidate proposal: the ops worth
    considering next are exactly the ops sharing an element with the
    current cache contents, and this is the map from residents to them.
    """
    return graph.table(
        "coupling",
        lambda: (graph.element_ops.rows(), np.diff(graph.op_elements.ptr).tolist()),
    )


class IncrementalObjective:
    """One search state: ready frontier + cache state + cost so far.

    Clones share the immutable per-trace indexes (footprints, coupling
    lists); only the worklist and the LRU cursor are copied, so beam
    expansion and lookahead rollouts pay O(n_ops + capacity) per clone.
    """

    __slots__ = ("graph", "trace", "worklist", "cursor", "sizes", "elem_ops")

    def __init__(
        self,
        graph: DependencyGraph,
        capacity: int,
        *,
        relax_reductions: bool = False,
    ):
        if graph.trace is None:
            raise ConfigurationError(
                "order search needs the graph's compiled trace; build the "
                "graph with DependencyGraph.from_trace/from_schedule"
            )
        self.graph = graph
        self.trace = graph.trace
        self.worklist = Worklist(graph, relax_reductions=relax_reductions)
        self.cursor = LruCursor(self.trace, capacity)
        self.elem_ops, self.sizes = _coupling(graph)

    @property
    def cost(self) -> int:
        """LRU loads of the partial order emitted so far."""
        return self.cursor.loads

    @property
    def done(self) -> bool:
        return not self.worklist.ready

    def emit(self, v: int) -> int:
        """Emit ready node ``v``; returns the loads it actually cost."""
        self.worklist.emit(v)
        return self.cursor.apply_op(v)

    def clone(self) -> "IncrementalObjective":
        other = object.__new__(IncrementalObjective)
        other.graph = self.graph
        other.trace = self.trace
        other.worklist = self.worklist.clone()
        other.cursor = self.cursor.clone()
        other.sizes = self.sizes
        other.elem_ops = self.elem_ops
        return other

    def candidates(self, limit: int) -> list[tuple[int, int]]:
        """Up to ``limit`` ready nodes as ``(miss_count, node)``, best first.

        Proposals are the ready ops sharing at least one element with the
        cache contents (their miss count falls out of the overlap counter:
        footprint size minus resident hits), plus the two lowest-index
        ready nodes that share none, so a search can always open a fresh
        dependence chain.  Sorted by (miss count, index).  A count is an
        optimistic lower bound on what :meth:`emit` will charge (exact
        unless the op evicts part of its own footprint mid-op); counts rank
        candidates, while accumulated ``cost`` stays exact.
        """
        ready = self.worklist.ready
        if not ready:
            return []
        overlap: dict[int, int] = {}
        elem_ops = self.elem_ops
        for e in self.cursor._cache:
            for o in elem_ops[e]:
                if o in ready:
                    overlap[o] = overlap.get(o, 0) + 1
        sizes = self.sizes
        out = [(sizes[v] - ov, v) for v, ov in overlap.items()]
        if len(out) < len(ready):
            cold = 2
            for v in sorted(ready):
                if v not in overlap:
                    out.append((sizes[v], v))
                    cold -= 1
                    if not cold:
                        break
        out.sort()
        return out[:limit]


def order_cost(trace: CompiledTrace, order: "list[int]", capacity: int) -> int:
    """LRU loads (the search objective) of a complete candidate order at
    ``capacity``.

    Reorders the compiled trace in place of recompiling (shared element
    interning) and replays it.
    """
    probe = get_probe()
    if probe.enabled:
        probe.count("search.order_costs")
    return lru_replay_trace(trace.reorder(order), capacity).loads
