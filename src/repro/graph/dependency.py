"""Dependency graphs over recorded compute-op streams.

A recorded :class:`~repro.sched.schedule.Schedule` fixes one total order of
compute ops, but the paper's central observation (shared with Kwasniewski
et al.'s parallel-optimality work) is that I/O volume is a property of the
*order*, and many orders are legal.  :class:`DependencyGraph` extracts the
partial order actually imposed by the data: element-granular RAW / WAR /
WAW dependences derived from :class:`~repro.machine.regions.Region` overlap.
Extraction runs over the compiled trace IR
(:class:`~repro.trace.compiled.CompiledTrace`): per-element last-writer /
reader state is tracked by interned integer element IDs, not per-key
``(matrix, flat)`` tuples, and each node's access sets are Python sets
over one slice of the trace's ID and write-flag lists.

Commuting accumulations get special treatment.  Every ``+=`` update op in
this library (:class:`~repro.sched.ops.OuterColsUpdate`,
:class:`~repro.sched.ops.TriangleUpdate`,
:class:`~repro.sched.ops.TriangleCrossUpdate`,
:class:`~repro.sched.ops.GemmOuterUpdate`) adds an input-independent
contribution into its output region, so two such ops targeting overlapping
elements commute *algebraically* — they form a reduction class, not a chain
of hard WAW hazards.  The graph records the original accumulation order as
``"reduction"`` edges (a chain per element).  Kept, any topological order
reproduces the original per-element summation order and therefore the
original result bit for bit; dropped (``relax_reductions=True``), the legal
order space grows and results are equal only up to floating-point
reassociation.

Edge kinds:

``"raw"``        true dependence (producer before consumer);
``"war"``        anti dependence (reader before overwriter/accumulator);
``"waw"``        output dependence between non-commuting writers;
``"reduction"``  original order of commuting accumulations into a shared
                 element (relaxable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Callable, Sequence

from ..errors import ConfigurationError
from ..sched.ops import (
    ComputeOp,
    GemmOuterUpdate,
    OuterColsUpdate,
    TriangleCrossUpdate,
    TriangleUpdate,
)
from ..sched.schedule import Schedule
from ..trace.compiled import CompiledTrace, compile_trace
from ..utils.unionfind import DisjointSets

#: Op types whose writes are pure ``+=`` accumulations of contributions that
#: do not depend on the accumulator's current value.  Any two of these
#: commute on shared output elements (up to FP reassociation).
COMMUTING_ACCUMULATIONS: tuple[type, ...] = (
    OuterColsUpdate,
    TriangleUpdate,
    TriangleCrossUpdate,
    GemmOuterUpdate,
)


def is_commuting_accumulation(op: ComputeOp) -> bool:
    """Is ``op`` a pure additive update (reorderable within its class)?"""
    return isinstance(op, COMMUTING_ACCUMULATIONS)


@dataclass
class OpNode:
    """One compute op of the stream, with its element-granular access sets.

    Element sets are *interned element IDs* of the compiled trace the graph
    was built from (:attr:`DependencyGraph.trace`) — dense ints, not
    ``(matrix, flat)`` tuples.  Element ``e`` is element
    ``trace.key_flat[e]`` of matrix ``trace.matrices[trace.key_matrix[e]]``.
    """

    index: int
    op: ComputeOp
    #: element IDs the op truly reads as *input*.  For a commuting
    #: accumulation the accumulated output region is excluded (its read of
    #: the running sum is what the reduction edges model); for every other
    #: op reads are taken verbatim.
    input_keys: frozenset[int] = field(repr=False, default=frozenset())
    #: element IDs the op writes.
    write_keys: frozenset[int] = field(repr=False, default=frozenset())

    @property
    def is_accumulation(self) -> bool:
        return is_commuting_accumulation(self.op)

    def touched_keys(self) -> frozenset[int]:
        """All elements the op touches (inputs plus outputs)."""
        return self.input_keys | self.write_keys


class DependencyGraph:
    """The data-dependence partial order of a schedule's compute ops."""

    def __init__(self, nodes: list[OpNode], trace: CompiledTrace | None = None):
        self.nodes = nodes
        #: the compiled trace the node element IDs refer to.
        self.trace = trace
        # succs[u] / preds[v]: neighbor -> set of edge kinds.
        self.succs: list[dict[int, set[str]]] = [dict() for _ in nodes]
        self.preds: list[dict[int, set[str]]] = [dict() for _ in nodes]
        # Static tables derived from the edges alone, built on first use
        # (see :meth:`table`).
        self._tables: dict = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_schedule(cls, schedule: Schedule) -> "DependencyGraph":
        """Extract the dependence DAG from a schedule's compute steps.

        Loads and evicts are ignored: they are an artifact of one explicit
        memory-management strategy, and the whole point of the graph layer
        is to re-derive them (see :mod:`repro.graph.rewriter`).
        """
        return cls.from_trace(compile_trace(schedule))

    @classmethod
    def from_trace(cls, trace: CompiledTrace) -> "DependencyGraph":
        """Extract the dependence DAG from a compiled trace.

        The trace must still carry its op objects (``trace.ops``): replays
        only need the arrays, but dependence analysis needs the op types to
        classify commuting accumulations, and downstream rescheduling needs
        the ops themselves.
        """
        if trace.ops is None:
            raise ConfigurationError(
                "trace has no op objects (loaded from disk?); dependence "
                "extraction needs a trace compiled in-process from a "
                "Schedule or op list"
            )
        nodes: list[OpNode] = []
        ids, flags = trace.elem_ids.tolist(), trace.is_write.tolist()
        starts, read_ends = trace.op_starts.tolist(), trace.op_read_ends.tolist()
        for i, op in enumerate(trace.ops):
            s, e = starts[i], starts[i + 1]
            writes = set(compress(ids[s:e], flags[s:e]))
            reads = set(ids[s : read_ends[i]])
            inputs = reads - writes if is_commuting_accumulation(op) else reads
            # Built from sorted lists so that a set's iteration order, which
            # fixes the order edges are inserted and consumers walk the
            # set, depends on its contents only.
            nodes.append(
                OpNode(
                    index=i,
                    op=op,
                    input_keys=frozenset(sorted(inputs)),
                    write_keys=frozenset(sorted(writes)),
                )
            )
        graph = cls(nodes, trace=trace)
        graph._build_edges()
        return graph

    def _add_edge(self, u: int, v: int, kind: str) -> None:
        if u == v:
            return
        self.succs[u].setdefault(v, set()).add(kind)
        self.preds[v].setdefault(u, set()).add(kind)

    def _build_edges(self) -> None:
        # Per-element dependence state (keyed by interned element ID),
        # cleared by sequential (non-commuting) writes: the last sequential
        # writer, the commuting accumulators since, and the input-readers
        # since the last write of any kind.
        last_seq: dict[int, int] = {}
        accs: dict[int, list[int]] = {}
        readers: dict[int, list[int]] = {}

        for node in self.nodes:
            v = node.index
            for key in node.input_keys:
                if key in last_seq:
                    self._add_edge(last_seq[key], v, "raw")
                # A true read needs *every* accumulation so far: partial sums
                # are meaningless, so each contributes a RAW edge.
                for u in accs.get(key, ()):
                    self._add_edge(u, v, "raw")
                readers.setdefault(key, []).append(v)
            if node.is_accumulation:
                for key in node.write_keys:
                    if key in last_seq:
                        self._add_edge(last_seq[key], v, "raw")
                    for u in readers.get(key, ()):
                        self._add_edge(u, v, "war")
                    chain = accs.setdefault(key, [])
                    if chain:
                        self._add_edge(chain[-1], v, "reduction")
                    chain.append(v)
            else:
                for key in node.write_keys:
                    for u in readers.get(key, ()):
                        self._add_edge(u, v, "war")
                    if key in last_seq:
                        self._add_edge(last_seq[key], v, "waw")
                    for u in accs.get(key, ()):
                        # Accumulations must finish before an overwrite.
                        self._add_edge(u, v, "waw")
                    last_seq[key] = v
                    accs.pop(key, None)
                    readers.pop(key, None)

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.nodes)

    def table(self, key, build: "Callable[[], Any]"):
        """The static table ``key``, built by ``build()`` on first use.

        Edges are fixed once the graph is built, so a table derived from
        the nodes and edges alone (predecessor tuples, edge flows,
        reduction classes, edge latencies) is computed once per graph and
        shared read-only by every ledger, walk and measure over it.
        Anything that depends on an ``(order, owner)`` pair is not a
        table: measures recompute it from scratch.
        """
        found = self._tables.get(key)
        if found is None:
            found = self._tables[key] = build()
        return found

    def _edge_list(self) -> list[tuple[int, int, frozenset[str]]]:
        return self.table("edges", lambda: [
            (u, v, frozenset(kinds))
            for u in range(len(self.nodes))
            for v, kinds in sorted(self.succs[u].items())
        ])

    def edges(self) -> list[tuple[int, int, frozenset[str]]]:
        """All edges as ``(u, v, kinds)`` triples, u emitted before v."""
        return list(self._edge_list())

    def data_edges(self) -> list[tuple[int, int, frozenset[int]]]:
        """The edges that carry data, as ``(u, v, flow)`` triples.

        ``flow`` is :meth:`edge_flow`'s non-empty element set; edges are in
        :meth:`edges` order.  A shared read-only table.
        """
        def build():
            flows = (
                (u, v, self.edge_flow(u, v, kinds)) for u, v, kinds in self._edge_list()
            )
            return [edge for edge in flows if edge[2]]

        return self.table("data_edges", build)

    def edge_counts(self) -> dict[str, int]:
        """Number of edges carrying each dependence kind."""
        out = {"raw": 0, "war": 0, "waw": 0, "reduction": 0}
        for _u, _v, kinds in self.edges():
            for k in kinds:
                out[k] += 1
        return out

    def effective_preds(self, v: int, *, relax_reductions: bool = False) -> list[int]:
        """Predecessors of ``v``, optionally dropping reduction-only edges."""
        if not relax_reductions:
            return list(self.preds[v])
        return [u for u, kinds in self.preds[v].items() if kinds != {"reduction"}]

    def effective_succs(self, u: int, *, relax_reductions: bool = False) -> list[int]:
        if not relax_reductions:
            return list(self.succs[u])
        return [v for v, kinds in self.succs[u].items() if kinds != {"reduction"}]

    def indegrees(self, *, relax_reductions: bool = False) -> list[int]:
        return [
            len(self.effective_preds(v, relax_reductions=relax_reductions))
            for v in range(len(self.nodes))
        ]

    def depths(self) -> list[int]:
        """Longest-path depth of each node from the DAG sources (edges kept)."""
        depth = [0] * len(self.nodes)
        for v in range(len(self.nodes)):  # original order is topological
            for u in self.preds[v]:
                depth[v] = max(depth[v], depth[u] + 1)
        return depth

    def critical_path_cost(self, weights: "Sequence[float] | None" = None) -> float:
        """Longest weighted chain — the span in the unit of ``weights``.

        ``weights[v]`` is the cost of op ``v`` (the fleet metrics use
        mults); the returned value is the maximum over all dependence
        chains of the summed weights, i.e. the runtime floor of any
        schedule on unboundedly many nodes with free communication.
        ``weights=None`` means unit weights: the chain length in ops.
        """
        if weights is None:
            weights = [1.0] * len(self.nodes)
        elif len(weights) != len(self.nodes):
            raise ConfigurationError(
                f"weights has {len(weights)} entries for {len(self.nodes)} ops"
            )
        cost = [0.0] * len(self.nodes)
        best = 0.0
        for v in range(len(self.nodes)):  # original order is topological
            c = 0.0
            for u in self.preds[v]:
                if cost[u] > c:
                    c = cost[u]
            cost[v] = c + weights[v]
            if cost[v] > best:
                best = cost[v]
        return best

    def _pred_table(self, relax_reductions: bool) -> list[tuple[int, ...]]:
        return self.table(("preds", relax_reductions), lambda: [
            tuple(self.effective_preds(v, relax_reductions=relax_reductions))
            for v in range(len(self.nodes))
        ])

    def is_valid_order(self, order: list[int], *, relax_reductions: bool = False) -> bool:
        """Does ``order`` (a permutation of node indices) respect the DAG?"""
        if sorted(order) != list(range(len(self.nodes))):
            return False
        position = {v: i for i, v in enumerate(order)}
        for v, preds in enumerate(self._pred_table(relax_reductions)):
            pv = position[v]
            for u in preds:
                if position[u] >= pv:
                    return False
        return True

    def is_valid_window(
        self, segment: "Sequence[int]", *, relax_reductions: bool = False
    ) -> bool:
        """Is a re-permuted window of a legal order still legal?

        ``segment`` is the new content of a window ``[i, j)`` of an order
        already known to be legal, holding the same ops the window held.
        Every edge with an endpoint outside the window keeps its direction
        (its window end still sits on the same side of the other end), so
        the candidate is legal exactly when no op of ``segment`` has an
        effective predecessor later in ``segment``: the
        :meth:`is_valid_order` verdict in time proportional to the window.
        """
        preds = self._pred_table(relax_reductions)
        later: set[int] = set()
        for v in reversed(segment):
            if not later.isdisjoint(preds[v]):
                return False
            later.add(v)
        return True

    # ------------------------------------------------------------------ #
    # shard analysis (the parallel executor's cut accounting)
    # ------------------------------------------------------------------ #
    def cut_edges(
        self, owner: "Sequence[int]", *, kinds: frozenset[str] | None = None
    ) -> list[tuple[int, int, frozenset[str]]]:
        """Edges whose endpoints are owned by different shards.

        ``owner[v]`` is the shard (node) index of op ``v`` — the assignment a
        partitioner of :mod:`repro.parallel.executor` produced.  With
        ``kinds`` given, only edges carrying at least one of those kinds are
        returned.
        """
        if len(owner) != len(self.nodes):
            raise ConfigurationError(
                f"owner has {len(owner)} entries for {len(self.nodes)} ops"
            )
        out = []
        for u, v, ks in self.edges():
            if owner[u] != owner[v] and (kinds is None or ks & kinds):
                out.append((u, v, ks))
        return out

    def cut_transfers(
        self, owner: "Sequence[int]"
    ) -> dict[tuple[int, int], set[int]]:
        """Element IDs that must move between shards under ``owner``.

        For every cross-shard edge that carries a true data flow, the
        elements the producer wrote and the consumer needs form an explicit
        network transfer (the §2.2 equivalence charges same-shard flows to
        the node's own loads; cross-shard flows are node-to-node sends):

        * ``"raw"`` edges carry the producer's writes the consumer reads
          (for a commuting accumulation, the accumulator elements it updates);
        * ``"reduction"`` edges carry the shared accumulator elements — a
          split reduction class must combine partial sums across shards.

        WAR/WAW-only edges move no data (they are ordering constraints).
        Returns ``(src_shard, dst_shard) -> element IDs``; an element is
        counted once per (producer shard, consumer shard) pair, matching a
        model where each shard forwards its latest version once.  One walk
        over the shared :meth:`data_edges` table.
        """
        if len(owner) != len(self.nodes):
            raise ConfigurationError(
                f"owner has {len(owner)} entries for {len(self.nodes)} ops"
            )
        flows: dict[tuple[int, int], set[int]] = {}
        for u, v, shared in self.data_edges():
            if owner[u] != owner[v]:
                flows.setdefault((owner[u], owner[v]), set()).update(shared)
        return flows

    def edge_flow(self, u: int, v: int, kinds: frozenset[str]) -> frozenset[int]:
        """Element IDs edge ``(u, v)`` carries when its endpoints are split.

        The per-edge kernel of :meth:`cut_transfers` (same RAW/reduction
        rules), exposed so incremental consumers — the transfer-aware
        partition refiner's ledger, the makespan model's edge latencies —
        can precompute one flow set per edge instead of re-walking the
        whole cut.  WAR/WAW-only edges carry no data (empty set).
        """
        if not kinds & {"raw", "reduction"}:
            return frozenset()
        nu, nv = self.nodes[u], self.nodes[v]
        if "raw" in kinds:
            needed = nv.input_keys | (nv.write_keys if nv.is_accumulation else frozenset())
        else:  # reduction-only: the shared accumulator itself
            needed = nv.write_keys
        return nu.write_keys & needed

    def reduction_classes(self) -> list[list[int]]:
        """Maximal groups of accumulations linked by reduction-only edges.

        Two accumulations land in the same class when a chain of edges whose
        kinds are exactly ``{"reduction"}`` connects them — i.e. the group of
        ops that commute with each other once reductions are relaxed.
        """
        return [list(group) for group in self.table("reduction_classes", self._classes)]

    def _classes(self) -> list[list[int]]:
        sets = DisjointSets(len(self.nodes))
        for u, v, kinds in self._edge_list():
            if kinds == {"reduction"}:
                sets.union(u, v)
        groups = sets.groups()
        return sorted((g for g in groups.values() if len(g) > 1), key=lambda g: g[0])

    def topological_order(self, *, relax_reductions: bool = False) -> list[int]:
        """A canonical (original-index-first) topological order."""
        from .scheduler import list_schedule  # local import: avoid cycle

        return list_schedule(self, heuristic="original", relax_reductions=relax_reductions).order


def dependency_graph(schedule: Schedule | CompiledTrace) -> DependencyGraph:
    """Convenience: :meth:`DependencyGraph.from_schedule` / ``from_trace``."""
    if isinstance(schedule, CompiledTrace):
        return DependencyGraph.from_trace(schedule)
    if not isinstance(schedule, Schedule):
        raise ConfigurationError(f"expected a Schedule, got {type(schedule).__name__}")
    return DependencyGraph.from_schedule(schedule)
