"""Dependency graphs over recorded compute-op streams.

A recorded :class:`~repro.sched.schedule.Schedule` fixes one total order of
compute ops, but the paper's central observation (shared with Kwasniewski
et al.'s parallel-optimality work) is that I/O volume is a property of the
*order*, and many orders are legal.  :class:`DependencyGraph` extracts the
partial order actually imposed by the data: element-granular RAW / WAR /
WAW dependences derived from :class:`~repro.machine.regions.Region` overlap.

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

Edge kinds, one bit each (``KINDS[i]`` is bit ``1 << i``):

``"raw"``        true dependence (producer before consumer);
``"war"``        anti dependence (reader before overwriter/accumulator);
``"waw"``        output dependence between non-commuting writers;
``"reduction"``  original order of commuting accumulations into a shared
                 element (relaxable).

Extraction runs over the compiled trace IR
(:class:`~repro.trace.compiled.CompiledTrace`) in whole-array numpy passes.
Each access becomes an ``(op, element)`` record flagged ``INPUT`` (a true
read: for a commuting accumulation, the accumulated elements are not
inputs) and ``WRITE``; records are deduplicated and sorted by element,
then op.  Within one element, every sequential (non-commuting) write opens
an *epoch*; the other records of the epoch are input readers and
accumulators, in op order.  Then, per epoch:

* the writer that opened it precedes every reader and accumulator (RAW);
* a reader follows every accumulator before it (RAW: a partial sum is
  meaningless), and an accumulator every reader before it (WAR) — both
  are prefix ranges of the epoch's accumulator or reader list;
* consecutive accumulators are chained (reduction);
* the writer that opens the next epoch follows the opener and every
  accumulator (WAW, plus RAW when it also reads the element) and every
  reader (WAR).

One sort of the ``u * n + v`` keys deduplicates the edges, OR-ing the
kind bits of each pair, and yields the successor CSR (:class:`CSR`); a
second gives the predecessor CSR.  Both list each node's neighbours in
ascending index order, and every consumer reads neighbours, kind bits and
per-op elements from these arrays; kind names appear only at the API edge
(:meth:`DependencyGraph.edges`, :meth:`DependencyGraph.edge_kinds`).
Per-op element sets are built on first use, for the consumers that ask
(:meth:`DependencyGraph.edge_flow` and the partition refiner).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

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
from ..utils.intervals import span_indices
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


#: Edge kind names; kind ``KINDS[i]`` is bit ``1 << i`` of an edge's bits.
KINDS = ("raw", "war", "waw", "reduction")
RAW, WAR, WAW, REDUCTION = 1, 2, 4, 8
#: ``KIND_NAMES[bits]``: the kind-name set of an edge with those bits.
KIND_NAMES = tuple(
    frozenset(name for i, name in enumerate(KINDS) if bits >> i & 1)
    for bits in range(1 << len(KINDS))
)
#: Access-record bits: the op reads the element as an input / writes it.
INPUT, WRITE = 1, 2


def kind_bits(kinds: "str | Iterable[str]") -> int:
    """The bits of one kind name or of a set of them."""
    names = (kinds,) if isinstance(kinds, str) else tuple(kinds)
    bits = 0
    for name in names:
        if name not in KINDS:
            raise ConfigurationError(
                f"unknown edge kind {name!r}; choose from {', '.join(KINDS)}"
            )
        bits |= 1 << KINDS.index(name)
    return bits


class CSR(NamedTuple):
    """Rows of ``(column, bits)`` entries in compressed sparse row form.

    Row ``r`` holds columns ``idx[ptr[r]:ptr[r + 1]]``, ascending and
    distinct, with their bits alongside in ``bits``.
    """

    ptr: np.ndarray
    idx: np.ndarray
    bits: np.ndarray

    @classmethod
    def build(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        bits: np.ndarray,
        n_rows: int,
        n_cols: int,
    ) -> "CSR":
        """The distinct ``(row, col)`` pairs, bits OR-ed over repeats."""
        ptr = np.zeros(n_rows + 1, dtype=np.int64)
        if not rows.size:
            return cls(ptr, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8))
        key = rows.astype(np.int64) * n_cols + cols
        order = np.argsort(key)
        key = key[order]
        first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        merged = np.bitwise_or.reduceat(bits[order].astype(np.uint8), first)
        key = key[first]
        np.cumsum(np.bincount(key // n_cols, minlength=n_rows), out=ptr[1:])
        return cls(ptr, key % n_cols, merged)

    def row_of(self) -> np.ndarray:
        """The row of every entry."""
        return np.repeat(np.arange(self.ptr.size - 1, dtype=np.int64), np.diff(self.ptr))

    def rows(self, keep: np.ndarray | None = None) -> list[tuple[int, ...]]:
        """Each row's columns as a tuple, only the entries ``keep`` marks."""
        ptr, idx = self.ptr, self.idx
        if keep is not None:
            kept = np.zeros(idx.size + 1, dtype=np.int64)
            np.cumsum(keep, out=kept[1:])
            ptr, idx = kept[ptr], idx[keep]
        flat, bounds = idx.tolist(), ptr.tolist()
        return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


def _access_records(trace: CompiledTrace, accumulates: np.ndarray) -> CSR:
    """Per op, the distinct elements it touches, flagged ``INPUT``/``WRITE``."""
    n_ops = trace.n_ops
    op_of = np.repeat(np.arange(n_ops, dtype=np.int64), np.diff(trace.op_starts))
    write = trace.is_write
    # An op's read-derived accesses precede its write-only extras; a
    # commuting accumulation's read of its own output is not an input.
    read = np.arange(trace.n_accesses) < trace.op_read_ends[op_of]
    bits = write.astype(np.uint8) * np.uint8(WRITE)
    bits[read & ~(write & accumulates[op_of])] |= np.uint8(INPUT)
    return CSR.build(op_of, trace.elem_ids, bits, n_ops, max(trace.n_elements, 1))


def _epoch_edges(by_element: CSR, accumulates: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every dependence as ``(u, v, bits)`` arrays (see the module
    docstring); a pair may repeat, with different bits."""
    ptr, op, rec = by_element
    write = (rec & WRITE) != 0
    acc = write & accumulates[op]
    seq = write & ~acc
    reader = ~write  # a record that does not write is an input read
    start = np.zeros(op.size, dtype=bool)
    start[ptr[:-1][np.diff(ptr) > 0]] = True
    opens = seq | start
    epoch = np.cumsum(opens) - 1
    first = np.flatnonzero(opens)
    opener = np.where(seq[first], op[first], -1)
    # Epoch g is closed when epoch g + 1 belongs to the same element: its
    # first record is then a sequential write.
    closed = np.zeros(first.size, dtype=bool)
    closed[:-1] = ~start[first[1:]]
    closer = np.full(first.size, -1, dtype=np.int64)
    closer[:-1] = op[first[1:]]
    closer_bits = np.full(first.size, WAW, dtype=np.uint8)
    closer_bits[:-1] |= np.where((rec[first[1:]] & INPUT) != 0, RAW, 0).astype(np.uint8)

    us, vs, bs = [], [], []

    def add(u, v, bits):
        us.append(u)
        vs.append(v)
        bs.append(np.broadcast_to(np.asarray(bits, dtype=np.uint8), np.shape(u)))

    member = ~seq
    ep = epoch[member]
    fed = opener[ep] >= 0
    add(opener[ep][fed], op[member][fed], RAW)
    ends = closed[ep]
    add(op[member][ends], closer[ep][ends],
        np.where(acc[member][ends], closer_bits[ep][ends], WAR))
    both = closed & (opener >= 0)
    add(opener[both], closer[both], closer_bits[both])

    # Prefix ranges: the accumulators (readers) an epoch saw before a
    # record are consecutive in the global list of accumulators (readers).
    acc_rank = np.cumsum(acc) - acc
    rdr_rank = np.cumsum(reader) - reader
    acc_before = acc_rank - acc_rank[first][epoch]
    rdr_before = rdr_rank - rdr_rank[first][epoch]
    acc_at, rdr_at = np.flatnonzero(acc), np.flatnonzero(reader)
    for sinks, sources, rank, before, bits in (
        (reader, acc_at, acc_rank, acc_before, RAW),
        (acc, rdr_at, rdr_rank, rdr_before, WAR),
    ):
        sinks = sinks & (before > 0)
        counts = before[sinks]
        add(
            op[sources[span_indices(rank[sinks] - counts, counts)]],
            np.repeat(op[sinks], counts),
            bits,
        )
    chained = acc & (acc_before > 0)
    add(op[acc_at[acc_rank[chained] - 1]], op[chained], REDUCTION)
    return np.concatenate(us), np.concatenate(vs), np.concatenate(bs)


class DependencyGraph:
    """The data-dependence partial order of a schedule's compute ops.

    Build one with :meth:`from_trace`, :meth:`from_schedule` or
    :meth:`from_edges`.  Node ``v`` is op ``v`` of the stream, so the
    original order ``0 .. n - 1`` is topological: every edge ``(u, v)``
    has ``u < v``.

    Attributes
    ----------
    succ / pred:
        :class:`CSR` of each node's successors / predecessors, ascending,
        with the edge's kind bits.
    op_elements / element_ops:
        :class:`CSR` of the distinct ``(op, element)`` access records, by
        op and by element, with ``INPUT``/``WRITE`` bits.  Element IDs are
        the interned IDs of :attr:`trace`: element ``e`` is element
        ``trace.key_flat[e]`` of matrix
        ``trace.matrices[trace.key_matrix[e]]``.
    accumulates:
        bool per op: is it a commuting accumulation?
    ops / trace:
        the compute ops and the compiled trace the graph was built from
        (``None`` for a graph built from an edge list).
    """

    def __init__(
        self,
        op_elements: CSR,
        n_elements: int,
        accumulates: np.ndarray,
        edges: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        *,
        ops: list[ComputeOp] | None = None,
        trace: CompiledTrace | None = None,
    ):
        """The graph of the access records, or of explicit ``edges``."""
        n = self.n = accumulates.size
        self.ops = ops
        self.trace = trace
        self.accumulates = accumulates
        self.op_elements = op_elements
        self.element_ops = CSR.build(
            op_elements.idx, op_elements.row_of(), op_elements.bits, n_elements, max(n, 1)
        )
        us, vs, bs = _epoch_edges(self.element_ops, accumulates) if edges is None else edges
        self.succ = CSR.build(us, vs, bs, n, max(n, 1))
        self.pred = CSR.build(self.succ.idx, self.succ.row_of(), self.succ.bits, n, max(n, 1))
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
        accumulates = np.fromiter(
            map(is_commuting_accumulation, trace.ops), dtype=bool, count=trace.n_ops
        )
        return cls(
            _access_records(trace, accumulates), trace.n_elements, accumulates,
            ops=trace.ops, trace=trace,
        )

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int, "str | Iterable[str]"]],
        *,
        ops: Sequence[ComputeOp] | None = None,
        inputs: Sequence[Iterable[int]] | None = None,
        writes: Sequence[Iterable[int]] | None = None,
    ) -> "DependencyGraph":
        """A graph of ``n`` ops from an explicit ``(u, v, kinds)`` edge list.

        ``kinds`` is a kind name or a set of them, and every edge must run
        forward, ``0 <= u < v < n``: the index order is topological.
        ``ops`` (classifying accumulations) and the per-op ``inputs`` /
        ``writes`` element IDs are optional; without them the graph has no
        ops and no elements.
        """
        u, v, bits = np.array(
            [(u, v, kind_bits(kinds)) for u, v, kinds in edges], dtype=np.int64
        ).reshape(-1, 3).T
        if ((u < 0) | (u >= v) | (v >= n)).any():
            raise ConfigurationError(f"edges must satisfy 0 <= u < v < {n}")
        for name, per_op in (("ops", ops), ("inputs", inputs), ("writes", writes)):
            if per_op is not None and len(per_op) != n:
                raise ConfigurationError(f"{name} has {len(per_op)} entries for {n} ops")
        accumulates = np.zeros(n, dtype=bool)
        if ops is not None:
            accumulates[:] = [is_commuting_accumulation(op) for op in ops]
        rec_op, rec_elem, rec_bits = np.array(
            [
                (v, e, bit)
                for bit, per_op in ((INPUT, inputs), (WRITE, writes))
                if per_op is not None
                for v, elems in enumerate(per_op)
                for e in elems
            ],
            dtype=np.int64,
        ).reshape(-1, 3).T
        if rec_elem.size and rec_elem.min() < 0:
            raise ConfigurationError("element IDs must be >= 0")
        n_elements = int(rec_elem.max()) + 1 if rec_elem.size else 0
        return cls(
            CSR.build(rec_op, rec_elem, rec_bits, n, max(n_elements, 1)),
            n_elements,
            accumulates,
            (u, v, bits),
            ops=list(ops) if ops is not None else None,
        )

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.n

    def table(self, key, build: "Callable[[], Any]"):
        """The static table ``key``, built by ``build()`` on first use.

        Edges are fixed once the graph is built, so a table derived from
        the nodes and edges alone (neighbour tuples, edge flows, reduction
        classes, edge latencies) is computed once per graph and shared
        read-only by every ledger, walk and measure over it.  Anything
        that depends on an ``(order, owner)`` pair is not a table:
        measures recompute it from scratch.
        """
        found = self._tables.get(key)
        if found is None:
            found = self._tables[key] = build()
        return found

    def edge_arrays(self, *, relax_reductions: bool = False) -> tuple[np.ndarray, ...]:
        """``(u, v, bits)`` arrays of every effective edge, in :meth:`edges`
        order (a shared read-only table)."""

        def build():
            u, v, bits = self.succ.row_of(), self.succ.idx, self.succ.bits
            if relax_reductions:
                keep = bits != REDUCTION
                u, v, bits = u[keep], v[keep], bits[keep]
            return u, v, bits

        return self.table(("edge_arrays", relax_reductions), build)

    def _edge_list(self) -> list[tuple[int, int, frozenset[str]]]:
        def build():
            u, v, bits = self.edge_arrays()
            return [
                (a, b, KIND_NAMES[k])
                for a, b, k in zip(u.tolist(), v.tolist(), bits.tolist())
            ]

        return self.table("edges", build)

    def edges(self) -> list[tuple[int, int, frozenset[str]]]:
        """All edges as ``(u, v, kinds)`` triples, by ``u`` then ``v``."""
        return list(self._edge_list())

    def edge_kinds(self, u: int, v: int) -> frozenset[str]:
        """The kind names of edge ``(u, v)``; ``KeyError`` if there is none."""
        return KIND_NAMES[self._edge_bits(u, v)]

    def _edge_bits(self, u: int, v: int) -> int:
        a, b = int(self.succ.ptr[u]), int(self.succ.ptr[u + 1])
        i = a + int(np.searchsorted(self.succ.idx[a:b], v))
        if i == b or self.succ.idx[i] != v:
            raise KeyError((u, v))
        return int(self.succ.bits[i])

    def data_edges(self) -> list[tuple[int, int, frozenset[int]]]:
        """The edges that carry data, as ``(u, v, flow)`` triples.

        ``flow`` is :meth:`edge_flow`'s non-empty element set; edges are in
        :meth:`edges` order.  A shared read-only table.
        """

        def build():
            u, v, bits = self.edge_arrays()
            keep = (bits & (RAW | REDUCTION)) != 0
            flows = (
                (a, b, self._flow(a, b, k))
                for a, b, k in zip(u[keep].tolist(), v[keep].tolist(), bits[keep].tolist())
            )
            return [edge for edge in flows if edge[2]]

        return self.table("data_edges", build)

    def edge_counts(self) -> dict[str, int]:
        """Number of edges carrying each dependence kind."""
        bits = self.succ.bits
        return {
            name: int(np.count_nonzero(bits & (1 << i))) for i, name in enumerate(KINDS)
        }

    def succ_lists(self, *, relax_reductions: bool = False) -> list[tuple[int, ...]]:
        """Per node, its effective successors, ascending (a shared table).

        With ``relax_reductions`` an edge whose only kind is
        ``"reduction"`` is dropped.
        """
        return self.table(("succs", relax_reductions), lambda: self.succ.rows(
            self.succ.bits != REDUCTION if relax_reductions else None
        ))

    def pred_lists(self, *, relax_reductions: bool = False) -> list[tuple[int, ...]]:
        """Per node, its effective predecessors, ascending (a shared table)."""
        return self.table(("preds", relax_reductions), lambda: self.pred.rows(
            self.pred.bits != REDUCTION if relax_reductions else None
        ))

    def effective_preds(self, v: int, *, relax_reductions: bool = False) -> list[int]:
        """Predecessors of ``v``, optionally dropping reduction-only edges."""
        return list(self.pred_lists(relax_reductions=relax_reductions)[v])

    def effective_succs(self, u: int, *, relax_reductions: bool = False) -> list[int]:
        """Successors of ``u``, optionally dropping reduction-only edges."""
        return list(self.succ_lists(relax_reductions=relax_reductions)[u])

    def indegrees(self, *, relax_reductions: bool = False) -> list[int]:
        _u, v, _bits = self.edge_arrays(relax_reductions=relax_reductions)
        return np.bincount(v, minlength=self.n).tolist()

    def depths(self) -> list[int]:
        """Longest-path depth of each node from the DAG sources (edges kept)."""
        depth = [0] * self.n
        for v, preds in enumerate(self.pred_lists()):  # index order is topological
            for u in preds:
                if depth[u] >= depth[v]:
                    depth[v] = depth[u] + 1
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
            weights = [1.0] * self.n
        elif len(weights) != self.n:
            raise ConfigurationError(
                f"weights has {len(weights)} entries for {self.n} ops"
            )
        cost = [0.0] * self.n
        best = 0.0
        for v, preds in enumerate(self.pred_lists()):  # index order is topological
            c = 0.0
            for u in preds:
                if cost[u] > c:
                    c = cost[u]
            cost[v] = c + weights[v]
            if cost[v] > best:
                best = cost[v]
        return best

    def is_valid_order(self, order: list[int], *, relax_reductions: bool = False) -> bool:
        """Does ``order`` (a permutation of node indices) respect the DAG?"""
        n, arr = self.n, np.asarray(order)
        if arr.shape != (n,) or n and (
            arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= n
        ):
            return False
        pos = np.full(n, -1, dtype=np.int64)
        pos[arr.astype(np.int64)] = np.arange(n)
        u, v, _bits = self.edge_arrays(relax_reductions=relax_reductions)
        return bool((pos >= 0).all() and (pos[u] < pos[v]).all())

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
        preds = self.pred_lists(relax_reductions=relax_reductions)
        later: set[int] = set()
        for v in reversed(segment):
            if not later.isdisjoint(preds[v]):
                return False
            later.add(v)
        return True

    # ------------------------------------------------------------------ #
    # per-op elements
    # ------------------------------------------------------------------ #
    def _element_sets(self, mask: int) -> list[frozenset[int]]:
        return self.table(("element_sets", mask), lambda: [
            frozenset(row) for row in self.op_elements.rows((self.op_elements.bits & mask) != 0)
        ])

    def inputs(self, v: int) -> frozenset[int]:
        """Element IDs op ``v`` truly reads as *input*.

        For a commuting accumulation the accumulated output region is
        excluded (its read of the running sum is what the reduction edges
        model); for every other op reads are taken verbatim.
        """
        return self._element_sets(INPUT)[v]

    def writes(self, v: int) -> frozenset[int]:
        """Element IDs op ``v`` writes."""
        return self._element_sets(WRITE)[v]

    def touched(self, v: int) -> frozenset[int]:
        """All elements op ``v`` touches (inputs plus outputs)."""
        return self._element_sets(INPUT | WRITE)[v]

    # ------------------------------------------------------------------ #
    # shard analysis (the parallel executor's cut accounting)
    # ------------------------------------------------------------------ #
    def _check_owner(self, owner: "Sequence[int]") -> None:
        if len(owner) != self.n:
            raise ConfigurationError(
                f"owner has {len(owner)} entries for {self.n} ops"
            )

    def cut_edges(
        self, owner: "Sequence[int]", *, kinds: frozenset[str] | None = None
    ) -> list[tuple[int, int, frozenset[str]]]:
        """Edges whose endpoints are owned by different shards.

        ``owner[v]`` is the shard (node) index of op ``v`` — the assignment a
        partitioner of :mod:`repro.parallel.executor` produced.  With
        ``kinds`` given, only edges carrying at least one of those kinds are
        returned.
        """
        self._check_owner(owner)
        u, v, bits = self.edge_arrays()
        own = np.asarray(owner, dtype=np.int64)
        cut = own[u] != own[v]
        if kinds is not None:
            cut &= (bits & kind_bits(kinds)) != 0
        return [
            (a, b, KIND_NAMES[k])
            for a, b, k in zip(u[cut].tolist(), v[cut].tolist(), bits[cut].tolist())
        ]

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
        self._check_owner(owner)
        flows: dict[tuple[int, int], set[int]] = {}
        for u, v, shared in self.data_edges():
            if owner[u] != owner[v]:
                flows.setdefault((owner[u], owner[v]), set()).update(shared)
        return flows

    def edge_flow(self, u: int, v: int) -> frozenset[int]:
        """Element IDs edge ``(u, v)`` carries when its endpoints are split.

        The per-edge kernel of :meth:`cut_transfers` (same RAW/reduction
        rules), exposed so incremental consumers — the transfer-aware
        partition refiner's ledger, the makespan model's edge latencies —
        can precompute one flow set per edge instead of re-walking the
        whole cut.  WAR/WAW-only edges carry no data (empty set).
        """
        return self._flow(u, v, self._edge_bits(u, v))

    def _flow(self, u: int, v: int, bits: int) -> frozenset[int]:
        if not bits & (RAW | REDUCTION):
            return frozenset()
        if bits & RAW:
            needed = self.inputs(v) | (self.writes(v) if self.accumulates[v] else frozenset())
        else:  # reduction-only: the shared accumulator itself
            needed = self.writes(v)
        return self.writes(u) & needed

    def reduction_classes(self) -> list[list[int]]:
        """Maximal groups of accumulations linked by reduction-only edges.

        Two accumulations land in the same class when a chain of edges whose
        kinds are exactly ``{"reduction"}`` connects them — i.e. the group of
        ops that commute with each other once reductions are relaxed.
        """
        return [list(group) for group in self.table("reduction_classes", self._classes)]

    def _classes(self) -> list[list[int]]:
        sets = DisjointSets(self.n)
        u, v, bits = self.edge_arrays()
        only = bits == REDUCTION
        for a, b in zip(u[only].tolist(), v[only].tolist()):
            sets.union(a, b)
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
