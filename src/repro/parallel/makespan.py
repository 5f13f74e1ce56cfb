"""Weighted critical-path / latency model for sharded DAG executions.

The executor's volume counts (receives, transfers) say how many elements
move, but two partitions with equal volumes can still finish at very
different times: one may serialize its work on a bottleneck node or chain
its transfers along the critical path.  This module scores any
``(owner, order)`` pair with the classic DAG-scheduling makespan model:

* every op ``v`` costs ``weights[v]`` time units on its node (the fleet
  convention is *mults*, so makespans are comparable to compute volumes);
* ops placed on the same node serialize in ``order`` (each node is one
  sequential worker — exactly how the executor replays a shard);
* a dependence edge crossing nodes charges a latency of
  ``alpha + beta * transferred elements``, where the transferred elements
  are the edge's data flow under the same RAW/reduction rules as
  :meth:`~repro.graph.dependency.DependencyGraph.cut_transfers`
  (WAR/WAW-only cross edges carry no data and pay the fixed ``alpha``
  synchronization cost only);
* same-node edges cost nothing beyond the serialization they imply.

``finish(v)`` is then ``max(node available, max over preds of
finish(u) + edge latency) + weights[v]`` and the makespan is the largest
finish time.  :func:`makespan_model` computes the whole timeline from
cold — fine for scoring a finished run, hopeless inside a search loop
that re-scores thousands of candidate ``(order, owner)`` pairs.
:class:`MakespanLedger` is the delta-evaluating form the joint co-search
(:mod:`repro.parallel.cosearch`) drives: edge latencies are precomputed
once, the forward pass is checkpointed every ``interval`` positions, and
a candidate differing from the committed state only from position ``i``
on re-runs the pass from the nearest checkpoint at or before ``i`` and
stops as soon as every later finish is provably unchanged — bit-identical
to the cold model by construction (same float operations in the same
association order; pinned by randomized regression tests).  A finish
time depends only on the owner map and each node's program, so a move
that keeps every program re-times nothing at all
(:meth:`MakespanLedger.reorder`).  The latency table is a shared per-graph
table (:func:`latency_preds`), read by the cold model and the ledger
alike.  The per-op ``start``/``finish``/``node`` arrays are part of the
result (not just their max): they are the full simulated timeline,
exportable as a Perfetto-openable Chrome trace via
:func:`repro.obs.timeline.export_timeline`.  Two classical floors come
for free and are reported next to it: the weighted critical path
(:meth:`~repro.graph.dependency.DependencyGraph.critical_path_cost` — the
runtime on unboundedly many nodes with free communication) and the
busiest node's total work (the runtime with free dependences).  The
makespan can never undercut either — with one caveat: ``critical_path``
always walks the *full* edge set, so under ``relax_reductions=True``
(where reduction-only timing edges are dropped from the makespan) a
reordered chain can legitimately finish below it; ``max_busy`` remains a
floor in every mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigurationError, ScheduleError
from ..graph.dependency import DependencyGraph


@dataclass(frozen=True)
class MakespanResult:
    """Latency accounting of one ``(owner, order)`` pair."""

    p: int
    alpha: float
    beta: float
    #: the largest finish time — the model's estimate of wall-clock, in
    #: op-weight units (mults by default) plus edge latencies.
    makespan: float
    #: weighted critical path: the floor with unbounded nodes and free
    #: communication.
    critical_path: float
    #: per-node summed op weights (busy time, ignoring waits).
    node_busy: tuple[float, ...]
    #: total latency charged on cross-node edges (each edge once).
    comm_latency: float
    n_cross_edges: int
    #: op index that finishes last (-1 for an empty graph).
    bottleneck: int
    #: per-op execution start time: the moment the op's node is free *and*
    #: every predecessor (plus its edge latency) has arrived — i.e.
    #: ``finish[v] - weights[v]``.  Indexed by op, not by order position.
    start: tuple[float, ...] = ()
    #: per-op finish time; ``max(finish) == makespan`` (asserted in tests).
    finish: tuple[float, ...] = ()
    #: per-op node placement (a copy of the scored ``owner``) — with
    #: ``start``/``finish`` this is the full simulated timeline, the data
    #: feed of :func:`repro.obs.timeline.export_timeline`.
    node: tuple[int, ...] = ()

    @property
    def max_busy(self) -> float:
        """The busiest node's work — the floor with free dependences."""
        return max(self.node_busy, default=0.0)

    @property
    def parallel_efficiency(self) -> float:
        """Total work over ``p * makespan`` — 1.0 means no node ever waits."""
        if self.makespan <= 0:
            return 1.0
        return sum(self.node_busy) / (self.p * self.makespan)


def makespan_model(
    graph: DependencyGraph,
    owner: Sequence[int],
    *,
    p: int | None = None,
    order: Sequence[int] | None = None,
    alpha: float = 1.0,
    beta: float = 1.0,
    weights: Sequence[float] | None = None,
    relax_reductions: bool = False,
) -> MakespanResult:
    """Score the ``(owner, order)`` pair under the latency model.

    ``owner[v]`` places op ``v`` on a node; ``order`` is the global
    execution order (default: the recorded order, which is what the
    executor replays) and must be legal for the graph under
    ``relax_reductions``.  ``weights`` defaults to per-op mults.  ``p``
    defaults to ``max(owner) + 1``; idle trailing nodes are allowed.
    """
    n = len(graph)
    if len(owner) != n:
        raise ConfigurationError(f"owner has {len(owner)} entries for {n} ops")
    top = (max(owner) + 1) if n else 1
    if p is None:
        p = top
    elif p < top:
        raise ConfigurationError(f"owner references node {top - 1} but p = {p}")
    if n and min(owner) < 0:
        raise ConfigurationError("owner indices must be >= 0")
    if alpha < 0 or beta < 0:
        raise ConfigurationError("alpha and beta must be >= 0")
    default_weights = weights is None
    if default_weights:
        weights = op_weights(graph)
    elif len(weights) != n:
        raise ConfigurationError(f"weights has {len(weights)} entries for {n} ops")
    if order is None:
        order = range(n)
    elif not graph.is_valid_order(list(order), relax_reductions=relax_reductions):
        raise ScheduleError("makespan order is not a legal order of the graph")

    preds = latency_preds(graph, relax_reductions, alpha, beta)
    start = [0.0] * n
    finish = [0.0] * n
    node_avail = [0.0] * p
    node_busy = [0.0] * p
    comm_latency = 0.0
    n_cross = 0
    bottleneck = -1
    makespan = 0.0
    for v in order:
        q = owner[v]
        t = node_avail[q]
        # Relaxed orders may reorder within a reduction class; the dropped
        # reduction-only edges then carry no timing constraint either.
        for u, latency in preds[v]:
            if owner[u] == q:
                arrival = finish[u]
            else:
                arrival = finish[u] + latency
                comm_latency += latency
                n_cross += 1
            if arrival > t:
                t = arrival
        start[v] = t
        finish[v] = t + float(weights[v])
        node_avail[q] = finish[v]
        node_busy[q] += float(weights[v])
        if finish[v] > makespan:
            makespan, bottleneck = finish[v], v
    return MakespanResult(
        p=p,
        alpha=alpha,
        beta=beta,
        makespan=makespan,
        critical_path=(
            graph.table("critical_path_mults", lambda: graph.critical_path_cost(weights))
            if default_weights else graph.critical_path_cost(list(weights))
        ),
        node_busy=tuple(node_busy),
        comm_latency=comm_latency,
        n_cross_edges=n_cross,
        bottleneck=bottleneck,
        start=tuple(start),
        finish=tuple(finish),
        node=tuple(int(q) for q in owner),
    )


def op_weights(graph: DependencyGraph) -> list[float]:
    """Per-op mults as floats: the default op weights (a shared table)."""
    return graph.table(
        "mults", lambda: [float(op.mults) for op in graph.ops]
    )


def latency_preds(
    graph: DependencyGraph, relax_reductions: bool, alpha: float, beta: float
) -> list[tuple[tuple[int, float], ...]]:
    """Per op, its effective predecessors paired with the cross-node latency.

    ``preds[v]`` lists ``(u, alpha + beta * |flow(u, v)|)`` for every
    effective predecessor ``u`` of ``v``, ascending
    (:meth:`~repro.graph.dependency.DependencyGraph.pred_lists`): one
    precomputed double per edge, so the cold model and the ledger charge
    bit-identical latencies.  Flows come from the graph's
    :meth:`~repro.graph.dependency.DependencyGraph.data_edges` table; an
    edge that carries no data costs ``alpha``.  A shared table per
    ``(relax, alpha, beta)``.
    """
    alpha, beta = float(alpha), float(beta)

    def build():
        flow = {(u, v): len(elems) for u, v, elems in graph.data_edges()}
        return [
            tuple((u, alpha + beta * flow.get((u, v), 0)) for u in preds)
            for v, preds in enumerate(graph.pred_lists(relax_reductions=relax_reductions))
        ]

    return graph.table(("latency_preds", relax_reductions, alpha, beta), build)


class MakespanLedger:
    """Checkpointed delta evaluation of :func:`makespan_model`.

    The search-loop form of the latency model: hold one committed
    ``(order, owner)`` pair plus its full forward pass, score a candidate
    that differs only from position ``from_pos`` onward by re-running the
    pass from the nearest checkpoint, and :meth:`commit` the candidate in
    the accepted case.  Per-edge latencies come from the graph's shared
    :func:`latency_preds` table, so a proposal costs time proportional to
    the re-timed ops, not to the edge set, and nothing on the way is
    O(n): :meth:`score` copies no order or owner, and writes candidate
    finish times into a trial list that equals the committed one
    outside the re-timed ops.  A commit adopts the candidate order list
    (the caller must not edit it afterwards), updates op positions only
    over the moved window, and keeps a private copy of a new owner map.

    Bit-identity contract: :meth:`score` performs exactly the float
    operations of :func:`makespan_model` in the same association order
    (each edge's latency is one precomputed double, ``arrival = finish[u]
    + latency``), so a ledger walk and a cold model recompute of the same
    pair agree to the last bit — the co-search relies on this to
    cross-check its winner against the measured model.

    Caller contract for :meth:`score`: the candidate pair must agree with
    the committed state on every position below ``from_pos`` and at or
    after ``settled`` — both the op placed there and that op's owner.
    (Both move kinds of the co-search satisfy this by construction: an
    order move changes a window ``[i, j)`` and passes ``from_pos=i,
    settled=j``; an ownership move passes the smallest committed position
    of a moved op and the largest plus one.)  The candidate order
    must be a legal order of the graph; legality is the caller's
    responsibility — this class never re-validates inside the hot loop.
    """

    def __init__(
        self,
        graph: DependencyGraph,
        owner: Sequence[int],
        *,
        p: int | None = None,
        order: Sequence[int] | None = None,
        alpha: float = 1.0,
        beta: float = 1.0,
        weights: Sequence[float] | None = None,
        relax_reductions: bool = False,
        interval: int | None = None,
    ):
        n = len(graph)
        if len(owner) != n:
            raise ConfigurationError(f"owner has {len(owner)} entries for {n} ops")
        top = (max(owner) + 1) if n else 1
        if p is None:
            p = top
        elif p < top:
            raise ConfigurationError(f"owner references node {top - 1} but p = {p}")
        if n and min(owner) < 0:
            raise ConfigurationError("owner indices must be >= 0")
        if alpha < 0 or beta < 0:
            raise ConfigurationError("alpha and beta must be >= 0")
        if weights is None:
            weights = op_weights(graph)
        elif len(weights) != n:
            raise ConfigurationError(f"weights has {len(weights)} entries for {n} ops")
        if order is None:
            order = list(range(n))
        elif not graph.is_valid_order(list(order), relax_reductions=relax_reductions):
            raise ScheduleError("makespan order is not a legal order of the graph")
        if interval is not None and interval < 1:
            raise ConfigurationError(f"interval must be >= 1, got {interval}")

        self.graph = graph
        self.p = p
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.relax_reductions = relax_reductions
        self.weights = [float(w) for w in weights]
        self.interval = int(interval) if interval is not None else max(8, n // 64)
        self._preds = latency_preds(graph, relax_reductions, alpha, beta)
        self._succs = graph.succ_lists(relax_reductions=relax_reductions)
        self.order = [int(v) for v in order]
        self.owner = [int(q) for q in owner]
        self.pos = [0] * n
        for i, v in enumerate(self.order):
            self.pos[v] = i
        self.finish = [0.0] * n
        # _trial == finish except at the ops the pending score re-timed.
        self._trial = [0.0] * n
        self.makespan = 0.0
        self.work = 0
        # _snaps[j]: node availability before position j * interval;
        # _peaks[j]: the latest finish among positions [j, j + 1) * interval.
        self._snaps: list[tuple[float, ...]] = [tuple([0.0] * p)]
        self._peaks: list[float] = [0.0]
        self._pending: tuple | None = None
        self.score()
        self.commit()
        #: ops re-timed by scores, not counting the build.
        self.work = 0

    @property
    def checkpoints(self) -> tuple:
        """Committed ``(node availability, latest finish)`` pairs: the
        availability before each ``interval`` positions of the order and
        the latest finish among those positions."""
        return tuple(zip(self._snaps, self._peaks))

    def score(
        self,
        order: "Sequence[int] | None" = None,
        owner: "Sequence[int] | None" = None,
        from_pos: int = 0,
        settled: int | None = None,
    ) -> float:
        """Makespan of a candidate pair (``None`` = the committed value).

        Re-runs the forward pass from the checkpoint at or before
        ``from_pos`` and stashes the result; :meth:`commit` adopts it,
        a subsequent :meth:`score` discards it.  The pass stops at the
        first checkpoint at or after ``settled`` (``None``: the end of the
        order) where every node's availability equals the committed one
        and no re-timed op whose finish or owner changed has a successor
        at or past it: every later finish is then the committed one.
        """
        self._discard()
        n = len(self.graph)
        if settled is None:
            settled = n
        cand_order = self.order if order is None else order
        cand_owner = self.owner if owner is None else owner
        interval = self.interval
        snaps = self._snaps
        j0 = min(from_pos // interval, len(snaps) - 1)
        start = j0 * interval
        avail = list(snaps[j0])
        trial, finish, pos, own = self._trial, self.finish, self.pos, self.owner
        preds, succs, weights = self._preds, self._succs, self.weights
        new_snaps: list[tuple[float, ...]] = []
        peaks: list[float] = []
        peak = 0.0
        far = -1  # the last committed position a changed op reaches
        stop = None
        end = n
        for idx in range(start, n):
            if idx % interval == 0 and idx > start:
                peaks.append(peak)
                peak = 0.0
                snap = tuple(avail)
                if idx >= settled and far < idx and snap == snaps[idx // interval]:
                    stop, end = idx // interval, idx
                    break
                new_snaps.append(snap)
            v = cand_order[idx]
            q = cand_owner[v]
            t = avail[q]
            for u, lat in preds[v]:
                arrival = trial[u] if cand_owner[u] == q else trial[u] + lat
                if arrival > t:
                    t = arrival
            f = t + weights[v]
            trial[v] = f
            avail[q] = f
            if f > peak:
                peak = f
            if f != finish[v] or q != own[v]:
                for w in succs[v]:
                    if pos[w] > far:
                        far = pos[w]
        else:
            peaks.append(peak)
        self.work += end - start
        ms = max(peaks)
        if j0:
            ms = max(ms, max(self._peaks[:j0]))
        if stop is not None:
            ms = max(ms, max(self._peaks[stop:]))
        self._pending = (
            j0, start, end, stop, cand_order, order, owner, from_pos, settled,
            new_snaps, peaks, ms,
        )
        return ms

    def _discard(self) -> None:
        """Drop a pending candidate: restore its re-timed trial entries."""
        if self._pending is not None:
            _j0, start, end, _stop, cand_order, *_rest = self._pending
            trial, finish = self._trial, self.finish
            for idx in range(start, end):
                v = cand_order[idx]
                trial[v] = finish[v]
            self._pending = None

    def reorder(self, order: "Sequence[int]", from_pos: int, settled: int) -> None:
        """Adopt a new order of window ``[from_pos, settled)`` that leaves
        every node's program (its ops, in order) unchanged.

        A finish time depends only on the owner map and the programs, so
        every finish time and the makespan stand; only the checkpoints of
        the intervals the window overlaps move, and they are rebuilt from
        the committed finish times without re-timing any op.
        """
        self._discard()
        interval = self.interval
        j0 = min(from_pos // interval, len(self._snaps) - 1)
        avail = list(self._snaps[j0])
        owner, finish = self.owner, self.finish
        for j in range(j0, min(-(-settled // interval), len(self._snaps))):
            if j > j0:
                self._snaps[j] = tuple(avail)
            peak = 0.0
            for v in order[j * interval : (j + 1) * interval]:
                f = finish[v]
                avail[owner[v]] = f
                if f > peak:
                    peak = f
            self._peaks[j] = peak
        for idx in range(from_pos, settled):
            self.pos[order[idx]] = idx
        self.order = order

    def commit(self) -> float:
        """Adopt the last scored candidate as the committed state."""
        if self._pending is None:
            return self.makespan
        (j0, start, end, stop, cand_order, order, owner, from_pos, settled,
         new_snaps, peaks, ms) = self._pending
        if order is not None:
            self.order = order
            for idx in range(from_pos, settled):
                self.pos[order[idx]] = idx
        if owner is not None:
            # a private copy: the stop compares the next candidate with it
            self.owner = list(owner)
        trial, finish = self._trial, self.finish
        for idx in range(start, end):
            v = cand_order[idx]
            finish[v] = trial[v]
        self._snaps[j0 + 1 : stop] = new_snaps
        self._peaks[j0 : stop] = peaks
        self.makespan = ms
        self._pending = None
        return ms
