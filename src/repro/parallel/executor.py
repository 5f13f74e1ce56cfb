"""Sharded execution of a recorded schedule's task DAG across P nodes.

The fixed-strategy simulator (:mod:`repro.parallel.simulate`) is the one
engine for SYRK under its two built-in block layouts.  This module runs
*any* recorded schedule on ``p`` simulated nodes: extract the schedule's
:class:`~repro.graph.dependency.DependencyGraph` (whose antichain levels
are exactly the op sets a multi-node schedule may run concurrently),
partition the ops across nodes with a pluggable heuristic, and replay each
node's shard on its own counting engine with fast memory ``S``.

Per-node accounting follows the paper's §2.2 equivalence — every load of a
node's two-level replay is a *receive* from the rest of the machine, every
store a *send* — and the DAG's cross-shard cut makes the node-to-node part
of that traffic explicit: elements carried by cross-shard RAW edges (and
by split reduction classes, whose partial sums must be combined) are
reported as transfers between the producing and consuming shards
(:meth:`~repro.graph.dependency.DependencyGraph.cut_transfers`).

Partitioners (:data:`PARTITIONERS`):

``"level-greedy"``    walk the DAG's antichain levels in depth order; within
                      each level deal ops largest-first to the least-loaded
                      node (rotating ties).  Maximizes the concurrently
                      runnable work per node, ignores data placement;
``"locality"``        greedy data-affinity: assign each op (in topological
                      order) to the node already owning most of its operand
                      elements, subject to a load cap of
                      :data:`LOCALITY_SLACK` times the mean.  Minimizes the
                      cut at some cost in balance;
``"owner-computes"``  every op lands on the node that owns its *output*
                      elements (ops sharing written elements are grouped and
                      dealt as units).  Each element is written by exactly
                      one node, so no reduction class is ever split and
                      write-carrying transfers are zero by construction.

Replay policies (:data:`POLICIES`):

``"rewrite"``   dress each shard's sub-trace up as an explicit load/evict
                stream (load-on-demand, evict-by-furthest-next-use — the
                per-order optimum of :func:`repro.graph.rewriter.rewrite_trace`)
                and validate it against the model's rules, proving peak
                occupancy <= S;
``"lru"`` / ``"belady"``  count the shard's receive volume under the
                array-based cache replays of :mod:`repro.trace.replay`.

Sub-traces are sliced from one compiled trace without recompilation
(:meth:`~repro.trace.compiled.CompiledTrace.select_ops`), so element IDs
stay comparable across shards — which is what makes the cut accounting and
the per-shard replays consistent with each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigurationError, ScheduleError
from ..graph.dependency import WRITE, DependencyGraph
from ..graph.rewriter import rewrite_trace
from ..obs.probe import get_probe, timed
from ..sched.schedule import ComputeStep, Schedule
from ..sched.validate import validate_schedule
from ..trace.compiled import CompiledTrace, compile_trace
from ..trace.replay import belady_replay_trace, lru_replay_trace
from ..utils.unionfind import DisjointSets
from .makespan import MakespanResult, makespan_model
from .partition import balance_cap, deal_least_loaded

PARTITIONERS = ("level-greedy", "locality", "owner-computes")
POLICIES = ("rewrite", "lru", "belady")

#: The locality partitioner's load cap, as a multiple of the mean node
#: load (:func:`~repro.parallel.partition.balance_cap`).
LOCALITY_SLACK = 1.2


# ---------------------------------------------------------------------- #
# partitioners: DependencyGraph -> owner[op] in 0..p-1
# ---------------------------------------------------------------------- #
def _op_weights(graph: DependencyGraph) -> list[int]:
    """Work per op (mults, floored at 1 so zero-mult ops still count)."""
    return [max(int(op.mults), 1) for op in graph.ops]


def _partition_levels(graph: DependencyGraph, p: int) -> list[int]:
    depth = graph.depths()
    weights = _op_weights(graph)
    levels: dict[int, list[int]] = {}
    for v, d in enumerate(depth):
        levels.setdefault(d, []).append(v)
    owner = [0] * len(graph)
    loads = [0] * p
    for d in sorted(levels):
        ops = levels[d]
        targets = deal_least_loaded([weights[v] for v in ops], p, start=d, loads=loads)
        for v, q in zip(ops, targets):
            owner[v] = q
    return owner


def _partition_locality(graph: DependencyGraph, p: int) -> list[int]:
    weights = _op_weights(graph)
    cap = balance_cap(sum(weights), p, LOCALITY_SLACK)
    owner = [0] * len(graph)
    loads = [0] * p
    elem_owner: dict[int, int] = {}
    for v, elems in enumerate(graph.op_elements.rows()):  # index order is topological
        score = [0] * p
        for key in elems:
            q = elem_owner.get(key)
            if q is not None:
                score[q] += 1
        candidates = [q for q in range(p) if loads[q] + weights[v] <= cap]
        if not candidates:
            candidates = list(range(p))
        best = max(candidates, key=lambda q: (score[q], -loads[q], -q))
        owner[v] = best
        loads[best] += weights[v]
        for key in elems:
            elem_owner[key] = best
    return owner


def write_groups(graph: DependencyGraph) -> list[list[int]]:
    """Maximal op groups linked by shared written elements.

    The owner-computes granularity: keeping each group on one node keeps
    every element written by exactly one node (no reduction class ever
    splits).  Singleton groups are included, so the list partitions the
    op set.
    """
    sets = DisjointSets(len(graph))
    records = graph.element_ops
    for writers in records.rows((records.bits & WRITE) != 0):
        for v in writers[1:]:
            sets.union(v, writers[0])
    return sorted(sets.groups().values(), key=lambda g: g[0])


def _partition_owner_computes(graph: DependencyGraph, p: int) -> list[int]:
    # Deal whole write-groups, so every element's writers land on one node
    # (reduction classes never split; no write transfers).
    weights = _op_weights(graph)
    group_list = write_groups(graph)
    group_weights = [sum(weights[v] for v in g) for g in group_list]
    targets = deal_least_loaded(group_weights, p)
    owner = [0] * len(graph)
    for g, q in zip(group_list, targets):
        for v in g:
            owner[v] = q
    return owner


def partition_graph(
    graph: DependencyGraph,
    p: int,
    heuristic: str = "level-greedy",
) -> list[int]:
    """Partition the DAG's ops across ``p`` nodes; returns ``owner[op]``."""
    if p < 1:
        raise ConfigurationError(f"p must be >= 1, got {p}")
    if heuristic not in PARTITIONERS:
        raise ConfigurationError(
            f"unknown partitioner {heuristic!r}; choose from {', '.join(PARTITIONERS)}"
        )
    if p == 1 or not len(graph):
        return [0] * len(graph)
    if heuristic == "level-greedy":
        return _partition_levels(graph, p)
    if heuristic == "locality":
        return _partition_locality(graph, p)
    return _partition_owner_computes(graph, p)


# ---------------------------------------------------------------------- #
# the executor
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardReport:
    """Communication/work accounting for one node's shard."""

    node: int
    n_ops: int
    recv: int            # elements loaded by the node's replay (receives)
    send: int            # elements stored by the node's replay (sends)
    transfer_in: int     # cross-shard elements received from peer nodes
    transfer_out: int    # cross-shard elements sent to peer nodes
    mults: int
    peak_memory: int

    @property
    def total_comm(self) -> int:
        """Both directions of the node's boundary traffic."""
        return self.recv + self.send


@dataclass(frozen=True)
class ExecutorSummary:
    """Fleet-level summary of one sharded DAG execution.

    Statistics follow the guarded conventions of
    :class:`~repro.parallel.simulate.ParallelSummary`: empty fleets and
    idle shards yield neutral values instead of raising.
    """

    p: int
    s: int
    policy: str
    partitioner: str
    n_ops: int
    #: unweighted DAG span in *ops* (chain length, not work) — do not
    #: compare against compute volumes; that is what
    #: :attr:`critical_path_mults` is for.
    critical_path: int
    cut_edge_count: int
    owner: tuple[int, ...]
    shards: tuple[ShardReport, ...]
    #: weighted DAG span in *mults*: the runtime floor on unboundedly many
    #: nodes with free communication, same unit as ``total_mults``.
    critical_path_mults: int = 0
    #: weighted makespan of this (owner, recorded order) pair under the
    #: latency model (per-op cost = mults, per-cross-edge cost =
    #: alpha + beta * transferred elements).
    makespan: float = 0.0
    alpha: float = 1.0
    beta: float = 1.0
    #: the full :class:`~repro.parallel.makespan.MakespanResult` behind
    #: :attr:`makespan`, carrying the per-op ``start``/``finish``/``node``
    #: timeline — what ``--timeline`` exports via
    #: :func:`repro.obs.timeline.export_timeline`.
    makespan_result: "MakespanResult | None" = None

    @property
    def max_recv(self) -> int:
        return max((r.recv for r in self.shards), default=0)

    @property
    def mean_recv(self) -> float:
        from .simulate import fleet_mean

        return fleet_mean([r.recv for r in self.shards])

    @property
    def max_send(self) -> int:
        return max((r.send for r in self.shards), default=0)

    @property
    def max_recv_incl_transfers(self) -> int:
        """Receives plus peer transfers — the conservative per-node charge.

        A node's replay loads already include the first receive of every
        peer-produced element; adding ``transfer_in`` on top also charges
        the forwarding hop explicitly, an upper estimate that can never
        under-state the cross-node traffic.
        """
        return max((r.recv + r.transfer_in for r in self.shards), default=0)

    @property
    def total_recv(self) -> int:
        return sum(r.recv for r in self.shards)

    @property
    def total_transfer(self) -> int:
        """Node-to-node elements (each counted once per src/dst shard pair).

        Summed over the receiving side; :func:`execute_graph` asserts the
        sending side (:attr:`total_transfer_out`) sums to the same value —
        every transferred element leaves exactly one shard and arrives at
        exactly one.
        """
        return sum(r.transfer_in for r in self.shards)

    @property
    def total_transfer_out(self) -> int:
        """The sending side of :attr:`total_transfer` (globally equal)."""
        return sum(r.transfer_out for r in self.shards)

    @property
    def max_transfer_out(self) -> int:
        return max((r.transfer_out for r in self.shards), default=0)

    @property
    def total_mults(self) -> int:
        return sum(r.mults for r in self.shards)

    @property
    def compute_imbalance(self) -> float:
        from .simulate import fleet_imbalance

        return fleet_imbalance([r.mults for r in self.shards])

    @property
    def peak_ok(self) -> bool:
        return all(r.peak_memory <= self.s for r in self.shards)


def _shard_counts_trace(
    sub: CompiledTrace, s: int, policy: str
) -> tuple[int, int, int]:
    """(recv, send, peak) of one shard replayed by the compiled-trace engine."""
    if policy == "rewrite":
        sched = rewrite_trace(sub, s)
        summary = validate_schedule(sched, s)
        return summary["loads"], summary["stores"], summary["peak_occupancy"]
    replay = lru_replay_trace if policy == "lru" else belady_replay_trace
    r = replay(sub, s)
    return r.loads, r.stores, min(s, r.distinct)


def execute_graph(
    source: Schedule | CompiledTrace,
    p: int,
    s: int,
    *,
    partitioner: str = "level-greedy",
    policy: str = "rewrite",
    owner: Sequence[int] | None = None,
    graph: DependencyGraph | None = None,
    partitioner_label: str | None = None,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> ExecutorSummary:
    """Partition ``source``'s task DAG across ``p`` nodes and replay each shard.

    ``source`` is a recorded schedule or its compiled trace; the DAG is
    extracted once (or passed in via ``graph``, which must carry the same
    trace).  ``owner`` overrides the partitioner with an explicit op-to-node
    map — e.g. a :func:`~repro.parallel.refine.refine_partition` result —
    reported as ``partitioner_label`` (default ``"explicit-owner"``).
    ``alpha`` / ``beta`` parameterize the per-edge latency of the weighted
    makespan reported alongside the volume counts.
    """
    if s < 1:
        raise ConfigurationError(f"S must be >= 1, got {s}")
    if policy not in POLICIES:
        raise ConfigurationError(
            f"unknown policy {policy!r}; choose from {', '.join(POLICIES)}"
        )
    if graph is not None and graph.trace is not None:
        trace = graph.trace  # reuse the compiled trace across sweep calls
        if isinstance(source, CompiledTrace) and source is not trace:
            raise ConfigurationError(
                "graph was built from a different trace than `source`; "
                "pass the graph extracted from this trace"
            )
    else:
        trace = compile_trace(source)
    if graph is None:
        graph = DependencyGraph.from_trace(trace)
    elif len(graph) != trace.n_ops:
        raise ConfigurationError(
            f"graph has {len(graph)} ops but the trace has {trace.n_ops}; "
            "pass the graph extracted from this source"
        )
    if isinstance(source, Schedule):
        # Compiling shares op objects with the schedule, so identity (not
        # just count) pins graph/trace and source to the same recorded run.
        ops = [s.op for s in source.steps if isinstance(s, ComputeStep)]
        same = (
            trace.ops is not None
            and len(ops) == trace.n_ops
            and all(a is b for a, b in zip(ops, trace.ops))
        )
        if not same:
            raise ConfigurationError(
                f"source schedule ({len(ops)} compute steps) and the "
                f"graph/trace ({trace.n_ops} ops) must describe the same "
                "recorded run"
            )
    if owner is None:
        with timed("executor.partition"):
            owner = partition_graph(graph, p, partitioner)
    else:
        owner = [int(q) for q in owner]
        partitioner = partitioner_label or "explicit-owner"
        if len(owner) != len(graph):
            raise ConfigurationError(
                f"owner has {len(owner)} entries for {len(graph)} ops"
            )
        if owner and not (0 <= min(owner) and max(owner) < p):
            raise ConfigurationError(f"owner indices must lie in 0..{p - 1}")

    shard_ops: list[list[int]] = [[] for _ in range(p)]
    for v, q in enumerate(owner):
        shard_ops[q].append(v)  # original order == topological per shard

    cut = graph.cut_edges(owner)
    flows = graph.cut_transfers(owner)
    transfer_in = [0] * p
    transfer_out = [0] * p
    for (src, dst), elems in flows.items():
        transfer_out[src] += len(elems)
        transfer_in[dst] += len(elems)
    # Global conservation (the transfer analogue of the recv/send symmetry
    # check): every transferred element leaves one shard and arrives at one.
    # The same invariant is re-derived statically — per shard, not just
    # globally — by repro.check.conservation over any executor summary.
    if sum(transfer_in) != sum(transfer_out):  # pragma: no cover - defensive
        from ..check.findings import Finding

        message = (
            f"transfer accounting asymmetric: {sum(transfer_in)} received "
            f"vs {sum(transfer_out)} sent"
        )
        raise ScheduleError(
            message,
            finding=Finding(
                code="RPC101",
                message=message,
                context={
                    "received": sum(transfer_in),
                    "sent": sum(transfer_out),
                },
            ),
        )

    reports = []
    with timed("executor.replay"):
        for q in range(p):
            ops = shard_ops[q]
            mults = sum(int(graph.ops[v].mults) for v in ops)
            if not ops:
                recv = send = peak = 0
            else:
                recv, send, peak = _shard_counts_trace(trace.select_ops(ops), s, policy)
            reports.append(
                ShardReport(
                    node=q,
                    n_ops=len(ops),
                    recv=int(recv),
                    send=int(send),
                    transfer_in=transfer_in[q],
                    transfer_out=transfer_out[q],
                    mults=mults,
                    peak_memory=int(peak),
                )
            )
    with timed("executor.makespan"):
        span = makespan_model(graph, owner, p=p, alpha=alpha, beta=beta)
    probe = get_probe()
    if probe.enabled:
        probe.count("executor.runs")
        probe.count("executor.ops", len(graph))
        probe.count("executor.cut_edges", len(cut))
        probe.count("executor.transfer_elements", sum(transfer_in))
    return ExecutorSummary(
        p=p,
        s=s,
        policy=policy,
        partitioner=partitioner,
        n_ops=len(graph),
        critical_path=int(graph.critical_path_cost()),
        cut_edge_count=len(cut),
        owner=tuple(owner),
        shards=tuple(reports),
        critical_path_mults=int(span.critical_path),
        makespan=span.makespan,
        alpha=alpha,
        beta=beta,
        makespan_result=span,
    )
