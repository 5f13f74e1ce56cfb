"""Transfer-aware refinement of a sharded execution's op-to-node map.

The one-shot partitioners of :mod:`repro.parallel.executor` fix a trade:
``level-greedy`` balances work but splits reduction classes (paying tens of
thousands of transferred elements on a SYRK DAG), ``owner-computes`` keeps
classes whole but ignores everything else.  This module *searches* the
assignment space between them: take any seed ``owner[]``, propose local
moves — one op, a whole reduction class, or a whole write-group — and keep
the moves that lower the fleet's bounding quantity

    ``max_q ( recv_q + transfer_in_q )``

the per-node receives plus incoming peer transfers that
:attr:`~repro.parallel.executor.ExecutorSummary.max_recv_incl_transfers`
charges and the parallel lower bounds govern.

Replaying every candidate's shards would cost an ``execute_graph`` per
proposal; instead :class:`PartitionLedger` maintains an incremental model
of the objective (mirroring the ``IncrementalObjective`` design of
:mod:`repro.graph.objective`):

* ``recv_q`` is modeled by node ``q``'s *footprint* — the distinct
  elements its ops touch, i.e. the shard's compulsory misses, a lower
  bound on (and at these shard sizes the bulk of) its replay loads —
  maintained as per-element reference counts;
* ``transfer_in_q`` is maintained *exactly*: every data-carrying edge's
  flow elements are precomputed once
  (:meth:`~repro.graph.dependency.DependencyGraph.edge_flow`, the same
  rules as ``cut_transfers``), and per ``(src, dst, element)`` reference
  counts keep the deduplicated per-pair transfer volumes correct under
  arbitrary moves.

Moving one op updates both in time proportional to its footprint and
incident edges.  One move, :class:`OwnerMove` (a unit of ops and a
destination under the balance cap), serves both strategies and the joint
co-search: steepest-descent ``greedy`` ranks the units that can move work
off — or producers onto — the bottleneck node, and ``anneal`` draws them
at random in :class:`OwnerWalk`, a walk of the shared annealing engine
(:func:`repro.graph.search.run_chain`), which re-measures the walk's best
assignment on a freshly built ledger.  ``greedy+anneal`` chains them.

The model is a proxy, so the refiner never trusts it: the returned
assignment is re-measured with real per-shard replays
(:func:`partition_cost`) against the seed, and the seed is returned
whenever the search result does not genuinely improve the measured
objective — refinement can never hand back a worse partition than it was
given.  Legality is structural: every op keeps exactly one owner in
``0..p-1`` (an exact cover of the op set), and ``keep_writers_together``
restricts moves to whole write-groups so an owner-computes-style seed
keeps its every-element-written-by-one-node invariant — the same
write-groups (:func:`write_groups`) that the executor's owner-computes
partitioner deals whole.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from ..errors import ConfigurationError
from ..graph.dependency import DependencyGraph
from ..graph.search import run_chain
from ..obs.convergence import RoundSeries
from ..obs.probe import get_probe
from ..perf.pool import parallel_map, task_seed
from ..trace.replay import belady_replay_trace, lru_replay_trace
from ..utils.unionfind import DisjointSets
from .partition import balance_cap

#: Refinement strategies, in the order the CLI and benches report them.
REFINE_STRATEGIES = ("greedy", "anneal", "greedy+anneal")

#: Destinations the greedy pass tries per move (the cheapest nodes first);
#: the Metropolis strategy explores all of them.
_GREEDY_TARGETS = 4

#: Moves the greedy pass measures before falling back to the full scan —
#: candidates are ranked first (private footprint / incoming flow), so the
#: pool almost always contains the winning move and a pass stays far
#: cheaper than evaluating every (unit, target) pair.
_GREEDY_POOL = 48

#: Replay policies :func:`partition_cost` accepts.  ``"belady"`` equals the
#: executor's ``"rewrite"`` load volume by construction (furthest-next-use
#: eviction is MIN for a fixed order); ``"lru"`` is the hardware-style count.
EVAL_POLICIES = ("belady", "lru")


def partition_cost(
    graph: DependencyGraph,
    owner: Sequence[int],
    p: int,
    s: int,
    *,
    policy: str = "belady",
) -> int:
    """The measured ``max_q(recv_q + transfer_in_q)`` of an assignment.

    Each shard's sub-trace is sliced from the graph's compiled trace
    (shared interning, no recompilation) and replayed by the array engine
    for ``policy`` at capacity ``s``; incoming transfers come from
    :meth:`~repro.graph.dependency.DependencyGraph.cut_transfers`.  This
    is exactly what :func:`~repro.parallel.executor.execute_graph` reports
    as ``max_recv_incl_transfers`` (``"belady"`` here matches its
    ``"rewrite"`` and ``"belady"`` policies' loads).
    """
    if graph.trace is None:
        raise ConfigurationError(
            "partition_cost needs the graph's compiled trace; build the "
            "graph with DependencyGraph.from_trace/from_schedule"
        )
    if policy not in EVAL_POLICIES:
        raise ConfigurationError(
            f"unknown eval policy {policy!r}; choose from {', '.join(EVAL_POLICIES)}"
        )
    if len(owner) != len(graph):
        raise ConfigurationError(
            f"owner has {len(owner)} entries for {len(graph)} ops"
        )
    if len(graph) and not (0 <= min(owner) and max(owner) < p):
        raise ConfigurationError(f"owner indices must lie in 0..{p - 1}")
    transfer_in = [0] * p
    for (_src, dst), elems in graph.cut_transfers(list(owner)).items():
        transfer_in[dst] += len(elems)
    shard_ops: list[list[int]] = [[] for _ in range(p)]
    for v, q in enumerate(owner):
        shard_ops[q].append(v)
    replay = belady_replay_trace if policy == "belady" else lru_replay_trace
    worst = 0
    for q in range(p):
        recv = replay(graph.trace.select_ops(shard_ops[q]), s).loads if shard_ops[q] else 0
        worst = max(worst, recv + transfer_in[q])
    return worst


def write_groups(graph: DependencyGraph) -> list[list[int]]:
    """Maximal op groups linked by shared written elements.

    The owner-computes granularity: keeping each group on one node keeps
    every element written by exactly one node (no reduction class ever
    splits).  Singleton groups are included, so the list partitions the
    op set.
    """
    sets = DisjointSets(len(graph))
    writer_of: dict[int, int] = {}
    for v, node in enumerate(graph.nodes):
        for key in node.write_keys:
            u = writer_of.setdefault(key, v)
            if u != v:
                sets.union(v, u)
    return sorted(sets.groups().values(), key=lambda g: g[0])


def movable_units(
    graph: DependencyGraph, *, keep_writers_together: bool = False
) -> tuple[list[list[int]], list[list[int]]]:
    """The ownership-move granularity shared by the refiner and co-search.

    Returns ``(units, op_units)``: the movable op groups and, per op, the
    indices of the units containing it.  Write-groups when the exclusive-
    writer invariant must survive; otherwise single ops plus whole
    reduction classes (the group moves that relocate a ``+=`` chain
    without ever splitting it).  A shared read-only table of the graph.
    """

    def build():
        if keep_writers_together:
            units = write_groups(graph)
        else:
            units = [[v] for v in range(len(graph))]
            units.extend(graph.reduction_classes())
        op_units: list[list[int]] = [[] for _ in range(len(graph))]
        for ui, group in enumerate(units):
            for v in group:
                op_units[v].append(ui)
        return units, op_units

    return graph.table(("movable_units", keep_writers_together), build)


def _partition_tables(graph: DependencyGraph):
    """The static half of :class:`PartitionLedger`: per-op touched elements
    and weights, the data-carrying edges with their sorted flows, and each
    op's incident edge indices (which drive the per-move updates)."""
    touched = [tuple(node.touched_keys()) for node in graph.nodes]
    weights = [max(int(node.op.mults), 1) for node in graph.nodes]
    edges: list[tuple[int, int, tuple[int, ...]]] = []
    incident: list[list[int]] = [[] for _ in range(len(graph))]
    for u, v, flow in graph.data_edges():
        incident[u].append(len(edges))
        incident[v].append(len(edges))
        edges.append((u, v, tuple(sorted(flow))))
    return touched, weights, edges, incident


class PartitionLedger:
    """Incremental ``max_q(footprint_q + transfer_in_q)`` under op moves.

    The refiner's search state: per-node element reference counts model
    the receives, per-``(src, dst, element)`` reference counts keep the
    deduplicated transfer volumes exact, and per-node mults track the
    balance constraint.  :meth:`move` / :meth:`move_group` apply an
    assignment change in time proportional to the moved ops' footprints
    and incident data edges; moving back restores the state exactly, which
    is what makes candidate evaluation (apply, read :meth:`cost`, revert)
    cheap enough to run thousands of proposals.
    """

    def __init__(self, graph: DependencyGraph, owner: Sequence[int], p: int):
        if len(owner) != len(graph):
            raise ConfigurationError(
                f"owner has {len(owner)} entries for {len(graph)} ops"
            )
        if len(graph) and not (0 <= min(owner) and max(owner) < p):
            raise ConfigurationError(f"owner indices must lie in 0..{p - 1}")
        self.graph = graph
        self.p = p
        self.owner = [int(q) for q in owner]
        # The static tables are the graph's, shared read-only.
        self.touched, self.weights, self.edges, self.incident = graph.table(
            "partition_tables", lambda: _partition_tables(graph)
        )
        # Footprint state.
        self.elem_count: list[dict[int, int]] = [dict() for _ in range(p)]
        self.footprint = [0] * p
        self.loads = [0] * p
        for v, q in enumerate(self.owner):
            self.loads[q] += self.weights[v]
            counts = self.elem_count[q]
            for e in self.touched[v]:
                if counts.get(e, 0) == 0:
                    self.footprint[q] += 1
                counts[e] = counts.get(e, 0) + 1
        # Transfer state.
        self.pair_count: dict[tuple[int, int, int], int] = {}
        self.transfer_in = [0] * p
        self.transfer_out = [0] * p
        for idx in range(len(self.edges)):
            self._edge_charge(idx, +1)

    def _edge_charge(self, idx: int, sign: int) -> None:
        u, v, elems = self.edges[idx]
        src, dst = self.owner[u], self.owner[v]
        if src == dst:
            return
        pair_count = self.pair_count
        for e in elems:
            key = (src, dst, e)
            c = pair_count.get(key, 0) + sign
            if c:
                pair_count[key] = c
            else:
                del pair_count[key]
            if (sign > 0 and c == 1) or (sign < 0 and c == 0):
                self.transfer_in[dst] += sign
                self.transfer_out[src] += sign

    def move(self, v: int, q: int) -> None:
        """Reassign op ``v`` to node ``q`` (no-op when already there)."""
        old = self.owner[v]
        if old == q:
            return
        for idx in self.incident[v]:
            self._edge_charge(idx, -1)
        self.owner[v] = q
        for idx in self.incident[v]:
            self._edge_charge(idx, +1)
        w = self.weights[v]
        self.loads[old] -= w
        self.loads[q] += w
        out_counts, in_counts = self.elem_count[old], self.elem_count[q]
        for e in self.touched[v]:
            c = out_counts[e] - 1
            if c:
                out_counts[e] = c
            else:
                del out_counts[e]
                self.footprint[old] -= 1
            c = in_counts.get(e, 0)
            if c == 0:
                self.footprint[q] += 1
            in_counts[e] = c + 1

    def move_group(self, group: Sequence[int], q: int) -> list[tuple[int, int]]:
        """Move every op of ``group`` to ``q``; returns the undo list."""
        undo = [(v, self.owner[v]) for v in group]
        for v in group:
            self.move(v, q)
        return undo

    def undo(self, undo: list[tuple[int, int]]) -> None:
        """Revert a :meth:`move_group` (restore in reverse order)."""
        for v, q in reversed(undo):
            self.move(v, q)

    def node_cost(self, q: int) -> int:
        return self.footprint[q] + self.transfer_in[q]

    def cost(self) -> int:
        """The model objective: ``max_q(footprint_q + transfer_in_q)``."""
        return max(
            (f + t for f, t in zip(self.footprint, self.transfer_in)), default=0
        )

    def bottleneck(self) -> int:
        """The node attaining :meth:`cost` (lowest index on ties)."""
        return max(range(self.p), key=lambda q: (self.node_cost(q), -q))


class OwnerMove:
    """The one ownership move, shared by the refiner and co-search.

    Holds the movable units of :func:`movable_units` and the balance cap:
    ``balance_slack`` caps every node's mults at ``slack * total / p``
    (exact integer cap, :func:`~repro.parallel.partition.balance_cap`;
    relaxed to the ledger's own maximum when the assignment already
    exceeds it), and ``None`` disables it.  The greedy pass ranks these
    units itself; :meth:`draw` is the random move of the refiner's walk
    and of co-search.
    """

    def __init__(
        self,
        ledger: PartitionLedger,
        *,
        keep_writers_together: bool = False,
        balance_slack: float | None = 1.5,
    ):
        self.ledger = ledger
        self.units, self.op_units = movable_units(
            ledger.graph, keep_writers_together=keep_writers_together
        )
        self.group_units = [g for g in self.units if len(g) > 1]
        self.cap = None
        if balance_slack is not None:
            self.cap = max(
                balance_cap(sum(ledger.weights), ledger.p, balance_slack),
                max(ledger.loads, default=0),
            )

    def fits(self, q: int, weight: int) -> bool:
        """Whether node ``q`` can take ``weight`` more mults under the cap."""
        return self.cap is None or self.ledger.loads[q] + weight <= self.cap

    def draw(self, rng: random.Random) -> tuple[list[int], int] | None:
        """A random ``(unit, destination)`` that changes the assignment and
        respects the cap, or ``None``.

        Three in ten draws take a multi-op unit (a reduction class or a
        write-group), the rest the unit of a random op.
        """
        ledger = self.ledger
        n = len(ledger.owner)
        if ledger.p < 2 or not n:
            return None
        if self.group_units and rng.random() < 0.3:
            group = self.group_units[rng.randrange(len(self.group_units))]
        else:
            group = self.units[self.op_units[rng.randrange(n)][0]]
        q = rng.randrange(ledger.p)
        if all(ledger.owner[v] == q for v in group):
            return None
        weight = sum(ledger.weights[v] for v in group if ledger.owner[v] != q)
        if not self.fits(q, weight):
            return None
        return group, q


class OwnerWalk:
    """Refinement's walk for :func:`~repro.graph.search.run_chain`.

    One :class:`OwnerMove` per step, scored on the
    :class:`PartitionLedger` (apply, read the cost, revert); the best
    assignment is re-measured on a freshly built ledger.
    """

    def __init__(self, move: OwnerMove):
        self.move = move
        self.ledger = move.ledger

    def cost(self) -> int:
        return self.ledger.cost()

    def step(self, rng: random.Random):
        drawn = self.move.draw(rng)
        if drawn is None:
            return None
        group, q = drawn
        ledger = self.ledger
        undo = ledger.move_group(group, q)
        cost = ledger.cost()
        ledger.undo(undo)

        def commit() -> None:
            ledger.move_group(group, q)

        return cost, commit

    def snapshot(self) -> list[int]:
        return list(self.ledger.owner)

    def measure(self, owner: list[int]) -> int:
        """``owner``'s model cost, counted from scratch.

        The count reads only the ledger's static tables (each op's touched
        elements and the data edges' flows), never its reference counts,
        so it checks the incremental state rather than repeating it.
        """
        ledger = self.ledger
        footprint: list[set[int]] = [set() for _ in range(ledger.p)]
        for v, q in enumerate(owner):
            footprint[q].update(ledger.touched[v])
        transfers: set[tuple[int, int, int]] = set()
        for u, v, elems in ledger.edges:
            src, dst = owner[u], owner[v]
            if src != dst:
                transfers.update((src, dst, e) for e in elems)
        transfer_in = [0] * ledger.p
        for _src, dst, _e in transfers:
            transfer_in[dst] += 1
        return max(len(f) + t for f, t in zip(footprint, transfer_in))

    def counters(self) -> dict:
        return {}


@dataclass
class RefineResult:
    """One refinement run: the chosen assignment plus its accounting."""

    graph: DependencyGraph
    p: int
    s: int
    strategy: str
    seed_owner: tuple[int, ...]
    owner: tuple[int, ...]
    #: measured ``max(recv + transfer_in)`` of the seed / returned owner
    #: (:func:`partition_cost` under ``eval_policy``).
    seed_cost: int = 0
    cost: int = 0
    #: the incremental model's objective for the same two assignments.
    model_seed: int = 0
    model_cost: int = 0
    moves: int = 0
    evaluations: int = 0
    #: True when the search's best model assignment lost to the seed on
    #: the measured objective and the seed was returned instead.
    reverted: bool = False
    params: dict = field(default_factory=dict)
    #: convergence traces keyed by engine: ``"greedy"`` maps to a
    #: :class:`~repro.obs.convergence.RoundSeries` (one row per accepted
    #: move), ``"anneal"`` to an
    #: :class:`~repro.obs.convergence.AnnealSeries` (one row per Metropolis
    #: iteration).  Populated when ``record_convergence=True`` or a
    #: recording probe is active; empty otherwise.
    convergence: dict = field(default_factory=dict)

    @property
    def improved(self) -> bool:
        return self.cost < self.seed_cost


def _greedy_pass(move: OwnerMove) -> tuple[int, list[tuple[int, int]]] | None:
    """The best strictly-improving move off (or onto) the bottleneck node.

    Candidate units are the movable units with an op on the bottleneck
    node, plus units producing transfers into it (pulling a producer onto
    the bottleneck removes cross flow without shrinking its work).  Every
    candidate is applied, measured, and reverted; returns the evaluation
    count plus the applied best move's undo list, or ``None`` at a local
    optimum.
    """
    ledger, units, op_units = move.ledger, move.units, move.op_units
    b = ledger.bottleneck()
    current = ledger.cost()
    # Rank the candidates by how much of the bottleneck's cost they could
    # carry away: for units on b, the elements only they pin there
    # (private footprint); for peer units, the flow they push into b
    # (pulling the producer onto b deletes that transfer).
    counts_b = ledger.elem_count[b]
    scores: dict[int, int] = {}
    for v, q in enumerate(ledger.owner):
        if q != b:
            continue
        private = sum(1 for e in ledger.touched[v] if counts_b[e] == 1)
        for ui in op_units[v]:
            scores[ui] = scores.get(ui, 0) + private
        for idx in ledger.incident[v]:
            u, w, elems = ledger.edges[idx]
            # Only producers feeding v matter: pulling one onto b deletes
            # transfer_in; pulling a *consumer* of v onto b only grows b's
            # footprint, so it never improves the objective.
            if w == v and ledger.owner[u] != b:
                for ui in op_units[u]:
                    scores[ui] = scores.get(ui, 0) + len(elems)
    ranked = sorted(scores, key=lambda ui: (-scores[ui], ui))
    # Off-bottleneck moves only help when the destination stays below the
    # bottleneck, so trying more than the few cheapest destinations buys
    # nothing: prune to the _GREEDY_TARGETS lowest-cost nodes.
    away = sorted(
        (q for q in range(ledger.p) if q != b),
        key=lambda q: (ledger.node_cost(q), ledger.loads[q], q),
    )[:_GREEDY_TARGETS]
    best: tuple[int, int, int, int] | None = None  # cost, weight, unit, target
    evaluations = 0
    for pool in (ranked[:_GREEDY_POOL], ranked[_GREEDY_POOL:]):
        for ui in pool:
            group = units[ui]
            on_b = any(ledger.owner[v] == b for v in group)
            targets = away if on_b else (b,)
            for q in targets:
                movers = [v for v in group if ledger.owner[v] != q]
                if not movers:
                    continue
                weight = sum(ledger.weights[v] for v in movers)
                if not move.fits(q, weight):
                    continue
                undo = ledger.move_group(group, q)
                c = ledger.cost()
                evaluations += 1
                ledger.undo(undo)
                if c < current and (best is None or (c, weight) < best[:2]):
                    best = (c, weight, ui, q)
        if best is not None:
            break  # steepest within the ranked pool; full scan only to
            # certify a local optimum
    if best is None:
        return None
    _cost, _w, ui, q = best
    return evaluations, ledger.move_group(units[ui], q)


def refine_partition(
    graph: DependencyGraph,
    owner: Sequence[int],
    p: int,
    s: int,
    *,
    strategy: str = "greedy",
    iters: int = 600,
    seed: int = 0,
    max_moves: int = 256,
    balance_slack: float | None = 1.5,
    keep_writers_together: bool = False,
    eval_policy: str = "belady",
    record_convergence: bool = False,
) -> RefineResult:
    """Locally search the assignment space around a seed ``owner[]``.

    ``strategy`` is one of :data:`REFINE_STRATEGIES`.  ``balance_slack``
    caps every node's mults at ``slack * total / p`` (exact integer cap,
    :func:`~repro.parallel.partition.balance_cap`; relaxed to the seed's
    own maximum when the seed already exceeds it); ``None`` disables the
    constraint.  ``keep_writers_together`` restricts moves to whole
    write-groups, preserving an owner-computes seed's exclusive-writer
    invariant.  The returned assignment is guaranteed — by a final
    measured comparison under ``eval_policy`` — to never exceed the seed's
    ``max(recv + transfer_in)``.  ``record_convergence`` fills
    :attr:`RefineResult.convergence` with the per-engine model-cost
    trajectories (implied whenever a recording probe is active); recording
    touches no RNG, so a recorded run returns bit-identical assignments.
    """
    if strategy not in REFINE_STRATEGIES:
        raise ConfigurationError(
            f"unknown refine strategy {strategy!r}; "
            f"choose from {', '.join(REFINE_STRATEGIES)}"
        )
    if p < 1:
        raise ConfigurationError(f"p must be >= 1, got {p}")
    if s < 1:
        raise ConfigurationError(f"S must be >= 1, got {s}")
    if iters < 0:
        raise ConfigurationError(f"iters must be >= 0, got {iters}")
    if max_moves < 0:
        raise ConfigurationError(f"max_moves must be >= 0, got {max_moves}")

    ledger = PartitionLedger(graph, owner, p)
    seed_owner = tuple(ledger.owner)
    model_seed = ledger.cost()
    params: dict = {
        "strategy": strategy, "iters": iters, "seed": seed,
        "max_moves": max_moves, "balance_slack": balance_slack,
        "keep_writers_together": keep_writers_together,
    }

    move = OwnerMove(
        ledger, keep_writers_together=keep_writers_together,
        balance_slack=balance_slack,
    )
    best_owner = list(seed_owner)
    best_model = model_seed
    moves = 0
    evaluations = 0
    probe = get_probe()
    record = record_convergence or probe.enabled
    convergence: dict = {}

    if strategy in ("greedy", "greedy+anneal"):
        greedy_series = None
        if record:
            greedy_series = RoundSeries(label="refine.greedy", engine="greedy")
            greedy_series.add(0, best_model)  # round 0: the seed's model cost
            convergence["greedy"] = greedy_series
        while moves < max_moves:
            step = _greedy_pass(move)
            if step is None:
                break
            n_evals, _undo = step
            evaluations += n_evals
            moves += 1
            # every greedy move strictly lowers the model cost
            best_owner, best_model = list(ledger.owner), ledger.cost()
            if greedy_series is not None:
                greedy_series.add(moves, best_model)

    if strategy in ("anneal", "greedy+anneal") and len(graph) and p > 1:
        # The walk starts where greedy stopped, which is its best state.
        chain = run_chain(
            OwnerWalk(move), iters=iters, seed=seed,
            label="refine.anneal" if record else None,
        )
        best_owner, best_model = chain.best, chain.cost
        moves += chain.stats.accepted
        evaluations += chain.stats.evaluations
        params.update(chain.params, skipped=chain.stats.skipped)
        if record:
            convergence["anneal"] = chain.series

    # The model ranked the candidates; the measured objective decides.
    # Re-measuring seed and winner costs two shard replays total — never
    # one per proposal — and makes "never worse than the seed" a hard
    # postcondition rather than a hope.
    seed_cost = partition_cost(graph, seed_owner, p, s, policy=eval_policy)
    refined_cost = (
        partition_cost(graph, best_owner, p, s, policy=eval_policy)
        if tuple(best_owner) != seed_owner
        else seed_cost
    )
    reverted = refined_cost > seed_cost
    if reverted:
        best_owner, refined_cost, best_model = list(seed_owner), seed_cost, model_seed
    if probe.enabled:
        probe.count("refine.runs")
        probe.count("refine.moves", moves)
        probe.count("refine.evaluations", evaluations)
        if reverted:
            probe.count("refine.reverted")
        for engine, series in convergence.items():
            probe.attach(f"convergence.refine.{engine}", series)
    return RefineResult(
        graph=graph,
        p=p,
        s=s,
        strategy=strategy,
        seed_owner=seed_owner,
        owner=tuple(best_owner),
        seed_cost=seed_cost,
        cost=refined_cost,
        model_seed=model_seed,
        model_cost=best_model,
        moves=moves,
        evaluations=evaluations,
        reverted=reverted,
        params=params,
        convergence=convergence,
    )


def _refine_task(task) -> RefineResult:
    """Module-level (picklable) worker: refine one seed assignment.

    The result ships back without its graph reference — the parent holds
    the one shared graph and reattaches it, so workers never pickle the
    whole DAG into their return value.
    """
    graph, owner, p, s, kwargs = task
    result = refine_partition(graph, owner, p, s, **kwargs)
    result.graph = None
    return result


def refine_partitions(
    graph: DependencyGraph,
    owners: "Sequence[Sequence[int]]",
    p: int,
    s: int,
    *,
    jobs: int = 1,
    seed: int = 0,
    record_convergence: bool = False,
    **kwargs,
) -> list[RefineResult]:
    """Refine many seed assignments concurrently; results in seed order.

    The multi-seed fan-out behind ``--jobs``: every seed partition in
    ``owners`` (e.g. one per partitioner) goes through
    :func:`refine_partition` with its own disjoint RNG stream —
    ``task_seed(seed, i)`` for seed index ``i``, so index 0 reproduces
    ``refine_partition(..., seed=seed)`` bit for bit and the whole result
    list is independent of ``jobs`` (the serial reduction order is simply
    seed-list order).  Each refinement keeps its own never-worse
    postcondition; remaining keyword arguments pass through unchanged.

    Worker probes are process-local, so under ``jobs > 1`` the parent
    re-emits the aggregate ``refine.{runs,moves,evaluations,reverted}``
    counters after the merge (convergence series still travel back on the
    results themselves).
    """
    tasks = []
    probe = get_probe()
    for i, owner in enumerate(owners):
        task_kwargs = dict(
            kwargs,
            seed=task_seed(seed, i),
            record_convergence=record_convergence or probe.enabled,
        )
        tasks.append((graph, list(owner), p, s, task_kwargs))
    if not tasks:
        return []
    jobs = min(int(jobs), len(tasks))
    if jobs <= 1:
        # In-process: refine_partition emits its own probe counters and
        # attachments; no graph stripping needed.
        return [refine_partition(g, o, pp, ss, **kw) for g, o, pp, ss, kw in tasks]
    results = parallel_map(_refine_task, tasks, jobs=jobs)
    for result in results:
        result.graph = graph
    if probe.enabled:
        probe.count("refine.runs", len(results))
        probe.count("refine.moves", sum(r.moves for r in results))
        probe.count("refine.evaluations", sum(r.evaluations for r in results))
        reverted = sum(1 for r in results if r.reverted)
        if reverted:
            probe.count("refine.reverted", reverted)
        for i, result in enumerate(results):
            for engine, series in result.convergence.items():
                probe.attach(f"convergence.refine.{engine}", series)
    return results
