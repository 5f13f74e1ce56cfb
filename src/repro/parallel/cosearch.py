"""Joint (order × ownership) co-search: one scheduler state, one objective.

The two siloed engines each optimize one coordinate of a parallel
schedule while holding the other fixed: the order search
(:mod:`repro.graph.search`) moves op order against a sequential LRU
objective, the partition refiner (:mod:`repro.parallel.refine`) moves op
ownership against ``max(recv + transfer_in)``, and the makespan model
only scores the result after the fact.  But a schedule is an
``(order, owner)`` *pair*, and the coordinates interact: which node owns
an op decides whose cache its footprint pollutes, and where an op sits in
the order decides which transfers serialize on the critical path.
Kwasniewski et al. (arXiv 2010.05975) get near-optimal parallel I/O
precisely by choosing placement and schedule together; this module is
that experiment for our DAGs.

:class:`CoSearchState` threads one state object through *both* move
kinds — the reduction-class segment move of the order annealer
(:class:`repro.graph.search.OrderMove`) and the single-op /
reduction-class ownership move of the refiner
(:class:`repro.parallel.refine.OwnerMove` over a
:class:`~repro.parallel.refine.PartitionLedger`) — under one unified
latency objective

    ``J(order, owner) = makespan(order, owner; alpha, beta)
                        + beta * max_q(lru_loads_q + transfer_in_q)``

makespan in op-weight units (mults) with cross-edge latencies
``alpha + beta * flow``, plus the bottleneck node's I/O time: its LRU
replay loads of the order-induced shard sub-sequence at capacity ``S``
and its incoming transfer volume, both converted to time by ``beta``.
Every term depends only on the owner map and each node's *program* (the
ops it owns, in order), so a proposal pays only for what it changes.
The makespan re-times through
:class:`~repro.parallel.makespan.MakespanLedger` checkpoints and stops
once every later finish is provably the committed one; the loads come
from the per-node :class:`~repro.trace.replay.LruLedger` the order search
also uses, which keeps each op's committed load and no cache state: it
replays only the nodes whose program changed, each from the recency list
read off its last ``S`` distinct elements before the move, and stops each
once its accesses after the move cover ``S`` distinct elements, where its
cache equals the committed replay's; the transfers come from the refiner's
exact ledger, which prices an owner move off its reference counts and
applies it only when the walk commits it.  An order move that changes no
program (:func:`changed_programs`) costs nothing beyond its window check.
An owner move hands the annealer a lower bound first — the exact
makespan and transfers with the moved nodes' footprints standing in for
their loads — and replays LRU only when that bound cannot already reject
it (:func:`repro.graph.search.run_chain`'s bound-first rule keeps the
walk bit-identical).  Order moves check legality only inside the moved
window (:meth:`~repro.graph.dependency.DependencyGraph.is_valid_window`),
and every per-graph table is built once and shared by the portfolio's
states and measures (:meth:`~repro.graph.dependency.DependencyGraph.table`).

The state is one of the three walks of the shared annealing engine:
:func:`cosearch` runs one chain per seed of a portfolio of
{all partitioners} × {recorded, locality and annealed orders} through
:func:`repro.graph.search.run_chains`, which fans the chains over the
process pool (:mod:`repro.perf.pool` — chain 0 is the classic serial run
and the merged result is bit-identical at any ``jobs``), and each chain
re-measures its best pair with real per-shard replays
(:func:`cosearch_cost`).  The model only *ranks*: the best seed, checked
by one cold measure, is returned whenever the search did not genuinely
improve on it — co-search can never hand back a worse schedule than the
best thing it was seeded with.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError, ScheduleError
from ..graph.compare import searched_orders
from ..graph.dependency import DependencyGraph
from ..graph.scheduler import list_schedule
from ..graph.search import OrderMove, run_chains
from ..obs.convergence import AnnealSeries
from ..obs.probe import get_probe
from ..trace.compiled import CompiledTrace
from ..trace.replay import LruLedger, _reuse_distances
from .executor import PARTITIONERS, partition_graph
from .makespan import MakespanLedger, makespan_model
from .refine import BALANCE_SLACK, OwnerMove, PartitionLedger


@dataclass(frozen=True)
class CoSearchCost:
    """The measured unified objective of one ``(order, owner)`` pair."""

    p: int
    s: int
    alpha: float
    beta: float
    #: latency-model makespan of the pair (mults + cross-edge latencies).
    makespan: float
    #: per-node LRU replay loads of the order-induced shard sub-sequences.
    loads: tuple[int, ...]
    #: per-node incoming transfer volumes (``cut_transfers``, deduplicated).
    transfer_in: tuple[int, ...]

    @property
    def bottleneck_io(self) -> int:
        """``max_q(loads_q + transfer_in_q)`` — the I/O bottleneck."""
        return max(
            (l + t for l, t in zip(self.loads, self.transfer_in)), default=0
        )

    @property
    def cost(self) -> float:
        """``makespan + beta * bottleneck_io`` — the co-search objective."""
        return self.makespan + self.beta * self.bottleneck_io


def cosearch_cost(
    graph: DependencyGraph,
    owner: Sequence[int],
    p: int,
    s: int,
    *,
    order: Sequence[int] | None = None,
    alpha: float = 1.0,
    beta: float = 1.0,
    relax_reductions: bool = False,
) -> CoSearchCost:
    """Measure the unified objective of a pair with real per-shard replays.

    The ground truth the incremental ledgers are checked against: the
    makespan comes from a cold :func:`~repro.parallel.makespan.makespan_model`
    pass, each node's loads from an LRU replay of its order-induced
    sub-trace (all nodes in one reuse-distance pass, :func:`_node_loads`),
    and the transfers from
    :meth:`~repro.graph.dependency.DependencyGraph.cut_transfers`.
    """
    if graph.trace is None:
        raise ConfigurationError(
            "cosearch_cost needs the graph's compiled trace; build the "
            "graph with DependencyGraph.from_trace/from_schedule"
        )
    n = len(graph)
    if len(owner) != n:
        raise ConfigurationError(f"owner has {len(owner)} entries for {n} ops")
    if n and not (0 <= min(owner) and max(owner) < p):
        raise ConfigurationError(f"owner indices must lie in 0..{p - 1}")
    span = makespan_model(
        graph, owner, p=p, order=order, alpha=alpha, beta=beta,
        relax_reductions=relax_reductions,
    )
    transfer_in = [0] * p
    for (_src, dst), elems in graph.cut_transfers(list(owner)).items():
        transfer_in[dst] += len(elems)
    return CoSearchCost(
        p=p, s=s, alpha=float(alpha), beta=float(beta),
        makespan=span.makespan,
        loads=_node_loads(graph.trace, owner, p, s, order),
        transfer_in=tuple(transfer_in),
    )


def _node_loads(
    trace: CompiledTrace,
    owner: Sequence[int],
    p: int,
    s: int,
    order: Sequence[int] | None,
) -> tuple[int, ...]:
    """Per-node LRU loads at capacity ``s`` of each node's program.

    The programs (each node's ops, in ``order``) are laid end to end, and
    node ``q``'s copy of element ``e`` becomes element
    ``e + q * n_elements``.  No access then reaches back into another
    node's program, so its reuse distance is the one its own node's replay
    would see: one reuse-distance pass serves every node, and a node's
    loads are its accesses that miss.
    """
    node_of = np.asarray(owner, dtype=np.int64)
    seq = np.arange(trace.n_ops) if order is None else np.asarray(order, dtype=np.int64)
    programs = seq[np.argsort(node_of[seq], kind="stable")]
    laid = trace.select_ops(programs.tolist())
    node = np.repeat(node_of[programs], np.diff(laid.op_starts))
    laid = replace(
        laid,
        elem_ids=laid.elem_ids + node * trace.n_elements,
        key_matrix=np.tile(trace.key_matrix, p),
        key_flat=np.tile(trace.key_flat, p),
    )
    dist = _reuse_distances(laid)
    miss = (dist < 0) | (dist >= s)
    return tuple(int(c) for c in np.bincount(node[miss], minlength=p))


def changed_programs(
    old: "Sequence[int]", new: "Sequence[int]", owner: "Sequence[int]"
) -> set[int]:
    """The nodes whose program an order move changes.

    ``old`` and ``new`` are one window before and after the move (the
    same ops, re-permuted); a node's program changes exactly when its ops
    in the window appear in a different relative order.
    """
    before: dict[int, list[int]] = {}
    after: dict[int, list[int]] = {}
    for v in old:
        before.setdefault(owner[v], []).append(v)
    for v in new:
        after.setdefault(owner[v], []).append(v)
    return {q for q, ops in before.items() if after[q] != ops}


class CoSearchState:
    """One scheduler state threaded through both move kinds.

    Holds the committed ``(order, owner)`` pair and three incremental
    models of the unified objective — the
    :class:`~repro.parallel.makespan.MakespanLedger` (latency), an
    :class:`~repro.trace.replay.LruLedger` over the pair (per-node loads),
    and the refiner's :class:`~repro.parallel.refine.PartitionLedger`
    (exact transfers, plus each node's footprint).  The LRU ledger keeps
    per-op loads and holds the partition ledger's owner list by reference,
    which :meth:`~repro.parallel.refine.PartitionLedger.move_group` edits
    only between a score and that score's commit.  Half the proposals are
    the order walk's :class:`~repro.graph.search.OrderMove`, the other half
    the refiner's :class:`~repro.parallel.refine.OwnerMove` (which holds
    the balance cap).  The state is a walk of the annealing engine
    (:func:`repro.graph.search.run_chain`).

    Every term of ``J`` depends only on the owner map and each node's
    program (the ops it owns, in order), so a proposal pays only for what
    it changes:

    * an order move that changes no node's program has the committed
      cost exactly; it skips both replays, and its commit only rebuilds
      the makespan checkpoints inside the window and hands the new order
      to the LRU ledger, whose per-op loads stand;
    * any other order move replays LRU only on the nodes whose program
      changed (:func:`changed_programs`);
    * an owner move re-times the makespan on the candidate owner list and
      offers the annealer a lower bound before any LRU replay: the exact
      makespan plus ``beta`` times the bottleneck of transfers plus loads,
      taking the moved nodes' footprints (a cold replay misses each
      distinct element at least once) in place of their loads.  The
      transfers and footprints are priced off the partition ledger
      (:meth:`~repro.parallel.refine.PartitionLedger.price`), which only
      a commit changes.  Only a proposal the bound cannot reject replays
      its source and destination nodes.

    Invariants (the property suite pins them): the owner map is an exact
    cover of the op set at every step, the order stays a legal order of
    the graph under ``relax_reductions``, and :meth:`cost` always equals
    the measured :func:`cosearch_cost` of the committed pair bit for bit.
    """

    def __init__(
        self,
        graph: DependencyGraph,
        owner: Sequence[int],
        p: int,
        s: int,
        *,
        order: Sequence[int] | None = None,
        alpha: float = 1.0,
        beta: float = 1.0,
        relax_reductions: bool = True,
    ):
        if graph.trace is None:
            raise ConfigurationError(
                "co-search needs the graph's compiled trace; build the "
                "graph with DependencyGraph.from_trace/from_schedule"
            )
        if p < 1:
            raise ConfigurationError(f"p must be >= 1, got {p}")
        if s < 1:
            raise ConfigurationError(f"S must be >= 1, got {s}")
        self.graph = graph
        self.p = p
        self.s = s
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.relax_reductions = relax_reductions
        self.ledger = PartitionLedger(graph, owner, p)
        # The makespan ledger validates the order once; every order move
        # is then checked on its window before it is costed.  It holds the
        # committed order and each op's position in it.
        self.span = MakespanLedger(
            graph, self.ledger.owner, p=p, order=order, alpha=alpha,
            beta=beta, relax_reductions=relax_reductions,
        )
        self.order_move = OrderMove(graph, relax_reductions)
        self.owner_move = OwnerMove(self.ledger)
        self.order_moves = 0
        self.owner_moves = 0
        #: owner proposals the annealer rejected on their bound.
        self.bound_rejects = 0
        self.lru = LruLedger(graph.trace, s, self.order, self.ledger.owner, p=p)
        self._cost = self._combine(
            self.span.makespan, self.lru.loads, self.ledger.transfer_in
        )

    # -- objective ------------------------------------------------------- #

    def _combine(
        self, makespan: float, loads: Sequence[int], transfer_in: Sequence[int]
    ) -> float:
        worst = 0
        for q in range(self.p):
            t = loads[q] + transfer_in[q]
            if t > worst:
                worst = t
        return makespan + self.beta * worst

    def cost(self) -> float:
        """The committed pair's unified objective ``J``."""
        return self._cost

    @property
    def order(self) -> list[int]:
        """The committed order."""
        return self.span.order

    @property
    def loads(self) -> list[int]:
        """Per-node LRU loads of the committed pair."""
        return list(self.lru.loads)

    # -- move kinds ------------------------------------------------------ #

    def propose_order(self, rng: random.Random):
        """One segment move of the order; ``(candidate_cost, commit)`` or None."""
        drawn = self.order_move.draw(self.order, rng)
        if drawn is None:
            return None
        i, j, candidate = drawn
        owner = self.ledger.owner
        nodes = changed_programs(self.order[i:j], candidate[i:j], owner)
        if nodes:
            cand_ms = self.span.score(order=candidate, from_pos=i, settled=j)
            cand_loads = self.lru.score(
                candidate, owner, from_pos=i, settled=j, nodes=nodes
            )
            cand_cost = self._combine(cand_ms, cand_loads, self.ledger.transfer_in)
        else:
            cand_cost = self._cost

        def commit() -> None:
            if nodes:
                self.span.commit()
            else:
                self.span.reorder(candidate, i, j)
                self.lru.score(candidate, owner, from_pos=i, settled=j, nodes=())
            self.lru.commit()
            self._cost = cand_cost
            self.order_moves += 1

        return cand_cost, commit

    def propose_owner(self, rng: random.Random):
        """One unit ownership move: ``(bound, commit, exact)`` or None."""
        drawn = self.owner_move.draw(rng)
        if drawn is None:
            return None
        group, q = drawn
        ledger = self.ledger
        positions = [self.span.pos[v] for v in group]
        i0, i1 = min(positions), max(positions) + 1
        nodes = {ledger.owner[v] for v in group}
        nodes.add(q)
        # Priced, not applied: only a commit moves the group on the ledger.
        owner = list(ledger.owner)
        for v in group:
            owner[v] = q
        cand_ms = self.span.score(owner=owner, from_pos=i0, settled=i1)
        transfer_in, footprint = ledger.price(group, q)
        floor = [
            footprint[r] if r in nodes else loads
            for r, loads in enumerate(self.lru.loads)
        ]
        bound = self._combine(cand_ms, floor, transfer_in)
        cand_cost = None

        def exact() -> float:
            nonlocal cand_cost
            if cand_cost is None:
                cand_loads = self.lru.score(
                    self.order, owner, from_pos=i0, settled=i1, nodes=nodes
                )
                cand_cost = self._combine(cand_ms, cand_loads, transfer_in)
                self.bound_rejects -= 1
            return cand_cost

        def commit() -> None:
            exact()
            ledger.move_group(group, q)
            self.span.commit()
            self.lru.commit()
            self._cost = cand_cost
            self.owner_moves += 1

        # counted as a bound reject until the annealer asks for the exact cost
        self.bound_rejects += 1
        return bound, commit, exact

    # -- the walk protocol ----------------------------------------------- #

    def step(self, rng: random.Random):
        """One mixed proposal: an order move or an owner move, evenly."""
        if rng.random() < 0.5:
            return self.propose_order(rng)
        return self.propose_owner(rng)

    def snapshot(self) -> tuple[list[int], list[int]]:
        return list(self.order), list(self.ledger.owner)

    def measure(self, pair: tuple[list[int], list[int]]) -> CoSearchCost:
        """The pair's full accounting from real per-shard replays."""
        order, owner = pair
        return cosearch_cost(
            self.graph, owner, self.p, self.s, order=order, alpha=self.alpha,
            beta=self.beta, relax_reductions=self.relax_reductions,
        )

    def counters(self) -> dict:
        return {
            "illegal": self.order_move.illegal,
            "order_moves": self.order_moves,
            "owner_moves": self.owner_moves,
            "lru_ops": self.lru.work,
            "span_ops": self.span.work,
            "bound_rejects": self.bound_rejects,
        }


@dataclass
class CoSearchResult:
    """One co-search run: the chosen pair plus its accounting."""

    graph: DependencyGraph
    p: int
    s: int
    order: list[int]
    owner: tuple[int, ...]
    #: measured unified objective of the returned pair / of the best seed.
    cost: float = 0.0
    seed_cost: float = 0.0
    #: the full measured accounting of the returned pair.
    measured: CoSearchCost | None = None
    #: portfolio label of the winning chain's seed.
    seed_label: str = ""
    #: objective per portfolio seed, keyed by label: its chain's starting
    #: ledger cost, which equals its measured objective bit for bit.
    seed_costs: dict = field(default_factory=dict)
    winner_chain: int = 0
    chain_costs: list = field(default_factory=list)
    evaluations: int = 0
    #: True when every chain lost to the best measured seed and that seed
    #: was returned instead — the hard never-worse postcondition firing.
    reverted: bool = False
    params: dict = field(default_factory=dict)
    #: the winning chain's ``AnnealSeries`` when the run was recorded.
    convergence: "AnnealSeries | None" = None

    @property
    def improved(self) -> bool:
        return self.cost < self.seed_cost

    @property
    def makespan(self) -> float:
        return self.measured.makespan if self.measured is not None else 0.0


def _state(graph, p, s, alpha, beta, relax_reductions, start):
    """Module-level (picklable) walk builder: one state per portfolio seed."""
    order, owner = start
    return CoSearchState(
        graph, owner, p, s, order=order, alpha=alpha, beta=beta,
        relax_reductions=relax_reductions,
    )


def cosearch_portfolio(
    graph: DependencyGraph,
    p: int,
    s: int,
    *,
    relax_reductions: bool = True,
    search_kwargs: dict | None = None,
) -> list[tuple[str, list[int], list[int]]]:
    """The seed portfolio: {all partitioners} × {orders}, labeled.

    Orders are the recorded order, the ``"locality"`` list schedule and
    the annealed order (:func:`repro.graph.compare.searched_orders` at
    capacity ``s``); owners come from every one-shot partitioner.  Each
    ``(label, order, owner)`` triple seeds one co-search chain — and
    because searched orders and refined-style owners are *in* the
    portfolio, the joint walk starts no worse than the best decoupled
    pipeline it is compared against.
    """
    orders: list[tuple[str, list[int]]] = [
        ("recorded", list(range(len(graph)))),
        (
            "locality",
            list_schedule(graph, "locality", relax_reductions=relax_reductions).order,
        ),
    ]
    for label, found in searched_orders(
        graph, s, ("anneal",),
        relax_reductions=relax_reductions, search_kwargs=search_kwargs,
    ).items():
        orders.append((label, found.order))
    seeds = []
    for partitioner in PARTITIONERS:
        owner = partition_graph(graph, p, partitioner)
        for olabel, order in orders:
            seeds.append((f"{partitioner}|{olabel}", list(order), list(owner)))
    return seeds


def cosearch(
    graph: DependencyGraph,
    p: int,
    s: int,
    *,
    iters: int = 600,
    seed: int = 0,
    jobs: int = 1,
    alpha: float = 1.0,
    beta: float = 1.0,
    relax_reductions: bool = True,
    seeds: "list[tuple[str, list[int], list[int]]] | None" = None,
    search_kwargs: dict | None = None,
) -> CoSearchResult:
    """Jointly search orders and ownerships from a labeled seed portfolio.

    One Metropolis chain per seed (``seeds`` defaults to
    :func:`cosearch_portfolio`), run by the shared chain portfolio
    (:func:`repro.graph.search.run_chains`): chain ``k`` draws its own RNG
    stream (chain 0 is exactly the caller's ``seed``) and scales the
    starting temperature by the deterministic chain ladder.  ``jobs > 1``
    fans chains over worker processes; the merged result is bit-identical
    for any ``jobs`` (order-preserving map, min by ``(measured cost, chain
    index)``).

    Hard postcondition: the returned pair is measured with real per-shard
    replays (:func:`cosearch_cost`), and the best seed is returned —
    ``reverted=True`` — whenever no chain beat it.  The returned pair is
    therefore never worse than the best decoupled baseline present in the
    portfolio (e.g. a searched order with a refined owner, when the caller
    seeds one in).  Each pair is measured once: the seed costs are the
    chains' starting ledger costs (equal to :func:`cosearch_cost` bit for
    bit), the winner's accounting is its chain's closing measure, and the
    best seed gets one cold measure — none when its chain never left it,
    since that chain's closing measure already was that pair — which must
    equal its ledger cost or :class:`~repro.errors.ScheduleError` is
    raised.  A run makes at most one measure more than it has chains,
    counted as ``cosearch.measures``.

    ``relax_reductions`` defaults to True: the order dimension only opens
    up when commuting ``+=`` chains may re-interleave; results are then
    equal up to floating-point reassociation (the rewriter's validated
    explicit streams still enforce peak occupancy separately).
    """
    if iters < 0:
        raise ConfigurationError(f"iters must be >= 0, got {iters}")
    if graph.trace is None:
        raise ConfigurationError(
            "co-search needs the graph's compiled trace; build the "
            "graph with DependencyGraph.from_trace/from_schedule"
        )
    if seeds is None:
        seeds = cosearch_portfolio(
            graph, p, s, relax_reductions=relax_reductions,
            search_kwargs=search_kwargs,
        )
    if not seeds:
        raise ConfigurationError("co-search needs at least one portfolio seed")
    probe = get_probe()
    runs, winner = run_chains(
        partial(_state, graph, p, s, alpha, beta, relax_reductions),
        [(order, owner) for _label, order, owner in seeds],
        [f"cosearch {label}" for label, _order, _owner in seeds],
        iters=iters, seed=seed, jobs=jobs, record=probe.enabled,
    )
    # The seeds' costs are their chains' starting ledger costs; the best
    # one is the floor of the never-worse postcondition, so it rests on a
    # cold measure: its chain's closing one if the chain never left it.
    seed_costs = [run.start_cost for run in runs]
    best_seed = min(range(len(seeds)), key=lambda k: (seed_costs[k], k))
    measures = len(runs)
    seed_run = runs[best_seed]
    if seed_run.cost == seed_run.start_cost:
        seed_measured = seed_run.measured
    else:
        _label, order, owner = seeds[best_seed]
        seed_measured = cosearch_cost(
            graph, owner, p, s, order=order, alpha=alpha, beta=beta,
            relax_reductions=relax_reductions,
        )
        measures += 1
    if seed_measured.cost != seed_costs[best_seed]:
        raise ScheduleError(
            f"co-search seed {seeds[best_seed][0]!r} ledger drifted: model "
            f"{seed_costs[best_seed]} != measured {seed_measured.cost}"
        )
    w_order, w_owner = runs[winner].best
    measured = runs[winner].measured
    # The hard postcondition: the measured objective decides, and the best
    # seed wins any tie-or-worse outcome.
    reverted = measured.cost > seed_measured.cost
    if reverted:
        winner = best_seed
        _slabel, w_order, w_owner = seeds[best_seed]
        measured = seed_measured
    series = runs[winner].series

    evaluations = sum(run.stats.evaluations for run in runs)
    # The work counters describe the whole run, like ``evaluations``.
    work = {
        name: sum(run.counters[name] for run in runs)
        for name in ("lru_ops", "span_ops", "bound_rejects")
    }
    params = {
        "iters": iters, "seed": seed, "jobs": jobs, "chains": len(seeds),
        "alpha": alpha, "beta": beta,
        "relax_reductions": relax_reductions,
        "balance_slack": BALANCE_SLACK,
        **runs[winner].params,
        **work,
        "measures": measures,
    }
    if probe.enabled:
        probe.count("cosearch.runs")
        probe.count("cosearch.chains", len(runs))
        probe.count("cosearch.measures", measures)
        probe.count("cosearch.evaluations", evaluations)
        for name in ("order_moves", "owner_moves"):
            probe.count(
                f"cosearch.{name}", sum(run.counters[name] for run in runs)
            )
        for name, total in work.items():
            probe.count(f"cosearch.{name}", total)
        if reverted:
            probe.count("cosearch.reverted")
        if series is not None:
            probe.attach("convergence.cosearch", series)
    return CoSearchResult(
        graph=graph,
        p=p,
        s=s,
        order=list(w_order),
        owner=tuple(int(q) for q in w_owner),
        cost=measured.cost,
        seed_cost=seed_costs[best_seed],
        measured=measured,
        seed_label=seeds[winner][0],
        seed_costs={
            label: seed_costs[k] for k, (label, _o, _w) in enumerate(seeds)
        },
        winner_chain=winner,
        chain_costs=[run.cost for run in runs],
        evaluations=evaluations,
        reverted=reverted,
        params=params,
        convergence=series,
    )
