"""Search over legal compute orders: beam, lookahead greedy, annealing.

The one-shot worklist heuristics (:mod:`repro.graph.scheduler`) close part
of the explicit-vs-Belady gap; this module closes more of it by actually
*searching* the order space the dependency graph exposes.  Three
strategies, one contract — give me a :class:`DependencyGraph` built from a
compiled trace and a capacity, get back a legal total order plus the LRU
load count that scored it:

``beam_search``
    Keep the ``width`` best partial orders; each step, every surviving
    order is extended with its :data:`BEAM_EXPAND` most promising ready
    ops (incremental miss counts from
    :class:`~repro.graph.objective.IncrementalObjective`) and the joint
    frontier is pruned by accumulated cost — which is always the exact
    LRU load count of the partial order.

``lookahead_search``
    Greedy with rollouts: each candidate next op is evaluated by emitting
    it on a cloned state and rolling the cheapest-miss rule ``depth``
    further steps on the trace-level cursor — the op that leads to the
    cheapest near future wins, not the op that is cheapest right now
    (which is blind to the eviction damage it causes).

``anneal_search``
    Simulated annealing over reduction-class interleavings: the
    neighborhood reverses or rotates short segments of the current order
    (the moves that re-interleave commuting ``+=`` chains when reduction
    edges are relaxed).  A proposal costs only what it changes.  The
    walk starts from the index order, which is legal, and a move permutes
    one window, so legality is checked on the window's own edges
    (:meth:`~repro.graph.dependency.DependencyGraph.is_valid_window`).
    The candidate's LRU loads come from a
    :class:`~repro.trace.replay.LruLedger`, which keeps each op's
    committed load and no cache state: an LRU cache holds the
    ``capacity`` most recently used distinct elements, so the replay
    starts from the last ``capacity`` distinct elements before the window
    and stops once the ops after it have covered ``capacity`` distinct
    elements, where it has rejoined the committed replay.  Both shortcuts
    are exact, and the trace is never recompiled.

This module also holds the one annealing engine.  :func:`run_chain` runs
one Metropolis walk over any state that offers ``cost``, ``step``,
``snapshot``, ``measure`` and ``counters``: it owns the seeded RNG, the
cooling, the accept rule, the best state and the closing re-measure that
catches a drifted ledger.  :func:`run_chains` fans a portfolio of chains
out over worker processes and picks the ``(cost, chain index)`` winner.
Three walks run on it: :class:`OrderWalk` here, the joint
:class:`~repro.parallel.cosearch.CoSearchState` and refinement's owner
walk (:mod:`repro.parallel.refine`).  The order move
(:class:`OrderMove`) exists once, for the order walk and co-search.

Every strategy narrates itself under a recording :mod:`repro.obs.probe`:
it attaches iteration-level telemetry to the result — the annealer's
``(iter, temp, cost, best, accepted)`` series, beam search's per-position
best-cost trace — without touching any RNG, so recorded and unrecorded
runs return bit-identical orders.

Every strategy is deterministic given its parameters (annealing takes a
seed) and every returned order is validated against the graph before it
leaves this module.  Downstream, a returned order is dressed into an
explicit, validated schedule exactly like a heuristic order
(:func:`repro.graph.rewriter.rewrite_schedule`), so search results flow
through the same record→analyze→reschedule harness, CLI and benches.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

from ..errors import ConfigurationError, ScheduleError
from ..obs.convergence import AnnealSeries, RoundSeries
from ..obs.probe import get_probe
from ..trace.replay import LruLedger
from .dependency import DependencyGraph
from .objective import IncrementalObjective, order_cost
from .scheduler import list_schedule

#: Search strategies, in the order the CLI and benches report them.
STRATEGIES = ("beam", "lookahead", "anneal")

#: Ready ops each surviving beam order is extended with, per step.
BEAM_EXPAND = 3

#: Most promising ready ops a lookahead step considers.
LOOKAHEAD_BREADTH = 4


# --------------------------------------------------------------------- #
# the annealing engine
# --------------------------------------------------------------------- #

#: Every chain cools geometrically from its starting temperature (``T_START``
#: scaled by the portfolio ladder) down to ``T_END``.
T_START = 1.5
T_END = 0.05

#: Deterministic starting-temperature multipliers of a chain portfolio,
#: cycled by chain index.  Chain 0 runs at ``T_START`` with the caller's
#: seed — the classic serial run — so the best-of merge is never worse
#: than a single chain by construction.
_CHAIN_TEMP_LADDER = (1.0, 0.5, 2.0, 0.25, 4.0)

#: The longest generic window an order move reverses or rotates.
MAX_SEGMENT = 12


@dataclass
class AnnealStats:
    """Counters of one :func:`run_chain` walk."""

    iters: int = 0
    evaluations: int = 0  # proposals that were costed
    accepted: int = 0
    skipped: int = 0      # proposals dropped before costing (no-op/illegal)

    @property
    def acceptance_rate(self) -> float:
        """Accepted share of the *costed* proposals (0.0 when none were).

        Skipped (no-op/illegal) proposals never reached the accept rule,
        so they are excluded — this is the Metropolis acceptance rate the
        cooling schedule is usually tuned against.
        """
        if self.evaluations == 0:
            return 0.0
        return self.accepted / self.evaluations


@dataclass
class Chain:
    """One finished walk: its best state, re-measured, plus its counters."""

    #: the walk's ``snapshot()`` of the lowest-cost state it accepted.
    best: Any
    #: that state's cost, as ``measure`` recomputed it from scratch.
    cost: float
    stats: AnnealStats
    #: the walk's own ``counters()`` (illegal proposals, moves by kind).
    counters: dict
    #: the walk's ``cost()`` before its first proposal.
    start_cost: float
    #: what the closing ``measure`` returned: ``cost`` itself, or a record
    #: holding it as its ``cost`` attribute.
    measured: Any
    #: the per-iteration series when the chain was given a label.
    series: "AnnealSeries | None" = None

    @property
    def params(self) -> dict:
        """The chain's outcome as result ``params`` entries."""
        return {
            "accepted": self.stats.accepted,
            "acceptance_rate": self.stats.acceptance_rate,
            **self.counters,
        }


#: Relative slack of the bound test: a proposal is rejected on its bound
#: only when the uniform clears ``exp(-dc_bound / temp)`` by this factor,
#: so the verdict never rests on ``exp`` being monotone to the last ulp.
_BOUND_SLACK = 1.0 + 1e-9


def run_chain(
    walk, *, iters: int, seed: int, t_start: float = T_START,
    label: str | None = None,
) -> Chain:
    """Run one Metropolis walk of ``iters`` proposals; the one annealer.

    A walk is any state object with five methods:

    * ``cost()`` — the committed state's cost, read once at the start;
    * ``step(rng)`` — one proposal, or ``None`` for a no-op or illegal
      proposal (the temperature still cools, as for a rejection).  A
      proposal is ``(candidate_cost, commit)``, where calling ``commit()``
      applies the move, or ``(bound, commit, exact)``: a lower bound on the
      candidate cost plus ``exact()``, which computes the cost itself (at
      least ``bound``) and is called at most once, before ``commit``;
    * ``snapshot()`` — a picklable copy of the committed state;
    * ``measure(snapshot)`` — that state's cost recomputed from scratch,
      or a picklable record holding it as its ``cost`` attribute (the
      chain keeps the record as :attr:`Chain.measured`);
    * ``counters()`` — the walk's own tallies, merged into ``params``.

    ``run_chain`` owns everything else: the RNG (seeded with ``seed``, and the
    only one the walk may draw from), geometric cooling from ``t_start``
    to :data:`T_END` (a single iteration runs entirely at ``t_start``),
    the accept rule (downhill always, uphill with probability
    ``exp(-dc / temp)``) and the best state seen.  The best state is
    re-measured at the end and a disagreement with the incremental cost
    raises :class:`~repro.errors.ScheduleError`, so a drifted ledger fails
    loudly in whichever process ran the chain.  The best state only
    changes on a strict improvement, so a chain whose best cost equals its
    :attr:`~Chain.start_cost` never left its start, and its closing
    measure is the start's.

    Bound-first rule: when a bound is already uphill, so is the exact
    cost, and the rule draws its one uniform either way.  ``run_chain``
    draws it first and rejects at once if it fails the bound's own
    acceptance probability (with :data:`_BOUND_SLACK`); only otherwise does
    it call ``exact()`` and apply the usual rule to the same uniform.  The
    RNG draws, the accept sequence and so the whole walk are exactly those
    of the exact-cost walk; the rejected proposals just never pay for
    their expensive term.

    ``label`` opts into per-iteration telemetry: an
    :class:`~repro.obs.convergence.AnnealSeries` with one ``(iter, temp,
    cost, best, accepted)`` row per iteration, ``best`` being the lowest
    accepted cost so far (seeded with the starting cost).  Recording
    touches no RNG, so a recorded run is bit-identical to an unrecorded one.
    """
    if not (math.isfinite(t_start) and t_start > 0):
        # the accept rule divides by the temperature
        raise ConfigurationError(
            f"t_start must be a finite temperature > 0, got {t_start}"
        )
    rng = random.Random(seed)
    series = None if label is None else AnnealSeries(label=label)
    stats = AnnealStats(iters=iters)
    start = cost = best = walk.cost()
    best_state = walk.snapshot()
    cooling = 1.0 if iters <= 1 else (T_END / t_start) ** (1.0 / (iters - 1))
    temp = t_start
    for i in range(iters):
        took = False
        proposal = walk.step(rng)
        if proposal is None:
            stats.skipped += 1
        else:
            cand, commit, *exact = proposal
            stats.evaluations += 1
            if exact and cand - cost > 0:
                u = rng.random()
                if u < math.exp(-(cand - cost) / temp) * _BOUND_SLACK:
                    cand = exact[0]()
                    took = u < math.exp(-(cand - cost) / temp)
            else:
                if exact:
                    cand = exact[0]()
                dc = cand - cost
                took = dc <= 0 or rng.random() < math.exp(-dc / temp)
            if took:
                commit()
                cost = cand
                stats.accepted += 1
                if cost < best:
                    best, best_state = cost, walk.snapshot()
        if series is not None:
            series.add(i, temp, cost, best, took)
        temp *= cooling
    measured = walk.measure(best_state)
    measured_cost = getattr(measured, "cost", measured)
    if measured_cost != best:
        raise ScheduleError(
            f"{type(walk).__name__} ledger drifted: model {best} != "
            f"measured {measured_cost}"
        )
    return Chain(
        best_state, measured_cost, stats, walk.counters(), start, measured,
        series,
    )


def _chain_task(task) -> Chain:
    """Module-level (picklable) wrapper: one portfolio chain per worker."""
    build, start, iters, seed, t_start, label = task
    return run_chain(
        build(start), iters=iters, seed=seed, t_start=t_start, label=label
    )


def run_chains(
    build: "Callable[[Any], Any]",
    starts: Sequence,
    labels: Sequence[str],
    *,
    iters: int,
    seed: int,
    jobs: int = 1,
    record: bool = False,
) -> tuple[list[Chain], int]:
    """A portfolio of chains, one per start; returns ``(chains, winner)``.

    Chain ``k`` walks ``build(starts[k])`` with the seed
    :func:`repro.perf.pool.task_seed` gives index ``k`` (disjoint RNG
    streams; chain 0 keeps ``seed``) from ``T_START`` scaled by
    :data:`_CHAIN_TEMP_LADDER`, and records the series ``"{labels[k]}
    seed={chain seed}"`` when ``record`` is set.  The chains fan out over
    :func:`repro.perf.pool.parallel_map` (``build`` and the starts must
    pickle when ``jobs > 1``); the winner minimizes ``(cost, chain
    index)``, so the result is bit-identical at any ``jobs``.
    """
    from ..perf.pool import parallel_map, task_seed

    ladder = _CHAIN_TEMP_LADDER
    tasks = []
    for k, (start, label) in enumerate(zip(starts, labels)):
        chain_seed = task_seed(seed, k)
        tasks.append((
            build, start, iters, chain_seed, T_START * ladder[k % len(ladder)],
            f"{label} seed={chain_seed}" if record else None,
        ))
    chains = parallel_map(_chain_task, tasks, jobs=jobs)
    winner = min(range(len(chains)), key=lambda k: (chains[k].cost, k))
    return chains, winner


@dataclass
class SearchResult:
    """A legal total order found by one search strategy, plus its score."""

    graph: DependencyGraph
    strategy: str
    relax_reductions: bool
    capacity: int
    order: list[int] = field(default_factory=list)
    #: LRU loads of ``order`` at ``capacity`` — the search objective, not
    #: the rewrite volume (measure that with ``rewrite_schedule``).
    cost: int = 0
    #: candidate evaluations the strategy performed (expansions, rollouts
    #: or annealing proposals) — the search-effort axis of the benches.
    evaluations: int = 0
    params: dict = field(default_factory=dict)
    #: convergence telemetry (an :class:`~repro.obs.convergence.AnnealSeries`
    #: or :class:`~repro.obs.convergence.RoundSeries`) when a recording
    #: probe was active; else None.
    convergence: "AnnealSeries | RoundSeries | None" = None


def _finish(
    graph: DependencyGraph,
    strategy: str,
    relax: bool,
    capacity: int,
    order: list[int],
    cost: int,
    evaluations: int,
    params: dict,
    convergence: "AnnealSeries | RoundSeries | None" = None,
) -> SearchResult:
    if len(order) != len(graph):
        raise ScheduleError(
            f"{strategy} search emitted {len(order)} of {len(graph)} nodes"
        )
    if not graph.is_valid_order(order, relax_reductions=relax):
        raise ScheduleError(f"{strategy} search produced an illegal order")
    probe = get_probe()
    if probe.enabled:
        probe.count(f"search.{strategy}.runs")
        probe.count(f"search.{strategy}.evaluations", evaluations)
        if convergence is not None:
            probe.attach(f"convergence.search.{strategy}", convergence)
    return SearchResult(
        graph=graph,
        strategy=strategy,
        relax_reductions=relax,
        capacity=capacity,
        order=order,
        cost=cost,
        evaluations=evaluations,
        params=params,
        convergence=convergence,
    )


# --------------------------------------------------------------------- #
# beam search
# --------------------------------------------------------------------- #

def beam_search(
    graph: DependencyGraph,
    capacity: int,
    *,
    width: int = 4,
    relax_reductions: bool = False,
) -> SearchResult:
    """Top-``width`` partial orders, scored by incremental LRU loads.

    All surviving partial orders have emitted the same number of ops, so
    accumulated cost is directly comparable across the beam.  Orders are
    stored as parent-linked tails (cloning a growing list per child would
    be quadratic); ties break toward the lower op index everywhere, so
    the result is deterministic.

    Under a recording probe the result carries a
    :class:`~repro.obs.convergence.RoundSeries` of the beam head's
    accumulated cost per emitted position.
    """
    if width < 1:
        raise ConfigurationError("beam width must be >= 1")
    n = len(graph)
    series = None
    if get_probe().enabled:
        series = RoundSeries(label=f"beam width={width}", engine="beam")
    root = IncrementalObjective(graph, capacity, relax_reductions=relax_reductions)
    beams: list[tuple[IncrementalObjective, tuple | None]] = [(root, None)]
    evaluations = 0
    for step in range(n):
        children: list[tuple[int, int, IncrementalObjective, tuple]] = []
        for obj, tail in beams:
            for _miss, v in obj.candidates(BEAM_EXPAND):
                child = obj.clone()
                child.emit(v)
                evaluations += 1
                children.append((child.cost, v, child, (v, tail)))
        if not children:
            raise ScheduleError("beam search stalled — dependence cycle")
        children.sort(key=lambda c: (c[0], c[1]))
        beams = [(c[2], c[3]) for c in children[:width]]
        if series is not None:
            series.add(step, beams[0][0].cost)
    best_obj, best_tail = min(beams, key=lambda b: b[0].cost)
    order: list[int] = []
    while best_tail is not None:
        v, best_tail = best_tail
        order.append(v)
    order.reverse()
    return _finish(
        graph, "beam", relax_reductions, capacity, order, best_obj.cost,
        evaluations, {"width": width}, series,
    )


# --------------------------------------------------------------------- #
# lookahead greedy
# --------------------------------------------------------------------- #

def lookahead_search(
    graph: DependencyGraph,
    capacity: int,
    *,
    depth: int = 4,
    relax_reductions: bool = False,
) -> SearchResult:
    """Greedy with ``depth``-step rollouts of the cheapest-miss rule.

    For each of the :data:`LOOKAHEAD_BREADTH` most promising ready ops,
    emit it on a cloned state, roll the greedy rule ``depth`` further ops
    on the suffix cursor, and commit the op whose rollout accumulated the
    fewest loads (ties: fewer immediate misses, then lower index).
    """
    if depth < 0:
        raise ConfigurationError("lookahead depth must be >= 0")
    obj = IncrementalObjective(graph, capacity, relax_reductions=relax_reductions)
    order: list[int] = []
    evaluations = 0
    while not obj.done:
        cands = obj.candidates(LOOKAHEAD_BREADTH)
        if len(cands) == 1 or depth == 0 or cands[0][0] < cands[1][0]:
            # A strict immediate winner needs no rollout: deferring
            # mandatory expensive ops always looks cheap at a fixed
            # horizon, so the rollout only arbitrates ties (of the
            # optimistic miss ranking — a deliberate heuristic cut).
            choice = cands[0][1]
        else:
            best_key = None
            choice = cands[0][1]
            tie_miss = cands[0][0]
            for miss, v in cands:
                if miss > tie_miss:
                    break  # cands are sorted: only the tied head competes
                sim = obj.clone()
                sim.emit(v)
                for _ in range(depth):
                    nxt = sim.candidates(1)
                    if not nxt:
                        break
                    sim.emit(nxt[0][1])
                evaluations += 1
                key = (sim.cost, v)
                if best_key is None or key < best_key:
                    best_key, choice = key, v
        obj.emit(choice)
        order.append(choice)
    return _finish(
        graph, "lookahead", relax_reductions, capacity, order, obj.cost,
        evaluations, {"depth": depth},
    )


# --------------------------------------------------------------------- #
# simulated annealing over segment interleavings
# --------------------------------------------------------------------- #

def reduction_class_of(graph: DependencyGraph) -> list[int]:
    """Per-op reduction-class index (``-1`` for ops in no class).

    The dense lookup :class:`OrderMove`'s segment moves key on; a shared
    read-only table of the graph.
    """

    def build():
        class_of = [-1] * len(graph)
        for ci, members in enumerate(graph.reduction_classes()):
            for v in members:
                class_of[v] = ci
        return class_of

    return graph.table("class_of", build)


def propose_segment_move(
    order: list[int],
    class_of: list[int],
    rng: random.Random,
) -> tuple[int, int, list[int]]:
    """One order move: ``(window start, window end, new segment)``.

    The reduction-class-aware neighborhood of :class:`OrderMove`: most
    proposals pick the contiguous run of same-class ops around a random
    position and reverse it, rotate it, or swap it with the following
    run; the rest reverse/rotate a generic window of at most
    :data:`MAX_SEGMENT` ops.  Needs ``len(order) >= 2``; the proposal may
    be a no-op and is *not* legality-checked.
    """
    n = len(order)

    def class_run(p: int) -> tuple[int, int]:
        """Maximal run of same-class ops around position ``p`` (may be p,p+1)."""
        ci = class_of[order[p]]
        i = p
        while i > 0 and class_of[order[i - 1]] == ci:
            i -= 1
        j = p + 1
        while j < n and class_of[order[j]] == ci:
            j += 1
        return i, j

    if rng.random() < 0.6:
        p = rng.randrange(n)
        if class_of[order[p]] >= 0:
            i, j = class_run(p)
            if j - i >= 2:
                seg = order[i:j]
                kind = rng.random()
                if kind < 0.5:
                    return i, j, seg[::-1]
                if kind < 0.75:
                    r = rng.randrange(1, len(seg))
                    return i, j, seg[r:] + seg[:r]
                if j < n:  # swap this run with the one after it
                    _, k = class_run(j)
                    return i, k, order[j:k] + seg
    i = rng.randrange(0, n - 1)
    j = min(n, i + rng.randrange(2, MAX_SEGMENT + 1))
    seg = order[i:j]
    if rng.random() < 0.5:
        return i, j, seg[::-1]
    r = rng.randrange(1, len(seg))
    return i, j, seg[r:] + seg[:r]


class OrderMove:
    """The one order move, shared by :class:`OrderWalk` and co-search.

    :meth:`draw` proposes a segment move (:func:`propose_segment_move`),
    drops a no-op, and checks legality on the moved window only
    (:meth:`~repro.graph.dependency.DependencyGraph.is_valid_window`) —
    exact because every walk starts from, and only commits, legal orders.
    Illegal proposals are tallied in :attr:`illegal`.
    """

    def __init__(self, graph: DependencyGraph, relax_reductions: bool):
        self.graph = graph
        self.relax_reductions = relax_reductions
        self.class_of = reduction_class_of(graph)
        self.illegal = 0

    def draw(self, order: list[int], rng: random.Random):
        """``(i, j, candidate order)`` for a legal move of window ``[i, j)``,
        or ``None``.  Orders of fewer than three ops have no move."""
        if len(order) < 3:
            return None
        i, j, segment = propose_segment_move(order, self.class_of, rng)
        if segment == order[i:j]:
            return None
        if not self.graph.is_valid_window(
            segment, relax_reductions=self.relax_reductions
        ):
            self.illegal += 1
            return None
        return i, j, order[:i] + segment + order[j:]


class OrderWalk:
    """The order search's walk for :func:`run_chain`: an order and its loads.

    The committed order's LRU loads live in an
    :class:`~repro.trace.replay.LruLedger` as per-op loads: a move of
    window ``[i, j)`` starts its replay from the cache state read off the
    ops before ``i`` and stops once the ops from ``j`` on have covered
    ``capacity`` distinct elements, where the replay has rejoined the
    committed one.  A commit replaces the order list rather than editing
    it, so a snapshot is the list itself, and the ledger holds it by
    reference as the committed order.
    """

    def __init__(
        self, graph: DependencyGraph, capacity: int, relax_reductions: bool,
        order: list[int],
    ):
        self.trace = graph.trace
        self.capacity = capacity
        self.order = list(order)
        self.move = OrderMove(graph, relax_reductions)
        self.ledger = LruLedger(self.trace, capacity, self.order)

    def cost(self) -> int:
        return self.ledger.loads[0]

    def step(self, rng: random.Random):
        drawn = self.move.draw(self.order, rng)
        if drawn is None:
            return None
        i, j, candidate = drawn
        cost = self.ledger.score(candidate, from_pos=i, settled=j)[0]

        def commit() -> None:
            self.order = candidate
            self.ledger.commit()

        return cost, commit

    def snapshot(self) -> list[int]:
        return self.order

    def measure(self, order: list[int]) -> int:
        """A cold replay of the reordered trace (shared interning, no
        recompilation)."""
        return order_cost(self.trace, order, self.capacity)

    def counters(self) -> dict:
        return {"illegal": self.move.illegal}


def anneal_search(
    graph: DependencyGraph,
    capacity: int,
    *,
    iters: int = 800,
    seed: int = 0,
    relax_reductions: bool = False,
    chains: int = 1,
    jobs: int = 1,
) -> SearchResult:
    """Simulated annealing over reduction-class interleavings.

    The neighborhood is built around the commuting ``+=`` segments: most
    proposals pick the contiguous run of same-reduction-class ops around
    a random position and reverse it, rotate it, or swap it with the
    following run (reversing a chain lets its tail meet the next chain's
    head — the zigzag that shares operand columns across chain
    boundaries; swapping runs re-chooses which chains are neighbors).
    The rest are generic reversals/rotations of windows of at most
    :data:`MAX_SEGMENT` ops.  Every proposal is legality-checked against
    the graph — under ``relax_reductions=False`` (the default, matching
    the other strategies) in-chain reversals are rejected and the walk
    explores only bit-exact chain permutations; pass
    ``relax_reductions=True`` to open the interleaving space the
    neighborhood is designed for.  The check covers only the edges inside
    the moved window, which is exact because the walk starts from the
    index order (the ``"original"`` list schedule), which every edge of a
    trace-built graph respects.  Each legal proposal is costed by the
    :class:`OrderWalk`'s LRU ledger, which keeps per-op loads: it reads
    the cache state before the window off the last ``capacity`` distinct
    elements there and replays until the ops after the window have
    covered ``capacity`` distinct elements.  The chain
    (:func:`run_chain`) cools geometrically from :data:`T_START` to
    :data:`T_END` and returns the best order ever seen, re-costed from
    cold as a cross-check.

    ``chains > 1`` runs a portfolio of independent chains from the index
    order (:func:`run_chains`): chain 0 is exactly the classic
    serial run, chain ``k`` draws its own RNG stream and scales the
    starting temperature by :data:`_CHAIN_TEMP_LADDER`, and the merge
    takes the minimum by ``(cost, chain_index)`` — deterministic and never
    worse than the single-chain result.  ``jobs > 1`` fans the chains out
    over worker processes; the merged result is bit-identical for any
    ``jobs``.

    Under a recording probe the result carries the per-iteration
    ``(iter, temp, cost, best, accepted)``
    :class:`~repro.obs.convergence.AnnealSeries` of the winning chain —
    recording never touches the RNG, so the returned order is bit-identical
    either way.
    """
    if iters < 0:
        raise ConfigurationError(f"iters must be >= 0, got {iters}")
    if chains < 1:
        raise ConfigurationError(f"chains must be >= 1, got {chains}")
    if graph.trace is None:
        raise ConfigurationError(
            "order search needs the graph's compiled trace; build the "
            "graph with DependencyGraph.from_trace/from_schedule"
        )
    start = list_schedule(graph, "original", relax_reductions=relax_reductions).order
    runs, winner = run_chains(
        partial(OrderWalk, graph, capacity, relax_reductions),
        [start] * chains, [f"anneal iters={iters}"] * chains,
        iters=iters, seed=seed, jobs=jobs, record=get_probe().enabled,
    )
    best = runs[winner]
    params = {"iters": iters, "seed": seed, **best.params}
    if chains > 1:
        params.update(
            chains=chains, jobs=jobs, winner_chain=winner,
            chain_costs=[run.cost for run in runs],
        )
    return _finish(
        graph, "anneal", relax_reductions, capacity, best.best, best.cost,
        sum(run.stats.evaluations for run in runs), params, best.series,
    )


# --------------------------------------------------------------------- #
# dispatcher
# --------------------------------------------------------------------- #

def search_order(
    graph: DependencyGraph,
    capacity: int,
    strategy: str,
    **kwargs,
) -> SearchResult:
    """Run one search ``strategy`` (:data:`STRATEGIES`) over ``graph``."""
    if strategy == "beam":
        return beam_search(graph, capacity, **kwargs)
    if strategy == "lookahead":
        return lookahead_search(graph, capacity, **kwargs)
    if strategy == "anneal":
        return anneal_search(graph, capacity, **kwargs)
    raise ConfigurationError(
        f"unknown strategy {strategy!r}; choose from {', '.join(STRATEGIES)}"
    )
