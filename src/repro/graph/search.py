"""Search over legal compute orders: beam, lookahead greedy, annealing.

The one-shot worklist heuristics (:mod:`repro.graph.scheduler`) close part
of the explicit-vs-Belady gap; this module closes more of it by actually
*searching* the order space the dependency graph exposes.  Three
strategies, one contract — give me a :class:`DependencyGraph` built from a
compiled trace and a capacity, get back a legal total order plus the LRU
load count that scored it:

``beam_search``
    Keep the ``width`` best partial orders; each step, every surviving
    order is extended with its ``expand`` most promising ready ops
    (incremental miss counts from
    :class:`~repro.graph.objective.IncrementalObjective`) and the joint
    frontier is pruned by accumulated cost — which is always the exact
    LRU load count of the partial order.  One-shot greedy is the
    ``width=1, expand=1`` corner.

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
    walk starts from a legal order and a move permutes one window, so
    legality is checked on the window's own edges
    (:meth:`~repro.graph.dependency.DependencyGraph.is_valid_window`).
    The candidate's LRU loads come from a
    :class:`~repro.trace.replay.LruLedger`: it replays from the cache
    checkpoint before the window and stops at the first checkpoint after
    it where the cache equals the committed replay's, since LRU state
    depends only on recent history.  Both shortcuts are exact, and the
    trace is never recompiled.

The annealer's Metropolis move/accept loop is factored out as
:func:`anneal_minimize` — a state-agnostic harness (propose/commit
callbacks, geometric cooling, caller-owned best tracking) that the
transfer-aware partition refiner (:mod:`repro.parallel.refine`) drives
over shard assignments with the exact same accept rule.

Every strategy can narrate itself: ``record_convergence=True`` (or an
enabled :mod:`repro.obs.probe`) attaches iteration-level telemetry to the
result — the annealer's ``(iter, temp, cost, best, accepted)`` series,
beam search's per-position best-cost trace — without touching any RNG, so
recorded and unrecorded runs return bit-identical orders.

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
from typing import Callable

from ..errors import ConfigurationError, ScheduleError
from ..obs.convergence import AnnealSeries, RoundSeries
from ..obs.probe import get_probe
from ..sched.ops import ComputeOp
from ..trace.replay import LruLedger
from .dependency import DependencyGraph
from .objective import IncrementalObjective, order_cost
from .scheduler import HEURISTICS, list_schedule

#: Search strategies, in the order the CLI and benches report them.
STRATEGIES = ("beam", "lookahead", "anneal")


# --------------------------------------------------------------------- #
# the shared move/accept loop
# --------------------------------------------------------------------- #

@dataclass
class AnnealStats:
    """Counters of one :func:`anneal_minimize` run."""

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


def anneal_minimize(
    cost: float,
    step: "Callable[[random.Random], tuple[float, Callable[[], None]] | None]",
    *,
    iters: int,
    rng: random.Random,
    t_start: float = 1.5,
    t_end: float = 0.05,
    series: "AnnealSeries | None" = None,
) -> tuple[float, AnnealStats]:
    """The Metropolis move/accept loop shared by every annealer here.

    One proposal per iteration: ``step(rng)`` either returns
    ``(candidate_cost, commit)`` — calling ``commit()`` applies the move to
    the caller's state — or ``None`` for a no-op/illegal proposal (the
    temperature still cools, matching a rejected move).  The loop owns
    cooling (geometric from ``t_start`` to ``t_end``; a single iteration
    runs entirely at ``t_start`` — the ``iters=1`` schedule has no second
    temperature to cool toward) and the accept rule (downhill always;
    uphill with probability ``exp(-dc / temp)``); the caller owns every
    piece of state, including best-seen tracking (do it inside
    ``commit``).  :func:`anneal_search` drives it over compute orders;
    :func:`repro.parallel.refine.refine_partition` drives the same loop
    over shard assignments.  Returns the final accepted cost and the
    proposal counters.

    ``series`` opts into per-iteration convergence telemetry: one
    ``(iter, temp, cost, best, accepted)`` row per iteration, where
    ``best`` is the lowest accepted cost so far (seeded with the starting
    cost).  Recording touches no RNG state, so a recorded run is
    bit-identical to an unrecorded one.

    Both temperatures must be finite and positive (``ConfigurationError``
    otherwise): the accept rule divides by the temperature.
    """
    for name, temp in (("t_start", t_start), ("t_end", t_end)):
        if not (math.isfinite(temp) and temp > 0):
            raise ConfigurationError(
                f"{name} must be a finite temperature > 0, got {temp}"
            )
    stats = AnnealStats()
    cooling = 1.0 if iters <= 1 else (t_end / t_start) ** (1.0 / (iters - 1))
    temp = t_start
    best = cost
    for _ in range(iters):
        stats.iters += 1
        proposal = step(rng)
        if proposal is None:
            stats.skipped += 1
            if series is not None:
                series.add(stats.iters - 1, temp, cost, best, False)
            temp *= cooling
            continue
        cand, commit = proposal
        stats.evaluations += 1
        dc = cand - cost
        took = dc <= 0 or rng.random() < math.exp(-dc / temp)
        if took:
            commit()
            cost = cand
            stats.accepted += 1
            if cost < best:
                best = cost
        if series is not None:
            series.add(stats.iters - 1, temp, cost, best, took)
        temp *= cooling
    return cost, stats


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
    #: or :class:`~repro.obs.convergence.RoundSeries`) when the run was
    #: recorded — ``record_convergence=True`` or an enabled probe; else None.
    convergence: "AnnealSeries | RoundSeries | None" = None

    def ops(self) -> list[ComputeOp]:
        """The compute ops in searched order."""
        return [self.graph.nodes[i].op for i in self.order]

    @property
    def is_identity(self) -> bool:
        return self.order == list(range(len(self.graph)))


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
    expand: int = 3,
    relax_reductions: bool = False,
    record_convergence: bool = False,
) -> SearchResult:
    """Top-``width`` partial orders, scored by incremental LRU loads.

    All surviving partial orders have emitted the same number of ops, so
    accumulated cost is directly comparable across the beam.  Orders are
    stored as parent-linked tails (cloning a growing list per child would
    be quadratic); ties break toward the lower op index everywhere, so
    the result is deterministic.

    With ``record_convergence=True`` (or an enabled probe) the result
    carries a :class:`~repro.obs.convergence.RoundSeries` of the beam
    head's accumulated cost per emitted position.
    """
    if width < 1 or expand < 1:
        raise ConfigurationError("beam width and expand must be >= 1")
    n = len(graph)
    series = None
    if record_convergence or get_probe().enabled:
        series = RoundSeries(label=f"beam width={width}", engine="beam")
    root = IncrementalObjective(graph, capacity, relax_reductions=relax_reductions)
    beams: list[tuple[IncrementalObjective, tuple | None]] = [(root, None)]
    evaluations = 0
    for step in range(n):
        children: list[tuple[int, int, IncrementalObjective, tuple]] = []
        for obj, tail in beams:
            for _miss, v in obj.candidates(expand):
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
        evaluations, {"width": width, "expand": expand}, series,
    )


# --------------------------------------------------------------------- #
# lookahead greedy
# --------------------------------------------------------------------- #

def lookahead_search(
    graph: DependencyGraph,
    capacity: int,
    *,
    depth: int = 4,
    breadth: int = 4,
    relax_reductions: bool = False,
) -> SearchResult:
    """Greedy with ``depth``-step rollouts of the cheapest-miss rule.

    For each of the ``breadth`` most promising ready ops, emit it on a
    cloned state, roll the greedy rule ``depth`` further ops on the
    suffix cursor, and commit the op whose rollout accumulated the fewest
    loads (ties: fewer immediate misses, then lower index).
    """
    if depth < 0 or breadth < 1:
        raise ConfigurationError("lookahead depth must be >= 0, breadth >= 1")
    obj = IncrementalObjective(graph, capacity, relax_reductions=relax_reductions)
    order: list[int] = []
    evaluations = 0
    while not obj.done:
        cands = obj.candidates(breadth)
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
        evaluations, {"depth": depth, "breadth": breadth},
    )


# --------------------------------------------------------------------- #
# simulated annealing over segment interleavings
# --------------------------------------------------------------------- #

def _start_order(graph: DependencyGraph, start, relax: bool) -> list[int]:
    if start is None:
        # The cheap heuristics; callers with time to spare pass a
        # locality/beam/lookahead order in explicitly.
        return list_schedule(graph, "original", relax_reductions=relax).order
    if isinstance(start, str):
        if start not in HEURISTICS:
            raise ConfigurationError(
                f"unknown start heuristic {start!r}; choose from {', '.join(HEURISTICS)}"
            )
        return list_schedule(graph, start, relax_reductions=relax).order
    return list(start)


#: Deterministic starting-temperature multipliers of a multi-chain anneal
#: portfolio, cycled by chain index.  Chain 0 always runs the caller's
#: exact ``(seed, t_start)`` — the classic serial run — so the best-of
#: merge is never worse than a single chain by construction.
_CHAIN_TEMP_LADDER = (1.0, 0.5, 2.0, 0.25, 4.0)


def reduction_class_of(graph: DependencyGraph) -> list[int]:
    """Per-op reduction-class index (``-1`` for ops in no class).

    The dense lookup the segment-aware move generator keys on; shared by
    :func:`anneal_search` and the joint co-search layer
    (:mod:`repro.parallel.cosearch`).
    """
    class_of = [-1] * len(graph)
    for ci, members in enumerate(graph.reduction_classes()):
        for v in members:
            class_of[v] = ci
    return class_of


def propose_segment_move(
    order: list[int],
    class_of: list[int],
    rng: random.Random,
    *,
    max_segment: int = 12,
) -> tuple[int, int, list[int]]:
    """One order move: ``(window start, window end, new segment)``.

    The reduction-class-aware neighborhood shared by every order annealer
    here and by the joint co-search: most proposals pick the contiguous
    run of same-class ops around a random position and reverse it, rotate
    it, or swap it with the following run; the rest reverse/rotate a
    generic window of at most ``max_segment`` ops.  Needs ``len(order) >=
    2``; the proposal may be a no-op (callers compare against the current
    window) and is *not* legality-checked — that stays with the caller,
    which owns the graph.
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
    j = min(n, i + rng.randrange(2, max_segment + 1))
    seg = order[i:j]
    if rng.random() < 0.5:
        return i, j, seg[::-1]
    r = rng.randrange(1, len(seg))
    return i, j, seg[r:] + seg[:r]


def _anneal_chain(
    graph: DependencyGraph,
    capacity: int,
    iters: int,
    seed: int,
    relax_reductions: bool,
    order: list[int],
    max_segment: int,
    t_start: float,
    t_end: float,
    want_series: bool,
):
    """One Metropolis chain over orders, from a fixed start.

    Returns ``(best_order, best_cost, evaluations, chain_params, series)``
    — a plain tuple (no graph inside) so portfolio chains can run in
    worker processes and pickle their results back cheaply.  The cold
    re-cost cross-check of the winner runs in-chain, so a drifted
    ledger fails loudly wherever the chain ran.
    """
    trace = graph.trace
    n = len(graph)
    order = list(order)
    rng = random.Random(seed)
    chain_params: dict = {"accepted": 0, "illegal": 0}

    series = None
    if want_series:
        series = AnnealSeries(label=f"anneal iters={iters} seed={seed}")

    if n < 3 or iters == 0:
        cost = order_cost(trace, order, capacity)
        return order, cost, 0, chain_params, series

    # The checkpointed LRU replay of the committed order: a move of
    # window [i, j) re-costs from the checkpoint at or before i and stops
    # once the cache re-converges with the committed replay after j.
    ledger = LruLedger(trace, capacity, order)
    cur_cost = ledger.loads[0]
    best_order, best_cost = list(order), cur_cost

    # Reduction-class membership drives the segment-aware moves; the
    # neighborhood itself is the shared :func:`propose_segment_move`.
    class_of = reduction_class_of(graph)

    def step(_rng: random.Random):
        # the proposer draws from the same rng the loop drives.
        i, j, segment = propose_segment_move(
            order, class_of, rng, max_segment=max_segment
        )
        if segment == order[i:j]:
            return None
        # The committed order is legal, so only edges inside the window
        # can break.
        if not graph.is_valid_window(segment, relax_reductions=relax_reductions):
            chain_params["illegal"] += 1
            return None
        candidate = order[:i] + segment + order[j:]
        cand_cost = ledger.score(candidate, from_pos=i, settled=j)[0]

        def commit() -> None:
            nonlocal order, best_order, best_cost
            order = candidate
            ledger.commit()
            if cand_cost < best_cost:
                best_order, best_cost = candidate, cand_cost

        return cand_cost, commit

    cur_cost, stats = anneal_minimize(
        cur_cost, step, iters=iters, rng=rng, t_start=t_start, t_end=t_end,
        series=series,
    )
    chain_params["accepted"] = stats.accepted
    chain_params["acceptance_rate"] = stats.acceptance_rate

    # Ground-truth re-cost of the winner on the reordered trace (shared
    # interning, no recompilation): the ledger's cut-off replays must
    # agree with a cold full replay.
    final_cost = order_cost(trace, best_order, capacity)
    if final_cost != best_cost:
        raise ScheduleError(
            f"annealing LRU ledger drifted: {best_cost} != {final_cost}"
        )
    return best_order, final_cost, stats.evaluations, chain_params, series


def _anneal_chain_task(task):
    """Module-level (picklable) wrapper: one portfolio chain per worker."""
    return _anneal_chain(*task)


def anneal_search(
    graph: DependencyGraph,
    capacity: int,
    *,
    iters: int = 800,
    seed: int = 0,
    relax_reductions: bool = False,
    start: "str | list[int] | None" = None,
    max_segment: int = 12,
    t_start: float = 1.5,
    t_end: float = 0.05,
    record_convergence: bool = False,
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
    ``max_segment`` ops.  Every proposal is legality-checked against the
    graph — under ``relax_reductions=False`` (the default, matching the
    other strategies) in-chain reversals are rejected and the walk
    explores only bit-exact chain permutations; pass
    ``relax_reductions=True`` to open the interleaving space the
    neighborhood is designed for.  The check covers only the edges inside
    the moved window, which is exact because the walk starts from a legal
    order (an illegal or incomplete ``start`` raises ``ScheduleError``
    before the walk).  Each legal proposal is costed by an
    :class:`~repro.trace.replay.LruLedger`, which replays from the LRU
    checkpoint before the window until the cache re-converges with the
    committed replay.  Cooling is geometric from
    ``t_start`` to ``t_end``; the best order ever seen is returned,
    re-costed from cold as a cross-check.

    ``chains > 1`` runs a portfolio of independent Metropolis chains from
    the same start order: chain 0 is exactly the classic serial run
    (caller's ``seed`` and ``t_start``); chain ``k`` draws its seed from
    :func:`repro.perf.pool.task_seed` (disjoint RNG streams) and scales
    ``t_start`` by the deterministic ladder :data:`_CHAIN_TEMP_LADDER`.
    The merge takes the minimum by ``(cost, chain_index)`` — deterministic
    and never worse than the single-chain result.  ``jobs > 1`` fans the
    chains out over worker processes; the merged result is bit-identical
    for any ``jobs`` (the serial reduction order *is* chain-index order).

    With ``record_convergence=True`` (or an enabled probe) the result
    carries the per-iteration ``(iter, temp, cost, best, accepted)``
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
    order = _start_order(graph, start, relax_reductions)
    # Proposals are checked window by window, which is exact only when
    # the walk starts from a legal order.
    if not graph.is_valid_order(order, relax_reductions=relax_reductions):
        raise ScheduleError(
            "anneal start order is not a legal order of the graph"
        )
    want_series = record_convergence or get_probe().enabled
    params = {"iters": iters, "seed": seed, "max_segment": max_segment}

    if chains == 1:
        best_order, best_cost, evaluations, chain_params, series = _anneal_chain(
            graph, capacity, iters, seed, relax_reductions, order,
            max_segment, t_start, t_end, want_series,
        )
        params.update(chain_params)
        return _finish(
            graph, "anneal", relax_reductions, capacity, best_order, best_cost,
            evaluations, params, series,
        )

    from ..perf.pool import parallel_map, task_seed

    ladder = _CHAIN_TEMP_LADDER
    chain_seeds = [task_seed(seed, k) for k in range(chains)]
    chain_t_starts = [t_start * ladder[k % len(ladder)] for k in range(chains)]
    tasks = [
        (
            graph, capacity, iters, chain_seeds[k], relax_reductions, order,
            max_segment, chain_t_starts[k], t_end, want_series,
        )
        for k in range(chains)
    ]
    outcomes = parallel_map(_anneal_chain_task, tasks, jobs=jobs)
    winner = min(range(chains), key=lambda k: (outcomes[k][1], k))
    best_order, best_cost, _, chain_params, series = outcomes[winner]
    params.update(chain_params)
    params.update(
        chains=chains, jobs=jobs, winner_chain=winner,
        chain_costs=[outcomes[k][1] for k in range(chains)],
    )
    return _finish(
        graph, "anneal", relax_reductions, capacity, best_order, best_cost,
        sum(outcomes[k][2] for k in range(chains)), params, series,
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
