"""Unit tests for the joint order x partition co-search layer.

Three groups:

* :class:`~repro.parallel.makespan.MakespanLedger` — the checkpointed
  delta evaluator must agree with a cold
  :func:`~repro.parallel.makespan.makespan_model` pass bit for bit, on
  cold construction and across randomized interleaved order/owner move
  sequences (the satellite regression pin);
* :class:`~repro.parallel.cosearch.CoSearchState` — the threaded state's
  incremental objective equals the measured :func:`cosearch_cost` after
  every committed move, and the move generators respect legality, the
  balance cap and the exact-cover invariant;
* :func:`~repro.parallel.cosearch.cosearch` — the portfolio driver's
  bookkeeping (never-worse postcondition, measured re-check, seed
  labeling, jobs/chain bit-identity, probe counters, CLI surface).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.core.tbs import tbs_syrk
from repro.errors import ConfigurationError
from repro.graph.dependency import DependencyGraph
from repro.graph.rewriter import rewrite_schedule
from repro.obs.probe import probe_scope
from repro.parallel import (
    CoSearchState,
    MakespanLedger,
    cosearch,
    cosearch_cost,
    cosearch_portfolio,
    makespan_model,
    movable_units,
    partition_graph,
)
from repro.parallel.cosearch import CoSearchCost
from repro.sched.schedule import record_schedule
from repro.trace.compiled import compile_trace


def build_graph(n: int = 24, mc: int = 3, s: int = 15) -> DependencyGraph:
    m = TwoLevelMachine(s, strict=False, numerics=False)
    m.add_matrix("A", np.zeros((n, mc)))
    m.add_matrix("C", np.zeros((n, n)))
    schedule = record_schedule(m, lambda: tbs_syrk(m, "A", "C", range(n), range(mc)))
    return DependencyGraph.from_trace(compile_trace(schedule))


@pytest.fixture(scope="module")
def tbs_graph() -> DependencyGraph:
    return build_graph()


def random_legal_order(
    graph: DependencyGraph, rng: random.Random, *, relax: bool = True
) -> list[int]:
    """A random topological order: Kahn's algorithm, shuffled frontier."""
    n = len(graph)
    indeg = [
        len(graph.effective_preds(v, relax_reductions=relax)) for v in range(n)
    ]
    eff_succs: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for u in graph.effective_preds(v, relax_reductions=relax):
            eff_succs[u].append(v)
    ready = [v for v in range(n) if indeg[v] == 0]
    order: list[int] = []
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        order.append(v)
        for w in eff_succs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    assert graph.is_valid_order(order, relax_reductions=relax)
    return order


class TestMakespanLedger:
    def test_cold_score_matches_model(self, tbs_graph):
        owner = partition_graph(tbs_graph, 4, "locality")
        ledger = MakespanLedger(tbs_graph, owner, p=4)
        cold = makespan_model(tbs_graph, owner, p=4)
        assert ledger.makespan == cold.makespan

    def test_cold_score_matches_model_with_order(self, tbs_graph):
        rng = random.Random(7)
        order = random_legal_order(tbs_graph, rng)
        owner = partition_graph(tbs_graph, 4, "level-greedy")
        ledger = MakespanLedger(
            tbs_graph, owner, p=4, order=order, relax_reductions=True
        )
        cold = makespan_model(
            tbs_graph, owner, p=4, order=order, relax_reductions=True
        )
        assert ledger.makespan == cold.makespan

    def test_score_without_commit_leaves_state(self, tbs_graph):
        owner = list(partition_graph(tbs_graph, 4, "locality"))
        ledger = MakespanLedger(tbs_graph, owner, p=4)
        before = ledger.makespan
        cand = list(owner)
        cand[0] = (cand[0] + 1) % 4
        ledger.score(owner=cand, from_pos=0)
        assert ledger.makespan == before
        assert list(ledger.owner) == owner

    def test_delta_equals_full_recompute_random_moves(self, tbs_graph):
        """Satellite regression pin: delta == cold model over 300 moves."""
        rng = random.Random(20220711)
        n = len(tbs_graph)
        p = 4
        owner = list(partition_graph(tbs_graph, p, "locality"))
        order = list(range(n))
        ledger = MakespanLedger(
            tbs_graph, owner, p=p, order=order, relax_reductions=True
        )
        eff_order_moves = 0
        for _ in range(300):
            if rng.random() < 0.5:
                # owner move: one random op to a random node
                v = rng.randrange(n)
                q = rng.randrange(p)
                if owner[v] == q:
                    continue
                owner[v] = q
                i0 = order.index(v)
                ledger.score(owner=owner, from_pos=i0)
                ledger.commit()
            else:
                # order move: swap two adjacent ops when legal
                i = rng.randrange(n - 1)
                cand = list(order)
                cand[i], cand[i + 1] = cand[i + 1], cand[i]
                if not tbs_graph.is_valid_order(cand, relax_reductions=True):
                    continue
                order = cand
                ledger.score(order=order, from_pos=i)
                ledger.commit()
                eff_order_moves += 1
            cold = makespan_model(
                tbs_graph, owner, p=p, order=order, relax_reductions=True
            )
            assert ledger.makespan == cold.makespan  # bit-identical
        assert eff_order_moves > 10  # the order dimension was exercised

    def test_from_pos_midstream_matches_cold(self, tbs_graph):
        rng = random.Random(3)
        n = len(tbs_graph)
        owner = list(partition_graph(tbs_graph, 4, "owner-computes"))
        ledger = MakespanLedger(tbs_graph, owner, p=4, relax_reductions=True)
        # change an op deep in the order; score from its position only
        v = n - 3
        owner[v] = (owner[v] + 1) % 4
        got = ledger.score(owner=owner, from_pos=v)
        cold = makespan_model(tbs_graph, owner, p=4, relax_reductions=True)
        assert got == cold.makespan
        rng.random()  # keep the fixture rng untouched pattern explicit

    def test_interval_does_not_change_result(self, tbs_graph):
        owner = list(partition_graph(tbs_graph, 4, "locality"))
        cold = makespan_model(tbs_graph, owner, p=4)
        for interval in (1, 5, 64, 10**6):
            ledger = MakespanLedger(tbs_graph, owner, p=4, interval=interval)
            assert ledger.makespan == cold.makespan
            owner2 = list(owner)
            owner2[7] = (owner2[7] + 1) % 4
            got = ledger.score(owner=owner2, from_pos=7)
            cold2 = makespan_model(tbs_graph, owner2, p=4)
            assert got == cold2.makespan

    def test_empty_graph(self):
        g = build_graph(2, 1)  # smallest recordable case
        owner = [0] * len(g)
        ledger = MakespanLedger(g, owner, p=2)
        cold = makespan_model(g, owner, p=2)
        assert ledger.makespan == cold.makespan

    def test_rejects_bad_owner(self, tbs_graph):
        with pytest.raises(ConfigurationError):
            MakespanLedger(tbs_graph, [9] * len(tbs_graph), p=4)

    def test_rejects_illegal_order(self, tbs_graph):
        owner = partition_graph(tbs_graph, 4, "locality")
        bad = list(range(len(tbs_graph)))[::-1]
        with pytest.raises(Exception):
            MakespanLedger(tbs_graph, owner, p=4, order=bad)


class TestCoSearchCost:
    def test_matches_components(self, tbs_graph):
        p, s = 4, 15
        owner = list(partition_graph(tbs_graph, p, "locality"))
        measured = cosearch_cost(tbs_graph, owner, p, s)
        span = makespan_model(tbs_graph, owner, p=p)
        assert measured.makespan == span.makespan
        assert measured.cost == measured.makespan + measured.beta * measured.bottleneck_io
        assert measured.bottleneck_io == max(
            l + t for l, t in zip(measured.loads, measured.transfer_in)
        )
        assert len(measured.loads) == p

    def test_single_node_has_no_transfers(self, tbs_graph):
        measured = cosearch_cost(tbs_graph, [0] * len(tbs_graph), 1, 15)
        assert measured.transfer_in == (0,)
        assert measured.loads[0] > 0

    def test_rejects_bad_owner_length(self, tbs_graph):
        with pytest.raises(ConfigurationError):
            cosearch_cost(tbs_graph, [0, 1], 2, 15)


class TestCoSearchState:
    def test_seed_cost_matches_measured(self, tbs_graph):
        p, s = 4, 15
        owner = partition_graph(tbs_graph, p, "locality")
        state = CoSearchState(tbs_graph, owner, p, s)
        measured = cosearch_cost(
            tbs_graph, owner, p, s, relax_reductions=True
        )
        assert state.cost() == measured.cost

    def test_cost_tracks_measured_across_moves(self, tbs_graph):
        """After every committed move, cost() == cosearch_cost, bit for bit."""
        p, s = 4, 15
        rng = random.Random(11)
        owner = partition_graph(tbs_graph, p, "level-greedy")
        state = CoSearchState(tbs_graph, owner, p, s, balance_slack=None)
        committed = 0
        for _ in range(200):
            proposal = state.step(rng)
            if proposal is None:
                continue
            cand_cost, commit = proposal
            if rng.random() < 0.5:
                continue  # reject: state must be unchanged
            commit()
            committed += 1
            measured = cosearch_cost(
                tbs_graph, state.ledger.owner, p, s, order=state.order,
                relax_reductions=True,
            )
            assert state.cost() == measured.cost
            assert state.loads == list(measured.loads)
        assert committed > 20
        assert state.order_moves > 0 and state.owner_moves > 0

    def test_exact_cover_after_moves(self, tbs_graph):
        p, s = 4, 15
        rng = random.Random(5)
        state = CoSearchState(
            tbs_graph, partition_graph(tbs_graph, p, "locality"), p, s
        )
        for _ in range(150):
            proposal = state.step(rng)
            if proposal is not None:
                proposal[1]()
        owner = state.ledger.owner
        assert len(owner) == len(tbs_graph)
        assert all(0 <= q < p for q in owner)
        assert tbs_graph.is_valid_order(state.order, relax_reductions=True)
        assert sorted(state.order) == list(range(len(tbs_graph)))

    def test_balance_cap_respected(self, tbs_graph):
        p, s = 4, 15
        rng = random.Random(9)
        state = CoSearchState(
            tbs_graph, partition_graph(tbs_graph, p, "locality"), p, s,
            balance_slack=1.2,
        )
        cap = state.owner_move.cap
        assert cap is not None
        for _ in range(150):
            proposal = state.step(rng)
            if proposal is not None:
                proposal[1]()
        assert max(state.ledger.loads) <= cap

    def test_keep_writers_together_units(self, tbs_graph):
        units, op_units = movable_units(tbs_graph, keep_writers_together=True)
        owned = sorted(v for unit in units for v in unit)
        assert owned == list(range(len(tbs_graph)))
        for v in range(len(tbs_graph)):
            assert v in units[op_units[v][0]]

    def test_rejects_bad_params(self, tbs_graph):
        owner = partition_graph(tbs_graph, 4, "locality")
        with pytest.raises(ConfigurationError):
            CoSearchState(tbs_graph, owner, 0, 15)
        with pytest.raises(ConfigurationError):
            CoSearchState(tbs_graph, owner, 4, 0)


class TestCosearchDriver:
    def test_never_worse_and_measured(self, tbs_graph):
        res = cosearch(tbs_graph, 4, 15, iters=120, seed=0,
                       search_kwargs={"anneal": {"iters": 40, "seed": 0}})
        assert res.cost <= res.seed_cost
        # the returned pair re-measures to exactly the reported cost
        measured = cosearch_cost(
            tbs_graph, res.owner, 4, 15, order=res.order,
            relax_reductions=True,
        )
        assert measured.cost == res.cost
        assert isinstance(res.measured, CoSearchCost)
        assert res.seed_label in res.seed_costs
        assert res.seed_cost == min(res.seed_costs.values())
        assert sorted(res.order) == list(range(len(tbs_graph)))
        assert all(0 <= q < 4 for q in res.owner)

    def test_jobs_bit_identical(self, tbs_graph):
        kw = dict(iters=80, seed=3,
                  search_kwargs={"anneal": {"iters": 30, "seed": 3}})
        serial = cosearch(tbs_graph, 4, 15, jobs=1, **kw)
        fanned = cosearch(tbs_graph, 4, 15, jobs=4, **kw)
        assert serial.cost == fanned.cost
        assert serial.order == fanned.order
        assert serial.owner == fanned.owner
        assert serial.chain_costs == fanned.chain_costs
        assert serial.winner_chain == fanned.winner_chain

    def test_explicit_seeds_and_revert_path(self, tbs_graph):
        # iters=0: no chain can improve, so the best seed must come back
        # verbatim through the never-worse postcondition.
        owner = list(partition_graph(tbs_graph, 4, "locality"))
        seeds = [("only", list(range(len(tbs_graph))), owner)]
        res = cosearch(tbs_graph, 4, 15, iters=0, seeds=seeds)
        assert res.cost == res.seed_cost
        assert res.owner == tuple(owner)
        assert res.order == list(range(len(tbs_graph)))
        assert res.seed_label == "only"
        assert not res.improved

    def test_portfolio_contents(self, tbs_graph):
        seeds = cosearch_portfolio(
            tbs_graph, 4, 15,
            search_kwargs={"anneal": {"iters": 20, "seed": 0}},
        )
        labels = [label for label, _o, _w in seeds]
        assert any(label.endswith("|recorded") for label in labels)
        assert any(label.endswith("|locality") for label in labels)
        assert any("search:anneal" in label for label in labels)
        for _label, order, owner in seeds:
            assert sorted(order) == list(range(len(tbs_graph)))
            assert len(owner) == len(tbs_graph)

    def test_probe_counters(self, tbs_graph):
        with probe_scope() as probe:
            cosearch(tbs_graph, 2, 15, iters=60,
                     search_kwargs={"anneal": {"iters": 20, "seed": 0}})
        counts = probe.counters
        assert counts["cosearch.runs"] == 1
        assert counts["cosearch.evaluations"] > 0
        assert "convergence.cosearch" in probe.attachments

    def test_rejects_bad_args(self, tbs_graph):
        with pytest.raises(ConfigurationError):
            cosearch(tbs_graph, 4, 15, iters=-1)
        with pytest.raises(ConfigurationError):
            cosearch(tbs_graph, 4, 15, seeds=[])

    def test_winner_order_rewrites_within_capacity(self, tbs_graph):
        """The winning order dresses into a validated stream with peak <= S."""
        s = 15
        res = cosearch(tbs_graph, 4, s, iters=100, seed=1,
                       search_kwargs={"anneal": {"iters": 30, "seed": 1}})
        rewrite = rewrite_schedule(
            tbs_graph.trace, s, res.order, graph=tbs_graph,
            relax_reductions=True,
        )
        assert rewrite.summary["peak_occupancy"] <= s
