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

import dataclasses
import importlib
import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.core.tbs import tbs_syrk
from repro.errors import ConfigurationError, ScheduleError
from repro.graph.compare import record_case
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
    partition_graph,
)
from repro.parallel.cosearch import CoSearchCost
from repro.sched.schedule import record_schedule
from repro.trace.compiled import compile_trace
from repro.trace.replay import LruLedger, lru_replay_trace


def build_graph(n: int = 24, mc: int = 3, s: int = 15) -> DependencyGraph:
    m = TwoLevelMachine(s, numerics=False)
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

    def test_rejected_scores_leave_no_trace(self, tbs_graph):
        """Half the candidates are dropped: every commit still equals a
        cold model, finish time by finish time, and a fresh ledger,
        checkpoint by checkpoint.  Reductions stay ordered, so each op
        waits on its chain predecessor."""
        rng = random.Random(5)
        n, p = len(tbs_graph), 4
        owner = list(partition_graph(tbs_graph, p, "locality"))
        ledger = MakespanLedger(tbs_graph, owner, p=p)
        interval = ledger.interval
        # A dropped candidate that re-times every op (all on one node),
        # then one that re-times from a late op whose predecessor sits
        # before its checkpoint: the committed finish must be read.
        ledger.score(owner=[0] * n, from_pos=0)
        v = max(
            v for v in range(n)
            if any(u < v // interval * interval for u in tbs_graph.effective_preds(v))
        )
        late = list(owner)
        late[v] = (late[v] + 1) % p
        got = ledger.score(owner=late, from_pos=v, settled=v + 1)
        assert got == makespan_model(tbs_graph, late, p=p).makespan
        for _ in range(120):
            cand_owner = list(owner)
            v = rng.randrange(n)
            cand_owner[v] = rng.randrange(p)
            ledger.score(owner=cand_owner, from_pos=v, settled=v + 1)
            if rng.random() < 0.5:
                continue
            ledger.commit()
            owner = cand_owner
            cold = makespan_model(tbs_graph, owner, p=p)
            assert ledger.makespan == cold.makespan
            assert ledger.finish == list(cold.finish)
        fresh = MakespanLedger(tbs_graph, owner, p=p)
        assert ledger.checkpoints == fresh.checkpoints

    @pytest.mark.parametrize("seed", range(8))
    def test_stopped_passes_match_cold_model(self, seed):
        """The early stop is exact: random moves on a Cholesky DAG (long
        dependence chains, so a changed op often feeds an op far past
        the moved window), with and without commits, at any latency."""
        from repro.graph.compare import record_case
        from repro.graph.search import propose_segment_move, reduction_class_of

        graph = DependencyGraph.from_trace(record_case("chol", 12, 3, 15).trace)
        n, class_of = len(graph), reduction_class_of(graph)
        rng = random.Random(seed)
        p = rng.choice([2, 3, 4])
        alpha, beta = rng.choice([(1.0, 1.0), (0.0, 1.0), (5.0, 0.5), (1.0, 0.0)])
        owner = [rng.randrange(p) for _ in range(n)]
        order = list(range(n))
        ledger = MakespanLedger(
            graph, owner, p=p, order=order, alpha=alpha, beta=beta,
            relax_reductions=True,
        )
        interval = ledger.interval
        stopped = 0
        for _ in range(250):
            if rng.random() < 0.5:
                i, j, segment = propose_segment_move(order, class_of, rng)
                if segment == order[i:j] or not graph.is_valid_window(
                    segment, relax_reductions=True
                ):
                    continue
                cand_order, cand_owner = order[:i] + segment + order[j:], owner
                candidate = {"order": cand_order}
            else:
                moved = rng.sample(range(n), rng.randrange(1, 4))
                cand_owner, cand_order = list(owner), order
                q = rng.randrange(p)
                for v in moved:
                    cand_owner[v] = q
                at = [order.index(v) for v in moved]
                i, j = min(at), max(at) + 1
                candidate = {"owner": cand_owner}
            work = ledger.work
            got = ledger.score(**candidate, from_pos=i, settled=j)
            # a full pass re-times every op from the checkpoint before i
            stopped += ledger.work - work < n - i // interval * interval
            cold = makespan_model(
                graph, cand_owner, p=p, order=cand_order, alpha=alpha,
                beta=beta, relax_reductions=True,
            )
            assert got == cold.makespan
            if rng.random() < 0.6:
                ledger.commit()
                order, owner = cand_order, cand_owner
                assert ledger.finish == list(cold.finish)
        fresh = MakespanLedger(
            graph, owner, p=p, order=order, alpha=alpha, beta=beta,
            relax_reductions=True,
        )
        assert ledger.checkpoints == fresh.checkpoints
        assert stopped > 0

    def test_commit_keeps_a_private_owner(self, tbs_graph):
        """The stop compares candidates with the committed owner, so a
        caller editing its candidate list in place after the commit (as
        co-search's partition ledger does) must not reach it."""
        owner = list(partition_graph(tbs_graph, 4, "locality"))
        ledger = MakespanLedger(tbs_graph, owner, p=4)
        cand = list(owner)
        cand[3] = (cand[3] + 1) % 4
        ledger.score(owner=cand, from_pos=3, settled=4)
        ledger.commit()
        committed = list(cand)
        cand[3] = (cand[3] + 1) % 4
        assert ledger.owner == committed

    def test_stop_sees_an_owner_change_that_keeps_the_finish(self):
        """Op v moves from node 0 to node 1 and still finishes at the same
        time, and every node's availability at the checkpoint is the
        committed one; but v's successor w past the checkpoint now pays
        the cross-node latency, so the pass must not stop there.  Three
        independent ops pad the order so that w sits right after the
        first checkpoint."""
        u0, u1, v, x, y, w = 0, 1, 2, 3, 4, 8
        graph = DependencyGraph.from_edges(
            9, [(a, b, "raw") for a, b in ((u0, v), (u1, x), (u1, y), (v, w))],
            ops=[SimpleNamespace(mults=m) for m in (1, 10, 1, 1, 1, 1, 1, 1, 1)],
        )
        owner = [2, 2, 0, 0, 1, 2, 2, 2, 0]
        ledger = MakespanLedger(graph, owner, p=3, alpha=20.0, beta=0.0)
        assert ledger.interval == w
        moved = list(owner)
        moved[v] = 1
        got = ledger.score(owner=moved, from_pos=v, settled=v + 1)
        cold = makespan_model(graph, moved, p=3, alpha=20.0, beta=0.0)
        assert cold.finish[v] == ledger.finish[v]  # v's finish is unchanged
        assert got == cold.makespan > ledger.makespan

    def test_reorder_rebuilds_checkpoints_without_retiming(self, tbs_graph):
        """A swap of adjacent ops on different nodes across a checkpoint
        changes no program: finish times stand, checkpoints move."""
        n, p = len(tbs_graph), 4
        owner = [v % p for v in range(n)]
        order = list(range(n))
        ledger = MakespanLedger(
            tbs_graph, owner, p=p, order=order, relax_reductions=True
        )
        c = 2 * ledger.interval
        cand = order[: c - 1] + [order[c], order[c - 1]] + order[c + 1 :]
        assert tbs_graph.is_valid_order(cand, relax_reductions=True)
        finish, work = list(ledger.finish), ledger.work
        ledger.reorder(cand, c - 1, c + 1)
        assert ledger.work == work and ledger.finish == finish
        fresh = MakespanLedger(
            tbs_graph, owner, p=p, order=cand, relax_reductions=True
        )
        assert ledger.makespan == fresh.makespan
        assert ledger.finish == fresh.finish
        assert ledger.checkpoints == fresh.checkpoints

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
        """Checkpoints every ``max(8, n // 64)`` positions: both arms
        score and commit as the cold model and a fresh ledger do."""
        intervals = []
        for graph in (tbs_graph, build_graph(48, 6)):
            owner = list(partition_graph(graph, 4, "locality"))
            ledger = MakespanLedger(graph, owner, p=4)
            intervals.append(ledger.interval)
            assert ledger.makespan == makespan_model(graph, owner, p=4).makespan
            v = len(graph) // 2
            owner[v] = (owner[v] + 1) % 4
            got = ledger.score(owner=owner, from_pos=v, settled=v + 1)
            assert got == makespan_model(graph, owner, p=4).makespan
            ledger.commit()
            assert ledger.checkpoints == MakespanLedger(graph, owner, p=4).checkpoints
        assert intervals == [8, 14]

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


def per_node_loads(graph, owner, p, s, order=None) -> tuple[int, ...]:
    """Each node's program replayed on its own: the one-pass loads' oracle."""
    programs: list[list[int]] = [[] for _ in range(p)]
    for v in range(len(graph)) if order is None else order:
        programs[owner[v]].append(v)
    return tuple(
        lru_replay_trace(graph.trace.select_ops(seq), s).loads if seq else 0
        for seq in programs
    )


class TestCoSearchCost:
    @pytest.mark.parametrize("kernel", ["tbs", "chol"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_one_pass_loads_equal_per_node_replays(self, kernel, p):
        graph = (
            build_graph() if kernel == "tbs"
            else DependencyGraph.from_trace(record_case("chol", 16, 0, 15).trace)
        )
        rng = random.Random(p)
        n = len(graph)
        for trial in range(4):
            order = random_legal_order(graph, rng) if trial else None
            # odd trials leave node p - 1 empty (at p = 1 that node is all)
            used = p - 1 if trial % 2 and p > 1 else p
            owner = [rng.randrange(used) for _ in range(n)]
            for s in (2, 15, 40):
                measured = cosearch_cost(
                    graph, owner, p, s, order=order, relax_reductions=True
                )
                assert measured.loads == per_node_loads(graph, owner, p, s, order)

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
        state = CoSearchState(tbs_graph, owner, p, s)
        committed = 0
        for _ in range(200):
            proposal = state.step(rng)
            if proposal is None:
                continue
            # an owner move offers (bound, commit, exact)
            cand_cost, commit, *exact = proposal
            if rng.random() < 0.5:
                continue  # reject: state must be unchanged
            if exact:
                bound, cand_cost = cand_cost, exact[0]()
                assert bound <= cand_cost
            commit()
            committed += 1
            measured = cosearch_cost(
                tbs_graph, state.ledger.owner, p, s, order=state.order,
                relax_reductions=True,
            )
            assert state.cost() == measured.cost == cand_cost
            assert state.loads == list(measured.loads)
        assert committed > 20
        assert state.order_moves > 0 and state.owner_moves > 0

    @pytest.mark.parametrize("p", [2, 4])
    def test_owner_bound_never_exceeds_the_exact_cost(self, tbs_graph, p):
        rng = random.Random(p)
        state = CoSearchState(
            tbs_graph, partition_graph(tbs_graph, p, "level-greedy"), p, 15,
        )
        bounded = 0
        for _ in range(400):
            proposal = state.step(rng)
            if proposal is None:
                continue
            cand, commit, *exact = proposal
            if exact:
                bounded += 1
                assert cand <= exact[0]()
            if rng.random() < 0.4:
                commit()
        assert bounded > 50

    def test_neutral_order_moves_replay_nothing(self, tbs_graph):
        """An order move that changes no node's program costs the
        committed cost, re-times and replays nothing, and its commit
        keeps the state equal to the measured pair."""
        p, s = 4, 15
        rng = random.Random(2)
        state = CoSearchState(
            tbs_graph, partition_graph(tbs_graph, p, "level-greedy"), p, s,
        )
        neutral = 0
        for _ in range(300):
            work = (state.span.work, state.lru.work)
            proposal = state.step(rng)
            if proposal is None:
                continue
            if len(proposal) == 2 and (state.span.work, state.lru.work) == work:
                neutral += 1
                assert proposal[0] == state.cost()
            proposal[1]()
            measured = cosearch_cost(
                tbs_graph, state.ledger.owner, p, s, order=state.order,
                relax_reductions=True,
            )
            assert state.cost() == measured.cost
        assert neutral > 5

    def test_lru_ledger_equals_a_fresh_one_after_every_commit(self, tbs_graph):
        """The LRU ledger holds the partition ledger's owner list, which an
        owner move's commit edits in place after the move's LRU score:
        its per-op and per-node loads still equal a fresh ledger's on the
        committed pair after every commit, of either move kind."""
        p, s = 4, 15
        rng = random.Random(6)
        state = CoSearchState(
            tbs_graph, partition_graph(tbs_graph, p, "locality"), p, s,
        )
        assert state.lru._owner is state.ledger.owner
        commits = {"order": 0, "owner": 0}
        for _ in range(200):
            before = (state.order_moves, state.owner_moves)
            proposal = state.step(rng)
            if proposal is None or rng.random() < 0.3:
                continue
            proposal[1]()
            commits["order"] += state.order_moves - before[0]
            commits["owner"] += state.owner_moves - before[1]
            fresh = LruLedger(
                tbs_graph.trace, s, state.order, state.ledger.owner, p=p
            )
            assert state.lru.op_loads == fresh.op_loads
            assert state.lru.loads == fresh.loads
        assert min(commits.values()) > 10

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
            tbs_graph, partition_graph(tbs_graph, p, "locality"), p, s
        )
        cap = state.owner_move.cap
        for _ in range(150):
            proposal = state.step(rng)
            if proposal is not None:
                proposal[1]()
        assert max(state.ledger.loads) <= cap

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
            res = cosearch(tbs_graph, 2, 15, iters=60,
                           search_kwargs={"anneal": {"iters": 20, "seed": 0}})
        counts = probe.counters
        assert counts["cosearch.runs"] == 1
        assert counts["cosearch.evaluations"] > 0
        assert counts["cosearch.chains"] == res.params["chains"]
        assert counts["cosearch.measures"] == res.params["measures"]
        assert "convergence.cosearch" in probe.attachments

    def test_each_pair_is_measured_once(self, tbs_graph, monkeypatch):
        """One measure per chain plus at most one cold check of the best
        seed, counted in the parent: the same count and result at any
        ``jobs``."""
        module = importlib.import_module("repro.parallel.cosearch")
        calls = []
        real = module.cosearch_cost
        monkeypatch.setattr(
            module, "cosearch_cost", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        kw = dict(iters=80, seed=0,
                  search_kwargs={"anneal": {"iters": 30, "seed": 0}})
        runs = []
        for jobs in (1, 2):
            calls.clear()
            with probe_scope() as probe:
                res = cosearch(tbs_graph, 4, 15, jobs=jobs, **kw)
            runs.append((res, probe.counters["cosearch.measures"], len(calls)))
        (serial, count, serial_calls), (fanned, fanned_count, _) = runs
        chains = serial.params["chains"]
        assert chains == 9
        assert chains <= count <= chains + 1 <= 10
        assert count == fanned_count == serial.params["measures"]
        assert serial_calls == count  # every measure of the in-process run
        assert (serial.order, serial.owner, serial.cost, serial.seed_costs) == (
            fanned.order, fanned.owner, fanned.cost, fanned.seed_costs
        )
        assert serial.measured == fanned.measured

    def test_seed_costs_equal_cold_measures(self, tbs_graph):
        seeds = cosearch_portfolio(
            tbs_graph, 2, 15, search_kwargs={"anneal": {"iters": 20, "seed": 0}}
        )
        res = cosearch(tbs_graph, 2, 15, iters=40, seeds=seeds)
        for label, order, owner in seeds:
            cold = cosearch_cost(
                tbs_graph, owner, 2, 15, order=order, relax_reductions=True
            )
            assert res.seed_costs[label] == cold.cost

    def test_a_drifted_best_seed_fails_the_run(self, tbs_graph, monkeypatch):
        """The never-worse floor rests on a cold measure of the best seed:
        when it disagrees with the seed's ledger cost, the run fails."""
        module = importlib.import_module("repro.parallel.cosearch")
        owner = list(partition_graph(tbs_graph, 4, "level-greedy"))
        seeds = [("only", list(range(len(tbs_graph))), owner)]
        res = cosearch(tbs_graph, 4, 15, iters=150, seeds=seeds)
        assert res.chain_costs[0] < res.seed_cost  # the chain left its seed
        assert res.params["measures"] == 2
        real = module.cosearch_cost

        def chain_measure(self, pair):
            order, owner = pair
            return real(self.graph, owner, self.p, self.s, order=order,
                        relax_reductions=True)

        monkeypatch.setattr(module.CoSearchState, "measure", chain_measure)
        monkeypatch.setattr(
            module, "cosearch_cost",
            lambda *a, **k: dataclasses.replace(
                real(*a, **k), makespan=real(*a, **k).makespan + 1.0
            ),
        )
        with pytest.raises(ScheduleError, match="seed 'only' ledger drifted"):
            cosearch(tbs_graph, 4, 15, iters=150, seeds=seeds)

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
