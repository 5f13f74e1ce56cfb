"""Tests for the dependency-graph scheduling engine (repro.graph)."""

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.analysis.lru_replay import lru_replay
from repro.baselines.ooc_chol import ooc_chol
from repro.core.tbs import tbs_syrk
from repro.errors import ConfigurationError, ScheduleError
from repro.graph import (
    DependencyGraph,
    belady_replay,
    compare_case,
    dependency_graph,
    list_schedule,
    record_case,
    replacement_gap,
    reschedule,
    rewrite_schedule,
)
from repro.graph.scheduler import HEURISTICS
from repro.sched.schedule import ComputeStep, record_schedule, replay_schedule
from repro.sched.validate import validate_schedule

N, MC, S = 26, 3, 15


@pytest.fixture(scope="module")
def tbs_case():
    return record_case("tbs", N, MC, S)


@pytest.fixture(scope="module")
def chol_case():
    return record_case("chol", 20, 0, S)


@pytest.fixture(scope="module")
def tbs_graph(tbs_case):
    return dependency_graph(tbs_case.schedule)


@pytest.fixture(scope="module")
def chol_graph(chol_case):
    return dependency_graph(chol_case.schedule)


class TestDependencyGraph:
    def test_one_node_per_compute_step(self, tbs_case, tbs_graph):
        n_computes = sum(1 for s in tbs_case.schedule.steps if isinstance(s, ComputeStep))
        assert len(tbs_graph) == n_computes > 0

    def test_tbs_is_pure_reduction(self, tbs_graph):
        # SYRK only accumulates into disjoint triangle blocks: the DAG is a
        # forest of per-block reduction chains, nothing else.
        counts = tbs_graph.edge_counts()
        assert counts["raw"] == counts["war"] == counts["waw"] == 0
        assert counts["reduction"] > 0
        # each chain has one op per streamed column
        assert tbs_graph.critical_path_cost() <= MC + 1

    def test_chol_has_true_dependences(self, chol_graph):
        # Cholesky's factor/solve/downdate pipeline is a deep DAG.
        counts = chol_graph.edge_counts()
        assert counts["raw"] > 0
        assert counts["waw"] > 0
        assert chol_graph.critical_path_cost() > 10

    def test_edges_point_forward(self, tbs_graph, chol_graph):
        for g in (tbs_graph, chol_graph):
            for u, v, _kinds in g.edges():
                assert u < v

    def test_original_order_is_valid(self, chol_graph):
        order = list(range(len(chol_graph)))
        assert chol_graph.is_valid_order(order)
        assert not chol_graph.is_valid_order(order[:-1])  # not a permutation

    def test_reversed_reduction_chain(self, tbs_graph):
        # Reversing a reduction chain breaks the strict order but is legal
        # once reductions are relaxed — that is exactly the commuting class.
        chain = tbs_graph.reduction_classes()[0]
        order = list(range(len(tbs_graph)))
        for a, b in zip(chain, reversed(chain)):
            order[a] = b
        assert not tbs_graph.is_valid_order(order)
        assert tbs_graph.is_valid_order(order, relax_reductions=True)

    def test_reduction_classes_are_accumulations(self, tbs_graph, chol_graph):
        for g in (tbs_graph, chol_graph):
            classes = g.reduction_classes()
            assert classes
            for group in classes:
                assert len(group) > 1
                assert all(g.accumulates[i] for i in group)

    def test_depths_consistent(self, chol_graph):
        depths = chol_graph.depths()
        for u, v, _k in chol_graph.edges():
            assert depths[v] >= depths[u] + 1
        assert chol_graph.critical_path_cost() == max(depths) + 1

    def test_from_edges(self, chol_graph):
        # An edge list round-trips, and a repeated pair ORs its kinds.
        again = DependencyGraph.from_edges(len(chol_graph), chol_graph.edges())
        assert again.edges() == chol_graph.edges()
        assert again.reduction_classes() == chol_graph.reduction_classes()
        graph = DependencyGraph.from_edges(
            3, [(0, 2, "raw"), (0, 2, {"war", "waw"}), (1, 2, "reduction")],
            inputs=[[5], [], [7]], writes=[[7], [7], []],
        )
        assert graph.edges() == [
            (0, 2, frozenset({"raw", "war", "waw"})), (1, 2, frozenset({"reduction"}))
        ]
        assert graph.effective_preds(2, relax_reductions=True) == [0]
        assert graph.touched(0) == {5, 7} and graph.writes(1) == {7}
        assert graph.edge_flow(0, 2) == {7}
        for bad in (
            dict(edges=[(2, 1, "raw")]),                 # backward
            dict(edges=[(0, 1, "rar")]),                 # unknown kind
            dict(edges=[], ops=[None]),                  # one op for three
            dict(edges=[], writes=[[-1], [], []]),       # negative element
        ):
            with pytest.raises(ConfigurationError):
                DependencyGraph.from_edges(3, **bad)

    def test_rejects_non_schedule(self):
        with pytest.raises(ConfigurationError):
            dependency_graph([1, 2, 3])


class TestListScheduler:
    def test_original_heuristic_is_identity(self, tbs_graph, chol_graph):
        for g in (tbs_graph, chol_graph):
            res = list_schedule(g, "original")
            assert res.order == list(range(len(g)))

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    @pytest.mark.parametrize("relax", [False, True])
    def test_all_heuristics_emit_valid_orders(self, chol_graph, heuristic, relax):
        res = list_schedule(chol_graph, heuristic, relax_reductions=relax)
        assert sorted(res.order) == list(range(len(chol_graph)))
        assert chol_graph.is_valid_order(res.order, relax_reductions=relax)

    def test_unknown_heuristic(self, tbs_graph):
        with pytest.raises(ConfigurationError, match="heuristic"):
            list_schedule(tbs_graph, "random")


class TestBeladyReplay:
    def test_never_above_lru(self, tbs_case, chol_case):
        for case in (tbs_case, chol_case):
            for capacity in (S, 2 * S, 4 * S):
                opt = belady_replay(case.schedule, capacity)
                lru = lru_replay(case.schedule, capacity)
                assert opt.loads <= lru.loads
                assert opt.loads >= opt.distinct  # at least the cold misses

    def test_same_access_sequence_as_lru(self, tbs_case):
        opt = belady_replay(tbs_case.schedule, S)
        lru = lru_replay(tbs_case.schedule, S)
        assert opt.n_accesses == lru.n_accesses
        assert opt.distinct == lru.distinct

    def test_infinite_capacity_hits_cold_floor(self, tbs_case):
        r = belady_replay(tbs_case.schedule, 10 ** 6)
        assert r.loads == r.distinct
        assert r.miss_rate == r.loads / r.n_accesses

    def test_monotone_in_capacity(self, tbs_case):
        vols = [belady_replay(tbs_case.schedule, c).loads for c in (S, 2 * S, 4 * S)]
        assert all(a >= b for a, b in zip(vols, vols[1:]))

    def test_capacity_must_be_positive(self, tbs_case):
        with pytest.raises(ConfigurationError):
            belady_replay(tbs_case.schedule, 0)

    def test_replacement_gap_at_least_one(self, tbs_case):
        assert replacement_gap(tbs_case.schedule, S) >= 1.0

    def test_access_sequence_marks_writes(self, tbs_case):
        writes = tbs_case.trace.is_write
        assert writes.any()           # C elements are written
        assert not writes.all()       # A elements are not


class TestRewriter:
    def test_original_order_rewrite_is_exact_and_cheaper(self, tbs_case):
        res = rewrite_schedule(tbs_case.schedule, S)
        assert res.summary["peak_occupancy"] <= S
        # on-demand loading never exceeds the hand-written explicit volume
        assert res.loads <= tbs_case.explicit_loads
        assert tbs_case.check_exact(res.schedule)

    @pytest.mark.parametrize("heuristic", HEURISTICS)
    def test_reschedule_heuristics_are_exact(self, tbs_case, heuristic):
        res = reschedule(tbs_case.schedule, S, heuristic)
        validate_schedule(res.schedule, S)
        assert tbs_case.check_exact(res.schedule)

    def test_chol_reschedule_is_exact(self, chol_case):
        res = reschedule(chol_case.schedule, S, "depth-first")
        assert chol_case.check_exact(res.schedule)

    def test_relaxed_reductions_allclose_not_bitexact(self, tbs_case):
        res = reschedule(tbs_case.schedule, S, "locality", relax_reductions=True)
        m = tbs_case.make_machine()
        replay_schedule(res.schedule, m)
        np.testing.assert_allclose(m.result("C"), tbs_case.reference["C"])

    def test_bad_orders_rejected(self, tbs_case, tbs_graph):
        with pytest.raises(ScheduleError, match="permutation"):
            rewrite_schedule(tbs_case.schedule, S, [0, 0, 1])
        chain = tbs_graph.reduction_classes()[0]
        order = list(range(len(tbs_graph)))
        order[chain[0]], order[chain[-1]] = order[chain[-1]], order[chain[0]]
        with pytest.raises(ScheduleError, match="violates"):
            rewrite_schedule(tbs_case.schedule, S, order, graph=tbs_graph)

    def test_capacity_too_small(self, tbs_case):
        with pytest.raises(ScheduleError, match="cannot fit"):
            rewrite_schedule(tbs_case.schedule, 3)

    def test_dirty_elements_written_back_once_loaded_again(self):
        # A schedule whose output region is evicted under pressure and
        # reloaded must round-trip partial sums through slow memory.
        n, mc, s = 12, 4, 6  # tile side 2: tiny memory forces churn
        rng = np.random.default_rng(3)
        a = rng.standard_normal((n, mc))

        def fresh():
            m = TwoLevelMachine(s)
            m.add_matrix("A", a)
            m.add_matrix("C", np.zeros((n, n)))
            return m

        m1 = fresh()
        sched = record_schedule(m1, lambda: tbs_syrk(m1, "A", "C", range(n), range(mc)))
        m1.assert_empty()
        res = reschedule(sched, s, "fan-out")  # interleaves blocks: heavy churn
        m2 = fresh()
        replay_schedule(res.schedule, m2)
        m2.assert_empty()
        assert np.array_equal(m2.result("C"), m1.result("C"))


class TestCompareHarness:
    def test_rows_and_invariants(self, tbs_case):
        comp = compare_case(tbs_case, ("original", "locality"), check_numerics=True)
        labels = [r.label for r in comp.rows]
        assert labels[:3] == ["explicit", "lru", "belady"]
        assert comp.row("belady").loads <= comp.row("lru").loads
        assert comp.row("reschedule:original").valid
        assert comp.row("reschedule:original").exact
        assert set(comp.rewrites) == {"original", "locality"}
        with pytest.raises(KeyError):
            comp.row("nope")

    def test_unknown_case_name(self):
        with pytest.raises(ConfigurationError, match="unknown case"):
            record_case("gemm", 10, 2, 15)

    def test_ooc_chol_case_records_cleanly(self, chol_case):
        # reference["A"] holds the in-place factor; its lower triangle must
        # reproduce the original SPD matrix (still intact in make_machine()).
        spd = chol_case.make_machine().result("A")
        factor = np.tril(chol_case.reference["A"])
        np.testing.assert_allclose(factor @ factor.T, spd, atol=1e-8)
