"""Tests for the order-search engine (repro.graph.search + objective)."""

import pytest

from graph_oracles import LocalityScore, argbest
from repro.errors import ConfigurationError, ScheduleError
from repro.graph import (
    DependencyGraph,
    IncrementalObjective,
    STRATEGIES,
    Worklist,
    anneal_search,
    beam_search,
    dependency_graph,
    list_schedule,
    lookahead_search,
    order_cost,
    record_case,
    rewrite_schedule,
    search_order,
)
from repro.trace.replay import LruCursor, lru_replay_trace, op_access_lists

N, MC, S = 26, 3, 15


def peek(cursor, i):
    """Loads op ``i`` would cost if none of its misses evicted part of its
    own footprint: the footprint minus the resident elements.  The count
    :meth:`IncrementalObjective.candidates` ranks by."""
    return len(set(op_access_lists(cursor.trace)[i]).difference(cursor._cache))


@pytest.fixture(scope="module")
def tbs_case():
    return record_case("tbs", N, MC, S)


@pytest.fixture(scope="module")
def tbs_graph(tbs_case):
    return dependency_graph(tbs_case.trace)


@pytest.fixture(scope="module")
def chol_case():
    return record_case("chol", 16, 0, S)


@pytest.fixture(scope="module")
def chol_graph(chol_case):
    return dependency_graph(chol_case.trace)


class TestPrimitives:
    def test_argbest_all_zero_scores_picks_lowest_index(self):
        # The rescan oracle's selection rule (the incremental scheduler's
        # heap reproduces it): the explicit guard must pick the lowest
        # index when every candidate scores 0, and when scores go negative.
        assert argbest([5, 3, 9], lambda v: 0) == 3
        assert argbest([5, 3, 9], lambda v: -2) == 3
        assert argbest([], lambda v: 0) is None

    def test_locality_all_cold_emits_index_order(self, tbs_graph):
        # With window 0, nothing ever counts as recently touched: every
        # scoring round is all-zero and the schedule must degrade to the
        # original order rather than crash or mis-rank.
        result = list_schedule(tbs_graph, "locality", locality_window=0)
        assert result.order == list(range(len(tbs_graph)))

    @pytest.mark.parametrize("window", [-1, 2.5, None, "4", True])
    def test_locality_window_must_be_a_non_negative_int(self, tbs_graph, window):
        with pytest.raises(ConfigurationError, match="locality_window"):
            list_schedule(tbs_graph, "locality", locality_window=window)

    def test_worklist_emit_and_clone(self, chol_graph):
        wl = Worklist(chol_graph)
        snapshot = wl.clone()
        first = min(wl.ready)
        wl.emit(first)
        assert first not in wl.ready
        assert first in snapshot.ready          # clone unaffected
        with pytest.raises(ScheduleError):
            wl.emit(first)                      # not ready twice

    def test_locality_score_clone_is_isolated(self, tbs_graph):
        scorer = LocalityScore(tbs_graph, window=4)
        scorer.emit(0)
        clone = scorer.clone()
        clone.emit(1)
        assert scorer.step == 1 and clone.step == 2


class TestObjective:
    def test_cursor_matches_batch_lru(self, tbs_case, tbs_graph):
        trace = tbs_case.trace
        cursor = LruCursor(trace, S)
        for i in range(trace.n_ops):
            cursor.apply_op(i)
        assert cursor.loads == lru_replay_trace(trace, S).loads

    def test_cursor_started_from_a_recency_list_replays_the_suffix(self, tbs_case):
        trace = tbs_case.trace
        cursor = LruCursor(trace, S)
        for i in range(10):
            cursor.apply_op(i)
        resident, mid = list(cursor._cache), cursor.loads
        for i in range(10, trace.n_ops):
            cursor.apply_op(i)
        total = cursor.loads
        cursor.start(resident)
        assert cursor.loads == 0 and list(cursor._cache) == resident
        for i in range(10, trace.n_ops):
            cursor.apply_op(i)
        assert mid + cursor.loads == total      # same suffix, same cost

    def test_peek_is_a_lower_bound_on_apply(self, tbs_case):
        trace = tbs_case.trace
        cursor = LruCursor(trace, S)
        exact = 0
        for i in range(min(40, trace.n_ops)):
            peeked = peek(cursor, i)
            applied = cursor.apply_op(i)
            assert applied >= peeked            # peek is optimistic
            exact += applied == peeked
        assert exact > 0                        # and usually exact

    def test_peek_underestimates_on_self_evicting_op(self):
        # The documented caveat of the candidates' miss count: with
        # capacity 2 and cache [a, b] (a oldest), an op accessing [c, a]
        # counts 1 miss (only c), but applying it evicts a to admit c and
        # must re-load a — 2 loads.
        import numpy as np

        from repro.trace.compiled import CompiledTrace

        ids = np.array([0, 1, 2, 0], dtype=np.int64)  # ops: [a,b] then [c,a]
        starts = np.array([0, 2, 4], dtype=np.int64)
        trace = CompiledTrace(
            matrices=("M",), shapes={"M": (1, 3)},
            elem_ids=ids, is_write=np.zeros(4, dtype=bool),
            op_starts=starts, op_read_ends=starts[1:].copy(),
            key_matrix=np.zeros(3, dtype=np.int32),
            key_flat=np.arange(3, dtype=np.int64), ops=None,
        )
        cursor = LruCursor(trace, 2)
        cursor.apply_op(0)                      # cache: [a, b]
        assert peek(cursor, 1) == 1
        assert cursor.apply_op(1) == 2          # c loads, a re-loads
        # the exact count still matches the batch engine
        assert cursor.loads == lru_replay_trace(trace, 2).loads

    def test_objective_candidates_report_exact_misses(self, tbs_graph):
        obj = IncrementalObjective(tbs_graph, S)
        emitted = []
        while not obj.done:
            cands = obj.candidates(4)
            for miss, v in cands:
                assert peek(obj.cursor, v) == miss
            obj.emit(cands[0][1])
            emitted.append(cands[0][1])
        # the accumulated objective is the exact LRU Q of the emitted order
        assert obj.cost == order_cost(tbs_graph.trace, emitted, S)

    def test_element_op_rows_cover_all_ops(self, tbs_case, tbs_graph):
        trace = tbs_case.trace
        lists = tbs_graph.element_ops.rows()
        assert len(lists) == trace.n_elements
        covered = set()
        for ops in lists:
            covered.update(ops)
        assert covered == set(range(trace.n_ops))

    def test_order_cost_policies(self, tbs_case):
        trace = tbs_case.trace
        identity = list(range(trace.n_ops))
        lru = order_cost(trace, identity, S)
        opt = order_cost(trace, identity, S, policy="belady")
        assert opt <= lru
        assert lru == lru_replay_trace(trace, S).loads
        with pytest.raises(ConfigurationError):
            order_cost(trace, identity, S, policy="fifo")


class TestStrategies:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("relax", [False, True])
    def test_orders_are_legal(self, tbs_graph, chol_graph, strategy, relax):
        for graph in (tbs_graph, chol_graph):
            result = search_order(
                graph, S, strategy, relax_reductions=relax,
                **({"iters": 60} if strategy == "anneal" else {}),
            )
            assert sorted(result.order) == list(range(len(graph)))
            assert graph.is_valid_order(result.order, relax_reductions=relax)
            assert result.cost == order_cost(graph.trace, result.order, S)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_strict_orders_replay_bit_identically(self, tbs_case, tbs_graph, strategy):
        result = search_order(
            tbs_graph, S, strategy, relax_reductions=False,
            **({"iters": 60} if strategy == "anneal" else {}),
        )
        rewrite = rewrite_schedule(tbs_case.trace, S, result.order, graph=tbs_graph)
        assert tbs_case.check_exact(rewrite.schedule)

    def test_beam_deterministic_and_wider_is_no_worse(self, tbs_graph):
        a = beam_search(tbs_graph, S, width=2, relax_reductions=True)
        b = beam_search(tbs_graph, S, width=2, relax_reductions=True)
        assert a.order == b.order
        wide = beam_search(tbs_graph, S, width=6, relax_reductions=True)
        assert wide.cost <= a.cost + 50  # wider beams explore a superset-ish

    def test_lookahead_depth_zero_is_pure_greedy(self, tbs_graph):
        greedy = lookahead_search(tbs_graph, S, depth=0)
        assert greedy.evaluations == 0
        rolled = lookahead_search(tbs_graph, S, depth=3)
        assert rolled.evaluations > 0

    def test_anneal_never_worse_than_start(self, tbs_graph):
        start = list_schedule(tbs_graph, "original", relax_reductions=True).order
        start_cost = order_cost(tbs_graph.trace, start, S)
        result = anneal_search(
            tbs_graph, S, iters=150, seed=3, relax_reductions=True, start=start
        )
        assert result.cost <= start_cost        # best-seen is returned

    def test_anneal_seed_determinism(self, tbs_graph):
        a = anneal_search(tbs_graph, S, iters=80, seed=11)
        b = anneal_search(tbs_graph, S, iters=80, seed=11)
        assert a.order == b.order and a.cost == b.cost

    def test_anneal_accepts_start_heuristic_name(self, chol_graph):
        result = anneal_search(chol_graph, S, iters=40, start="depth-first",
                               relax_reductions=False)
        assert chol_graph.is_valid_order(result.order)
        with pytest.raises(ConfigurationError):
            anneal_search(chol_graph, S, iters=0, start="nope")

    def test_result_ops_follow_order(self, tbs_graph):
        result = search_order(tbs_graph, S, "beam")
        ops = result.ops()
        assert ops == [tbs_graph.ops[i] for i in result.order]

    def test_unknown_strategy(self, tbs_graph):
        with pytest.raises(ConfigurationError):
            search_order(tbs_graph, S, "exhaustive")

    def test_bad_parameters(self, tbs_graph):
        with pytest.raises(ConfigurationError):
            beam_search(tbs_graph, S, width=0)
        with pytest.raises(ConfigurationError):
            lookahead_search(tbs_graph, S, breadth=0)
        with pytest.raises(ConfigurationError):
            anneal_search(tbs_graph, S, iters=-1)

    def test_graph_without_trace_is_rejected(self, tbs_graph):
        bare = DependencyGraph.from_edges(len(tbs_graph), tbs_graph.edges())  # no trace
        with pytest.raises(ConfigurationError):
            search_order(bare, S, "beam")


class TestCompareIntegration:
    def test_search_rows_in_comparison(self, tbs_case):
        from repro.graph import compare_case

        comp = compare_case(
            tbs_case, ("original",), search_strategies=("beam",),
            relax_reductions=True,
            search_kwargs={"beam": {"width": 2}},
        )
        row = comp.row("search:beam")
        assert row.valid is True and row.exact is None  # relaxed: no bit check
        assert "search:beam" in comp.rewrites
        strict = compare_case(
            tbs_case, (), search_strategies=("anneal",),
            search_kwargs={"anneal": {"iters": 30}},
        )
        assert strict.row("search:anneal").exact is True
