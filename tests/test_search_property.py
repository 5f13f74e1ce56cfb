"""Property-based checks for the order-search engine.

Two generators feed the same invariants — mirroring the
``tests/test_trace_property.py`` pattern (hypothesis when available, a
seeded random sweep otherwise, so the suite does not depend on the
package):

* every search strategy emits a *legal* topological order of the
  dependence DAG for its ``relax_reductions`` setting, and the returned
  ``cost`` is the genuine LRU load count of that order;
* with reductions kept (``relax_reductions=False``), every searched
  order rewrites into an explicit schedule that replays **bit-identical**
  numerics to the recorded run;
* the LRU ledger's start state (the annealing engine's cost hook), read
  backwards off the ops before a split point, equals a cold replay's
  cache there, and the suffix replayed from it agrees with a cold full
  replay at every split point;
* the annealers' window-local legality check agrees with the full check
  on every segment move proposed from a legal order.
"""

import random

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.baselines.ooc_syrk import ooc_syrk
from repro.core.tbs import tbs_syrk
from repro.graph.compare import record_case
from repro.graph.dependency import DependencyGraph
from repro.graph.objective import order_cost
from repro.graph.rewriter import rewrite_schedule
from repro.graph.scheduler import HEURISTICS, list_schedule
from repro.graph.search import (
    STRATEGIES,
    propose_segment_move,
    reduction_class_of,
    search_order,
)
from repro.sched.schedule import record_schedule
from repro.trace.compiled import compile_trace
from repro.trace.replay import LruCursor, LruLedger, lru_replay_trace

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

SEARCH_KWARGS = {"anneal": {"iters": 40}}


def record_kernel(kernel_name: str, n: int, mc: int, s: int, *, numerics: bool):
    kernel = tbs_syrk if kernel_name == "tbs" else ooc_syrk
    m = TwoLevelMachine(s, numerics=numerics)
    rng = np.random.default_rng(n * 100 + mc)
    a = rng.standard_normal((n, mc)) if numerics else np.zeros((n, mc))
    m.add_matrix("A", a)
    m.add_matrix("C", np.zeros((n, n)))
    schedule = record_schedule(m, lambda: kernel(m, "A", "C", range(n), range(mc)))
    reference = m.result("C").copy() if numerics else None
    return schedule, a, reference


def check_legality(schedule, s):
    trace = compile_trace(schedule)
    graph = DependencyGraph.from_trace(trace)
    for strategy in STRATEGIES:
        for relax in (False, True):
            result = search_order(
                graph, s, strategy, relax_reductions=relax,
                **SEARCH_KWARGS.get(strategy, {}),
            )
            assert sorted(result.order) == list(range(len(graph))), (strategy, relax)
            assert graph.is_valid_order(result.order, relax_reductions=relax), (
                strategy, relax)
            assert result.cost == order_cost(trace, result.order, s), (strategy, relax)


def check_bit_identical(kernel_name, n, mc, s):
    schedule, a, reference = record_kernel(kernel_name, n, mc, s, numerics=True)
    trace = compile_trace(schedule)
    graph = DependencyGraph.from_trace(trace)
    for strategy in STRATEGIES:
        result = search_order(
            graph, s, strategy, relax_reductions=False,
            **SEARCH_KWARGS.get(strategy, {}),
        )
        rewrite = rewrite_schedule(trace, s, result.order, graph=graph)
        m = TwoLevelMachine(s)
        m.add_matrix("A", a)
        m.add_matrix("C", np.zeros((n, n)))
        from repro.sched.schedule import replay_schedule

        replay_schedule(rewrite.schedule, m)
        m.assert_empty()
        assert np.array_equal(m.result("C"), reference), strategy


#: kernel -> (N, M) of the window-legality graphs, recorded at S=15.
WINDOW_CASES = {"tbs": (20, 3), "syr2k": (12, 2), "chol": (12, 0)}
_WINDOW_GRAPHS: dict = {}


def window_graph(kernel: str) -> DependencyGraph:
    if kernel not in _WINDOW_GRAPHS:
        n, mc = WINDOW_CASES[kernel]
        _WINDOW_GRAPHS[kernel] = DependencyGraph.from_trace(
            record_case(kernel, n, mc, 15).trace
        )
    return _WINDOW_GRAPHS[kernel]


def check_window_legality(kernel, relax, heuristic, seed, moves=150):
    """is_valid_window == is_valid_order on proposals from legal orders.

    The walk starts from a list-schedule order and adopts about half of
    the legal proposals, so later proposals come from orders no heuristic
    emits.
    """
    graph = window_graph(kernel)
    order = list_schedule(graph, heuristic, relax_reductions=relax).order
    class_of = reduction_class_of(graph)
    rng = random.Random(seed)
    verdicts = set()
    for _ in range(moves):
        i, j, segment = propose_segment_move(order, class_of, rng)
        candidate = order[:i] + segment + order[j:]
        legal = graph.is_valid_order(candidate, relax_reductions=relax)
        assert graph.is_valid_window(segment, relax_reductions=relax) == legal, (
            kernel, relax, i, j)
        verdicts.add(legal)
        if legal and rng.random() < 0.5:
            order = candidate
    return verdicts


def check_suffix_replay(schedule, s, split_fraction):
    trace = compile_trace(schedule)
    order = list(range(trace.n_ops))
    split = int(trace.n_ops * split_fraction)
    cold = LruCursor(trace, s)
    for i in order[:split]:
        cold.apply_op(i)
    ledger = LruLedger(trace, s, order)
    resident = list(ledger._resident(order, None, 0, split))
    assert resident == list(cold._cache)
    resumed = LruCursor(trace, s)
    resumed.start(resident)
    prefix = cold.loads
    for i in order[split:]:
        resumed.apply_op(i)
        cold.apply_op(i)
    assert prefix + resumed.loads == cold.loads == lru_replay_trace(trace, s).loads
    # a score from the split with no settled position replays the suffix
    assert ledger.score(order, from_pos=split) == [cold.loads]
    assert ledger.work == trace.n_ops - split


if HAVE_HYPOTHESIS:

    @settings(max_examples=10, deadline=None)
    @given(
        kernel=st.sampled_from(["tbs", "ocs"]),
        n=st.integers(min_value=8, max_value=22),
        mc=st.integers(min_value=1, max_value=3),
        s=st.integers(min_value=9, max_value=24),
    )
    def test_search_orders_legal_hypothesis(kernel, n, mc, s):
        schedule, _a, _ref = record_kernel(kernel, n, mc, s, numerics=False)
        check_legality(schedule, s)

    @settings(max_examples=6, deadline=None)
    @given(
        kernel=st.sampled_from(["tbs", "ocs"]),
        n=st.integers(min_value=8, max_value=16),
        mc=st.integers(min_value=1, max_value=2),
        split=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_strict_search_bit_identical_hypothesis(kernel, n, mc, split):
        check_bit_identical(kernel, n, mc, 12)
        schedule, _a, _ref = record_kernel(kernel, n, mc, 12, numerics=False)
        check_suffix_replay(schedule, 12, split)

    @settings(max_examples=12, deadline=None)
    @given(
        kernel=st.sampled_from(sorted(WINDOW_CASES)),
        relax=st.booleans(),
        heuristic=st.sampled_from(HEURISTICS),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_window_legality_matches_full_check_hypothesis(
        kernel, relax, heuristic, seed
    ):
        check_window_legality(kernel, relax, heuristic, seed)


def test_search_orders_legal_seeded_sweep():
    rng = np.random.default_rng(2024)
    for _ in range(5):
        kernel = "tbs" if rng.random() < 0.5 else "ocs"
        n = int(rng.integers(8, 22))
        mc = int(rng.integers(1, 4))
        s = int(rng.integers(9, 25))
        schedule, _a, _ref = record_kernel(kernel, n, mc, s, numerics=False)
        check_legality(schedule, s)
        check_suffix_replay(schedule, s, float(rng.random()))


def test_strict_search_bit_identical_seeded_sweep():
    rng = np.random.default_rng(7)
    for _ in range(3):
        kernel = "tbs" if rng.random() < 0.5 else "ocs"
        n = int(rng.integers(8, 17))
        mc = int(rng.integers(1, 3))
        check_bit_identical(kernel, n, mc, 12)


@pytest.mark.parametrize("kernel", sorted(WINDOW_CASES))
@pytest.mark.parametrize("relax", [False, True])
def test_window_legality_matches_full_check_seeded(kernel, relax):
    verdicts = set()
    for k, heuristic in enumerate(HEURISTICS):
        verdicts |= check_window_legality(kernel, relax, heuristic, 31 * k + 5)
    assert True in verdicts
    if not relax:
        # strict mode rejects some proposals: both verdicts are compared
        assert False in verdicts
