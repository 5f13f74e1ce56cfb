"""Tests for transfer-aware partition refinement and the makespan model."""

import random

import pytest

from repro.errors import ConfigurationError, ScheduleError
from repro.graph.compare import record_case
from repro.graph.dependency import DependencyGraph
from repro.parallel import (
    PARTITIONERS,
    REFINE_STRATEGIES,
    PartitionLedger,
    balance_cap,
    execute_graph,
    makespan_model,
    partition_cost,
    partition_graph,
    refine_partition,
    write_groups,
)
from repro.parallel.refine import BALANCE_SLACK

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

N, M, S = 33, 4, 15


@pytest.fixture(scope="module")
def tbs_case():
    return record_case("tbs", N, M, S)


@pytest.fixture(scope="module")
def tbs_graph(tbs_case):
    return DependencyGraph.from_trace(tbs_case.trace)


def ledger_state(ledger):
    """Everything a :class:`PartitionLedger` counts, as plain values."""
    return (
        list(ledger.owner), list(ledger.loads), list(ledger.footprint),
        [dict(c) for c in ledger.elem_count], dict(ledger.pair_count),
        list(ledger.transfer_in),
    )


def check_pricing(graph, p, seed, proposals=40):
    """``price`` equals apply-then-read on random groups and destinations,
    and leaves every reference count as it was.

    Groups are single ops, whole reduction classes and random op sets
    (which may hold edges with both ends inside, and ops already on the
    destination); about a third of the moves are then applied, so later
    proposals price against a moved state.
    """
    rng = random.Random(seed)
    n = len(graph)
    owner = [rng.randrange(p) for _ in range(n)]
    ledger = PartitionLedger(graph, owner, p)
    classes = graph.reduction_classes()
    for _ in range(proposals):
        kind = rng.random()
        if kind < 0.4:
            group = [rng.randrange(n)]
        elif kind < 0.7 and classes:
            group = list(classes[rng.randrange(len(classes))])
        else:
            v = rng.randrange(n)
            near = range(max(0, v - 8), min(n, v + 9))
            group = sorted({v, *rng.sample(near, min(len(near), rng.randrange(1, 6)))})
        q = rng.randrange(p)
        before = ledger_state(ledger)
        priced = ledger.price(group, q)
        assert ledger_state(ledger) == before
        applied = PartitionLedger(graph, ledger.owner, p)
        applied.move_group(group, q)
        assert priced == (applied.transfer_in, applied.footprint)
        assert ledger.cost(priced) == applied.cost()
        assert applied.cost() == model_cost_from_scratch(graph, applied.owner, p)
        if rng.random() < 0.35:
            ledger.move_group(group, q)
            assert ledger_state(ledger) == ledger_state(applied)


def cut_transfer_in(graph, owner, p):
    """Per-node incoming transfer volumes of the cut under ``owner``."""
    transfer_in = [0] * p
    for (_src, dst), elems in graph.cut_transfers(list(owner)).items():
        transfer_in[dst] += len(elems)
    return transfer_in


def model_cost_from_scratch(graph, owner, p):
    """Brute-force recomputation of the ledger's objective."""
    footprint = [set() for _ in range(p)]
    for v in range(len(graph)):
        footprint[owner[v]] |= graph.touched(v)
    transfer_in = cut_transfer_in(graph, owner, p)
    return max(len(f) + t for f, t in zip(footprint, transfer_in))


class TestOwnerWalkMeasure:
    """The refine walk's drift check counts the model cost from scratch."""

    def test_measure_counts_from_scratch(self, tbs_graph):
        from repro.parallel.refine import OwnerMove, OwnerWalk

        rng = random.Random(5)
        owner = partition_graph(tbs_graph, 4, "level-greedy")
        walk = OwnerWalk(OwnerMove(PartitionLedger(tbs_graph, owner, 4)))
        for _ in range(8):
            owner = [rng.randrange(4) for _ in range(len(tbs_graph))]
            assert walk.measure(owner) == model_cost_from_scratch(tbs_graph, owner, 4)

    def test_a_drifted_ledger_fails_the_walk(self, tbs_graph):
        from repro.graph.search import run_chain
        from repro.parallel.refine import OwnerMove, OwnerWalk

        owner = partition_graph(tbs_graph, 4, "level-greedy")
        ledger = PartitionLedger(tbs_graph, owner, 4)
        ledger.footprint = [f + 7 for f in ledger.footprint]
        walk = OwnerWalk(OwnerMove(ledger))
        assert walk.measure(ledger.owner) == ledger.cost() - 7
        with pytest.raises(ScheduleError, match="drifted"):
            run_chain(walk, iters=20, seed=0)


class TestPartitionLedger:
    def test_initial_state_matches_scratch(self, tbs_graph):
        for part in PARTITIONERS:
            owner = partition_graph(tbs_graph, 4, part)
            ledger = PartitionLedger(tbs_graph, owner, 4)
            assert ledger.cost() == model_cost_from_scratch(tbs_graph, owner, 4)
            assert ledger.transfer_in == cut_transfer_in(tbs_graph, owner, 4)

    def test_incremental_moves_match_scratch(self, tbs_graph):
        rng = random.Random(11)
        owner = partition_graph(tbs_graph, 4, "level-greedy")
        ledger = PartitionLedger(tbs_graph, owner, 4)
        for _ in range(60):
            v = rng.randrange(len(tbs_graph))
            q = rng.randrange(4)
            ledger.move(v, q)
        assert ledger.cost() == model_cost_from_scratch(tbs_graph, ledger.owner, 4)
        assert ledger.transfer_in == cut_transfer_in(tbs_graph, ledger.owner, 4)

    def test_price_equals_apply_then_read(self, tbs_graph):
        check_pricing(tbs_graph, 3, seed=0, proposals=20)

    def test_bad_args(self, tbs_graph):
        with pytest.raises(ConfigurationError):
            PartitionLedger(tbs_graph, [0], 2)
        with pytest.raises(ConfigurationError):
            PartitionLedger(tbs_graph, [5] * len(tbs_graph), 2)


_PRICE_GRAPHS: dict = {}


def price_graph(kernel: str) -> DependencyGraph:
    """A small tbs or Cholesky graph for the pricing sweeps."""
    if kernel not in _PRICE_GRAPHS:
        case = record_case(kernel, 20, 0 if kernel == "chol" else 3, S)
        _PRICE_GRAPHS[kernel] = DependencyGraph.from_trace(case.trace)
    return _PRICE_GRAPHS[kernel]


class TestPartitionLedgerPrice:
    """:meth:`PartitionLedger.price` against its oracle, apply-then-read."""

    @pytest.mark.parametrize("kernel", ["tbs", "chol"])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_seeded_sweep(self, kernel, p):
        check_pricing(price_graph(kernel), p, seed=p)

    if HAVE_HYPOTHESIS:

        @settings(max_examples=12, deadline=None)
        @given(
            kernel=st.sampled_from(["tbs", "chol"]),
            p=st.sampled_from([2, 3, 4]),
            seed=st.integers(min_value=0, max_value=2**16),
        )
        def test_hypothesis(self, kernel, p, seed):
            check_pricing(price_graph(kernel), p, seed, proposals=15)

    def test_a_move_to_its_own_node_prices_the_committed_state(self, tbs_graph):
        ledger = PartitionLedger(tbs_graph, partition_graph(tbs_graph, 2, "locality"), 2)
        group = [v for v in range(8) if ledger.owner[v] == ledger.owner[0]]
        priced = ledger.price(group, ledger.owner[0])
        assert priced == (ledger.transfer_in, ledger.footprint)
        assert ledger.cost(priced) == ledger.cost()


class TestPartitionCost:
    def test_matches_executor(self, tbs_case, tbs_graph):
        owner = partition_graph(tbs_graph, 4, "level-greedy")
        for policy in ("belady", "lru"):
            cost = partition_cost(tbs_graph, owner, 4, S, policy=policy)
            summ = execute_graph(
                tbs_case.schedule, 4, S, owner=owner, policy=policy,
                graph=tbs_graph,
            )
            assert cost == summ.max_recv_incl_transfers

    def test_bad_args(self, tbs_graph):
        with pytest.raises(ConfigurationError):
            partition_cost(tbs_graph, [0] * len(tbs_graph), 1, S, policy="magic")
        with pytest.raises(ConfigurationError):
            partition_cost(tbs_graph, [0], 1, S)
        with pytest.raises(ConfigurationError):
            partition_cost(tbs_graph, [3] * len(tbs_graph), 2, S)


class TestRefinePartition:
    @pytest.mark.parametrize("strategy", REFINE_STRATEGIES)
    def test_never_worse_and_exact_cover(self, tbs_graph, strategy):
        seed = partition_graph(tbs_graph, 4, "level-greedy")
        result = refine_partition(
            tbs_graph, seed, 4, S, strategy=strategy, iters=120, max_moves=64
        )
        assert result.cost <= result.seed_cost
        assert result.cost == partition_cost(tbs_graph, result.owner, 4, S)
        assert result.seed_cost == partition_cost(tbs_graph, seed, 4, S)
        assert len(result.owner) == len(tbs_graph)
        assert set(result.owner) <= set(range(4))
        assert result.seed_owner == tuple(seed)

    def test_greedy_improves_level_greedy(self, tbs_graph):
        seed = partition_graph(tbs_graph, 4, "level-greedy")
        result = refine_partition(tbs_graph, seed, 4, S, strategy="greedy")
        assert result.improved
        assert result.moves > 0

    def test_balance_slack_respected(self, tbs_graph):
        seed = partition_graph(tbs_graph, 4, "level-greedy")
        result = refine_partition(tbs_graph, seed, 4, S, strategy="greedy")
        weights = [max(int(op.mults), 1) for op in tbs_graph.ops]
        cap = max(
            balance_cap(sum(weights), 4, BALANCE_SLACK),
            max(
                sum(w for v, w in enumerate(weights) if seed[v] == q)
                for q in range(4)
            ),
        )
        loads = [0] * 4
        for v, q in enumerate(result.owner):
            loads[q] += weights[v]
        assert max(loads) <= cap

    def test_p1_is_noop(self, tbs_graph):
        seed = [0] * len(tbs_graph)
        result = refine_partition(tbs_graph, seed, 1, S)
        assert result.owner == tuple(seed)
        assert result.cost == result.seed_cost

    def test_bad_args(self, tbs_graph):
        seed = [0] * len(tbs_graph)
        with pytest.raises(ConfigurationError):
            refine_partition(tbs_graph, seed, 2, S, strategy="magic")
        with pytest.raises(ConfigurationError):
            refine_partition(tbs_graph, seed, 0, S)
        with pytest.raises(ConfigurationError):
            refine_partition(tbs_graph, seed, 2, 0)
        with pytest.raises(ConfigurationError):
            refine_partition(tbs_graph, seed, 2, S, iters=-1)
        with pytest.raises(ConfigurationError):
            refine_partition(tbs_graph, seed, 2, S, max_moves=-1)


class TestWriteGroups:
    def test_partition_of_ops_and_exclusive_writes(self, tbs_graph):
        groups = write_groups(tbs_graph)
        seen = sorted(v for g in groups for v in g)
        assert seen == list(range(len(tbs_graph)))
        group_of = {}
        for gi, g in enumerate(groups):
            for v in g:
                group_of[v] = gi
        writer: dict[int, int] = {}
        for v in range(len(tbs_graph)):
            for key in tbs_graph.writes(v):
                assert writer.setdefault(key, group_of[v]) == group_of[v]


class TestMakespanModel:
    def test_p1_serializes_all_work(self, tbs_graph):
        ms = makespan_model(tbs_graph, [0] * len(tbs_graph))
        total = sum(float(op.mults) for op in tbs_graph.ops)
        assert ms.makespan == total
        assert ms.comm_latency == 0 and ms.n_cross_edges == 0
        assert ms.parallel_efficiency == pytest.approx(1.0)

    def test_bounded_below_by_both_floors(self, tbs_graph):
        for part in PARTITIONERS:
            owner = partition_graph(tbs_graph, 4, part)
            ms = makespan_model(tbs_graph, owner)
            assert ms.makespan >= ms.critical_path
            assert ms.makespan >= ms.max_busy
            assert 0 < ms.parallel_efficiency <= 1.0

    def test_alpha_beta_monotone(self, tbs_graph):
        owner = partition_graph(tbs_graph, 4, "level-greedy")
        lo = makespan_model(tbs_graph, owner, alpha=0.0, beta=0.0)
        hi = makespan_model(tbs_graph, owner, alpha=5.0, beta=2.0)
        assert hi.makespan >= lo.makespan
        assert lo.comm_latency == 0.0

    def test_zero_comm_for_owner_computes(self, tbs_graph):
        # owner-computes cuts no edges on the SYRK DAG at all
        owner = partition_graph(tbs_graph, 4, "owner-computes")
        ms = makespan_model(tbs_graph, owner, alpha=3.0, beta=7.0)
        assert ms.n_cross_edges == 0 and ms.comm_latency == 0.0

    def test_custom_order_and_weights(self, tbs_graph):
        """On one node any legal order takes the summed mults, and the
        critical path weighs each op by its mults."""
        owner = [0] * len(tbs_graph)
        order = tbs_graph.topological_order()
        ms = makespan_model(tbs_graph, owner, order=order)
        mults = [float(op.mults) for op in tbs_graph.ops]
        assert ms.makespan == sum(mults)
        assert ms.critical_path == tbs_graph.critical_path_cost(mults)

    def test_bad_args(self, tbs_graph):
        n = len(tbs_graph)
        with pytest.raises(ConfigurationError):
            makespan_model(tbs_graph, [0] * (n - 1))
        with pytest.raises(ConfigurationError):
            makespan_model(tbs_graph, [0] * n, alpha=-1.0)
        with pytest.raises(ConfigurationError):
            makespan_model(tbs_graph, [1] * n, p=1)
        with pytest.raises(ScheduleError):
            makespan_model(tbs_graph, [0] * n, order=list(range(n))[::-1])

    def test_empty_graph(self):
        empty = DependencyGraph.from_edges(0, [], ops=[])
        ms = makespan_model(empty, [], p=2)
        assert ms.makespan == 0.0 and ms.bottleneck == -1
        assert ms.parallel_efficiency == 1.0


class TestCriticalPathCost:
    def test_unit_weights_match_length(self):
        # No-argument form == explicit unit weights == the node-count
        # span: the longest chain has one more op than its deepest depth.
        for kernel, m in (("tbs", 3), ("chol", 0), ("syr2k", 3)):
            graph = DependencyGraph.from_trace(record_case(kernel, 20, m, S).trace)
            unit = graph.critical_path_cost()
            assert graph.critical_path_cost([1] * len(graph)) == unit, kernel
            assert unit == max(graph.depths()) + 1, kernel

    def test_weighted_span_in_summary(self, tbs_case, tbs_graph):
        summ = execute_graph(
            tbs_case.schedule, 4, S, partitioner="owner-computes",
            policy="lru", graph=tbs_graph,
        )
        mults = [float(op.mults) for op in tbs_graph.ops]
        assert summ.critical_path == int(tbs_graph.critical_path_cost())
        assert summ.critical_path_mults == int(tbs_graph.critical_path_cost(mults))
        assert summ.makespan >= summ.critical_path_mults

    def test_length_mismatch_raises(self, tbs_graph):
        with pytest.raises(ConfigurationError):
            tbs_graph.critical_path_cost([1.0])
