"""Tests for transfer-aware partition refinement and the makespan model."""

import pytest

from repro.errors import ConfigurationError, ScheduleError
from repro.graph.compare import record_case
from repro.graph.dependency import DependencyGraph, OpNode
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

N, M, S = 33, 4, 15


@pytest.fixture(scope="module")
def tbs_case():
    return record_case("tbs", N, M, S)


@pytest.fixture(scope="module")
def tbs_graph(tbs_case):
    return DependencyGraph.from_trace(tbs_case.trace)


def model_cost_from_scratch(graph, owner, p):
    """Brute-force recomputation of the ledger's objective."""
    footprint = [set() for _ in range(p)]
    for v, node in enumerate(graph.nodes):
        footprint[owner[v]] |= node.touched_keys()
    transfer_in = [0] * p
    for (_src, dst), elems in graph.cut_transfers(list(owner)).items():
        transfer_in[dst] += len(elems)
    return max(len(f) + t for f, t in zip(footprint, transfer_in))


class TestOwnerWalkMeasure:
    """The refine walk's drift check counts the model cost from scratch."""

    def test_measure_counts_from_scratch(self, tbs_graph):
        import random

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
            flows = tbs_graph.cut_transfers(owner)
            assert sum(ledger.transfer_in) == sum(len(e) for e in flows.values())
            assert sum(ledger.transfer_in) == sum(ledger.transfer_out)

    def test_incremental_moves_match_scratch(self, tbs_graph):
        import random

        rng = random.Random(11)
        owner = partition_graph(tbs_graph, 4, "level-greedy")
        ledger = PartitionLedger(tbs_graph, owner, 4)
        for _ in range(60):
            v = rng.randrange(len(tbs_graph))
            q = rng.randrange(4)
            ledger.move(v, q)
        assert ledger.cost() == model_cost_from_scratch(tbs_graph, ledger.owner, 4)
        assert sum(ledger.transfer_in) == sum(ledger.transfer_out)

    def test_move_then_undo_restores_exactly(self, tbs_graph):
        owner = partition_graph(tbs_graph, 3, "locality")
        ledger = PartitionLedger(tbs_graph, owner, 3)
        before = (
            list(ledger.owner), list(ledger.footprint),
            list(ledger.transfer_in), list(ledger.transfer_out),
            list(ledger.loads), dict(ledger.pair_count),
        )
        group = [0, 1, len(tbs_graph) // 2]
        undo = ledger.move_group(group, 2)
        ledger.undo(undo)
        after = (
            list(ledger.owner), list(ledger.footprint),
            list(ledger.transfer_in), list(ledger.transfer_out),
            list(ledger.loads), dict(ledger.pair_count),
        )
        assert before == after

    def test_bad_args(self, tbs_graph):
        with pytest.raises(ConfigurationError):
            PartitionLedger(tbs_graph, [0], 2)
        with pytest.raises(ConfigurationError):
            PartitionLedger(tbs_graph, [5] * len(tbs_graph), 2)


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

    def test_keep_writers_together_preserves_exclusive_writers(self, tbs_graph):
        seed = partition_graph(tbs_graph, 4, "owner-computes")
        result = refine_partition(
            tbs_graph, seed, 4, S, strategy="greedy", keep_writers_together=True
        )
        writer: dict[int, int] = {}
        for v, node in enumerate(tbs_graph.nodes):
            for key in node.write_keys:
                assert writer.setdefault(key, result.owner[v]) == result.owner[v]

    def test_balance_slack_respected(self, tbs_graph):
        seed = partition_graph(tbs_graph, 4, "level-greedy")
        slack = 1.1
        result = refine_partition(
            tbs_graph, seed, 4, S, strategy="greedy", balance_slack=slack
        )
        weights = [max(int(n.op.mults), 1) for n in tbs_graph.nodes]
        cap = max(
            balance_cap(sum(weights), 4, slack),
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
        for v, node in enumerate(tbs_graph.nodes):
            for key in node.write_keys:
                assert writer.setdefault(key, group_of[v]) == group_of[v]


class TestMakespanModel:
    def test_p1_serializes_all_work(self, tbs_graph):
        ms = makespan_model(tbs_graph, [0] * len(tbs_graph))
        total = sum(float(n.op.mults) for n in tbs_graph.nodes)
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
        owner = [0] * len(tbs_graph)
        order = tbs_graph.topological_order()
        ms = makespan_model(
            tbs_graph, owner, order=order, weights=[1.0] * len(tbs_graph)
        )
        assert ms.makespan == len(tbs_graph)
        assert ms.critical_path == int(tbs_graph.critical_path_cost())

    def test_bad_args(self, tbs_graph):
        n = len(tbs_graph)
        with pytest.raises(ConfigurationError):
            makespan_model(tbs_graph, [0] * (n - 1))
        with pytest.raises(ConfigurationError):
            makespan_model(tbs_graph, [0] * n, weights=[1.0])
        with pytest.raises(ConfigurationError):
            makespan_model(tbs_graph, [0] * n, alpha=-1.0)
        with pytest.raises(ConfigurationError):
            makespan_model(tbs_graph, [1] * n, p=1)
        with pytest.raises(ScheduleError):
            makespan_model(tbs_graph, [0] * n, order=list(range(n))[::-1])

    def test_empty_graph(self):
        empty = DependencyGraph([])
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
        mults = [float(n.op.mults) for n in tbs_graph.nodes]
        assert summ.critical_path == int(tbs_graph.critical_path_cost())
        assert summ.critical_path_mults == int(tbs_graph.critical_path_cost(mults))
        assert summ.makespan >= summ.critical_path_mults

    def test_length_mismatch_raises(self, tbs_graph):
        with pytest.raises(ConfigurationError):
            tbs_graph.critical_path_cost([1.0])
