"""Tests for the sharded task-DAG executor (repro.parallel.executor)."""

import pytest

from repro.errors import ConfigurationError
from repro.graph.compare import record_case
from repro.graph.dependency import DependencyGraph, OpNode
from repro.graph.rewriter import rewrite_schedule
from repro.parallel import POLICIES, PARTITIONERS, execute_graph, partition_graph
from repro.trace.replay import belady_replay_trace, lru_replay_trace

N, M, S = 33, 4, 15


@pytest.fixture(scope="module")
def tbs_case():
    return record_case("tbs", N, M, S)


@pytest.fixture(scope="module")
def tbs_graph(tbs_case):
    return DependencyGraph.from_trace(tbs_case.trace)


class TestPartitioners:
    @pytest.mark.parametrize("heuristic", PARTITIONERS)
    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_every_op_assigned_once(self, tbs_graph, heuristic, p):
        owner = partition_graph(tbs_graph, p, heuristic)
        assert len(owner) == len(tbs_graph)
        assert set(owner) <= set(range(p))

    @pytest.mark.parametrize("heuristic", PARTITIONERS)
    def test_p1_is_trivial(self, tbs_graph, heuristic):
        assert partition_graph(tbs_graph, 1, heuristic) == [0] * len(tbs_graph)

    def test_level_greedy_uses_antichains(self, tbs_graph):
        # ops at equal depth are mutually independent; the partitioner may
        # spread any level across nodes without violating an edge
        owner = partition_graph(tbs_graph, 4, "level-greedy")
        depth = tbs_graph.depths()
        for u, v, _kinds in tbs_graph.edges():
            assert depth[u] < depth[v]
        assert len(set(owner)) == 4

    def test_owner_computes_never_splits_writers(self, tbs_graph):
        owner = partition_graph(tbs_graph, 4, "owner-computes")
        elem_writer: dict[int, int] = {}
        for v, node in enumerate(tbs_graph.nodes):
            for key in node.write_keys:
                assert elem_writer.setdefault(key, owner[v]) == owner[v]

    def test_owner_computes_zero_cut_for_syrk(self, tbs_graph):
        owner = partition_graph(tbs_graph, 4, "owner-computes")
        assert tbs_graph.cut_edges(owner) == []
        assert tbs_graph.cut_transfers(owner) == {}

    def test_locality_respects_balance_slack(self, tbs_graph):
        owner = partition_graph(tbs_graph, 4, "locality")
        mults = [0] * 4
        for v, node in enumerate(tbs_graph.nodes):
            mults[owner[v]] += max(int(node.op.mults), 1)
        assert max(mults) <= 1.2 * sum(mults) / 4 + max(
            max(int(n.op.mults), 1) for n in tbs_graph.nodes
        )

    def test_locality_slack_one_accepts_exact_balance(self):
        # Regression: the float cap `slack * sum(weights) / p` rounded below
        # the exact bound when the total is unrepresentable, so at
        # balance_slack=1.0 every node was "full", the cap fell back to
        # all-nodes, and affinity piled uniform ops onto one node.  The
        # integer cap keeps exact balance reachable: three uniform ops that
        # share an operand must still spread one-per-node.
        class _HugeOp:
            mults = 3002399751580331  # 3 * mults == 2**53 + 1 (inexact)

        nodes = [
            OpNode(
                index=i, op=_HugeOp(),
                input_keys=frozenset({99}), write_keys=frozenset({100 + i}),
            )
            for i in range(3)
        ]
        graph = DependencyGraph(nodes)
        owner = partition_graph(graph, 3, "locality", balance_slack=1.0)
        assert sorted(owner) == [0, 1, 2]

    def test_bad_args(self, tbs_graph):
        with pytest.raises(ConfigurationError):
            partition_graph(tbs_graph, 0)
        with pytest.raises(ConfigurationError):
            partition_graph(tbs_graph, 2, "random")


class TestCutAccounting:
    def test_cut_edges_vs_manual(self, tbs_graph):
        owner = partition_graph(tbs_graph, 4, "level-greedy")
        cut = tbs_graph.cut_edges(owner)
        expected = [(u, v, k) for u, v, k in tbs_graph.edges() if owner[u] != owner[v]]
        assert cut == expected

    def test_cut_transfers_elements_are_shared_writes(self, tbs_graph):
        owner = partition_graph(tbs_graph, 4, "level-greedy")
        flows = tbs_graph.cut_transfers(owner)
        for (src, dst), elems in flows.items():
            assert src != dst
            produced = set()
            for v, node in enumerate(tbs_graph.nodes):
                if owner[v] == src:
                    produced |= node.write_keys
            assert elems <= produced

    def test_owner_length_checked(self, tbs_graph):
        with pytest.raises(ConfigurationError):
            tbs_graph.cut_edges([0])


class TestExecutorSingleNode:
    def test_p1_rewrite_matches_single_node_optimum(self, tbs_case):
        summ = execute_graph(tbs_case.schedule, 1, S, policy="rewrite")
        base = rewrite_schedule(tbs_case.trace, S)
        assert (summ.shards[0].recv, summ.shards[0].send) == (base.loads, base.stores)
        assert summ.peak_ok

    @pytest.mark.parametrize("policy,replay", [
        ("lru", lru_replay_trace), ("belady", belady_replay_trace),
    ])
    def test_p1_counting_policies_bit_identical(self, tbs_case, policy, replay):
        summ = execute_graph(tbs_case.schedule, 1, S, policy=policy)
        ref = replay(tbs_case.trace, S)
        assert (summ.shards[0].recv, summ.shards[0].send) == (ref.loads, ref.stores)


class TestExecutorSharded:
    @pytest.mark.parametrize("p", [1, 4, 16])
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_peak_within_s_and_work_conserved(self, tbs_case, tbs_graph, p, partitioner):
        summ = execute_graph(
            tbs_case.schedule, p, S, partitioner=partitioner, policy="rewrite",
            graph=tbs_graph,
        )
        assert summ.peak_ok
        assert sum(r.n_ops for r in summ.shards) == len(tbs_graph)
        assert summ.total_mults == sum(int(n.op.mults) for n in tbs_graph.nodes)
        assert summ.compute_imbalance >= 1.0

    def test_transfer_totals_match_flows(self, tbs_case, tbs_graph):
        summ = execute_graph(tbs_case.schedule, 4, S, partitioner="level-greedy",
                             policy="lru", graph=tbs_graph)
        flows = tbs_graph.cut_transfers(list(summ.owner))
        assert summ.total_transfer == sum(len(e) for e in flows.values())
        # global in/out symmetry: every transferred element leaves exactly
        # one shard and arrives at exactly one (asserted inside
        # execute_graph too; total_transfer used to sum only the receiving
        # side with no cross-check against the senders)
        assert summ.total_transfer_out == summ.total_transfer
        assert summ.max_transfer_out <= summ.total_transfer_out
        assert summ.max_recv_incl_transfers >= summ.max_recv

    def test_summary_carries_weighted_span_and_makespan(self, tbs_case, tbs_graph):
        summ = execute_graph(tbs_case.schedule, 4, S, partitioner="level-greedy",
                             policy="lru", graph=tbs_graph, alpha=2.0, beta=0.5)
        mults = [float(n.op.mults) for n in tbs_graph.nodes]
        # units: critical_path counts ops, critical_path_mults counts work
        assert summ.critical_path == int(tbs_graph.critical_path_cost())
        assert summ.critical_path_mults == int(tbs_graph.critical_path_cost(mults))
        assert (summ.alpha, summ.beta) == (2.0, 0.5)
        assert summ.makespan >= max(summ.critical_path_mults,
                                    max(r.mults for r in summ.shards))

    def test_partitioner_label_override(self, tbs_case, tbs_graph):
        owner = partition_graph(tbs_graph, 3, "owner-computes")
        summ = execute_graph(tbs_case.schedule, 3, S, owner=owner, policy="lru",
                             graph=tbs_graph, partitioner_label="oc+refine")
        assert summ.partitioner == "oc+refine"

    def test_empty_shards_report_zero(self, tbs_case):
        # more nodes than ops is legal; idle shards report zeros
        p = len(DependencyGraph.from_trace(tbs_case.trace)) + 3
        summ = execute_graph(tbs_case.schedule, p, S, partitioner="level-greedy",
                             policy="lru")
        idle = [r for r in summ.shards if r.n_ops == 0]
        assert idle and all(r.recv == r.send == r.peak_memory == 0 for r in idle)
        assert summ.peak_ok

    def test_chol_case_executes(self):
        case = record_case("chol", 16, 0, S)
        summ = execute_graph(case.schedule, 4, S, partitioner="locality",
                             policy="rewrite")
        assert summ.peak_ok
        # every distinct element must be received by at least one shard
        assert summ.total_recv >= case.trace.n_elements
        assert sum(r.n_ops for r in summ.shards) == summ.n_ops

    def test_explicit_owner_roundtrip(self, tbs_case, tbs_graph):
        owner = partition_graph(tbs_graph, 3, "owner-computes")
        summ = execute_graph(tbs_case.schedule, 3, S, owner=owner, policy="lru",
                             graph=tbs_graph)
        assert summ.owner == tuple(owner)
        assert summ.partitioner == "explicit-owner"

    def test_mismatched_graph_rejected(self, tbs_case):
        # Regression: a graph from a different recording used to silently
        # truncate the replay instead of raising.
        other = record_case("tbs", 20, 2, S)
        small_graph = DependencyGraph.from_trace(other.trace)
        with pytest.raises(ConfigurationError, match="same recorded run"):
            execute_graph(tbs_case.schedule, 2, S, graph=small_graph)

    def test_graph_trace_reused(self, tbs_case, tbs_graph):
        summ = execute_graph(tbs_case.schedule, 2, S, policy="lru", graph=tbs_graph)
        direct = execute_graph(tbs_case.trace, 2, S, policy="lru", graph=tbs_graph)
        assert [(r.recv, r.send) for r in summ.shards] == \
            [(r.recv, r.send) for r in direct.shards]

    def test_bad_args(self, tbs_case):
        with pytest.raises(ConfigurationError):
            execute_graph(tbs_case.schedule, 2, 0)
        with pytest.raises(ConfigurationError):
            execute_graph(tbs_case.schedule, 2, S, policy="magic")
        with pytest.raises(ConfigurationError, match="unknown policy"):
            execute_graph(tbs_case.trace, 2, S, policy="explicit")
        assert POLICIES == ("rewrite", "lru", "belady")
        with pytest.raises(ConfigurationError):
            execute_graph(tbs_case.schedule, 2, S, owner=[0])
        with pytest.raises(ConfigurationError):
            execute_graph(tbs_case.schedule, 2, S,
                          owner=[5] * len(tbs_case.trace.ops))
