"""Tests for the parallel (P-node) model: assignments and simulation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kernels.flops import syrk_mults
from repro.parallel.partition import (
    BlockSpec,
    _deal,
    balance_cap,
    square_tile_assignment,
    triangle_block_assignment,
)
from repro.parallel.simulate import NodeReport, ParallelSummary, simulate_syrk


class TestBlockSpec:
    def test_rect_pairs(self):
        b = BlockSpec("rect", (3, 4), (0, 1))
        assert b.pairs() == {(3, 0), (3, 1), (4, 0), (4, 1)}
        assert b.n_pairs() == 4

    def test_diag_pairs(self):
        b = BlockSpec("diag", (1, 2))
        assert b.pairs() == {(1, 1), (2, 1), (2, 2)}
        assert b.n_pairs() == 3

    def test_triangle_pairs(self):
        b = BlockSpec("triangle", (0, 3, 7))
        assert b.pairs() == {(3, 0), (7, 0), (7, 3)}
        assert b.n_pairs() == 3

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            BlockSpec("blob", (1,)).pairs()


class TestAssignments:
    @pytest.mark.parametrize("mk", [square_tile_assignment, triangle_block_assignment])
    @pytest.mark.parametrize("n,p", [(20, 1), (27, 3), (40, 4), (60, 7), (33, 16)])
    def test_exact_cover(self, mk, n, p):
        asg = mk(n, p, 15)
        assert len(asg.blocks) == p
        assert asg.validate_exact_cover()

    @pytest.mark.parametrize("mk", [square_tile_assignment, triangle_block_assignment])
    def test_balance_reasonable(self, mk):
        asg = mk(120, 8, 15)
        counts = asg.node_pair_counts()
        assert max(counts) <= 1.25 * (sum(counts) / len(counts))

    def test_triangle_strategy_uses_triangle_blocks(self):
        asg = triangle_block_assignment(60, 4, 15)
        kinds = {b.kind for node in asg.blocks for b in node}
        assert "triangle" in kinds

    def test_square_strategy_has_no_triangle_blocks(self):
        asg = square_tile_assignment(60, 4, 15)
        kinds = {b.kind for node in asg.blocks for b in node}
        assert kinds <= {"rect", "diag"}

    def test_small_n_falls_back(self):
        # Below the TBS threshold the triangle strategy degenerates to tiles.
        asg = triangle_block_assignment(10, 2, 15)
        kinds = {b.kind for node in asg.blocks for b in node}
        assert "triangle" not in kinds
        assert asg.validate_exact_cover()

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            square_tile_assignment(0, 2, 15)
        with pytest.raises(ConfigurationError):
            triangle_block_assignment(10, 0, 15)


class TestDealBalance:
    """Regression: `_deal` used to ignore its `start` offset and break ties
    toward low-index nodes, piling the surplus onto the first nodes when
    ``p`` does not divide the item count."""

    @pytest.mark.parametrize("mk", [square_tile_assignment, triangle_block_assignment])
    @pytest.mark.parametrize("n,p", [(25, 3), (34, 5), (41, 6), (53, 7), (62, 9)])
    def test_non_divisible_cover_and_spread(self, mk, n, p):
        asg = mk(n, p, 15)
        assert asg.validate_exact_cover()
        counts = asg.node_pair_counts()
        assert len(counts) == p
        # largest-first greedy: spread stays within one (largest) block
        biggest = max(b.n_pairs() for node in asg.blocks for b in node)
        assert max(counts) - min(counts) <= biggest

    def test_equal_items_rotate_from_start(self):
        items = [BlockSpec("rect", (i,), (0,)) for i in range(5)]
        dealt = _deal(items, 3, start=1)
        # 5 equal items over 3 nodes: surplus lands round-robin from `start`
        assert [len(node) for node in dealt] == [1, 2, 2]
        assert sorted(b.rows_i[0] for node in dealt for b in node) == list(range(5))

    def test_equal_items_default_start(self):
        items = [BlockSpec("rect", (i,), (0,)) for i in range(7)]
        dealt = _deal(items, 4)
        assert sorted(len(node) for node in dealt) == [1, 2, 2, 2]

    def test_bad_p(self):
        with pytest.raises(ConfigurationError):
            _deal([], 0)


class TestBalanceCap:
    """Regression: the float expression ``slack * total / p`` can round
    below the true bound, so ``balance_slack=1.0`` spuriously rejected
    exact-balance placements; ``balance_cap`` stays exact."""

    def test_simple_values(self):
        assert balance_cap(30, 3, 1.0) == 10
        assert balance_cap(10, 3, 1.2) == 4  # floor(4.0)
        assert balance_cap(7, 2, 1.0) == 3
        assert balance_cap(0, 4, 1.0) == 0

    def test_exact_at_unrepresentable_total(self):
        # 3w = 2**53 + 1 loses its last bit as a float; float division then
        # lands *below* w and the old cap rejected the exact balance w.
        w = 3002399751580331
        total = 3 * w
        assert float(total) != total  # the premise: total is inexact
        assert (1.0 * total) / 3 < w  # the old float cap was wrong...
        assert balance_cap(total, 3, 1.0) == w  # ...the exact one is not

    def test_iff_property_random(self):
        from fractions import Fraction

        rng = np.random.default_rng(5)
        for _ in range(200):
            total = int(rng.integers(0, 2**60))
            p = int(rng.integers(1, 33))
            slack = float(rng.choice([1.0, 1.2, 1.5, 0.75]))
            cap = balance_cap(total, p, slack)
            bound = Fraction(slack).limit_denominator(10**6) * total / p
            assert cap <= bound < cap + 1

    def test_bad_args(self):
        with pytest.raises(ConfigurationError):
            balance_cap(10, 0, 1.0)
        with pytest.raises(ConfigurationError):
            balance_cap(10, 2, -0.5)


class TestSimulation:
    @pytest.mark.parametrize("mk", [square_tile_assignment, triangle_block_assignment])
    def test_work_conserved_and_memory_respected(self, mk):
        n, p, s, m = 48, 4, 15, 6
        summ = simulate_syrk(mk(n, p, s), m)
        assert summ.total_mults == syrk_mults(n, m, include_diagonal=True)
        assert all(r.peak_memory <= s for r in summ.nodes)

    def test_c_received_exactly_once_overall(self):
        n, p, s, m = 40, 4, 15, 3
        summ = simulate_syrk(square_tile_assignment(n, p, s), m)
        assert sum(r.c_recv for r in summ.nodes) == n * (n + 1) // 2

    def test_triangle_beats_square_on_max_a_recv(self):
        n, p, s, m = 60, 4, 15, 8
        sq = simulate_syrk(square_tile_assignment(n, p, s), m)
        tb = simulate_syrk(triangle_block_assignment(n, p, s), m)
        assert tb.max_a_recv < sq.max_a_recv
        assert tb.max_recv < sq.max_recv

    def test_single_node_equals_sequential_volume_shape(self):
        # P = 1: per-node receive volume == a sequential schedule's loads,
        # exactly: square tiles are OOC_SYRK's, triangle blocks are TBS's.
        from repro.analysis.model import ooc_syrk_model, tbs_model

        s = 15
        for mk, model in ((square_tile_assignment, ooc_syrk_model),
                          (triangle_block_assignment, tbs_model)):
            for n, m in ((33, 4), (40, 3), (60, 8), (27, 5)):
                summ = simulate_syrk(mk(n, 1, s), m)
                assert summ.nodes[0].total_recv == model(n, m, s).loads, (mk.__name__, n, m)

    def test_summary_statistics(self):
        summ = simulate_syrk(square_tile_assignment(40, 4, 15), 3)
        assert summ.max_recv >= summ.mean_recv
        assert summ.compute_imbalance >= 1.0
        assert summ.p == 4 and summ.strategy == "square"

    def test_bad_mcols(self):
        with pytest.raises(ConfigurationError):
            simulate_syrk(square_tile_assignment(10, 2, 15), 0)

    @pytest.mark.parametrize("mk", [square_tile_assignment, triangle_block_assignment])
    def test_recv_send_symmetry(self, mk):
        # The docstring's promise, now surfaced: every owned C element is
        # received once and sent back once — per node, not just in total.
        n, p, s, m = 48, 4, 15, 6
        summ = simulate_syrk(mk(n, p, s), m)
        for r in summ.nodes:
            assert r.c_send == r.c_recv
            assert r.total_comm == r.total_recv + r.c_send
        assert summ.total_c_send == n * (n + 1) // 2
        assert summ.max_send >= 1

    def test_zero_block_nodes_summarize(self):
        # p far beyond the block count: some nodes stay idle; every summary
        # statistic must still be well-defined.
        summ = simulate_syrk(square_tile_assignment(6, 5, 15), 2)
        assert any(r.n_blocks == 0 for r in summ.nodes)
        assert summ.mean_recv > 0.0
        assert summ.compute_imbalance >= 1.0
        assert summ.max_recv >= summ.mean_recv


class TestSummaryGuards:
    """Regression: mean_recv / compute_imbalance crashed on an empty node
    list and compute_imbalance returned inf for an all-idle fleet."""

    def test_empty_summary(self):
        summ = ParallelSummary(strategy="square", n=0, m=1, p=0, s=15, nodes=())
        assert summ.mean_recv == 0.0
        assert summ.max_recv == 0
        assert summ.max_a_recv == 0
        assert summ.max_send == 0
        assert summ.compute_imbalance == 1.0
        assert summ.total_mults == 0
        assert summ.total_c_send == 0

    def test_all_idle_fleet_is_balanced(self):
        idle = tuple(
            NodeReport(node=q, n_blocks=0, a_recv=0, c_recv=0, mults=0, peak_memory=0)
            for q in range(3)
        )
        summ = ParallelSummary(strategy="square", n=4, m=1, p=3, s=15, nodes=idle)
        assert summ.compute_imbalance == 1.0
        assert summ.mean_recv == 0.0

    def test_node_report_defaults_send_to_zero(self):
        r = NodeReport(node=0, n_blocks=1, a_recv=3, c_recv=2, mults=5, peak_memory=4)
        assert r.c_send == 0 and r.total_comm == r.total_recv == 5
