"""Tests for the two-level machine: memories, tracker, facade, numeric shadow."""

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.errors import (
    CapacityError,
    ConfigurationError,
    RedundantLoadError,
    ResidencyError,
)
from repro.machine.regions import Region
from repro.sched.ops import OuterColsUpdate, TriangleUpdate


def machine(s=10, numerics=True):
    m = TwoLevelMachine(s, numerics=numerics)
    m.add_matrix("A", np.arange(12, dtype=float).reshape(4, 3))
    m.add_matrix("C", np.zeros((4, 4)))
    return m


class TestSlowMemory:
    def test_copies_input(self):
        arr = np.ones((2, 2))
        m = TwoLevelMachine(5)
        m.add_matrix("X", arr)
        arr[0, 0] = 99.0
        assert m.result("X")[0, 0] == 1.0

    def test_duplicate_name_rejected(self):
        m = TwoLevelMachine(5)
        m.add_matrix("X", np.zeros((2, 2)))
        with pytest.raises(ConfigurationError):
            m.add_matrix("X", np.zeros((2, 2)))

    def test_unknown_name(self):
        m = TwoLevelMachine(5)
        with pytest.raises(ConfigurationError):
            m.result("nope")

    def test_shapes(self):
        m = machine()
        assert m.shape("A") == (4, 3)
        assert m.ncols("A") == 3
        assert m.slow.names() == ["A", "C"]


class TestLoadEvict:
    def test_load_counts_and_occupancy(self):
        m = machine()
        reg = m.tile("A", [0, 1], [0, 1])
        m.load(reg)
        assert m.stats.loads == 4
        assert m.occupancy() == 4
        m.evict(reg)
        assert m.occupancy() == 0
        assert m.stats.stores == 0

    def test_writeback_counts_stores(self):
        for numerics in (True, False):
            m = machine(numerics=numerics)
            reg = m.tile("C", [0], [0, 1])
            m.load(reg)
            m.evict(reg, writeback=True)
            assert m.stats.stores == 2
            assert m.stats.stores_by_matrix["C"] == 2

    def test_capacity_enforced_atomically(self):
        m = machine(s=3)
        m.load(m.tile("A", [0], [0, 1]))  # occupancy 2
        with pytest.raises(CapacityError):
            m.load(m.tile("A", [1], [0, 1]))  # would reach 4 > 3
        assert m.occupancy() == 2  # unchanged by the failed load

    def test_redundant_load_rejected(self):
        for numerics in (True, False):
            m = machine(numerics=numerics)
            m.load(m.tile("A", [0], [0]))
            with pytest.raises(RedundantLoadError):
                m.load(m.tile("A", [0], [0]))

    def test_evict_nonresident_rejected(self):
        m = machine()
        with pytest.raises(ResidencyError):
            m.evict(m.tile("A", [0], [0]))

    def test_empty_region_noop(self):
        m = machine()
        reg = m.column_segment("A", [], 0)
        m.load(reg)
        m.evict(reg)
        assert m.stats.loads == 0

    def test_peak_occupancy_tracked(self):
        m = machine(s=6)
        r1 = m.tile("A", [0, 1], [0, 1])
        m.load(r1)
        m.evict(r1)
        r2 = m.tile("A", [0], [0])
        m.load(r2)
        m.evict(r2)
        assert m.stats.peak_occupancy == 4

    def test_hold_context_manager(self):
        m = machine()
        with m.hold(m.tile("C", [0], [0]), writeback=True):
            assert m.occupancy() == 1
        assert m.occupancy() == 0
        assert m.stats.stores == 1

    def test_assert_empty(self):
        m = machine()
        m.load(m.tile("A", [0], [0]))
        with pytest.raises(ConfigurationError):
            m.assert_empty()


class TestStrictShadow:
    def test_poison_before_load(self):
        m = machine()
        assert np.isnan(m.workspace("A")).all()

    def test_load_reveals_values(self):
        m = machine()
        m.load(m.tile("A", [1], [0, 1, 2]))
        np.testing.assert_array_equal(m.workspace("A")[1], [3.0, 4.0, 5.0])
        assert np.isnan(m.workspace("A")[0]).all()

    def test_evict_restores_poison(self):
        m = machine()
        reg = m.tile("A", [1], [0, 1, 2])
        m.load(reg)
        m.evict(reg)
        assert np.isnan(m.workspace("A")[1]).all()

    def test_writeback_moves_shadow_to_slow(self):
        m = machine()
        reg = m.tile("C", [0], [0])
        m.load(reg)
        m.workspace("C")[0, 0] = 42.0
        m.evict(reg, writeback=True)
        assert m.result("C")[0, 0] == 42.0

    def test_missing_writeback_loses_update(self):
        m = machine()
        reg = m.tile("C", [0], [0])
        m.load(reg)
        m.workspace("C")[0, 0] = 42.0
        m.evict(reg, writeback=False)
        assert m.result("C")[0, 0] == 0.0  # stale: verification would catch


class TestCompute:
    def test_residency_checked(self):
        m = machine()
        op = OuterColsUpdate(m, "C", "A", "A", [0, 1], [2], 0, 0)
        with pytest.raises(ResidencyError):
            m.compute(op)

    def test_compute_applies_and_counts(self):
        m = machine()
        a = m.result("A").copy()
        m.load(m.tile("C", [2, 3], [0, 1]))
        m.load(m.column_segment("A", [2, 3], 0))
        m.load(m.column_segment("A", [0, 1], 0))
        op = OuterColsUpdate(m, "C", "A", "A", [2, 3], [0, 1], 0, 0)
        m.compute(op)
        assert m.stats.mults == 4
        assert m.stats.flops == 8
        assert m.stats.n_computes == 1
        expected = np.outer(a[[2, 3], 0], a[[0, 1], 0])
        np.testing.assert_allclose(m.workspace("C")[np.ix_([2, 3], [0, 1])], expected)

    def test_numerics_off_skips_apply(self):
        m = machine(numerics=False)
        m.load(m.tile("C", [2, 3], [0, 1]))
        m.load(m.column_segment("A", [2, 3], 0))
        m.load(m.column_segment("A", [0, 1], 0))
        m.compute(OuterColsUpdate(m, "C", "A", "A", [2, 3], [0, 1], 0, 0))
        np.testing.assert_array_equal(m.result("C"), np.zeros((4, 4)))
        assert m.stats.mults == 4  # work still credited

    def test_triangle_update_touches_only_subdiagonal(self):
        m = machine(s=12)
        rows = [0, 2, 3]
        m.load(m.triangle_block("C", rows))
        m.load(m.column_segment("A", rows, 1))
        m.compute(TriangleUpdate(m, "C", "A", rows, 1, include_diagonal=False))
        ws = m.workspace("C")
        a = np.arange(12, dtype=float).reshape(4, 3)
        for i in rows:
            for j in rows:
                if i > j:
                    assert ws[i, j] == pytest.approx(a[i, 1] * a[j, 1])
        # diagonal and upper entries are still poison
        assert np.isnan(ws[0, 0]) and np.isnan(ws[2, 3])


class TestTracker:
    def test_snapshot_diff(self):
        m = machine()
        m.load(m.tile("A", [0], [0, 1]))
        snap = m.stats.snapshot()
        m.load(m.tile("A", [1], [0]))
        d = m.stats.diff(snap)
        assert d.loads == 1
        assert d.n_loads == 1
        assert m.stats.loads == 3

    def test_by_matrix_breakdown(self):
        m = machine()
        m.load(m.tile("A", [0], [0, 1]))
        m.load(m.tile("C", [0], [0]))
        assert m.stats.loads_by_matrix["A"] == 2
        assert m.stats.loads_by_matrix["C"] == 1

    def test_oi_definitions(self):
        m = machine()
        m.load(m.tile("C", [1], [0]))
        m.load(m.column_segment("A", [1], 0))
        m.load(m.column_segment("A", [0], 0))
        m.compute(OuterColsUpdate(m, "C", "A", "A", [1], [0], 0, 0))
        assert m.stats.operational_intensity("mults") == pytest.approx(1 / 3)
        assert m.stats.operational_intensity("flops") == pytest.approx(2 / 3)
        assert m.stats.q == m.stats.loads
