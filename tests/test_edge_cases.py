"""Cross-module edge cases: degenerate shapes, empty inputs, config paths."""

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.analysis.model import lbc_model, ooc_syrk_model, tbs_model
from repro.baselines.ooc_syrk import ooc_syrk
from repro.core.lbc import lbc_cholesky
from repro.core.syr2k import syr2k_reference
from repro.core.tbs import tbs_syrk
from repro.errors import ConfigurationError, ResidencyError
from repro.kernels.reference import cholesky_reference, trsm_right_lower_transpose
from repro.machine.fast_memory import FastMemory
from repro.machine.regions import Region
from repro.utils.fmt import Table
from repro.utils.rng import random_lower_triangular, random_spd_matrix, random_tall_matrix


class TestDegenerateShapes:
    def test_one_by_one_syrk(self):
        a = np.array([[2.0]])
        m = TwoLevelMachine(15)
        m.add_matrix("A", a)
        m.add_matrix("C", np.zeros((1, 1)))
        tbs_syrk(m, "A", "C", range(1), range(1))
        m.assert_empty()
        assert m.result("C")[0, 0] == pytest.approx(4.0)

    def test_one_by_one_cholesky(self):
        m = TwoLevelMachine(15)
        m.add_matrix("A", np.array([[9.0]]))
        lbc_cholesky(m, "A", range(1), b=1)
        m.assert_empty()
        assert m.result("A")[0, 0] == pytest.approx(3.0)

    def test_empty_columns_syrk_is_c_pass_only(self):
        # M = 0: the schedule just loads and writes back C (zero update).
        n = 12
        m = TwoLevelMachine(15)
        m.add_matrix("A", np.zeros((n, 1)))
        m.add_matrix("C", np.ones((n, n)))
        stats = ooc_syrk(m, "A", "C", range(n), [])
        m.assert_empty()
        assert stats.loads == n * (n + 1) // 2
        assert stats.mults == 0
        np.testing.assert_array_equal(m.result("C"), np.ones((n, n)))

    def test_single_column_matches_outer_product(self):
        n = 10
        a = random_tall_matrix(n, 1, seed=3)
        m = TwoLevelMachine(15)
        m.add_matrix("A", a)
        m.add_matrix("C", np.zeros((n, n)))
        tbs_syrk(m, "A", "C", range(n), range(1))
        np.testing.assert_allclose(
            np.tril(m.result("C")), np.tril(np.outer(a[:, 0], a[:, 0])), rtol=1e-12
        )

    def test_trsm_one_row(self):
        l = random_lower_triangular(5, seed=1)
        b = random_tall_matrix(1, 5, seed=2)
        x = trsm_right_lower_transpose(l, b)
        np.testing.assert_allclose(x @ np.tril(l).T, b, rtol=1e-9)

    def test_cholesky_2x2(self):
        a = np.array([[4.0, 0.0], [2.0, 5.0]])
        a = np.tril(a) + np.tril(a, -1).T
        l = cholesky_reference(a)
        np.testing.assert_allclose(l @ l.T, a, rtol=1e-12)


class TestModelsDegenerate:
    def test_models_at_n1(self):
        assert ooc_syrk_model(1, 1, 15).loads == 1 + 1  # C element + A element
        assert tbs_model(1, 1, 15).loads == 2
        assert lbc_model(1, 15, 1).loads >= 1

    def test_model_zero_cols(self):
        pred = ooc_syrk_model(8, 0, 15)
        assert pred.loads == 8 * 9 // 2
        assert pred.stores == 8 * 9 // 2


class TestMachineConfigPaths:
    def test_fast_memory_helpers(self):
        """A counting fast memory keeps no shadow, and ``evict`` alone
        reports the writeback count the machine records as stores."""
        from repro.machine.slow_memory import SlowMemory

        fm = FastMemory(5, numerics=False)
        fm.attach("X", (2, 3))
        slow = SlowMemory()
        slow.add("X", np.ones((2, 3)))
        region = Region("X", np.array([0, 1, 4]))
        assert fm.load(region, slow) == 3
        fm.assert_resident(Region("X", np.array([0, 4])))
        with pytest.raises(ResidencyError):
            fm.assert_resident(Region("X", np.array([2])))
        assert fm.evict(region, slow, writeback=True) == 3
        assert fm.occupancy == 0
        np.testing.assert_array_equal(slow.array("X"), np.ones((2, 3)))

    @pytest.mark.parametrize("numerics", [True, False])
    def test_write_region_outside_reads_is_checked(self, numerics):
        """An op whose write region is not among its reads (like the solve
        steps) has that region checked too, before anything runs."""
        from repro.sched.ops import ComputeOp

        read, write = Region("X", np.array([0, 1])), Region("X", np.array([4]))

        class WriteOutsideReads(ComputeOp):
            mults = 1

            def reads(self):
                return [read]

            def writes(self):
                return [write]

            def apply(self, m):
                m.workspace("X").ravel()[4] = m.workspace("X").ravel()[0] + 1.0

        m = TwoLevelMachine(8, numerics=numerics)
        m.add_matrix("X", np.ones((2, 3)))
        m.load(read)
        with pytest.raises(ResidencyError, match="1 non-resident element"):
            m.compute(WriteOutsideReads())
        assert m.stats.n_computes == 0
        m.load(write)
        m.compute(WriteOutsideReads())
        assert m.stats.n_computes == 1
        if numerics:
            assert m.workspace("X").ravel()[4] == 2.0

    def test_empty_region_residency_is_vacuous(self):
        fm = FastMemory(5)
        fm.attach("X", (2, 2))
        fm.assert_resident(Region("X", np.array([], dtype=np.int64)))


class TestSyr2kReferenceAgainstLoops:
    def test_element_loop_equivalence(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((6, 3))
        want = np.zeros((6, 6))
        for i in range(6):
            for j in range(i + 1):
                for k in range(3):
                    want[i, j] += a[i, k] * b[j, k] + b[i, k] * a[j, k]
        np.testing.assert_allclose(syr2k_reference(a, b), want, rtol=1e-12)


class TestTableEdge:
    def test_empty_table_renders_headers(self):
        t = Table(["a", "bb"])
        text = t.render()
        assert text.splitlines()[0].startswith("a")
        assert len(text.splitlines()) == 2  # header + rule

    def test_lbc_tiled_engine_model_equality(self):
        n, s, b = 24, 18, 4
        a = random_spd_matrix(n, seed=4)
        m = TwoLevelMachine(s)
        m.add_matrix("A", a)
        stats = lbc_cholesky(m, "A", range(n), b=b, syrk="tiled", k=3, tile_b=None)
        m.assert_empty()
        pred = lbc_model(n, s, b, syrk="tiled", k=3)
        assert stats.loads == pred.loads
        np.testing.assert_allclose(np.tril(m.result("A")), cholesky_reference(a), rtol=1e-9)


class TestLargeMemorySingleBlock:
    def test_everything_fits_one_tile(self):
        # S large enough that the whole problem is one block: Q = one pass.
        n, mc = 6, 2
        s = 200
        a = random_tall_matrix(n, mc, seed=5)
        m = TwoLevelMachine(s)
        m.add_matrix("A", a)
        m.add_matrix("C", np.zeros((n, n)))
        stats = ooc_syrk(m, "A", "C", range(n), range(mc))
        m.assert_empty()
        # single diagonal tile: C once + one A segment per column
        assert stats.loads == n * (n + 1) // 2 + mc * n
        np.testing.assert_allclose(np.tril(m.result("C")), np.tril(a @ a.T), rtol=1e-10)

    def test_tbs_with_huge_memory_falls_back(self):
        # k so large that c < k-1 always: TBS == OCS for any practical n.
        n, mc, s = 30, 3, 10_000
        m = TwoLevelMachine(s, numerics=False)
        m.add_matrix("A", np.zeros((n, mc)))
        m.add_matrix("C", np.zeros((n, n)))
        stats = tbs_syrk(m, "A", "C", range(n), range(mc))
        pred = ooc_syrk_model(n, mc, s)
        assert stats.loads == pred.loads


class TestErrorsHierarchy:
    def test_all_errors_are_repro_errors(self):
        from repro.errors import (
            CapacityError,
            ConfigurationError,
            MachineError,
            RedundantLoadError,
            ReproError,
            ResidencyError,
            ScheduleError,
            VerificationError,
        )

        for exc in (
            ConfigurationError("x"),
            CapacityError(1, 2, 3),
            ResidencyError("x"),
            RedundantLoadError("x"),
            ScheduleError("x"),
            VerificationError("x"),
        ):
            assert isinstance(exc, ReproError)
        assert issubclass(CapacityError, MachineError)
        assert issubclass(ConfigurationError, ValueError)

    def test_capacity_error_payload(self):
        from repro.errors import CapacityError

        e = CapacityError(5, 10, 12)
        assert e.requested == 5 and e.occupancy == 10 and e.capacity == 12
        assert "12" in str(e)
