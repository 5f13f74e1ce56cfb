"""Tests for tiled TBS (Section 5.1.4) and LBC (Algorithm 5)."""

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.analysis.model import lbc_model, lbc_term_model, ooc_chol_model, tbs_tiled_model
from repro.baselines.ooc_chol import ooc_chol
from repro.config import lbc_block_size
from repro.core.bounds import cholesky_lower_bound
from repro.core.lbc import lbc_cholesky, lbc_term_breakdown
from repro.core.tbs_tiled import tbs_tiled_syrk, tiled_leading_constant
from repro.errors import ConfigurationError
from repro.kernels.flops import cholesky_mults, syrk_mults
from repro.kernels.reference import cholesky_reference, syrk_reference
from repro.utils.rng import random_spd_matrix, random_tall_matrix


def run_tiled(n, mc, s=18, k=3, b=None, sign=1.0, seed=0):
    a = random_tall_matrix(n, mc, seed=seed)
    m = TwoLevelMachine(s)
    m.add_matrix("A", a)
    m.add_matrix("C", np.zeros((n, n)))
    stats = tbs_tiled_syrk(m, "A", "C", range(n), range(mc), sign=sign, k=k, b=b)
    m.assert_empty()
    return a, m, stats


class TestTiledTbsNumerics:
    @pytest.mark.parametrize("n", [1, 5, 12, 18, 25, 36, 50])
    def test_matches_reference(self, n):
        a, m, _ = run_tiled(n, 3)
        np.testing.assert_allclose(
            np.tril(m.result("C")), np.tril(syrk_reference(a)), rtol=1e-10, atol=1e-12
        )

    def test_negative_sign(self):
        a, m, _ = run_tiled(20, 2, sign=-1.0)
        np.testing.assert_allclose(
            np.tril(m.result("C")), -np.tril(a @ a.T), rtol=1e-10, atol=1e-12
        )

    def test_bigger_tiles(self):
        a, m, _ = run_tiled(64, 4, s=66, k=3, b=4)  # 3*16 + 12 = 60 <= 66
        np.testing.assert_allclose(
            np.tril(m.result("C")), np.tril(syrk_reference(a)), rtol=1e-10, atol=1e-12
        )


class TestTiledTbsAccounting:
    @pytest.mark.parametrize("n,mc,s,k,b", [(25, 3, 18, 3, 2), (50, 4, 18, 3, 2), (64, 2, 66, 3, 4), (40, 3, 32, 4, 2)])
    def test_measured_equals_model(self, n, mc, s, k, b):
        _, _, stats = run_tiled(n, mc, s=s, k=k, b=b)
        pred = tbs_tiled_model(n, mc, s, k=k, b=b)
        assert stats.loads == pred.loads
        assert stats.stores == pred.stores

    def test_work_is_full_syrk(self):
        n, mc = 30, 3
        _, _, stats = run_tiled(n, mc)
        assert stats.mults == syrk_mults(n, mc, include_diagonal=True)

    def test_peak_within_capacity(self):
        _, _, stats = run_tiled(36, 3, s=18, k=3, b=2)
        assert stats.peak_occupancy <= 18

    def test_validity_threshold_lower_than_element(self):
        # With S=18, element TBS needs n >= c*k with c >= k-1 (k=5 needs
        # n ~ 2S); tiled with k=3, b=2 kicks in at n_tiles >= (k-1)*k = 6
        # tiles = 12 rows.
        from repro.core.partition import plan_partition

        assert plan_partition(12 // 2, 3) is not None  # tiled applicable
        assert plan_partition(12, 5) is None           # element TBS is not

    def test_k_below_3_rejected(self):
        with pytest.raises(ConfigurationError):
            run_tiled(10, 2, s=18, k=2)

    def test_memory_check(self):
        with pytest.raises(ConfigurationError):
            run_tiled(10, 2, s=15, k=3, b=2)  # needs 18

    def test_leading_constant_helper(self):
        assert tiled_leading_constant(2) == pytest.approx(np.sqrt(2.0))
        assert tiled_leading_constant(10) == pytest.approx(np.sqrt(10 / 9))
        with pytest.raises(ConfigurationError):
            tiled_leading_constant(1)


def run_lbc(n, s=15, b=None, seed=0, **kw):
    a = random_spd_matrix(n, seed=seed)
    m = TwoLevelMachine(s)
    m.add_matrix("A", a)
    stats = lbc_cholesky(m, "A", range(n), b=b, **kw)
    m.assert_empty()
    return a, m, stats


class TestLbcNumerics:
    @pytest.mark.parametrize("n,b", [(4, 2), (9, 3), (16, 4), (25, 5), (36, 6), (30, 5)])
    def test_matches_reference(self, n, b):
        a, m, _ = run_lbc(n, b=b)
        np.testing.assert_allclose(
            np.tril(m.result("A")), cholesky_reference(a), rtol=1e-9, atol=1e-10
        )

    def test_default_block_size(self):
        a, m, _ = run_lbc(36)  # b defaults to 6
        np.testing.assert_allclose(
            np.tril(m.result("A")), cholesky_reference(a), rtol=1e-9, atol=1e-10
        )

    @pytest.mark.parametrize("engine", ["tbs", "tiled", "ocs"])
    def test_all_syrk_engines(self, engine):
        kw = {"syrk": engine}
        if engine == "tiled":
            kw.update(k=3, tile_b=2)
        a, m, _ = run_lbc(24, s=18, b=4, **kw)
        np.testing.assert_allclose(
            np.tril(m.result("A")), cholesky_reference(a), rtol=1e-9, atol=1e-10
        )

    def test_submatrix(self):
        big = random_spd_matrix(20, seed=3)
        rows = np.arange(4, 20)
        m = TwoLevelMachine(15)
        m.add_matrix("A", big)
        lbc_cholesky(m, "A", rows, b=4)
        m.assert_empty()
        want = cholesky_reference(big[np.ix_(rows, rows)])
        got = np.tril(m.result("A")[np.ix_(rows, rows)])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-10)


class TestLbcAccounting:
    @pytest.mark.parametrize("n,s,b", [(16, 15, 4), (36, 15, 6), (48, 15, 6), (36, 28, 6)])
    def test_measured_equals_model(self, n, s, b):
        _, _, stats = run_lbc(n, s=s, b=b)
        pred = lbc_model(n, s, b)
        assert stats.loads == pred.loads
        assert stats.stores == pred.stores

    def test_work_is_full_cholesky(self):
        n = 36
        _, _, stats = run_lbc(n, b=6)
        assert stats.mults == cholesky_mults(n)

    def test_above_lower_bound(self):
        n, s = 48, 15
        _, _, stats = run_lbc(n, s=s, b=6)
        assert stats.loads >= cholesky_lower_bound(n, s, form="exact")

    def test_bad_block_size_rejected(self):
        with pytest.raises(ConfigurationError):
            run_lbc(10, b=3)  # 3 does not divide 10

    def test_bad_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            run_lbc(16, b=4, syrk="magic")

    def test_term_breakdown_sums_to_total(self):
        n, s, b = 36, 15, 6
        a = random_spd_matrix(n, seed=1)
        m = TwoLevelMachine(s)
        m.add_matrix("A", a)
        parts = lbc_term_breakdown(m, "A", range(n), b=b)
        m.assert_empty()
        _, _, total = run_lbc(n, s=s, b=b, seed=1)
        assert parts["chol"] + parts["trsm"] + parts["syrk"] == total.loads
        model_parts = lbc_term_model(n, s, b)
        assert parts["chol"] == model_parts["chol"].loads
        assert parts["trsm"] == model_parts["trsm"].loads
        assert parts["syrk"] == model_parts["syrk"].loads

    def test_beats_occ_at_scale(self):
        # LBC's asymptotic advantage over the left-looking baseline.
        n, s = 144, 15
        m = TwoLevelMachine(s, numerics=False)
        m.add_matrix("A", np.zeros((n, n)))
        lbc = lbc_cholesky(m, "A", range(n), b=12)
        m2 = TwoLevelMachine(s, numerics=False)
        m2.add_matrix("A", np.zeros((n, n)))
        occ = ooc_chol(m2, "A", range(n))
        assert lbc.loads < occ.loads

    def test_block_size_default_near_sqrt(self):
        assert lbc_block_size(36) == 6
        _, _, stats = run_lbc(36)
        pred = lbc_model(36, 15, 6)
        assert stats.loads == pred.loads
