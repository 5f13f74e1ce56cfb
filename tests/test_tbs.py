"""Tests for TBS (Algorithm 4): numerics, exact accounting, optimality shape."""

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.analysis.model import ooc_syrk_model, tbs_model
from repro.baselines.ooc_syrk import ooc_syrk
from repro.core.bounds import syrk_lower_bound
from repro.core.tbs import tbs_report, tbs_syrk
from repro.errors import ConfigurationError
from repro.kernels.flops import syrk_mults
from repro.kernels.reference import syrk_reference
from repro.utils.rng import random_tall_matrix


def run_tbs(n, mc, s=15, sign=1.0, seed=0, **kw):
    a = random_tall_matrix(n, mc, seed=seed)
    m = TwoLevelMachine(s)
    m.add_matrix("A", a)
    m.add_matrix("C", np.zeros((n, n)))
    stats = tbs_syrk(m, "A", "C", range(n), range(mc), sign=sign, **kw)
    m.assert_empty()
    return a, m, stats


class TestNumerics:
    # n spans: full fallback (n < ck), one level, strip present, two levels.
    @pytest.mark.parametrize("n", [1, 4, 8, 20, 25, 27, 33, 47, 60])
    def test_matches_reference(self, n):
        a, m, _ = run_tbs(n, 3)
        np.testing.assert_allclose(
            np.tril(m.result("C")), np.tril(syrk_reference(a)), rtol=1e-10, atol=1e-12
        )

    def test_negative_sign(self):
        a, m, _ = run_tbs(26, 2, sign=-1.0)
        np.testing.assert_allclose(
            np.tril(m.result("C")), -np.tril(a @ a.T), rtol=1e-10, atol=1e-12
        )

    def test_submatrix_with_column_offset(self):
        # The LBC calling pattern: rows I1, A-columns I0, C the trailing block.
        a = random_tall_matrix(30, 12, seed=2)
        rows = np.arange(5, 30)
        cols = np.arange(2, 7)
        m = TwoLevelMachine(15)
        m.add_matrix("A", a)
        m.add_matrix("C", np.zeros((30, 30)))
        tbs_syrk(m, "A", "C", rows, cols)
        m.assert_empty()
        sub = a[np.ix_(rows, cols)]
        want = np.tril(sub @ sub.T)
        got = np.tril(m.result("C")[np.ix_(rows, rows)])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_larger_memory(self):
        a, m, _ = run_tbs(70, 4, s=28)  # k = 7
        np.testing.assert_allclose(
            np.tril(m.result("C")), np.tril(syrk_reference(a)), rtol=1e-10, atol=1e-12
        )


class TestAccounting:
    @pytest.mark.parametrize("n,mc,s", [(8, 2, 15), (27, 3, 15), (40, 5, 15), (61, 2, 21), (90, 3, 28)])
    def test_measured_equals_model(self, n, mc, s):
        _, _, stats = run_tbs(n, mc, s=s)
        pred = tbs_model(n, mc, s)
        assert stats.loads == pred.loads
        assert stats.stores == pred.stores

    def test_peak_exactly_fills_memory(self):
        # In the triangle-block regime TBS uses k(k-1)/2 + k = S elements.
        _, _, stats = run_tbs(27, 3, s=15)
        assert stats.peak_occupancy == 15

    def test_work_is_full_syrk(self):
        n, mc = 33, 4
        _, _, stats = run_tbs(n, mc)
        assert stats.mults == syrk_mults(n, mc, include_diagonal=True)

    def test_above_lower_bound(self):
        n, mc, s = 54, 6, 15
        _, _, stats = run_tbs(n, mc, s=s)
        assert stats.loads >= syrk_lower_bound(n, mc, s, form="exact")

    def test_c_loaded_exactly_once(self):
        n, mc = 47, 3
        _, _, stats = run_tbs(n, mc)
        assert stats.loads_by_matrix["C"] == n * (n + 1) // 2
        assert stats.stores_by_matrix["C"] == n * (n + 1) // 2

    def test_small_k_override(self):
        _, _, stats = run_tbs(30, 2, s=15, k=4)
        pred = tbs_model(30, 2, 15, k=4)
        assert stats.loads == pred.loads

    def test_k_too_large_for_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            run_tbs(10, 2, s=15, k=6)  # 21 > 15

    def test_memory_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            run_tbs(10, 2, s=1)


class TestOptimalityShape:
    def test_beats_ocs_in_regime(self):
        # Within the triangle-block regime TBS must move less A-data.
        n, mc, s = 60, 8, 15
        _, _, tbs_stats = run_tbs(n, mc, s=s)
        a = random_tall_matrix(n, mc, seed=0)
        m = TwoLevelMachine(s)
        m.add_matrix("A", a)
        m.add_matrix("C", np.zeros((n, n)))
        ocs_stats = ooc_syrk(m, "A", "C", range(n), range(mc))
        assert tbs_stats.loads < ocs_stats.loads
        assert tbs_stats.loads_by_matrix["A"] < ocs_stats.loads_by_matrix["A"]

    def test_a_traffic_ratio_approaches_k_minus_1_over_s(self):
        # Finite-S targets: TBS A-traffic ~ N^2 M / (k-1), OCS ~ N^2 M / s.
        # With S = 15: k-1 = 4, s = 3 -> ratio -> 4/3.
        n, mc, s = 600, 16, 15
        rows = range(n)
        m = TwoLevelMachine(s, numerics=False)
        m.add_matrix("A", np.zeros((n, mc)))
        m.add_matrix("C", np.zeros((n, n)))
        t = tbs_syrk(m, "A", "C", rows, range(mc))
        m2 = TwoLevelMachine(s, numerics=False)
        m2.add_matrix("A", np.zeros((n, mc)))
        m2.add_matrix("C", np.zeros((n, n)))
        o = ooc_syrk(m2, "A", "C", rows, range(mc))
        ratio = o.loads_by_matrix["A"] / t.loads_by_matrix["A"]
        assert 1.25 < ratio < 4 / 3 + 0.02

    def test_fallback_equals_ocs(self):
        # Below the applicability threshold TBS *is* OOC_SYRK.
        n, mc, s = 12, 3, 15
        _, _, stats = run_tbs(n, mc, s=s)
        pred = ooc_syrk_model(n, mc, s)
        assert stats.loads == pred.loads


class TestReport:
    def test_report_structure(self):
        rep = tbs_report(125, 3, 15)
        assert rep.k == 5
        assert rep.depth >= 2
        assert rep.levels[0]["mode"] == "triangle_blocks"
        assert rep.levels[-1]["mode"] == "ooc_syrk"

    def test_fallback_rows_bounded(self):
        rep = tbs_report(200, 4, 15)
        assert 0 <= rep.fallback_rows() <= 200 * rep.depth
