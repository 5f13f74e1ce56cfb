"""Tests for the analysis layer: models-vs-measured grid, OI, optimum, sweeps."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.model import (
    IOPrediction,
    lbc_model,
    lbc_term_model,
    ooc_chol_model,
    ooc_gemm_model,
    ooc_lu_model,
    ooc_syrk_model,
    ooc_trsm_model,
    tbs_model,
    tbs_tiled_model,
)
from repro.analysis.oi import measured_oi, oi_ceiling, oi_gap
from repro.analysis.optimum import numeric_p_doubleprime, verify_theorem41_chain
from repro.analysis.roofline import roofline_rows
from repro.analysis.sweep import run_cholesky_once, run_syrk_once, sweep_cholesky, sweep_syrk
from repro.core.balanced import solve_p_doubleprime
from repro.errors import ConfigurationError
from repro.machine.tracker import IOStats


class TestIOPrediction:
    def test_add_and_scale(self):
        a = IOPrediction(3, 1)
        b = IOPrediction(4, 2)
        assert (a + b) == IOPrediction(7, 3)
        assert a.scaled(3) == IOPrediction(9, 3)


class TestModelAsymptotics:
    def test_tbs_leading_constant_converges(self):
        # Q_A(TBS) * (k-1) / (N^2 M) -> 1 as N grows (then sqrt(S)/(k-1)
        # -> 1/sqrt(2) as S grows).
        s, mcols = 15, 8
        k = 5
        prev = None
        for n in (200, 800, 3200):
            pred = tbs_model(n, mcols, s)
            a_traffic = pred.loads - n * (n + 1) // 2  # remove the C pass
            const = a_traffic * (k - 1) / (n * n * mcols)
            if prev is not None:
                assert abs(const - 1.0) < abs(prev - 1.0) + 0.02
            prev = const
        assert abs(prev - 1.0) < 0.1

    def test_sqrt2_ratio_at_large_s(self):
        # With S = 5050 (k = 100, s = 70) the OCS/TBS A-traffic ratio is
        # (k-1)/s = 99/70 = 1.4143 ~ sqrt(2); at N = 200k the strip and
        # fallback overheads are < 1%.
        s = 5050
        n, mcols = 200_000, 4
        tbs = tbs_model(n, mcols, s)
        ocs = ooc_syrk_model(n, mcols, s)
        c_pass = n * (n + 1) // 2
        ratio = (ocs.loads - c_pass) / (tbs.loads - c_pass)
        assert ratio == pytest.approx(math.sqrt(2.0), rel=0.01)

    def test_occ_leading_constant(self):
        # Q(OCC) * s / N^3 -> 1/3 for large N.
        s = 66  # tile side 7
        n = 1400
        pred = ooc_chol_model(n, s)
        assert pred.loads * 7 / n**3 == pytest.approx(1 / 3, rel=0.05)

    def test_lbc_beats_occ_model(self):
        s = 15
        for n in (400, 900, 1600):
            b = int(math.isqrt(n))
            lbc = lbc_model(n, s, b)
            occ = ooc_chol_model(n, s)
            assert lbc.loads < occ.loads

    def test_lbc_term_structure(self):
        # At b = sqrt(N) the SYRK term dominates chol and trsm terms.
        n, s = 1600, 15
        parts = lbc_term_model(n, s, 40)
        assert parts["syrk"].loads > parts["trsm"].loads
        assert parts["syrk"].loads > parts["chol"].loads

    def test_lu_is_twice_chol(self):
        s = 48
        n = 600
        lu = ooc_lu_model(n, s).loads
        chol = ooc_chol_model(n, s).loads
        assert lu / chol == pytest.approx(2.0, rel=0.1)

    def test_gemm_model_leading(self):
        # 2 n p K / s streamed + n p tile loads.
        s, t = 35, 5
        pred = ooc_gemm_model(100, 50, 100, s)
        streamed = pred.loads - 100 * 100
        assert streamed == pytest.approx(2 * 100 * 100 * 50 / t, rel=0.01)

    def test_trsm_model_leading(self):
        s = 24  # tile 4
        ntri, mrows = 64, 256
        pred = ooc_trsm_model(ntri, mrows, s)
        # leading term ntri^2 * mrows / tile
        assert pred.loads == pytest.approx(ntri**2 * mrows / 4, rel=0.15)

    def test_bad_lbc_b(self):
        with pytest.raises(ConfigurationError):
            lbc_model(10, 15, 3)
        with pytest.raises(ConfigurationError):
            lbc_term_model(12, 15, 4, syrk="nope")


class TestOI:
    def make_stats(self, loads, mults):
        st = IOStats()
        st.loads = loads
        st.mults = mults
        st.flops = 2 * mults
        return st

    def test_measured(self):
        st = self.make_stats(100, 500)
        assert measured_oi(st) == 5.0
        assert measured_oi(st, per="flops") == 10.0

    def test_ceiling_and_gap(self):
        s = 50
        assert oi_ceiling(s) == pytest.approx(math.sqrt(25.0))
        st = self.make_stats(100, 250)
        assert oi_gap(st, s) == pytest.approx(2.5 / 5.0)


class TestOptimum:
    @pytest.mark.parametrize("x", [5, 45, 300, 3000])
    def test_slsqp_matches_closed_form(self, x):
        # SLSQP occasionally reports success=False at tight ftol while
        # sitting numerically on the optimum; assert on the value.
        num = numeric_p_doubleprime(float(x))
        closed = solve_p_doubleprime(float(x))
        assert num.value == pytest.approx(closed.value, rel=1e-4)
        assert num.i_star == pytest.approx(closed.i_star, rel=1e-2)

    @pytest.mark.parametrize("x", [3, 10, 45, 100, 1000])
    def test_theorem41_chain(self, x):
        chk = verify_theorem41_chain(x)
        assert chk.enumerated <= chk.continuous + 1e-9
        assert chk.continuous <= chk.bound + 1e-9
        assert 0 < chk.tightness <= 1.0


#: What a serving process and the CLI import.  Spelled out here so the
#: guard does not depend on any caller's import list.  Packages export
#: lazily, so the front end is named as well as its package.
SERVE_PATH_MODULES = (
    "repro",
    "repro.serve",
    "repro.serve.frontend",
    "repro.graph.compare",
    "repro.graph.dependency",
    "repro.graph.rewriter",
    "repro.graph.search",
    "repro.parallel.cosearch",
    "repro.check.certify",
    "repro.__main__",
)

#: What a serving process imports: the serve path without the CLI.
SERVING = ",".join(m for m in SERVE_PATH_MODULES if m != "repro.__main__")

#: Modules no request calls, which a serving process must not load.
NOT_SERVED = (
    "repro.analysis",
    "repro.baselines.gemm",
    "repro.baselines.lu",
    "repro.baselines.naive",
    "repro.core.balanced",
    "repro.core.lbc",
    "repro.core.tbs_tiled",
    "repro.core.triangle",
    "repro.kernels.reference",
    "repro.machine.pebble",
    "repro.obs.provenance",
    "repro.obs.report",
    "repro.obs.timeline",
    "repro.parallel.simulate",
    "repro.utils.fmt",
    "repro.utils.rng",
    "repro.viz",
    "multiprocessing",
)


def run_fresh(script: str, *args: str) -> None:
    """Run ``script`` in a fresh interpreter on this checkout; it must exit 0."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_serve_path_imports_no_scipy():
    """A fresh interpreter that imports the serve path and the CLI loads no
    scipy module; the Section 4 cross-check loads ``scipy.optimize`` only
    when it is called, and still matches the closed form."""
    run_fresh("""
        import importlib, sys
        for name in sys.argv[1:]:
            importlib.import_module(name)
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, f"{len(loaded)} scipy modules loaded: {loaded[:5]}"

        from repro.analysis.optimum import numeric_p_doubleprime
        from repro.core.balanced import solve_p_doubleprime
        value = numeric_p_doubleprime(45.0).value
        assert "scipy.optimize" in sys.modules
        closed = solve_p_doubleprime(45.0).value
        assert abs(value - closed) <= 1e-4 * closed, (value, closed)
    """, *SERVE_PATH_MODULES)


def test_serve_path_loads_only_what_requests_call():
    """A serving process, which imports the serve path without the CLI,
    loads no analysis, renderer, pebble machine, reference kernel or
    report module, and no ``multiprocessing``: packages export lazily,
    and the serve-path modules import what no request calls where it is
    called."""
    run_fresh("""
        import importlib, sys
        for name in sys.argv[1].split(","):
            importlib.import_module(name)
        banned = sys.argv[2].split(",")
        loaded = sorted(m for m in sys.modules
                        if any(m == b or m.startswith(b + ".") for b in banned))
        assert not loaded, loaded
    """, SERVING, ",".join(NOT_SERVED))


def test_cold_misses_import_nothing():
    """Once the serve path is imported, a cold miss of each policy loads
    no ``repro`` or numpy module for the first time: the TBS key reaches
    the leftover strip's disjointness check, where ``np.intersect1d``
    loaded ``numpy.ma`` on the first miss of every serving process."""
    run_fresh("""
        import asyncio, importlib, sys, tempfile
        for name in sys.argv[1].split(","):
            importlib.import_module(name)
        from repro.serve import ScheduleCache, ScheduleKey, ScheduleService, ScheduleStore

        keys = [
            ScheduleKey("tbs", 33, 6, 15),
            ScheduleKey("syr2k", 16, 6, 15, policy="search"),
            ScheduleKey("chol", 16, 6, 15, p=2, policy="cosearch"),
        ]
        before = set(sys.modules)
        with tempfile.TemporaryDirectory() as root:
            service = ScheduleService(ScheduleStore(root), ScheduleCache(4), workers=0)
            try:
                for key in keys:
                    asyncio.run(service.get_schedule(key))
            finally:
                service.close()
            assert len(ScheduleStore(root)) == len(keys)
        new = sorted(m for m in set(sys.modules) - before
                     if m.split(".")[0] in ("repro", "numpy"))
        assert not new, new
    """, SERVING)


class TestSweep:
    def test_syrk_row_fields(self):
        row = run_syrk_once("tbs", 54, 6, 15)
        assert row.kernel == "syrk" and row.alg == "tbs"
        assert row.loads == row.model_loads  # measured == model
        assert row.a_loads + row.c_loads == row.loads
        assert row.loads >= row.lower_bound * 0  # sanity
        assert row.ratio_to_bound > 1.0
        assert row.q == row.loads

    def test_cholesky_row_fields(self):
        row = run_cholesky_once("lbc", 36, 15, b=6)
        assert row.loads == row.model_loads
        assert row.leading_constant > 0

    def test_unknown_alg(self):
        with pytest.raises(ConfigurationError):
            run_syrk_once("magic", 10, 2, 15)
        with pytest.raises(ConfigurationError):
            run_cholesky_once("magic", 10, 15)

    def test_sweep_shapes(self):
        rows = sweep_syrk([27, 40], [3], [15], algs=("tbs", "ocs"))
        assert len(rows) == 4
        tbs_rows = [r for r in rows if r.alg == "tbs"]
        ocs_rows = [r for r in rows if r.alg == "ocs"]
        for t, o in zip(tbs_rows, ocs_rows):
            assert t.loads <= o.loads

    def test_sweep_cholesky(self):
        rows = sweep_cholesky([36], [15], algs=("lbc", "occ"), b=6)
        # b is only meaningful for lbc; occ ignores it -> must not crash
        assert len(rows) == 2


class TestRoofline:
    def test_rows_complete_and_bounded(self):
        rows = roofline_rows(n=48, mcols=8, s=15, lbc_b=6)
        names = {r.schedule for r in rows}
        assert len(rows) == 6
        assert any("TBS" in n for n in names)
        for r in rows:
            assert 0 < r.fraction <= 1.05  # never meaningfully above ceiling

    def test_tbs_closer_to_symmetric_ceiling_than_ocs(self):
        rows = {r.schedule: r for r in roofline_rows(n=120, mcols=16, s=15, lbc_b=None)}
        assert rows["TBS (syrk)"].oi > rows["OOC_SYRK"].oi
