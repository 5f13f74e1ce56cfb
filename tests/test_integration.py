"""End-to-end integration tests across modules.

These are the cross-cutting guarantees: record -> validate -> replay
round-trips; numeric vs counting machines agree on I/O; the block-level
machine and the element-level pebble machine agree on results; the paper's
headline inequalities hold end-to-end on real runs.
"""

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.baselines.ooc_chol import ooc_chol
from repro.baselines.ooc_syrk import ooc_syrk
from repro.core.bounds import cholesky_lower_bound, syrk_lower_bound
from repro.core.lbc import lbc_cholesky
from repro.core.tbs import tbs_syrk
from repro.kernels.reference import cholesky_reference, syrk_reference
from repro.machine.pebble import ExplicitPebbleMachine
from repro.sched.schedule import record_schedule, replay_schedule
from repro.sched.validate import validate_schedule
from repro.utils.rng import random_spd_matrix, random_tall_matrix


class TestRecordValidateReplay:
    @pytest.mark.parametrize("alg", ["tbs", "ocs"])
    def test_syrk_pipeline(self, alg):
        n, mc, s = 33, 4, 15
        a = random_tall_matrix(n, mc, seed=1)

        m1 = TwoLevelMachine(s)
        m1.add_matrix("A", a)
        m1.add_matrix("C", np.zeros((n, n)))
        fn = tbs_syrk if alg == "tbs" else ooc_syrk
        sched = record_schedule(m1, lambda: fn(m1, "A", "C", range(n), range(mc)))

        # 1. independent legality check
        summary = validate_schedule(sched, capacity=s)
        assert summary["peak_occupancy"] <= s
        # 2. replay equivalence (fresh machine, same inputs)
        m2 = TwoLevelMachine(s)
        m2.add_matrix("A", a)
        m2.add_matrix("C", np.zeros((n, n)))
        replay_schedule(sched, m2)
        np.testing.assert_allclose(m2.result("C"), m1.result("C"))
        assert m2.stats.loads == m1.stats.loads
        # 3. numeric verification
        np.testing.assert_allclose(
            np.tril(m1.result("C")), np.tril(syrk_reference(a)), rtol=1e-10, atol=1e-12
        )

    def test_lbc_pipeline(self):
        n, s, b = 16, 15, 4
        a = random_spd_matrix(n, seed=2)
        m1 = TwoLevelMachine(s)
        m1.add_matrix("A", a)
        sched = record_schedule(m1, lambda: lbc_cholesky(m1, "A", range(n), b=b))
        validate_schedule(sched, capacity=s)
        m2 = TwoLevelMachine(s)
        m2.add_matrix("A", a)
        replay_schedule(sched, m2)
        np.testing.assert_allclose(m2.result("A"), m1.result("A"))
        np.testing.assert_allclose(np.tril(m1.result("A")), cholesky_reference(a), rtol=1e-9)


class TestStrictVsCounting:
    @pytest.mark.parametrize(
        "make",
        [
            lambda m: tbs_syrk(m, "A", "C", range(29), range(3)),
            lambda m: ooc_syrk(m, "A", "C", range(29), range(3)),
        ],
    )
    def test_identical_io_accounting(self, make):
        a = random_tall_matrix(29, 3, seed=3)

        def build(numerics):
            m = TwoLevelMachine(15, numerics=numerics)
            m.add_matrix("A", a)
            m.add_matrix("C", np.zeros((29, 29)))
            st = make(m)
            return st

        st_numeric = build(True)
        st_count = build(False)
        assert st_numeric.loads == st_count.loads
        assert st_numeric.stores == st_count.stores
        assert st_numeric.mults == st_count.mults
        assert st_numeric.peak_occupancy == st_count.peak_occupancy


class TestBlockVsPebbleEquivalence:
    def test_same_result_same_loads_for_equivalent_schedule(self):
        # Execute OOC_SYRK's exact schedule element-by-element on the
        # explicit pebble machine: identical loads, stores, and numbers.
        n, mc, s = 6, 2, 15
        a = random_tall_matrix(n, mc, seed=5)
        m = TwoLevelMachine(s)
        m.add_matrix("A", a)
        m.add_matrix("C", np.zeros((n, n)))
        stats = ooc_syrk(m, "A", "C", range(n), range(mc))

        pm = ExplicitPebbleMachine(s)
        pm.add_matrix("A", a)
        pm.add_matrix("C", np.zeros((n, n)))
        tile = 3  # square_tile_side_for_memory(15)
        blocks = [list(range(0, 3)), list(range(3, 6))]
        for bi, ri in enumerate(blocks):
            # diagonal tile (lower incl diag)
            elems = [("C", i, j) for i in ri for j in ri if j <= i]
            for e in elems:
                pm.load(e)
            for k in range(mc):
                segs = [("A", i, k) for i in ri]
                for e in segs:
                    pm.load(e)
                for i in ri:
                    for j in ri:
                        if j <= i:
                            pm.op_muladd(("C", i, j), ("A", i, k), ("A", j, k))
                for e in segs:
                    pm.evict(e, writeback=False)
            for e in elems:
                pm.evict(e, writeback=True)
            for rj in blocks[:bi]:
                elems = [("C", i, j) for i in ri for j in rj]
                for e in elems:
                    pm.load(e)
                for k in range(mc):
                    segs = [("A", i, k) for i in ri] + [("A", j, k) for j in rj]
                    for e in segs:
                        pm.load(e)
                    for i in ri:
                        for j in rj:
                            pm.op_muladd(("C", i, j), ("A", i, k), ("A", j, k))
                    for e in segs:
                        pm.evict(e, writeback=False)
                for e in elems:
                    pm.evict(e, writeback=True)

        assert pm.loads == stats.loads
        assert pm.stores == stats.stores
        assert pm.mults == stats.mults
        np.testing.assert_allclose(pm.result("C"), m.result("C"), rtol=1e-12)


class TestHeadlineInequalities:
    def test_syrk_sandwich(self):
        # lower bound <= TBS <= OCS on every tested shape.
        for n, mc, s in [(40, 6, 15), (54, 3, 15), (66, 8, 21)]:
            mt = TwoLevelMachine(s, numerics=False)
            mt.add_matrix("A", np.zeros((n, mc)))
            mt.add_matrix("C", np.zeros((n, n)))
            t = tbs_syrk(mt, "A", "C", range(n), range(mc))
            mo = TwoLevelMachine(s, numerics=False)
            mo.add_matrix("A", np.zeros((n, mc)))
            mo.add_matrix("C", np.zeros((n, n)))
            o = ooc_syrk(mo, "A", "C", range(n), range(mc))
            lb = syrk_lower_bound(n, mc, s, form="exact")
            assert lb <= t.loads <= o.loads

    def test_cholesky_sandwich(self):
        # N must be past the LBC/OCC crossover (~130 at S=15): below it the
        # right-looking C-reload term still outweighs the sqrt(2) saving.
        n, s, b = 144, 15, 12
        ml = TwoLevelMachine(s, numerics=False)
        ml.add_matrix("A", np.zeros((n, n)))
        l = lbc_cholesky(ml, "A", range(n), b=b)
        mo = TwoLevelMachine(s, numerics=False)
        mo.add_matrix("A", np.zeros((n, n)))
        o = ooc_chol(mo, "A", range(n))
        lb = cholesky_lower_bound(n, s, form="exact")
        assert lb <= l.loads <= o.loads
