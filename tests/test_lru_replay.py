"""Tests for the LRU replay analyzer: explicit control vs hardware replacement."""

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.analysis.lru_replay import lru_competitiveness, lru_replay
from repro.baselines.ooc_syrk import ooc_syrk
from repro.core.tbs import tbs_syrk
from repro.errors import ConfigurationError
from repro.sched.schedule import record_schedule


def recorded(fn, n=40, mc=6, s=15):
    m = TwoLevelMachine(s, numerics=False)
    m.add_matrix("A", np.zeros((n, mc)))
    m.add_matrix("C", np.zeros((n, n)))
    sched = record_schedule(m, lambda: fn(m, "A", "C", range(n), range(mc)))
    return sched, m.stats.loads


class TestLruReplay:
    def test_counts_are_consistent(self):
        sched, explicit = recorded(tbs_syrk)
        r = lru_replay(sched, 15)
        assert r.loads >= r.distinct          # at least the cold misses
        assert r.n_accesses >= r.loads
        assert 0 < r.miss_rate <= 1
        assert r.q == r.loads

    def test_infinite_cache_hits_cold_floor(self):
        sched, _ = recorded(tbs_syrk, n=27, mc=3)
        r = lru_replay(sched, capacity=10**6)
        assert r.loads == r.distinct

    def test_blocked_orders_are_cache_friendly(self):
        # At equal capacity, LRU on the blocked op order stays within a few
        # percent of the explicitly managed volume: the advantage is in the
        # order of computations, not the eviction decisions.
        for fn in (tbs_syrk, ooc_syrk):
            sched, explicit = recorded(fn)
            ratio = lru_competitiveness(sched, explicit, capacity=15)
            assert 0.9 < ratio < 1.1, (fn.__name__, ratio)

    def test_tbs_advantage_survives_lru(self):
        sched_t, _ = recorded(tbs_syrk)
        sched_o, _ = recorded(ooc_syrk)
        assert lru_replay(sched_t, 15).loads < lru_replay(sched_o, 15).loads

    def test_more_capacity_never_hurts_much(self):
        # LRU is not anomaly-free in general, but on these streaming orders
        # volumes decrease monotonically in the tested range.
        sched, _ = recorded(tbs_syrk)
        vols = [lru_replay(sched, c).loads for c in (15, 30, 60, 120)]
        assert all(a >= b for a, b in zip(vols, vols[1:]))

    def test_stores_track_dirty_data(self):
        sched, _ = recorded(ooc_syrk, n=20, mc=2)
        r = lru_replay(sched, 15)
        # every written C element is eventually stored at least once
        assert r.stores >= 20 * 21 // 2

    def test_bad_args(self):
        sched, explicit = recorded(tbs_syrk, n=12, mc=2)
        with pytest.raises(ConfigurationError):
            lru_replay(sched, 0)
        with pytest.raises(ConfigurationError):
            lru_competitiveness(sched, 0, 15)
