"""Property-based checks for the serving layer (:mod:`repro.serve`).

Four invariants, driven by hypothesis when available and by seeded random
sweeps otherwise (mirroring ``test_trace_property.py``):

* **round trip** — any searched schedule filed in a
  :class:`~repro.serve.store.ScheduleStore` loads back and replays to
  bit-identical numerics, across every kernel the harness records;
* **cache law** — a :class:`~repro.serve.cache.ScheduleCache` driven by
  any request log never exceeds its bound, counts exactly the misses
  ``lru_replay_trace`` counts on the log-as-trace, and never fewer than
  the Belady floor ``belady_replay_trace`` counts there;
* **single flight** — any multiset of concurrent requests runs exactly
  one search per distinct key; every duplicate coalesces and every
  requester gets the identical object;
* **corruption tolerance** — any strict-prefix truncation or byte-level
  mangling of a stored object reads as a miss (``None``), never an
  exception; and any one corrupted entry of a column (a step kind, a
  matrix or op-type id, a length, an index, an op scalar or a writeback
  flag) either reads as a counted corrupt miss or loads into a schedule
  whose every step builds inside its matrices.
"""

import asyncio
import functools
import os
import tempfile
import threading
import time

import numpy as np
import pytest

from container_columns import read_columns, write_columns

from repro.graph.compare import record_case
from repro.obs.probe import probe_scope
from repro.sched.schedule import ComputeStep
from repro.serve import (
    ScheduleCache,
    ScheduleKey,
    ScheduleService,
    ScheduleStore,
    log_to_trace,
)
from repro.trace.replay import belady_replay_trace, lru_replay_trace

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


@functools.lru_cache(maxsize=None)
def cached_case(kernel, n, m, s):
    return record_case(kernel, n, m, s)


def assert_store_roundtrip(kernel, n, m, s):
    case = cached_case(kernel, n, m, s)
    key = ScheduleKey(kernel, n, m, s)
    with tempfile.TemporaryDirectory() as root:
        store = ScheduleStore(root)
        store.put(key, case.schedule)
        loaded = store.get(key)
    assert loaded is not None
    assert case.check_exact(loaded)


def assert_cache_matches_engines(log, capacity):
    trace = log_to_trace(log)
    lru = ScheduleCache.replay(log, capacity)
    assert len(lru) <= capacity
    assert lru.hits + lru.misses == len(log)
    assert lru.misses == lru_replay_trace(trace, capacity).loads
    assert lru.misses >= belady_replay_trace(trace, capacity).loads


class CountingSearcher:
    """Slow fake searcher: counts calls, forces requests to overlap."""

    def __init__(self, schedule, delay=0.03):
        self.schedule = schedule
        self.delay = delay
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, key):
        with self._lock:
            self.calls += 1
        time.sleep(self.delay)
        return self.schedule


def assert_single_flight(dup_counts):
    """``dup_counts[i]`` concurrent requests for key ``i`` → one search each."""
    schedule = cached_case("tbs", 6, 2, 8).schedule
    keys = [ScheduleKey("tbs", 6 + i, 2, 8) for i in range(len(dup_counts))]
    stream = [k for k, c in zip(keys, dup_counts) for _ in range(c)]
    searcher = CountingSearcher(schedule)
    with tempfile.TemporaryDirectory() as root:
        service = ScheduleService(ScheduleStore(root), ScheduleCache(8),
                                  searcher=searcher)

        async def herd():
            return await asyncio.gather(
                *[service.get_schedule(k) for k in stream]
            )

        results = asyncio.run(herd())
    assert searcher.calls == len(keys)
    assert service.searches == len(keys)
    assert service.coalesced == len(stream) - len(keys)
    by_key = {k.digest(): r for k, r in zip(stream, results)}
    for k, r in zip(stream, results):
        assert r is by_key[k.digest()]  # every duplicate got the same object


def assert_corruption_tolerated(mangle):
    """``mangle(bytes) -> bytes`` rewrites the object; get must not raise."""
    case = cached_case("tbs", 6, 2, 8)
    key = ScheduleKey("tbs", 6, 2, 8)
    with tempfile.TemporaryDirectory() as root:
        store = ScheduleStore(root)
        store.put(key, case.schedule)
        path = store.object_path(key)
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(mangle(raw))
        got = store.get(key)  # must never raise
        assert got is None or case.check_exact(got)
        store.put(key, case.schedule)  # a re-put always repairs the entry
        assert store.get(key) is not None


#: Column -> the values a corrupted entry of it takes (``shift`` moves
#: entries from one index span to the next, keeping the lengths' sum).
#: The schedule is chol N=9, whose ``A`` is 9 x 9.
COLUMN_VALUES = {
    "kind": list(range(-1, 4)),
    "ref": list(range(-1, 6)),
    "writeback": [0, 1],
    "lengths": list(range(-1, 12)),
    "shift": list(range(-3, 4)),
    "index_data": list(range(-2, 12)) + [80, 81, 90],
    "params": [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 8.0, 9.0, 81.0, float("nan")],
}


def assert_column_corruption_tolerated(column, where, value):
    """Set one entry of ``column`` (at fraction ``where`` of it) to ``value``."""
    case = cached_case("chol", 9, 2, 15)
    key = ScheduleKey("chol", 9, 2, 15)
    with tempfile.TemporaryDirectory() as root:
        store = ScheduleStore(root)
        store.put(key, case.schedule)
        path = store.object_path(key)
        header, arrays = read_columns(path)
        if column == "params":
            cells = [(name, i) for name in sorted(arrays) if name.startswith("params_")
                     for i in range(arrays[name].size)]
            name, i = cells[int(where * len(cells))]
            arrays[name].flat[i] = value
        elif column == "shift":
            i = int(where * (arrays["lengths"].size - 1))
            arrays["lengths"][i] += value
            arrays["lengths"][i + 1] -= value
        else:
            arrays[column][int(where * arrays[column].size)] = value
        write_columns(path, header, arrays)
        with probe_scope() as probe:
            got = store.get(key)
        if got is None:
            assert probe.counters["serve.store.corrupt"] == 1
            return
        for step in got.steps:  # every step builds ...
            if isinstance(step, ComputeStep):
                regions = step.op.reads() + step.op.writes()
            else:
                regions = [step.region]
            for region in regions:  # ... inside its matrices
                rows, cols = got.shapes[region.matrix]
                assert ((region.flat >= 0) & (region.flat < rows * cols)).all()


KERNELS = ("tbs", "ocs", "syr2k", "chol")

if HAVE_HYPOTHESIS:

    @settings(max_examples=8, deadline=None)
    @given(
        kernel=st.sampled_from(KERNELS),
        n=st.integers(min_value=6, max_value=12),
        m=st.integers(min_value=2, max_value=3),
        s=st.integers(min_value=8, max_value=16),
    )
    def test_store_roundtrip_hypothesis(kernel, n, m, s):
        assert_store_roundtrip(kernel, n, m, s)

    @settings(max_examples=40, deadline=None)
    @given(
        log=st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                     max_size=120),
        capacity=st.integers(min_value=1, max_value=12),
    )
    def test_cache_matches_engines_hypothesis(log, capacity):
        assert_cache_matches_engines([f"k{i}" for i in log], capacity)

    @settings(max_examples=6, deadline=None)
    @given(dup_counts=st.lists(st.integers(min_value=1, max_value=6),
                               min_size=1, max_size=4))
    def test_single_flight_hypothesis(dup_counts):
        assert_single_flight(dup_counts)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_corruption_tolerated_hypothesis(data):
        mode = data.draw(st.sampled_from(["truncate", "flip"]))
        if mode == "truncate":
            frac = data.draw(st.floats(min_value=0.0, max_value=0.999))
            mangle = lambda raw: raw[: int(len(raw) * frac)]
        else:
            seed = data.draw(st.integers(min_value=0, max_value=2**31))
            def mangle(raw, seed=seed):
                rng = np.random.default_rng(seed)
                buf = bytearray(raw)
                for pos in rng.integers(0, len(buf), size=8):
                    buf[pos] ^= 0xFF
                return bytes(buf)
        assert_corruption_tolerated(mangle)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_column_corruption_hypothesis(data):
        column = data.draw(st.sampled_from(sorted(COLUMN_VALUES)))
        where = data.draw(st.floats(min_value=0.0, max_value=0.999))
        value = data.draw(st.sampled_from(COLUMN_VALUES[column]))
        assert_column_corruption_tolerated(column, where, value)


def test_column_corruption_seeded_sweep():
    rng = np.random.default_rng(18)
    for column, values in COLUMN_VALUES.items():
        for _ in range(6):
            value = values[int(rng.integers(0, len(values)))]
            assert_column_corruption_tolerated(column, float(rng.uniform(0.0, 0.999)), value)


def test_store_roundtrip_seeded_sweep():
    rng = np.random.default_rng(2022)
    for kernel in KERNELS:
        n = int(rng.integers(6, 13))
        assert_store_roundtrip(
            kernel, n, int(rng.integers(2, 4)), int(rng.integers(8, 17))
        )


def test_cache_matches_engines_seeded_sweep():
    rng = np.random.default_rng(7_11)
    for _ in range(30):
        n = int(rng.integers(1, 150))
        universe = int(rng.integers(1, 14))
        log = [f"k{i}" for i in rng.integers(0, universe, size=n)]
        assert_cache_matches_engines(log, int(rng.integers(1, 13)))


def test_single_flight_seeded_sweep():
    rng = np.random.default_rng(3)
    for _ in range(4):
        counts = [int(c) for c in rng.integers(1, 7, size=rng.integers(1, 5))]
        assert_single_flight(counts)


def test_corruption_tolerated_seeded_sweep():
    rng = np.random.default_rng(13)
    for _ in range(6):
        frac = float(rng.uniform(0.0, 0.999))
        assert_corruption_tolerated(lambda raw: raw[: int(len(raw) * frac)])
    for _ in range(6):
        seed = int(rng.integers(0, 2**31))

        def mangle(raw, seed=seed):
            r = np.random.default_rng(seed)
            buf = bytearray(raw)
            for pos in r.integers(0, len(buf), size=8):
                buf[pos] ^= 0xFF
            return bytes(buf)

        assert_corruption_tolerated(mangle)
