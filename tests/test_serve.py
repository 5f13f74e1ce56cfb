"""Tests for the schedule-serving layer (:mod:`repro.serve`).

Covers the three tiers and their contracts: content-addressed store
round-trips (bit-identical replays), corruption/stale-manifest recovery
(bad objects read as misses, never exceptions), the bounded cache's LRU
semantics pinned against the array replay engines on the same access
log, with Belady's count as its floor, and the async front end's
single-flight guarantee (N concurrent duplicates → exactly one search).
"""

import asyncio
import json
import os
import threading
import time

import numpy as np
import pytest

from container_columns import read_columns, step_spans, write_columns

from repro.__main__ import main
from repro.errors import ConfigurationError
from repro.graph.compare import record_case
from repro.obs.probe import probe_scope
from repro.sched.schedule import Schedule, replay_schedule
from repro.serve import (
    ScheduleCache,
    ScheduleKey,
    ScheduleService,
    ScheduleStore,
    log_to_trace,
    warm_store,
)
from repro.trace.replay import belady_replay_trace, lru_replay_trace

CASE_ARGS = ("tbs", 20, 3, 10)


@pytest.fixture(scope="module")
def case():
    return record_case(*CASE_ARGS)


@pytest.fixture
def key():
    return ScheduleKey("tbs", 20, 3, 10)


@pytest.fixture
def store(tmp_path):
    return ScheduleStore(tmp_path / "store")


class TestScheduleKey:
    def test_digest_is_spelling_independent(self):
        a = ScheduleKey("tbs", 40, 6, 15, p=1, alpha=1, beta=1)
        b = ScheduleKey("tbs", np.int64(40), 6.0, 15, p=np.int64(1), alpha=1.0, beta=1.0)
        assert a == b and a.digest() == b.digest()
        c = ScheduleKey("tbs", 40, 6, 15.0)
        assert c.digest() == a.digest() and type(c.s) is int

    @pytest.mark.parametrize("field", ["n", "m", "s", "p"])
    @pytest.mark.parametrize("value", [15.5, 32.7, True, "15", float("nan"), float("inf")])
    def test_non_whole_dimension_rejected(self, field, value):
        """Never truncated into another key's digest, however it arrives."""
        fields = {**ScheduleKey("tbs", 20, 3, 10).as_dict(), field: value}
        with pytest.raises(ConfigurationError, match=f"key field {field} "):
            ScheduleKey.from_dict(fields)
        kernel = fields.pop("kernel")
        with pytest.raises(ConfigurationError, match=f"key field {field} "):
            ScheduleKey(kernel, **fields)

    def test_dict_roundtrip(self, key):
        assert ScheduleKey.from_dict(key.as_dict()) == key
        assert json.loads(key.canonical()) == key.as_dict()

    def test_every_field_addresses(self, key):
        cosearch = ScheduleKey("tbs", 20, 3, 10, policy="cosearch")
        for base, other in (
            (key, ScheduleKey("ocs", 20, 3, 10)),
            (key, ScheduleKey("tbs", 21, 3, 10)),
            (key, ScheduleKey("tbs", 20, 4, 10)),
            (key, ScheduleKey("tbs", 20, 3, 11)),
            (key, ScheduleKey("tbs", 20, 3, 10, policy="search")),
            (key, cosearch),
            (cosearch, ScheduleKey("tbs", 20, 3, 10, p=4, policy="cosearch")),
            (cosearch, ScheduleKey("tbs", 20, 3, 10, policy="cosearch", alpha=2.0)),
            (cosearch, ScheduleKey("tbs", 20, 3, 10, policy="cosearch", beta=0.5)),
        ):
            assert other.digest() != base.digest()

    @pytest.mark.parametrize("policy", ["heuristic", "search"])
    def test_ignored_fields_share_a_digest(self, policy):
        """heuristic and search read neither p nor alpha nor beta, so keys
        that differ only there are one key: one search, one object."""
        base = ScheduleKey("tbs", 20, 3, 10, policy=policy)
        for fields in ({"p": 4}, {"alpha": 2.0}, {"beta": 0.5},
                       {"p": 2, "alpha": 3.0, "beta": 0.25}):
            other = ScheduleKey("tbs", 20, 3, 10, policy=policy, **fields)
            assert other == base and other.digest() == base.digest()
            assert (other.p, other.alpha, other.beta) == (1, 1.0, 1.0)
        assert ScheduleKey.from_dict({**base.as_dict(), "p": 8}) == base

    def test_cosearch_keeps_placement_fields(self):
        keys = [
            ScheduleKey("tbs", 20, 3, 10, policy="cosearch", **fields)
            for fields in ({}, {"p": 4}, {"alpha": 2.0}, {"beta": 0.5})
        ]
        assert len({k.digest() for k in keys}) == len(keys)
        assert keys[1].p == 4

    def test_ignored_fields_are_still_checked(self):
        with pytest.raises(ConfigurationError):
            ScheduleKey("tbs", 20, 3, 10, p=0, policy="search")
        with pytest.raises(ConfigurationError, match="key field p"):
            ScheduleKey("tbs", 20, 3, 10, p=2.5)

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            ScheduleKey("tbs", 0, 3, 10)
        with pytest.raises(ConfigurationError):
            ScheduleKey("tbs", 20, 3, 10, p=0)

    def test_sortable(self, key):
        assert sorted([ScheduleKey("tbs", 30, 3, 10), key])[0] == key


class TestScheduleStore:
    def test_put_get_bit_identical(self, store, case, key):
        digest = store.put(key, case.schedule)
        assert digest == key.digest()
        assert key in store and len(store) == 1
        loaded = store.get(key)
        assert case.check_exact(loaded)  # replays to bit-identical results

    def test_missing_is_none(self, store, key):
        assert store.get(key) is None
        assert key not in store

    def test_second_instance_same_root(self, store, case, key):
        store.put(key, case.schedule)
        again = ScheduleStore(store.root)
        assert again.get(key) is not None

    def test_corrupt_object_reads_as_miss(self, store, case, key):
        store.put(key, case.schedule)
        with open(store.object_path(key), "wb") as fh:
            fh.write(b"this is not a zip archive")
        with probe_scope() as probe:
            assert store.get(key) is None
        assert probe.counters["serve.store.corrupt"] == 1
        # a fresh put repairs the entry
        store.put(key, case.schedule)
        assert store.get(key) is not None

    def test_truncated_object_reads_as_miss(self, store, case, key):
        store.put(key, case.schedule)
        path = store.object_path(key)
        size = os.path.getsize(path)
        with open(path, "rb+") as fh:
            fh.truncate(size // 2)
        assert store.get(key) is None

    @pytest.mark.parametrize(
        "tamper",
        ["span_past_end", "unknown_matrix", "negative_flat", "flat_past_matrix"],
    )
    def test_malformed_container_reads_as_miss(self, store, case, key, tamper):
        """A parseable container whose columns point outside their data is
        corrupt: ``get`` counts it and reads a miss, even without verify."""
        store.put(key, case.schedule)
        path = store.object_path(key)
        header, arrays = read_columns(path)
        step = int(np.flatnonzero(arrays["kind"] == 0)[0])  # the first load
        (start, end), = step_spans(header, arrays)[step]
        if tamper == "span_past_end":
            # the last span claims 2 entries past the end of index_data
            arrays["lengths"][-1] += 2
        elif tamper == "unknown_matrix":
            arrays["ref"][step] = len(header["matrices"])
        elif tamper == "negative_flat":
            arrays["index_data"][start] = -5
        else:
            rows, cols = header["shapes"][arrays["ref"][step]]
            arrays["index_data"][end - 1] = rows * cols
        write_columns(path, header, arrays)
        with probe_scope() as probe:
            assert store.get(key) is None
        assert probe.counters["serve.store.corrupt"] == 1
        store.put(key, case.schedule)  # the next put repairs the entry
        assert case.check_exact(store.get(key))

    def test_repeated_op_indices_read_as_miss(self, store, case, key):
        """An op whose stored index set repeats an index cannot be rebuilt:
        the loader rejects it, so ``get`` counts a corrupt miss."""
        store.put(key, case.schedule)
        path = store.object_path(key)
        header, arrays = read_columns(path)
        start, _ = next(
            span
            for kind, spans in zip(arrays["kind"], step_spans(header, arrays))
            if kind == 2
            for span in spans if span[1] - span[0] >= 2
        )
        arrays["index_data"][start + 1] = arrays["index_data"][start]
        write_columns(path, header, arrays)
        with probe_scope() as probe:
            assert store.get(key) is None
        assert probe.counters["serve.store.corrupt"] == 1
        store.put(key, case.schedule)  # the next put repairs the entry
        assert case.check_exact(store.get(key))

    @pytest.mark.parametrize("row", [20, 500])
    def test_op_row_past_matrix_reads_as_miss(self, store, row):
        """A stored op row at or past its matrix's row count is corrupt.

        Region constructors bound columns only, so before the loader
        bounded rows, row 20 of the 20-row ``C`` was served as flat 402 of
        its 400 elements, and row 500 made ``get(verify=True)`` raise.
        """
        case = record_case("tbs", 20, 3, 15)
        key = ScheduleKey("tbs", 20, 3, 15)
        store.put(key, case.schedule)
        path = store.object_path(key)
        header, arrays = read_columns(path)
        outer = header["ops"].index("outer_cols")
        step = int(np.flatnonzero((arrays["kind"] == 2) & (arrays["ref"] == outer))[0])
        (_, i_end), _ = step_spans(header, arrays)[step]  # the spans of I and J
        arrays["index_data"][i_end - 1] = row
        write_columns(path, header, arrays)
        for verify in (False, True):
            with probe_scope() as probe:
                assert store.get(key, verify=verify) is None
            assert probe.counters["serve.store.corrupt"] == 1

    def test_older_format_reads_as_stale(self, store, case, key):
        """An object in the retired version-1 format (JSON step records) is
        a counted stale miss, and the next put rewrites it."""
        store.put(key, case.schedule)
        path = store.object_path(key)
        header = {
            "kind": "schedule",
            "version": 1,
            "shapes": {"A": [20, 3], "C": [20, 20]},
            "steps": [
                {"t": "L", "m": "A", "i": [0, 2]},
                {"t": "E", "m": "A", "i": [0, 2], "wb": False},
            ],
        }
        write_columns(path, header, {"index_data": np.arange(2, dtype=np.int64)})
        with probe_scope() as probe:
            assert store.get(key) is None
        assert probe.counters["serve.store.stale"] == 1
        assert "serve.store.corrupt" not in probe.counters
        store.put(key, case.schedule)
        with probe_scope() as probe:
            assert case.check_exact(store.get(key))
        assert "serve.store.stale" not in probe.counters

    def test_manifest_is_sorted_and_deterministic(self, store, case, key):
        others = [ScheduleKey("tbs", 20, 3, 10, policy=p) for p in ("search", "cosearch")]
        for k in [key, *others]:
            store.put(k, case.schedule)
        path = os.path.join(store.root, "manifest.json")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
        assert list(doc["entries"]) == sorted(k.digest() for k in [key, *others])
        store.rescan()
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == text
        assert sorted(os.listdir(store.root)) == ["manifest.json", "objects"]

    def test_deleted_manifest_recovers(self, store, case, key):
        store.put(key, case.schedule)
        os.unlink(os.path.join(store.root, "manifest.json"))
        assert store.get(key) is not None     # get never needs the manifest
        stats = store.stats()                  # stats rescans the objects
        assert stats["entries"] == 1 and stats["bytes"] > 0

    def test_garbage_manifest_recovers(self, store, case, key):
        store.put(key, case.schedule)
        with open(os.path.join(store.root, "manifest.json"), "w") as fh:
            fh.write("{ not json")
        assert store.get(key) is not None
        assert store.stats()["entries"] == 1

    def test_stale_manifest_entry_dropped(self, store, case, key):
        store.put(key, case.schedule)
        os.unlink(store.object_path(key))
        assert store.get(key) is None
        assert store.stats()["entries"] == 0   # rescan drops the ghost

    def test_keys_listing(self, store, case, key):
        store.put(key, case.schedule)
        other = ScheduleKey("tbs", 20, 3, 10, policy="search")
        store.put(other, case.schedule)
        assert store.keys() == sorted([key, other])
        assert sorted(store.digests()) == sorted([key.digest(), other.digest()])

    def test_orphan_object_adopted_keyless(self, store, case, key):
        store.put(key, case.schedule)
        os.unlink(os.path.join(store.root, "manifest.json"))
        assert store.keys() == []              # orphan: digest serves, key lost
        assert store.stats()["entries"] == 1

    def test_interrupted_put_keeps_old_entry(self, store, case, key, monkeypatch):
        import repro.trace.io as tio

        store.put(key, case.schedule)
        before = open(store.object_path(key), "rb").read()

        real = tio.np.savez_compressed

        def torn(path, **arrays):
            with open(path, "wb") as fh:
                fh.write(b"PK\x03\x04 torn mid-write")
            raise KeyboardInterrupt

        monkeypatch.setattr(tio.np, "savez_compressed", torn)
        with pytest.raises(KeyboardInterrupt):
            store.put(key, case.schedule)
        monkeypatch.setattr(tio.np, "savez_compressed", real)
        assert open(store.object_path(key), "rb").read() == before
        assert store.get(key) is not None

    def test_stats_shape(self, store, case, key):
        store.put(key, case.schedule)
        stats = store.stats()
        assert stats["per_kernel"] == {"tbs": 1}
        assert stats["per_policy"] == {"heuristic": 1}


class TestScheduleCache:
    def test_bound_is_hard(self):
        cache = ScheduleCache(3)
        for i in range(50):
            d = f"k{i % 7}"
            if cache.get(d) is None:
                cache.put(d, i)
            assert len(cache) <= 3
        assert cache.evictions > 0

    def test_lru_eviction_order(self):
        cache = ScheduleCache(3)
        for d in ("a", "b", "c"):
            cache.get(d)
            cache.put(d, d)
        assert cache.get("a") == "a"       # refresh a: b is now the LRU entry
        cache.put("d", "d")
        assert "b" not in cache
        assert all(d in cache for d in ("a", "c", "d"))

    def test_put_refresh_never_evicts(self):
        cache = ScheduleCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 3)                  # refresh, not insert
        assert cache.evictions == 0 and cache.get("a") == 3

    def test_lru_matches_replay_engine(self):
        rng = np.random.default_rng(7)
        log = [f"k{i}" for i in rng.integers(0, 12, size=400)]
        trace = log_to_trace(log)
        for capacity in (1, 2, 3, 5, 8, 12, 20):
            cache = ScheduleCache.replay(log, capacity)
            ref = lru_replay_trace(trace, capacity)
            assert cache.misses == ref.loads, capacity
            assert cache.hits == ref.n_accesses - ref.loads

    def test_misses_at_least_belady_loads(self):
        """Belady's count on the same log is a floor the LRU cache never
        beats, and reaches once the whole universe fits."""
        rng = np.random.default_rng(11)
        log = [f"k{i}" for i in rng.integers(0, 10, size=300)]
        trace = log_to_trace(log)
        for capacity in (1, 2, 4, 6, 10):
            cache = ScheduleCache.replay(log, capacity)
            floor = belady_replay_trace(trace, capacity).loads
            assert cache.misses >= floor, capacity
            if capacity >= len(set(log)):
                assert cache.misses == floor

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            ScheduleCache(0)
        with pytest.raises(TypeError):
            ScheduleCache(2, "fifo")  # LRU is the only policy

    def test_log_records_gets(self):
        log = ["a", "a"]
        cache = ScheduleCache.replay(log, 2)
        assert cache.hits + cache.misses == len(log)  # one access per get
        assert cache.hit_rate == 0.5
        assert not hasattr(cache, "log")  # counters only, no history

    def test_evictions_counted_on_probe(self):
        with probe_scope() as probe:
            ScheduleCache.replay(["a", "b", "c", "a"], 1)
        assert probe.counters["serve.evictions"] == 3


def run(coro):
    return asyncio.run(coro)


class SlowSearcher:
    """A deliberately slow, call-counting fake searcher (thread-safe)."""

    def __init__(self, schedule, delay=0.05, fail_first=False):
        self.schedule = schedule
        self.delay = delay
        self.fail_first = fail_first
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, key):
        with self._lock:
            self.calls += 1
            first = self.calls == 1
        time.sleep(self.delay)
        if self.fail_first and first:
            raise RuntimeError("transient search failure")
        return self.schedule


class TestScheduleService:
    def test_single_flight(self, store, case, key):
        searcher = SlowSearcher(case.schedule)
        service = ScheduleService(store, ScheduleCache(4), searcher=searcher)

        async def fan_out():
            return await asyncio.gather(
                *[service.get_schedule(key) for _ in range(16)]
            )

        with probe_scope() as probe:
            results = run(fan_out())
        assert searcher.calls == 1
        assert all(r is results[0] for r in results)
        assert service.searches == 1 and service.misses == 1
        assert service.coalesced == 15
        assert probe.counters["serve.coalesced"] == 15
        assert probe.counters["serve.searches"] == 1

    def test_memory_then_store_tiers(self, store, case, key):
        searcher = SlowSearcher(case.schedule, delay=0.0)
        service = ScheduleService(store, ScheduleCache(4), searcher=searcher)
        run(service.get_schedule(key))
        run(service.get_schedule(key))
        assert (service.searches, service.hits, service.store_hits) == (1, 1, 0)
        # a fresh service over the same root serves from disk, no search
        cold = ScheduleService(store, ScheduleCache(4), searcher=searcher)
        run(cold.get_schedule(key))
        assert (cold.searches, cold.store_hits) == (0, 1)
        assert searcher.calls == 1

    def test_no_cache_tier(self, store, case, key):
        searcher = SlowSearcher(case.schedule, delay=0.0)
        service = ScheduleService(store, None, searcher=searcher)
        run(service.get_schedule(key))
        run(service.get_schedule(key))
        assert service.hits == 0 and service.store_hits == 1
        assert service.stats_snapshot()["searches"] == 1

    def test_corrupt_store_falls_through_to_search(self, store, case, key):
        store.put(key, case.schedule)
        with open(store.object_path(key), "wb") as fh:
            fh.write(b"garbage")
        searcher = SlowSearcher(case.schedule, delay=0.0)
        service = ScheduleService(store, ScheduleCache(4), searcher=searcher)
        run(service.get_schedule(key))
        assert searcher.calls == 1         # corrupt entry read as a miss
        assert store.get(key) is not None  # ... and the search repaired it

    def test_search_failure_propagates_then_retries(self, store, case, key):
        searcher = SlowSearcher(case.schedule, delay=0.01, fail_first=True)

        async def herd():
            return await asyncio.gather(
                *[service.get_schedule(key) for _ in range(4)],
                return_exceptions=True,
            )

        service = ScheduleService(store, ScheduleCache(4), searcher=searcher)
        results = run(herd())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert searcher.calls == 1         # the herd shared one failure
        # the failed flight is gone; the next request searches again
        assert run(service.get_schedule(key)) is case.schedule
        assert searcher.calls == 2

    def test_concurrency_stress(self, store, case):
        keys = [ScheduleKey("tbs", 20, 3, 10 + i) for i in range(6)]
        rng = np.random.default_rng(3)
        stream = [keys[i] for i in rng.integers(0, len(keys), size=60)]
        searcher = SlowSearcher(case.schedule, delay=0.02)
        service = ScheduleService(store, ScheduleCache(3), searcher=searcher)

        async def herd():
            return await asyncio.gather(*[service.get_schedule(k) for k in stream])

        results = run(herd())
        distinct = len({k.digest() for k in stream})
        assert searcher.calls == distinct  # one search per distinct key, ever
        assert service.searches == distinct
        assert len(results) == len(stream)
        assert len(service.cache) <= 3
        snap = service.stats_snapshot()
        assert snap["requests"] == len(stream)
        assert (snap["hits"] + snap["store_hits"] + snap["misses"]
                + snap["coalesced"]) == len(stream)

    def test_real_searcher_by_policy(self, store, key):
        service = ScheduleService(store, ScheduleCache(2))
        schedule = run(service.get_schedule(key))
        assert isinstance(schedule, Schedule)
        assert service.searches == 1
        case = record_case(*CASE_ARGS)
        assert case.check_exact(schedule)

    def test_unknown_policy_raises(self, store):
        bad = ScheduleKey("tbs", 20, 3, 10, policy="magic")
        service = ScheduleService(store, ScheduleCache(2))
        with pytest.raises(ConfigurationError, match="policy"):
            run(service.get_schedule(bad))

    def test_async_context_manager(self, store, case, key):
        async def scenario():
            async with ScheduleService(
                store, searcher=SlowSearcher(case.schedule, delay=0.0)
            ) as service:
                await service.get_schedule(key)
                return service

        assert run(scenario()).searches == 1


class TestWarmStore:
    def test_warm_fills_misses_only(self, store, key):
        other = ScheduleKey("tbs", 22, 3, 10)
        assert warm_store(store, [key, other]) == [key, other]
        assert warm_store(store, [key, other]) == []
        assert warm_store(store, [key], force=True) == [key]
        assert len(store) == 2

    def test_warm_parallel_matches_serial(self, tmp_path):
        keys = [ScheduleKey("tbs", 20, 3, 10), ScheduleKey("tbs", 22, 3, 10)]
        serial = ScheduleStore(tmp_path / "serial")
        fanned = ScheduleStore(tmp_path / "fanned")
        warm_store(serial, keys, jobs=1)
        warm_store(fanned, keys, jobs=2)
        for key in keys:
            a, b = serial.get(key), fanned.get(key)
            assert len(a.steps) == len(b.steps)
            assert a.io_volume() == b.io_volume()


class TestServeCli:
    def test_warm_query_stats_roundtrip(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        base = ["--store", root, "--kernel", "tbs", "--ns", "20", "22",
                "--m", "3", "--s", "10"]
        assert main(["serve", "warm"] + base) == 0
        out = capsys.readouterr().out
        assert "2 searched" in out
        assert main(["serve", "warm"] + base) == 0
        assert "0 searched" in capsys.readouterr().out
        assert main(
            ["serve", "query"] + base
            + ["--requests", "40", "--cache-size", "2", "--batch", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "mem hits" in out and "coalesced" in out
        stats_json = str(tmp_path / "serve_stats.json")
        assert main(["serve", "stats", "--store", root, "--json", stats_json]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        doc = json.loads(open(stats_json).read())
        assert doc["experiment"] == "serve_stats"
        assert "provenance" in doc and doc["rows"][0]["entries"] == 2

    def test_query_cold_searches(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        assert main(
            ["serve", "query", "--store", root, "--kernel", "tbs",
             "--ns", "20", "--m", "3", "--s", "10",
             "--requests", "8", "--cache-size", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "searches" in out and "mean cold search" in out


def test_loaded_schedule_replays(tmp_path, case):
    """End to end: serve → load → replay on a fresh machine, bit-identical."""
    store = ScheduleStore(tmp_path / "s")
    key = ScheduleKey(*CASE_ARGS)
    warm_store(store, [key])
    m = case.make_machine()
    replay_schedule(store.get(key), m)
    m.assert_empty()
    assert np.array_equal(m.result("C"), case.reference["C"])
