"""E19 — the schedule-serving layer measured tier by tier.

Three measurements over :mod:`repro.serve`:

* **Cold vs disk vs warm latency** (the memoization claim): one
  E16-config key (TBS N=120 M=6 S=15; ``--smoke`` shrinks to N=40)
  served through a fresh :class:`~repro.serve.frontend.ScheduleService`.
  The cold request runs the full searcher pipeline and files the result;
  warm requests are in-process cache hits.  The warm mean must be
  **>= 100x** faster than the cold search — the acceptance floor of the
  serving layer, asserted in both modes (in practice it is 4-6 orders).
  Disk hits are timed too: a fresh service with an empty cache reads the
  key the cold request filed, and the row reports the median of a few
  such reads.  Only the ordering memory < disk < cold is asserted; CI
  hosts are too noisy for an absolute floor.

* **Single flight** (the coalescing claim): N concurrent requests for
  one cold key through ``asyncio.gather`` must run **exactly one**
  search and coalesce the other N−1 (``serve.coalesced``).

* **Hit rate vs cache size under a zipf stream + LRU vs oracle** (the
  dogfooding claim): one synthetic request log (zipf-ranked popularity
  over a key universe) replayed through the LRU
  :class:`~repro.serve.cache.ScheduleCache` at a capacity grid.  At
  every capacity the cache is cross-checked **bit-identically** against
  the array LRU engine of :mod:`repro.trace.replay` driving the
  log-as-trace (:func:`repro.serve.cache.log_to_trace`) — the serving
  tier literally runs on the engines the paper analyzes — and the
  oracle column is the Belady engine's count on the same trace (hits =
  requests − loads).  Asserted shape: LRU hit rate is monotone in
  capacity (inclusion property), oracle >= LRU everywhere, equal at
  capacity >= universe.

Rows land in a provenance-stamped BENCH JSON
(``benchmarks/out/bench_e19_serve.json`` or ``$BENCH_E19_JSON``).
"""

import asyncio
import random
import statistics
import time

import pytest

from repro.serve import (
    ScheduleCache,
    ScheduleKey,
    ScheduleService,
    ScheduleStore,
    log_to_trace,
)
from repro.trace.replay import belady_replay_trace, lru_replay_trace
from repro.utils.fmt import Table, format_int

WARM_HITS = 200          # warm-latency sample size (memory hits)
DISK_READS = 5           # disk-hit sample size (one fresh service per read)
SPEEDUP_FLOOR = 100.0    # acceptance: warm hit >= 100x faster than cold search
FANOUT = 8               # concurrent duplicates for the single-flight check
UNIVERSE = 40            # synthetic key universe for the zipf stream
STREAM_LEN = 4000
ZIPF_A = 1.1
CAPACITIES = (2, 4, 8, 16, 32, UNIVERSE)


def e16_key(smoke: bool) -> ScheduleKey:
    n = 40 if smoke else 120
    return ScheduleKey("tbs", n, 6, 15, policy="heuristic")


async def _serve_cold_then_warm(store_root, key):
    service = ScheduleService(ScheduleStore(store_root), ScheduleCache(4))
    t0 = time.perf_counter()
    first = await service.get_schedule(key)
    cold = time.perf_counter() - t0
    warm_times = []
    for _ in range(WARM_HITS):
        t0 = time.perf_counter()
        hit = await service.get_schedule(key)
        warm_times.append(time.perf_counter() - t0)
        assert hit is first  # memory tier returns the hot object itself
    assert service.searches == 1 and service.hits == WARM_HITS
    service.close()
    return cold, sum(warm_times) / len(warm_times)


async def _serve_disk_hits(store_root, key):
    """Median latency of a disk hit: each read goes through a fresh service
    whose memory cache is empty, so the store answers it."""
    times = []
    for _ in range(DISK_READS):
        service = ScheduleService(ScheduleStore(store_root), ScheduleCache(4))
        t0 = time.perf_counter()
        await service.get_schedule(key)
        times.append(time.perf_counter() - t0)
        service.close()
        assert service.store_hits == 1 and service.searches == 0
    return statistics.median(times)


async def _serve_fanout(store_root, key):
    service = ScheduleService(ScheduleStore(store_root), ScheduleCache(4))
    results = await asyncio.gather(
        *[service.get_schedule(key) for _ in range(FANOUT)]
    )
    assert all(r is results[0] for r in results)
    service.close()
    return service


def test_e19_cold_vs_warm(tmp_path, smoke, once, capsys):
    key = e16_key(smoke)
    cold, warm = once(
        lambda: asyncio.run(_serve_cold_then_warm(str(tmp_path / "store"), key))
    )
    speedup = cold / max(warm, 1e-12)
    disk = asyncio.run(_serve_disk_hits(str(tmp_path / "store"), key))

    # Single flight on a fresh store: FANOUT concurrent cold duplicates.
    service = asyncio.run(_serve_fanout(str(tmp_path / "fanout"), key))
    assert service.searches == 1, "duplicate in-flight requests must coalesce"
    assert service.coalesced == FANOUT - 1

    rows = [{
        "experiment": "cold_vs_warm",
        "key": key.as_dict(),
        "cold_search_s": cold,
        "warm_hit_mean_s": warm,
        "warm_speedup": speedup,
        "disk_hit_median_s": disk,
        "disk_reads": DISK_READS,
        "fanout": FANOUT,
        "fanout_searches": service.searches,
        "fanout_coalesced": service.coalesced,
    }]

    with capsys.disabled():
        t = Table(["key", "cold search", f"disk hit (median of {DISK_READS})",
                   "warm hit (mean)", "speedup", f"searches @ {FANOUT} dup",
                   "coalesced"])
        t.add_row(
            [key.canonical(), f"{cold * 1e3:.1f} ms", f"{disk * 1e3:.1f} ms",
             f"{warm * 1e6:.1f} us", f"{speedup:,.0f}x", service.searches,
             service.coalesced]
        )
        print("\n" + t.render())

    assert speedup >= SPEEDUP_FLOOR, (
        f"warm hits only {speedup:.1f}x faster than the cold search"
    )
    assert warm < disk < cold, (
        f"tier latencies out of order: memory {warm:.2e} s, "
        f"disk {disk:.2e} s, cold {cold:.2e} s"
    )
    from common import write_bench_json

    write_bench_json(
        "e19_serve_latency", rows,
        env_var="BENCH_E19_JSON", default_name="bench_e19_serve.json",
    )


def test_e19_hit_rate_vs_capacity(smoke, once, capsys):
    stream_len = 800 if smoke else STREAM_LEN
    rng = random.Random(0)
    digests = [f"key{i:03d}" for i in range(UNIVERSE)]
    weights = [1.0 / (rank + 1) ** ZIPF_A for rank in range(UNIVERSE)]
    log = rng.choices(digests, weights=weights, k=stream_len)
    trace = log_to_trace(log)

    def sweep():
        rows = []
        for cap in CAPACITIES:
            lru = ScheduleCache.replay(log, cap)
            # Dogfood cross-check: the serving cache and the paper's
            # replay engine count bit-identical misses on the same log.
            assert lru.misses == lru_replay_trace(trace, cap).loads
            assert len(lru) <= cap
            oracle_hits = stream_len - belady_replay_trace(trace, cap).loads
            rows.append({
                "experiment": "hit_rate_vs_capacity",
                "capacity": cap,
                "requests": stream_len,
                "universe": UNIVERSE,
                "zipf_a": ZIPF_A,
                "lru_hits": lru.hits,
                "lru_hit_rate": lru.hit_rate,
                "lru_evictions": lru.evictions,
                "oracle_hits": oracle_hits,
                "oracle_hit_rate": oracle_hits / stream_len,
            })
        return rows

    rows = once(sweep)
    with capsys.disabled():
        t = Table(["capacity", "LRU hits", "LRU rate", "oracle hits",
                   "oracle rate", "gap"])
        for r in rows:
            t.add_row(
                [r["capacity"], format_int(r["lru_hits"]),
                 f"{r['lru_hit_rate']:.3f}", format_int(r["oracle_hits"]),
                 f"{r['oracle_hit_rate']:.3f}",
                 f"{r['oracle_hit_rate'] - r['lru_hit_rate']:.3f}"]
            )
        print("\n" + t.render())

    for prev, cur in zip(rows, rows[1:]):
        assert cur["lru_hit_rate"] >= prev["lru_hit_rate"], (
            "LRU inclusion property: hit rate must be monotone in capacity"
        )
    for r in rows:
        assert r["oracle_hit_rate"] >= r["lru_hit_rate"], (
            f"oracle below LRU at capacity {r['capacity']}"
        )
    full = rows[-1]
    assert full["capacity"] >= UNIVERSE
    assert full["oracle_hits"] == full["lru_hits"], (
        "at capacity >= universe nothing evicts; the policies must agree"
    )
    from common import write_bench_json

    write_bench_json(
        "e19_serve_hit_rates", rows,
        env_var="BENCH_E19_HITS_JSON", default_name="bench_e19_hit_rates.json",
    )


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "--benchmark-only", "-s"] + sys.argv[1:]))
