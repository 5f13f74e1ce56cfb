"""E13 — compiled trace IR: replay throughput, old element loops vs arrays.

Records a TBS SYRK schedule per N (capacity scaled with the problem,
``S = 8N``, the regime the paper's blocking targets), compiles it once to
the trace IR, and replays the op order under LRU and Belady/MIN at a
capacity sweep — once through the seed element-loop paths
(access-sequence tuples + OrderedDict / tuple-heap walkers, re-run per
capacity exactly as the seed shipped them; they live on as the test
suite's oracles in ``tests/replay_oracles.py``) and once through the array
engines (:mod:`repro.trace.replay`: cached reuse-distance counts for LRU,
the adaptive chunked simulation for Belady).

Claims asserted:

* both engines return bit-identical (loads, stores) at every (N, capacity);
* at N >= 512 the vectorized sweep throughput (element touches / second,
  LRU + Belady combined, including the one-time per-trace artifacts) is
  >= 10x the seed paths' — the ISSUE 2 acceptance bar;
* LRU alone clears 10x as well: after the capacity-independent
  reuse-distance pass, every additional capacity is a few O(n) array ops.

Results (sizes, counts, times, throughputs, speedups) are appended to a
BENCH JSON (``benchmarks/out/bench_e13_trace.json`` or ``$BENCH_E13_JSON``)
so ROADMAP numbers and regressions are greppable across runs.

Run with ``--smoke`` to shrink the sweep for CI (claims about absolute
speedups are skipped; bit-identity is still asserted).
"""

import time

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.core.tbs import tbs_syrk
from repro.sched.schedule import record_schedule
from repro.trace.compiled import compile_trace
from repro.trace.replay import belady_replay_trace, lru_replay_trace
from repro.utils.fmt import Table, format_int
from replay_oracles import belady_replay_reference, lru_replay_reference

M_COLS = 6
CAP_FACTORS = (1, 1.5, 2, 3, 4, 6, 8, 12, 16)
SPEEDUP_FLOOR = 10.0  # asserted at N >= ASSERT_N, full mode only
ASSERT_N = 512


def record_trace(n: int, s: int):
    m = TwoLevelMachine(s, numerics=False)
    m.add_matrix("A", np.zeros((n, M_COLS)))
    m.add_matrix("C", np.zeros((n, n)))
    sched = record_schedule(m, lambda: tbs_syrk(m, "A", "C", range(n), range(M_COLS)))
    return sched


def sweep_one(n: int):
    s = 8 * n
    sched = record_trace(n, s)
    caps = [max(4, int(s * f)) for f in CAP_FACTORS]

    t0 = time.perf_counter()
    trace = compile_trace(sched)
    t_compile = time.perf_counter() - t0

    t0 = time.perf_counter()
    seed = [
        (lru_replay_reference(sched, c), belady_replay_reference(sched, c))
        for c in caps
    ]
    t_seed = time.perf_counter() - t0

    t_lru = t_belady = 0.0
    fast = []
    for c in caps:
        t0 = time.perf_counter()
        lru = lru_replay_trace(trace, c)
        t_lru += time.perf_counter() - t0
        t0 = time.perf_counter()
        opt = belady_replay_trace(trace, c)
        t_belady += time.perf_counter() - t0
        fast.append((lru, opt))

    for c, (slru, sopt), (flru, fopt) in zip(caps, seed, fast):
        assert (flru.loads, flru.stores) == (slru.loads, slru.stores), ("lru", n, c)
        assert (fopt.loads, fopt.stores) == (sopt.loads, sopt.stores), ("belady", n, c)
        assert fopt.loads <= flru.loads

    elements = trace.n_accesses * len(caps) * 2  # both policies over the sweep
    t_fast = t_lru + t_belady
    return {
        "n": n,
        "m": M_COLS,
        "s": s,
        "capacities": caps,
        "n_accesses": trace.n_accesses,
        "n_elements": trace.n_elements,
        "n_ops": trace.n_ops,
        "compile_sec": t_compile,
        "seed_sweep_sec": t_seed,
        "fast_sweep_sec": t_fast,
        "fast_lru_sec": t_lru,
        "fast_belady_sec": t_belady,
        "seed_throughput_eps": elements / t_seed,
        "fast_throughput_eps": elements / t_fast,
        "sweep_speedup": t_seed / t_fast,
        "lru_sweep_speedup": (t_seed / 2) / t_lru if t_lru else float("inf"),
    }


def write_bench_json(rows):
    from common import write_bench_json as write_common

    return write_common(
        "e13_trace_replay_throughput", rows,
        env_var="BENCH_E13_JSON", default_name="bench_e13_trace.json",
    )


@pytest.mark.benchmark(group="e13")
def test_e13_trace_replay_throughput(once, smoke):
    ns = [48, 96] if smoke else [128, 256, 512]
    rows = once(lambda: [sweep_one(n) for n in ns])

    t = Table(
        ["N", "S", "accesses", "caps", "seed el/s", "vector el/s", "sweep x", "LRU x"],
        title=(
            f"E13 replay throughput, TBS SYRK m={M_COLS}, S=8N, "
            f"{len(CAP_FACTORS)}-capacity sweep (LRU + Belady, bit-identical counts)"
        ),
    )
    for row in rows:
        t.add_row(
            [row["n"], row["s"], format_int(row["n_accesses"]), len(row["capacities"]),
             format_int(int(row["seed_throughput_eps"])),
             format_int(int(row["fast_throughput_eps"])),
             f"{row['sweep_speedup']:.1f}", f"{row['lru_sweep_speedup']:.1f}"]
        )
    print()
    print(t.render())
    path = write_bench_json(rows)
    print(f"\nBENCH JSON written to {path}")

    # Throughput grows with N for the array engines (amortized numpy work),
    # and the big sizes clear the 10x acceptance bar.
    for row in rows:
        assert row["sweep_speedup"] > 1.0, row["n"]
    if not smoke:
        big = [row for row in rows if row["n"] >= ASSERT_N]
        assert big, "sweep must include the acceptance size"
        for row in big:
            assert row["sweep_speedup"] >= SPEEDUP_FLOOR, row
            assert row["lru_sweep_speedup"] >= SPEEDUP_FLOOR, row
