"""E17 — one-pass Belady sweeps + the process-parallel search fabric.

Two measurements, one per half of the PR 7 tentpole:

* **One pass vs per-capacity calls** (the speed claim): record a TBS
  SYRK schedule per N (``S = 8N``), then answer a capacity grid under
  Belady/MIN twice with the one engine, the grouped OPT stack — in **one
  pass** (``sweep_replay_trace``) and per capacity
  (``belady_replay_trace``).  Capacities at or above the trace's live
  peak need no stack pass, so the per-capacity calls walk the stack once
  for each of the ``k`` capacities below the peak, and the one pass
  walks it once (none when ``k = 0``); both counts are asserted exactly
  from ``replay.belady.sweep_one_pass``.  Two grids: E13's 9 factors up
  to 16x S (i.e. 128N), and a dense 25-point log-spaced grid over the
  same range — the resource-augmentation-curve use case, where the
  one-pass cost is nearly flat in grid size.  Bit-identity of (loads,
  stores, evict/flush split) is asserted at every capacity; at N >= 512
  the one pass must be measurably faster on the E13 grid and win big on
  the dense one (it runs *first*, so the per-capacity calls inherit its
  cached next-use artifacts — the comparison is conservative).

* **Fan-out fabric** (the determinism claim): multi-chain annealing
  (E15's config) and multi-seed refinement (E16's) at ``jobs`` in
  {1, 2, 4}.  Results must be bit-identical across job counts and the
  portfolio never worse than the classic single run; wall-clocks are
  *recorded, not asserted* — the CI container may expose a single core,
  where process fan-out is pure overhead.

Rows land in a provenance-stamped BENCH JSON
(``benchmarks/out/bench_e17_speed.json`` or ``$BENCH_E17_JSON``).
Run with ``--smoke`` to shrink sizes for CI (speedup assertions are
skipped; bit-identity, the pass counts and never-worse are still
asserted).  At smoke size the E13 grid has one capacity below the peak,
so both shapes make the same single pass and their times say nothing.
"""

import time

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.core.tbs import tbs_syrk
from repro.graph.compare import record_case
from repro.graph.dependency import DependencyGraph
from repro.graph.search import anneal_search
from repro.obs.probe import probe_scope
from repro.parallel.executor import partition_graph
from repro.parallel.refine import refine_partitions
from repro.sched.schedule import record_schedule
from repro.trace.compiled import compile_trace
from repro.trace.replay import _live_peak, belady_replay_trace, sweep_replay_trace
from repro.utils.fmt import Table, format_int

M_COLS = 6
CAP_FACTORS = (1, 1.5, 2, 3, 4, 6, 8, 12, 16)  # E13's grid: up to 128N
DENSE_FACTORS = tuple(np.geomspace(1, 16, 25))  # Q(S) curve resolution
SWEEP_SPEEDUP_FLOOR = 1.2   # E13 grid, asserted at N >= ASSERT_N, full mode
DENSE_SPEEDUP_FLOOR = 1.5   # dense grid, same gate
ASSERT_N = 512
JOBS_GRID = (1, 2, 4)


def record_trace(n: int, s: int):
    m = TwoLevelMachine(s, numerics=False)
    m.add_matrix("A", np.zeros((n, M_COLS)))
    m.add_matrix("C", np.zeros((n, n)))
    sched = record_schedule(m, lambda: tbs_syrk(m, "A", "C", range(n), range(M_COLS)))
    return compile_trace(sched)


def sweep_one(n: int, factors=CAP_FACTORS, grid="e13"):
    s = 8 * n
    trace = record_trace(n, s)
    caps = sorted({max(4, int(s * f)) for f in factors})

    # one pass first: it pays for the shared per-trace artifacts, the
    # per-capacity calls then reuse them from the trace cache.
    with probe_scope() as probe:
        t0 = time.perf_counter()
        one = sweep_replay_trace(trace, caps, policy="belady")
        t_one = time.perf_counter() - t0
    one_passes = probe.counters.get("replay.belady.sweep_one_pass", 0)

    with probe_scope() as probe:
        t0 = time.perf_counter()
        single = [belady_replay_trace(trace, c) for c in caps]
        t_single = time.perf_counter() - t0
    single_passes = probe.counters.get("replay.belady.sweep_one_pass", 0)

    for c, a, b in zip(caps, one, single):
        assert (a.loads, a.stores, a.evict_stores) == (
            b.loads, b.stores, b.evict_stores), (n, c)
    peak = _live_peak(trace)
    below = sum(c < peak for c in caps)
    assert (one_passes, single_passes) == (min(below, 1), below), (n, grid, peak)

    return {
        "n": n,
        "m": M_COLS,
        "s": s,
        "grid": grid,
        "capacities": caps,
        "n_accesses": trace.n_accesses,
        "n_elements": trace.n_elements,
        "live_peak": peak,
        "caps_below_peak": below,
        "one_pass_sec": t_one,
        "per_capacity_sec": t_single,
        "one_pass_speedup": t_single / t_one if t_one else float("inf"),
    }


def fanout_one(n: int, iters: int):
    case = record_case("tbs", n, 4, 15)
    graph = DependencyGraph.from_trace(case.trace)
    owners = [
        list(partition_graph(graph, 4, part))
        for part in ("level-greedy", "locality", "owner-computes")
    ]

    anneal_secs, refine_secs = {}, {}
    anneal_results, refine_results = {}, {}
    for jobs in JOBS_GRID:
        t0 = time.perf_counter()
        found = anneal_search(graph, 15, iters=iters, seed=3, chains=4, jobs=jobs)
        anneal_secs[jobs] = time.perf_counter() - t0
        anneal_results[jobs] = (found.cost, tuple(found.order))

        t0 = time.perf_counter()
        refined = refine_partitions(
            graph, owners, 4, 15, jobs=jobs, seed=5,
            strategy="anneal", iters=iters, eval_policy="belady",
        )
        refine_secs[jobs] = time.perf_counter() - t0
        refine_results[jobs] = [(r.cost, tuple(r.owner)) for r in refined]

    # bit-identical across the jobs grid
    assert len(set(anneal_results.values())) == 1, anneal_results
    assert all(refine_results[j] == refine_results[1] for j in JOBS_GRID)
    # portfolio never worse than the classic single-chain run
    single = anneal_search(graph, 15, iters=iters, seed=3)
    assert anneal_results[1][0] <= single.cost
    # each refinement never worse than its seed assignment
    assert all(r.cost <= r.seed_cost for r in refined)

    return {
        "n": n,
        "s": 15,
        "iters": iters,
        "chains": 4,
        "refine_seeds": len(owners),
        "anneal_sec_by_jobs": {str(j): anneal_secs[j] for j in JOBS_GRID},
        "refine_sec_by_jobs": {str(j): refine_secs[j] for j in JOBS_GRID},
        "anneal_cost": anneal_results[1][0],
        "anneal_cost_single_chain": single.cost,
        "refine_costs": [c for c, _ in refine_results[1]],
    }


def write_bench_json(rows):
    from common import write_bench_json as write_common

    return write_common(
        "e17_parallel_speed", rows,
        env_var="BENCH_E17_JSON", default_name="bench_e17_speed.json",
    )


@pytest.mark.benchmark(group="e17")
def test_e17_one_pass_and_fanout(once, smoke):
    sweep_ns = [64, 96] if smoke else [256, 512]
    fan_n, fan_iters = (20, 60) if smoke else (40, 400)

    def run():
        sweeps = [sweep_one(n) for n in sweep_ns]
        sweeps.append(sweep_one(sweep_ns[-1], DENSE_FACTORS, grid="dense"))
        return {
            "sweep": sweeps,
            "fanout": [fanout_one(fan_n, fan_iters)],
        }

    rows = once(run)

    t = Table(
        ["N", "S", "grid", "accesses", "peak", "caps", "k", "per-cap s",
         "one-pass s", "speedup"],
        title=(
            f"E17 Belady one pass vs per-capacity calls, TBS SYRK m={M_COLS}, "
            f"S=8N, grid up to 128N, k caps below the live peak "
            f"(bit-identical loads/stores/evict split)"
        ),
    )
    for row in rows["sweep"]:
        t.add_row(
            [row["n"], row["s"], row["grid"], format_int(row["n_accesses"]),
             format_int(row["live_peak"]), len(row["capacities"]),
             row["caps_below_peak"], f"{row['per_capacity_sec']:.3f}",
             f"{row['one_pass_sec']:.3f}", f"{row['one_pass_speedup']:.1f}x"]
        )
    print()
    print(t.render())

    f = Table(
        ["n", "iters", "engine", *(f"jobs={j} s" for j in JOBS_GRID)],
        title="E17 fan-out wall-clock (recorded; results bit-identical per row)",
    )
    for row in rows["fanout"]:
        for engine, key in (("anneal x4 chains", "anneal_sec_by_jobs"),
                            ("refine x3 seeds", "refine_sec_by_jobs")):
            f.add_row(
                [row["n"], row["iters"], engine,
                 *(f"{row[key][str(j)]:.2f}" for j in JOBS_GRID)]
            )
    print(f.render())
    path = write_bench_json(rows)
    print(f"\nBENCH JSON written to {path}")

    if not smoke:
        big = [row for row in rows["sweep"] if row["n"] >= ASSERT_N]
        assert big, "sweep must include the acceptance size"
        for row in big:
            floor = (
                DENSE_SPEEDUP_FLOOR if row["grid"] == "dense"
                else SWEEP_SPEEDUP_FLOOR
            )
            assert row["one_pass_speedup"] >= floor, row
