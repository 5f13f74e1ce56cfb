"""E18 — extension: joint order x partition co-search vs decoupled pipelines.

Not a paper experiment: ROADMAP's "joint co-search" next step, measured.
E15 searches the op *order* against a sequential LRU objective; E16
refines the op *ownership* against ``max(recv + transfer_in)``; each
holds the other coordinate fixed.  E18 measures what optimizing the
``(order, owner)`` *pair* under one latency objective buys: on the E16
config, three schedules per P are scored with the measured unified
objective ``J = makespan + beta * max_q(lru_loads_q + transfer_in_q)``
(:func:`repro.parallel.cosearch.cosearch_cost`, real per-shard replays):

* **refine-only** — recorded order, best refined partition (the E16
  pipeline);
* **search-then-refine** — annealed order (E15) dressed over the best
  refined partition (the two silos chained);
* **joint co-search** — :func:`repro.parallel.cosearch.cosearch`, seeded
  with its default portfolio *plus both baselines above*, so the
  never-worse postcondition makes "joint <= best decoupled pipeline" a
  measured guarantee, not a hope.

Shape claims:

* joint co-search's measured J is <= both decoupled baselines at every P
  (the ISSUE acceptance: never worse than order-search-then-refine);
* the returned pair re-measures to exactly the reported cost (ledger
  drift is a hard failure), covers every op exactly once, and its order
  is a legal relaxed topological order;
* every row carries the per-node receive floor
  (:func:`~repro.core.bounds.parallel_syrk_lower_bound_per_node`) for
  the bound column.

BENCH JSON (``benchmarks/out/bench_e18_cosearch.json`` or
``$BENCH_E18_JSON``) records J, makespan, bottleneck I/O and the
joint/baseline ratios per row, plus the co-search's work counters: LRU
cursor ops replayed, makespan ops re-timed and owner proposals rejected
on their bound, summed over its chains.

A second row times what the serve path pays for one cold ``cosearch``
key at p=4 (:func:`repro.serve.frontend.run_searcher`: record, DAG,
portfolio, chains, rewrite), tbs N=60 (N=24 at smoke size), as the
median of 5 misses, printed with the run's ``cosearch.measures`` (cold
:func:`~repro.parallel.cosearch.cosearch_cost` calls) and its LRU cursor
ops per evaluated proposal (``cosearch.lru_ops / cosearch.evaluations``),
the replay work each proposal costs the LRU ledger.  It is a report:
wall time on a shared host asserts nothing, and the ops per proposal
have no floor.
"""

import statistics
import time

import pytest

from repro.core.bounds import parallel_syrk_lower_bound_per_node
from repro.graph.compare import record_case
from repro.graph.dependency import DependencyGraph
from repro.graph.search import search_order
from repro.parallel import (
    PARTITIONERS,
    cosearch,
    cosearch_cost,
    partition_graph,
    refine_partition,
)
from repro.utils.fmt import Table, format_int

M_COLS, S = 6, 15
PS = [4, 16]


def run_sweep(n: int, iters: int, search_iters: int, max_moves: int):
    case = record_case("tbs", n, M_COLS, S)
    graph = DependencyGraph.from_trace(case.trace)
    identity = list(range(len(graph)))
    searched = search_order(
        graph, S, "anneal", iters=search_iters, seed=0, relax_reductions=True
    ).order

    rows = []
    for p in PS:
        # best refined partition across one-shot seeds (the E16 pipeline)
        refined_owner, refined_cost = None, None
        for part in PARTITIONERS:
            seed = partition_graph(graph, p, part)
            ref = refine_partition(
                graph, seed, p, S, strategy="greedy", max_moves=max_moves
            )
            c = cosearch_cost(
                graph, ref.owner, p, S, relax_reductions=True
            ).cost
            if refined_cost is None or c < refined_cost:
                refined_owner, refined_cost = list(ref.owner), c

        refine_only = cosearch_cost(
            graph, refined_owner, p, S, relax_reductions=True
        )
        search_refine = cosearch_cost(
            graph, refined_owner, p, S, order=searched, relax_reductions=True
        )
        joint = cosearch(
            graph, p, S, iters=iters, seed=0,
            seeds=(
                cosearch_portfolio_with_baselines(
                    graph, p, identity, searched, refined_owner, search_iters
                )
            ),
        )
        rows.append((p, refine_only, search_refine, joint))
    return case, graph, rows


def cosearch_portfolio_with_baselines(
    graph, p, identity, searched, refined_owner, search_iters
):
    from repro.parallel import cosearch_portfolio

    seeds = cosearch_portfolio(
        graph, p, S,
        search_kwargs={"anneal": {"iters": search_iters, "seed": 0}},
    )
    seeds.append(("refine-only", list(identity), list(refined_owner)))
    seeds.append(("search+refine", list(searched), list(refined_owner)))
    return seeds


def write_bench_json(payload_rows):
    from common import write_bench_json as write_common

    return write_common(
        "e18_joint_cosearch", payload_rows,
        env_var="BENCH_E18_JSON", default_name="bench_e18_cosearch.json",
    )


@pytest.mark.benchmark(group="e18")
def test_e18_cosearch(once, smoke):
    n = 60 if smoke else 120
    iters = 150 if smoke else 600
    search_iters = 60 if smoke else 200
    max_moves = 96 if smoke else 256
    case, graph, rows = once(run_sweep, n, iters, search_iters, max_moves)

    t = Table(
        ["P", "schedule", "makespan", "max io", "J", "vs refine-only",
         "J/bound", "lru ops", "span ops", "bound rejects"],
        title=(
            f"E18: joint order x partition co-search, TBS N={n}, "
            f"M={M_COLS}, node memory S={S} (measured unified objective)"
        ),
    )
    payload_rows = []
    for p, refine_only, search_refine, joint in rows:
        bound = parallel_syrk_lower_bound_per_node(n, M_COLS, p, S)
        for label, c in (
            ("refine-only", refine_only),
            ("search-then-refine", search_refine),
        ):
            t.add_row(
                [p, label, format_int(int(c.makespan)),
                 format_int(c.bottleneck_io), format_int(int(c.cost)),
                 f"{1 - c.cost / refine_only.cost:.1%}",
                 f"{c.cost / bound:.2f}" if bound > 0 else "-", "", "", ""]
            )
        jc = joint.measured
        work = {k: joint.params[k] for k in ("lru_ops", "span_ops", "bound_rejects")}
        t.add_row(
            [p, "joint co-search" + (" (reverted)" if joint.reverted else ""),
             format_int(int(jc.makespan)), format_int(jc.bottleneck_io),
             format_int(int(jc.cost)),
             f"{1 - jc.cost / refine_only.cost:.1%}",
             f"{jc.cost / bound:.2f}" if bound > 0 else "-",
             *(format_int(v) for v in work.values())]
        )
        payload_rows.append({
            "p": p,
            "refine_only_cost": refine_only.cost,
            "search_refine_cost": search_refine.cost,
            "joint_cost": jc.cost,
            "joint_makespan": jc.makespan,
            "joint_bottleneck_io": jc.bottleneck_io,
            "joint_over_refine_only": jc.cost / refine_only.cost,
            "joint_over_search_refine": jc.cost / search_refine.cost,
            "joint_over_bound": jc.cost / bound if bound > 0 else None,
            "seed_label": joint.seed_label,
            "reverted": joint.reverted,
            "evaluations": joint.evaluations,
            **work,
        })

        # acceptance: joint <= both decoupled pipelines, at every P —
        # enforced in code by cosearch()'s never-worse postcondition over
        # a portfolio containing both baselines, re-asserted here on the
        # independently measured objective.
        assert jc.cost <= refine_only.cost, (p, jc.cost, refine_only.cost)
        assert jc.cost <= search_refine.cost, (p, jc.cost, search_refine.cost)
        # the returned pair re-measures to exactly the reported cost
        remeasured = cosearch_cost(
            graph, joint.owner, p, S, order=joint.order,
            relax_reductions=True,
        )
        assert remeasured.cost == joint.cost, (p, remeasured.cost, joint.cost)
        # legal exact cover + legal relaxed order
        assert sorted(joint.order) == list(range(len(graph)))
        assert all(0 <= q < p for q in joint.owner)
        assert graph.is_valid_order(joint.order, relax_reductions=True)

    print()
    print(t.render())
    path = write_bench_json(payload_rows)
    print(f"\nBENCH JSON written to {path}")

    for p, refine_only, _sr, joint in rows:
        print(
            f"P={p}: J {int(refine_only.cost):,} (refine-only) -> "
            f"{int(joint.cost):,} (joint, seed {joint.seed_label!r}"
            f"{', reverted' if joint.reverted else ''})"
        )


def time_cold_miss(n: int, runs: int = 5):
    """Time ``runs`` cold serve-path misses of the tbs ``cosearch`` key at
    p=4; returns the key, the times and one probed run's counters."""
    from repro.obs.probe import probe_scope
    from repro.serve import ScheduleKey
    from repro.serve.frontend import run_searcher

    key = ScheduleKey("tbs", n, M_COLS, S, p=4, policy="cosearch")
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        run_searcher(key)
        times.append(time.perf_counter() - start)
    with probe_scope() as probe:
        run_searcher(key)
    return key, times, probe.counters


@pytest.mark.benchmark(group="e18")
def test_e18_cold_miss(once, smoke):
    key, times, counters = once(time_cold_miss, 24 if smoke else 60)
    lru_ops, evaluations = counters["cosearch.lru_ops"], counters["cosearch.evaluations"]
    t = Table(
        ["key", "misses", "median s", "min s", "max s", "measures", "chains",
         "lru ops", "evaluations", "lru ops/eval"],
        title="E18: one cold serve-path co-search miss, record to rewrite",
    )
    t.add_row([
        f"{key.kernel} N={key.n} p={key.p} S={key.s}", len(times),
        f"{statistics.median(times):.3f}", f"{min(times):.3f}",
        f"{max(times):.3f}", counters["cosearch.measures"],
        counters["cosearch.chains"], f"{lru_ops:,}", f"{evaluations:,}",
        f"{lru_ops / max(evaluations, 1):.1f}",
    ])
    print()
    print(t.render())
    # one closing measure per chain, plus at most one check of the best seed
    assert counters["cosearch.measures"] <= counters["cosearch.chains"] + 1
