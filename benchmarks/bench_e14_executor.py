"""E14 — extension: sharded task-DAG executor vs per-node lower bounds.

Not a paper experiment: ROADMAP's parallel task-DAG item, measured.  A
recorded TBS schedule's dependency DAG is partitioned across P simulated
nodes (level-greedy antichain dealing, greedy locality, owner-computes) and
each shard is replayed on its own two-level engine at node memory S; every
load is a receive under the §2.2 equivalence, and the DAG's cut edges make
the node-to-node slice of the traffic explicit.

Shape claims:

* for P = 1 every policy degenerates to the single-node engines bit for bit
  (rewrite == the order's explicit optimum, LRU == the array LRU replay);
* per-node peak occupancy never exceeds S, at every P and partitioner;
* owner-computes never splits a reduction class: zero cut transfers, and
  the smallest max-recv of the three partitioners on the SYRK DAG;
* the maximum per-node receive volume stays within a small constant of
  ``parallel_syrk_lower_bound_per_node`` (the printed ratio).

The fixed block strategies are E11's (:func:`repro.parallel.simulate_syrk`).
"""

import math

import pytest

from repro.core.bounds import parallel_syrk_lower_bound_per_node
from repro.kernels.opsets import syrk_opset_size
from repro.graph.compare import record_case
from repro.graph.dependency import DependencyGraph
from repro.graph.rewriter import rewrite_schedule
from repro.parallel import PARTITIONERS, execute_graph
from repro.trace.replay import lru_replay_trace
from repro.utils.fmt import Table, format_int

M_COLS, S = 6, 15
PS = [1, 4, 16]


def run_sweep(n: int):
    case = record_case("tbs", n, M_COLS, S)
    graph = DependencyGraph.from_trace(case.trace)
    rows = []
    for p in PS:
        for part in PARTITIONERS:
            summ = execute_graph(case.schedule, p, S, partitioner=part,
                                 policy="rewrite", graph=graph)
            rows.append(summ)
    return case, graph, rows


@pytest.mark.benchmark(group="e14")
def test_e14_executor(once, smoke):
    n = 60 if smoke else 120
    case, graph, rows = once(run_sweep, n)

    t = Table(
        ["P", "partitioner", "max recv", "mean recv", "xfer", "imbalance",
         "peak<=S", "recv/bound"],
        title=f"E14: sharded DAG executor, TBS N={n}, M={M_COLS}, node memory S={S}",
    )
    by_key = {}
    for summ in rows:
        bound = parallel_syrk_lower_bound_per_node(n, M_COLS, summ.p, S)
        # The hard floor uses the exact opset |S| = N(N-1)/2*M (the bounds
        # module's convention: measured volumes must exceed the *exact*
        # form; the asymptotic form is only what converges to the paper's
        # constants and may sit slightly above it).
        exact_floor = syrk_opset_size(n, M_COLS) / (summ.p * math.sqrt(S / 2.0)) - S
        ratio = summ.max_recv / bound if bound > 0 else float("nan")
        by_key[(summ.p, summ.partitioner)] = (summ, ratio)
        t.add_row(
            [summ.p, summ.partitioner, format_int(summ.max_recv),
             format_int(int(summ.mean_recv)), format_int(summ.total_transfer),
             f"{summ.compute_imbalance:.3f}", str(summ.peak_ok),
             f"{ratio:.3f}" if bound > 0 else "-"]
        )
        # node memory respected everywhere, work conserved
        assert summ.peak_ok
        assert sum(r.n_ops for r in summ.shards) == len(graph)
        # a valid per-node floor: measured max recv can never undercut it
        if exact_floor > 0:
            assert summ.max_recv >= exact_floor
        # owner-computes keeps every reduction class whole
        if summ.partitioner == "owner-computes":
            assert summ.total_transfer == 0 and summ.cut_edge_count == 0
    print()
    print(t.render())

    # P=1: bit-identical to the single-node engines.
    base = rewrite_schedule(case.trace, S)
    for part in PARTITIONERS:
        summ, _ = by_key[(1, part)]
        assert (summ.shards[0].recv, summ.shards[0].send) == (base.loads, base.stores)
    lru1 = execute_graph(case.schedule, 1, S, policy="lru")
    ref = lru_replay_trace(case.trace, S)
    assert (lru1.shards[0].recv, lru1.shards[0].send) == (ref.loads, ref.stores)

    # owner-computes wins on the bounding quantity at the largest P.
    oc, oc_ratio = by_key[(PS[-1], "owner-computes")]
    lg, _ = by_key[(PS[-1], "level-greedy")]
    assert oc.max_recv <= lg.max_recv
    assert oc_ratio < 8.0  # within a small constant of the per-node bound
    print(f"\nowner-computes at P={PS[-1]}: max recv / per-node bound = {oc_ratio:.3f}")
