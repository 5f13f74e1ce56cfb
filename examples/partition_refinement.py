#!/usr/bin/env python3
"""Transfer-aware partition refinement: search the assignment space.

E14 showed that *which node runs which op* dominates how close a sharded
replay gets to the per-node communication floor — owner-computes lands
near 2x the bound while level-greedy pays 3-4x, mostly in split reduction
classes.  This example closes part of that gap by search instead of by
construction:

1. record the TBS schedule for C += A Aᵀ and extract its task DAG;
2. seed the executor with each one-shot partitioner at P nodes;
3. refine every seed with `repro.parallel.refine` — single-op and
   reduction-class moves against an incremental max(recv + transfer_in)
   ledger, final winner re-measured with real per-shard replays (the
   refiner never returns a partition measured worse than its seed);
4. compare seed vs refined volumes and the weighted makespan model
   (per-op cost = mults, per-cross-edge cost = alpha + beta*elements).

Run:  python examples/partition_refinement.py
"""

from repro.core.bounds import parallel_syrk_lower_bound_per_node
from repro.graph.compare import record_case
from repro.graph.dependency import DependencyGraph
from repro.parallel import (
    PARTITIONERS,
    execute_graph,
    makespan_model,
    partition_graph,
    refine_partition,
)
from repro.utils.fmt import Table, banner, format_int

N, M, S, P = 40, 6, 15, 4


def main() -> None:
    print(banner(f"transfer-aware partition refinement: TBS SYRK on {P} nodes"))
    case = record_case("tbs", N, M, S)
    graph = DependencyGraph.from_trace(case.trace)
    mults = [float(op.mults) for op in graph.ops]
    bound = parallel_syrk_lower_bound_per_node(N, M, P, S)
    print(
        f"recorded {len(graph)} compute ops; critical path "
        f"{int(graph.critical_path_cost())} ops "
        f"({int(graph.critical_path_cost(mults))} mults weighted); "
        f"per-node receive bound {bound:,.0f}"
    )

    t = Table(["partitioner", "seed r+x", "refined r+x", "gain", "moves",
               "seed makespan", "refined makespan", "never worse"])
    for part in PARTITIONERS:
        seed = partition_graph(graph, P, part)
        refined = refine_partition(graph, seed, P, S, strategy="greedy")
        seed_span = makespan_model(graph, seed, p=P)
        ref_span = makespan_model(graph, refined.owner, p=P)
        t.add_row(
            [part, format_int(refined.seed_cost), format_int(refined.cost),
             f"{1 - refined.cost / max(1, refined.seed_cost):.1%}",
             refined.moves,
             format_int(int(seed_span.makespan)),
             format_int(int(ref_span.makespan)),
             str(refined.cost <= refined.seed_cost)]
        )
    print()
    print(t.render())
    print()
    print("'r+x' is max(recv + transfer_in) over the nodes, measured by real")
    print("per-shard belady replays — the refiner's hard never-worse metric.")

    # The refined assignment drops straight into the executor.
    seed = partition_graph(graph, P, "level-greedy")
    refined = refine_partition(graph, seed, P, S)
    summ = execute_graph(
        case.schedule, P, S, owner=refined.owner, policy="rewrite",
        graph=graph, partitioner_label="level-greedy+refine",
    )
    print()
    print(
        f"refined level-greedy through the validated rewrite policy: "
        f"peak<=S everywhere = {summ.peak_ok}, "
        f"max recv+xfer = {summ.max_recv_incl_transfers:,}, "
        f"weighted makespan = {summ.makespan:,.0f}"
    )


if __name__ == "__main__":
    main()
