"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``      run the quickstart comparison (TBS vs OOC_SYRK vs bound)
``figures``   print the paper's Figures 1-3 rendered from live objects
``sweep``     run a SYRK or Cholesky sweep and print the experiment table
``constants`` print the before/after constants table and the convergence
              tables computed from the exact models
``replay``    strip a recorded schedule's explicit loads/evicts and replay
              its op order under element-granular LRU
``graph``     extract the dependency DAG of a recorded schedule, re-schedule
              it under the worklist heuristics, and compare I/O volumes
              (explicit vs LRU vs Belady vs rescheduled vs lower bound)
``search``    search the space of legal compute orders (beam search,
              lookahead greedy, simulated annealing over reduction-class
              interleavings) and compare the found orders' I/O against the
              one-shot heuristics and the Belady floor
``trace``     compile a recorded schedule to the array trace IR, save/load
              it as ``.npz``, and run the vectorized LRU/Belady replays
              (``trace compile`` / ``trace replay`` / ``trace info``)
``parallel``  shard a recorded schedule's task DAG across P simulated nodes
              (partitioners: level-greedy / locality / owner-computes) and
              report per-node receive volumes against the parallel
              per-node lower bounds, plus a mults-weighted makespan per
              row; ``--refine`` additionally runs the transfer-aware
              partition refiner on each partitioner's assignment
``cosearch``  jointly search op order *and* op ownership as one annealing
              walk (:mod:`repro.parallel.cosearch`): a portfolio of
              {partitioner} × {order} seeds, one unified latency
              objective (makespan + β·bottleneck I/O), never worse than
              the best measured seed
``serve``     the schedule-serving layer (:mod:`repro.serve`): ``serve
              warm`` batch-searches a key grid into a content-addressed
              on-disk store (atomic ``.npz`` objects, ``--jobs`` fans
              the searches over worker processes), ``serve query`` runs
              a zipf-ish synthetic request stream through the asyncio
              front end (in-process LRU over the store, duplicate
              in-flight keys coalesced to one search) and prints the
              hit/miss/coalesce counters plus warm-vs-cold latencies,
              ``serve stats`` prints (or ``--json``-exports, provenance-
              stamped) the reconciled store statistics
``report``    pretty-print a saved run report (provenance, phase
              wall-times, engine counters, convergence curves)
``check``     static analysis (:mod:`repro.check`): certify a saved or
              freshly recorded schedule (peak <= S, stream legality)
              without replaying it, race-check a partitioned DAG
              (vector-clock happens-before), audit a serve store
              (``--store ... --all``), or lint the repository's own
              sources against its invariants (``--lint src``)

``search --chains K --jobs N`` anneals K independent chains (a temperature
portfolio merged by best cost) across N worker processes, ``parallel
--jobs N`` fans the per-partitioner refines out the same way, ``cosearch
--jobs N`` fans its portfolio chains, and ``trace replay --jobs N`` shards
its capacity sweep — all default to serial and are bit-identical at any
job count (see :mod:`repro.perf`).

The ``search``, ``parallel`` and ``cosearch`` commands accept ``--report
PATH`` (write the run's probe state — provenance, timers, counters,
convergence series — as a ``repro.report/v1`` JSON document) and
``--timeline PATH`` (export the best row's simulated schedule as a Chrome
trace-event JSON that ``chrome://tracing`` and ui.perfetto.dev open
directly).

Examples
--------
::

    python -m repro demo
    python -m repro figures --n 27 --k 5
    python -m repro sweep syrk --s 15 --m 8 --ns 60 120 240
    python -m repro sweep cholesky --s 15 --ns 96 144
    python -m repro constants
    python -m repro replay --s 15 --n 40 --m 6
    python -m repro graph --kernel tbs --n 40 --m 6 --s 15
    python -m repro search --kernel tbs --n 40 --m 6 --s 15 --strategy beam anneal --relax
    python -m repro trace compile --kernel tbs --n 120 --m 6 --s 15 -o tbs.npz
    python -m repro trace replay tbs.npz --capacity 15 30 --policy both
    python -m repro trace info tbs.npz
    python -m repro parallel --kernel tbs --n 40 --m 6 --s 15 --p 1 4 16
    python -m repro parallel --kernel tbs --n 40 --m 6 --s 15 --p 4 --refine greedy
    python -m repro parallel --kernel tbs --n 120 --m 6 --s 15 --p 4 --refine anneal \\
        --report run.json --timeline run_trace.json
    python -m repro cosearch --kernel tbs --n 60 --m 6 --s 15 --p 4 --iters 400
    python -m repro serve warm --store sched_store --kernel tbs --ns 40 60 --s 15
    python -m repro serve query --store sched_store --kernel tbs --ns 40 60 --s 15 \\
        --requests 64 --cache-size 4
    python -m repro serve stats --store sched_store --json serve_stats.json
    python -m repro report run.json
    python -m repro check --kernel tbs --n 40 --m 6 --s 15 --p 4
    python -m repro check --store sched_store --all
    python -m repro check --lint src
"""

from __future__ import annotations

import argparse
import math
import sys

from .analysis.sweep import run_cholesky_once, run_syrk_once
from .config import lbc_block_size
from .core.bounds import literature_bounds_table
from .graph.compare import CASES
from .graph.scheduler import HEURISTICS
from .graph.search import STRATEGIES
from .obs.probe import probe_scope, timed
from .parallel.executor import PARTITIONERS, POLICIES
from .parallel.refine import REFINE_STRATEGIES
from .utils.fmt import Table, banner, format_float, format_int


def _cmd_demo(_args: argparse.Namespace) -> int:
    import numpy as np

    from . import TwoLevelMachine, ooc_syrk, syrk_lower_bound, tbs_syrk
    from .utils.rng import random_tall_matrix

    n, mcols, s = 60, 8, 15
    a = random_tall_matrix(n, mcols)
    print(banner("repro demo: I/O-optimal SYRK"))
    rows = []
    for name, fn in (("TBS", tbs_syrk), ("OOC_SYRK", ooc_syrk)):
        m = TwoLevelMachine(s)
        m.add_matrix("A", a)
        m.add_matrix("C", np.zeros((n, n)))
        stats = fn(m, "A", "C", range(n), range(mcols))
        m.assert_empty()
        err = np.max(np.abs(np.tril(m.result("C")) - np.tril(a @ a.T)))
        rows.append((name, stats.loads, err))
    t = Table(["schedule", "Q", "max error vs NumPy"])
    t.add_row(["lower bound", f"{syrk_lower_bound(n, mcols, s, form='exact'):,.0f}", "-"])
    for name, q, err in rows:
        t.add_row([name, format_int(q), f"{err:.2e}"])
    print(t.render())
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .core.partition import plan_partition
    from .viz.figures import (
        render_indexing_positions,
        render_lbc_iteration,
        render_tbs_layout,
        render_zones_and_blocks,
    )

    part = plan_partition(args.n, args.k)
    if part is None:
        print(f"n={args.n}, k={args.k}: triangle blocks not applicable (OOC_SYRK fallback)")
        print(render_tbs_layout(args.n, args.k))
        return 0
    print(banner(f"Figure 1 (n={args.n}, k={args.k}, c={part.c})"))
    print(render_zones_and_blocks(part, blocks=[(0, 0), (1, 0)]))
    print()
    print(banner("Figure 2 left"))
    print(render_indexing_positions(part, min(2, part.c - 1), min(3, part.c - 1)))
    print()
    print(banner("Figure 2 right"))
    print(render_tbs_layout(args.n, args.k))
    print()
    print(banner("Figure 3 (N=12, b=3, i=1)"))
    print(render_lbc_iteration(12, 3, 1))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.kernel == "syrk":
        t = Table(["N", "alg", "Q", "A-loads", "== model", "Q/bound"])
        for n in args.ns:
            for alg in ("tbs", "ocs"):
                row = run_syrk_once(alg, n, args.m, args.s)
                t.add_row(
                    [n, alg, format_int(row.loads), format_int(row.a_loads),
                     str(row.loads == row.model_loads), f"{row.ratio_to_bound:.3f}"]
                )
    else:
        t = Table(["N", "alg", "Q", "== model", "Q/bound"])
        for n in args.ns:
            for alg in ("lbc", "occ"):
                kw = {"b": lbc_block_size(n)} if alg == "lbc" else {}
                row = run_cholesky_once(alg, n, args.s, **kw)
                t.add_row(
                    [n, alg, format_int(row.loads), str(row.loads == row.model_loads),
                     f"{row.ratio_to_bound:.3f}"]
                )
    print(t.render())
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .analysis.lru_replay import lru_replay
    from .graph.compare import record_case

    print(banner(f"LRU replay vs explicit control (S={args.s})"))
    t = Table(
        ["schedule", "explicit Q", "explicit stores", "LRU Q", "LRU stores", "LRU/explicit"]
    )
    for kernel in ("tbs", "ocs"):
        case = record_case(kernel, args.n, args.m, args.s)
        r = lru_replay(case.schedule, args.s)
        t.add_row(
            [kernel.upper(), format_int(case.explicit_loads), format_int(case.explicit_stores),
             format_int(r.loads), format_int(r.stores),
             f"{r.loads / case.explicit_loads:.3f}"]
        )
    print(t.render())
    print("\nLRU at equal capacity stays close to the explicit volume: the paper's")
    print("advantage lives in the order of computations, not the eviction decisions.")
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from .graph.compare import compare_case, record_case

    heuristics = tuple(args.heuristics) if args.heuristics else HEURISTICS
    case = record_case(args.kernel, args.n, args.m, args.s)
    comp = compare_case(case, heuristics, check_numerics=not args.no_numerics)
    g = comp.graph
    counts = g.edge_counts()
    print(banner(f"dependency graph: {args.kernel} n={args.n} m={args.m} S={args.s}"))
    print(
        f"{len(g)} compute ops; edges: {counts['raw']} RAW, {counts['war']} WAR, "
        f"{counts['waw']} WAW, {counts['reduction']} reduction; "
        f"critical path {int(g.critical_path_cost())} ops; "
        f"{len(g.reduction_classes())} reduction classes"
    )
    t = Table(["order / policy", "Q (loads)", "stores", "Q/bound", "legal", "bit-exact"])
    for row in comp.rows:
        t.add_row(
            [row.label, format_int(row.loads), format_int(row.stores),
             f"{row.loads / case.lower_bound:.3f}",
             "-" if row.valid is None else str(row.valid),
             "-" if row.exact is None else str(row.exact)]
        )
    print(t.render())
    print("\n'belady' is the per-order floor (MIN replacement); 'reschedule:*' rows are")
    print("legal reorderings dressed with load-on-demand / evict-by-furthest-next-use.")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    import numpy as np

    from .analysis.lru_replay import lru_replay
    from .graph.compare import record_case
    from .graph.dependency import DependencyGraph
    from .graph.policies import belady_replay
    from .graph.rewriter import reschedule, rewrite_schedule
    from .graph.search import search_order
    from .sched.schedule import replay_schedule

    def max_error(schedule) -> float:
        m = case.make_machine()
        replay_schedule(schedule, m)
        m.assert_empty()
        return max(
            float(np.max(np.abs(m.result(name) - case.reference[name])))
            for name in case.result_names
        )

    strategies = tuple(args.strategy) if args.strategy else STRATEGIES
    case = record_case(args.kernel, args.n, args.m, args.s)
    graph = DependencyGraph.from_trace(case.trace)
    print(banner(
        f"order search: {args.kernel} n={args.n} m={args.m} S={args.s} "
        f"relax_reductions={args.relax}"
    ))
    print(
        f"{len(graph)} compute ops, {len(graph.reduction_classes())} reduction "
        f"classes, critical path {int(graph.critical_path_cost())} ops"
    )
    opt = belady_replay(case.trace, args.s)
    lru = lru_replay(case.trace, args.s)
    t = Table(["order / policy", "Q (loads)", "Q/belady", "Q/bound", "max |err|", "sec"])
    t.add_row(["explicit", format_int(case.explicit_loads),
               f"{case.explicit_loads / opt.loads:.3f}",
               f"{case.explicit_loads / case.lower_bound:.3f}", f"{0.0:.2e}", "-"])
    t.add_row(["lru", format_int(lru.loads), f"{lru.loads / opt.loads:.3f}",
               f"{lru.loads / case.lower_bound:.3f}", "-", "-"])
    t.add_row(["belady (floor)", format_int(opt.loads), "1.000",
               f"{opt.loads / case.lower_bound:.3f}", "-", "-"])
    best_heur = None
    for heuristic in args.heuristics:
        with timed(f"search.heuristic.{heuristic}") as tm:
            rr = reschedule(case.trace, args.s, heuristic, graph=graph,
                            relax_reductions=args.relax)
        best_heur = min(best_heur, rr.loads) if best_heur is not None else rr.loads
        t.add_row([f"heuristic:{heuristic}", format_int(rr.loads),
                   f"{rr.loads / opt.loads:.3f}",
                   f"{rr.loads / case.lower_bound:.3f}",
                   f"{max_error(rr.schedule):.2e}", f"{tm.elapsed:.2f}"])
    kwargs = {"anneal": {"iters": args.iters, "seed": args.seed,
                         "chains": args.chains, "jobs": args.jobs},
              "beam": {"width": args.width},
              "lookahead": {"depth": args.depth}}
    best_search = None
    best_order = None
    for strategy in strategies:
        with timed(f"search.strategy.{strategy}") as tm:
            found = search_order(graph, args.s, strategy,
                                 relax_reductions=args.relax, **kwargs[strategy])
            rw = rewrite_schedule(case.trace, args.s, found.order, graph=graph,
                                  relax_reductions=args.relax)
        if best_search is None or rw.loads < best_search:
            best_search, best_order = rw.loads, (strategy, found.order)
        t.add_row([f"search:{strategy}", format_int(rw.loads),
                   f"{rw.loads / opt.loads:.3f}",
                   f"{rw.loads / case.lower_bound:.3f}",
                   f"{max_error(rw.schedule):.2e}", f"{tm.elapsed:.2f}"])
    print(t.render())
    if args.timeline and best_order is not None:
        from .obs.timeline import export_timeline
        from .parallel.makespan import makespan_model

        strategy, order = best_order
        span = makespan_model(graph, [0] * len(graph), order=list(order),
                              relax_reductions=args.relax)
        export_timeline(graph, span, args.timeline,
                        relax_reductions=args.relax,
                        label=f"search:{strategy} {args.kernel} n={args.n}")
        print(f"timeline written to {args.timeline}")
    if best_heur is not None and best_search is not None:
        verdict = "beats" if best_search < best_heur else "matches" if best_search == best_heur else "trails"
        print(f"\nbest searched order {verdict} the best one-shot heuristic: "
              f"{best_search:,} vs {best_heur:,} loads "
              f"(Belady floor of the recorded order: {opt.loads:,})")
    print("'max |err|' compares a fresh replay against the recorded reference —")
    print("0.00e+00 means bit-identical; relaxed orders differ by FP reassociation.")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .graph.compare import record_case
    from .trace import (
        compile_trace,
        file_kind,
        load_schedule,
        load_trace,
        save_schedule,
        save_trace,
    )
    from .trace.replay import sweep_replay_trace

    def describe(trace, origin: str) -> None:
        shapes = ", ".join(f"{n}{list(s)}" for n, s in trace.shapes.items())
        print(
            f"{origin}: {trace.n_ops} ops, {trace.n_accesses} element touches, "
            f"{trace.n_elements} distinct elements; matrices: {shapes}"
        )

    if args.trace_command == "compile":
        case = record_case(args.kernel, args.n, args.m, args.s)
        trace = case.trace
        describe(trace, f"{args.kernel} n={args.n} m={args.m} S={args.s}")
        save_trace(trace, args.out)
        import os

        print(f"trace written to {args.out} ({os.path.getsize(args.out):,} bytes)")
        if args.schedule_out:
            save_schedule(case.schedule, args.schedule_out)
            print(
                f"full schedule written to {args.schedule_out} "
                f"({os.path.getsize(args.schedule_out):,} bytes)"
            )
        return 0

    if args.trace_command == "info":
        kind = file_kind(args.path)
        if kind == "schedule":
            schedule = load_schedule(args.path)
            counts = schedule.counts()
            loads, stores = schedule.io_volume()
            print(
                f"schedule container: {counts['load']} loads, {counts['evict']} "
                f"evicts, {counts['compute']} computes; I/O {loads} loads / "
                f"{stores} stores (elements)"
            )
            describe(compile_trace(schedule), "compiled")
        else:
            describe(load_trace(args.path), "trace container")
        return 0

    # replay
    kind = file_kind(args.path)
    if kind == "schedule":
        trace = compile_trace(load_schedule(args.path))
    else:
        trace = load_trace(args.path)
    describe(trace, args.path)
    policies = ("lru", "belady") if args.policy == "both" else (args.policy,)
    t = Table(["capacity", "policy", "Q (loads)", "stores", "miss rate", "sweep sec"])
    for policy in policies:
        # One sweep per policy: a single reuse-distance (LRU) or grouped
        # OPT-stack (Belady) pass answers every capacity, with --jobs
        # sharding the counting across worker processes.
        with timed(f"trace.replay.{policy}") as tm:
            results = sweep_replay_trace(
                trace, args.capacity, policy=policy, jobs=args.jobs
            )
        for i, (capacity, r) in enumerate(zip(args.capacity, results)):
            t.add_row(
                [capacity, policy, format_int(r.loads), format_int(r.stores),
                 f"{r.miss_rate:.4f}", f"{tm.elapsed:.3f}" if i == 0 else '"']
            )
    print(t.render())
    return 0


def _cmd_parallel(args: argparse.Namespace) -> int:
    from .core.bounds import (
        parallel_cholesky_lower_bound_per_node,
        parallel_syrk_lower_bound_per_node,
    )
    from .graph.compare import record_case
    from .graph.dependency import DependencyGraph
    from .parallel.executor import execute_graph
    from .parallel.refine import refine_partitions

    def bound_for(p: int) -> float | None:
        if args.kernel in ("tbs", "ocs"):
            return parallel_syrk_lower_bound_per_node(args.n, args.m, p, args.s)
        if args.kernel == "chol":
            return parallel_cholesky_lower_bound_per_node(args.n, p, args.s)
        return None  # syr2k: no dedicated per-node closed form yet

    partitioners = tuple(args.partitioners) if args.partitioners else PARTITIONERS
    with timed("parallel.record"):
        case = record_case(args.kernel, args.n, args.m, args.s)
        graph = DependencyGraph.from_trace(case.trace)
    mults = [float(node.op.mults) for node in graph.nodes]
    print(banner(
        f"sharded DAG executor: {args.kernel} n={args.n} m={args.m} "
        f"S={args.s} policy={args.policy}"
    ))
    print(
        f"{len(graph)} compute ops, critical path "
        f"{int(graph.critical_path_cost())} ops "
        f"({int(graph.critical_path_cost(mults)):,} mults weighted); "
        f"single-node explicit Q = {case.explicit_loads:,}"
    )
    t = Table(
        ["P", "partitioner", "max recv", "recv+xfer", "xfer", "max xfer out",
         "cut", "imbalance", "peak<=S", "recv/bound", "makespan"]
    )

    best: "tuple | None" = None  # (summary, label) of the lowest makespan

    def add_row(p: int, label: str, summ) -> None:
        nonlocal best
        bound = bound_for(p)
        ratio = f"{summ.max_recv / bound:.3f}" if bound and bound > 0 else "-"
        t.add_row(
            [p, label,
             format_int(summ.max_recv), format_int(summ.max_recv_incl_transfers),
             format_int(summ.total_transfer), format_int(summ.max_transfer_out),
             format_int(summ.cut_edge_count),
             f"{summ.compute_imbalance:.3f}", str(summ.peak_ok), ratio,
             format_int(int(summ.makespan))]
        )
        if summ.p > 1 and (best is None or summ.makespan < best[0].makespan):
            best = (summ, label)

    for p in args.p:
        # Every partitioner degenerates to the same trivial assignment at
        # P = 1; run and print it once.
        parts = partitioners if p > 1 else partitioners[:1]
        summs = [
            execute_graph(
                case.schedule, p, args.s, partitioner=part, policy=args.policy,
                graph=graph, alpha=args.alpha, beta=args.beta,
            )
            for part in parts
        ]
        refined_rows: list = [None] * len(parts)
        if args.refine and p > 1:
            # All partitioner seeds refine as one batch; --jobs fans the
            # independent searches out over worker processes (seed index i
            # draws the disjoint stream task_seed(--seed, i)).
            with timed(f"parallel.refine.{args.refine}"):
                refined_rows = refine_partitions(
                    graph, [list(s.owner) for s in summs], p, args.s,
                    jobs=args.jobs, seed=args.seed, strategy=args.refine,
                    # judge never-worse under the matching counting policy
                    # (lru for --policy lru, the belady floor otherwise)
                    eval_policy="lru" if args.policy == "lru" else "belady",
                )
        for part, summ, refined in zip(parts, summs, refined_rows):
            add_row(p, part if p > 1 else "(any)", summ)
            if refined is not None:
                summ = execute_graph(
                    case.schedule, p, args.s, owner=refined.owner,
                    policy=args.policy, graph=graph,
                    partitioner_label=f"{part}+refine",
                    alpha=args.alpha, beta=args.beta,
                )
                add_row(p, f"{part}+refine", summ)
    print(t.render())
    if args.timeline:
        from .obs.timeline import export_timeline

        summ, label = best if best is not None else (summ, "(any)")
        export_timeline(
            graph, summ.makespan_result, args.timeline,
            label=f"{args.kernel} n={args.n} S={args.s} p={summ.p} {label}",
        )
        print(f"timeline written to {args.timeline} "
              f"(best row: p={summ.p} {label}, makespan {int(summ.makespan):,})")
    print("\n'recv' counts each node's loads (receives, §2.2 equivalence); 'xfer' is")
    print("the cross-shard slice of it carried by cut RAW/reduction edges (global")
    print("in == out, asserted), 'max xfer out' the busiest sender's share, and")
    print("'recv+xfer' the per-node sum — the quantity `--refine` minimizes.")
    print("'makespan' is the weighted latency model (per-op cost = mults, per-cross-")
    print(f"edge cost = {args.alpha:g} + {args.beta:g}*elements); critical path is printed in both units.")
    return 0


def _cmd_cosearch(args: argparse.Namespace) -> int:
    from .graph.compare import record_case
    from .graph.dependency import DependencyGraph
    from .parallel.cosearch import cosearch
    from .parallel.makespan import makespan_model

    relax = not args.no_relax
    with timed("cosearch.record"):
        case = record_case(args.kernel, args.n, args.m, args.s)
        graph = DependencyGraph.from_trace(case.trace)
    mults = [float(node.op.mults) for node in graph.nodes]
    total_mults = sum(mults)
    print(banner(
        f"joint order x partition co-search: {args.kernel} "
        f"n={args.n} m={args.m} S={args.s}"
    ))
    print(
        f"{len(graph)} compute ops, {len(graph.reduction_classes())} reduction "
        f"classes; critical path {int(graph.critical_path_cost(mults)):,} mults"
    )
    t = Table(
        ["P", "schedule", "makespan", "max io", "J", "vs seed", "x work/P"]
    )
    best: "tuple | None" = None  # (result, p) with the lowest makespan, p > 1

    for p in args.p:
        with timed(f"cosearch.p{p}"):
            res = cosearch(
                graph, p, args.s, iters=args.iters, seed=args.seed,
                jobs=args.jobs, alpha=args.alpha, beta=args.beta,
                relax_reductions=relax,
                search_kwargs={
                    "anneal": {"iters": args.search_iters, "seed": args.seed}
                },
            )
        seed_label = min(res.seed_costs, key=lambda k: res.seed_costs[k])
        t.add_row(
            [p, f"best seed: {seed_label}", "-", "-",
             format_int(int(res.seed_cost)), "-", "-"]
        )
        gain = (
            (1.0 - res.cost / res.seed_cost) * 100.0 if res.seed_cost else 0.0
        )
        work_floor = total_mults / p if p else 0.0
        t.add_row(
            [p, "co-search" + (" (reverted)" if res.reverted else ""),
             format_int(int(res.makespan)),
             format_int(res.measured.bottleneck_io),
             format_int(int(res.cost)), f"-{gain:.1f}%",
             f"{res.makespan / work_floor:.3f}" if work_floor else "-"]
        )
        if p > 1 and (best is None or res.makespan < best[0].makespan):
            best = (res, p)
    print(t.render())
    if args.timeline:
        from .obs.timeline import export_timeline

        res, p = best if best is not None else (res, args.p[-1])
        span = makespan_model(
            graph, list(res.owner), p=p, order=res.order, alpha=args.alpha,
            beta=args.beta, relax_reductions=relax,
        )
        export_timeline(
            graph, span, args.timeline,
            label=f"{args.kernel} n={args.n} S={args.s} p={p} cosearch",
        )
        print(f"timeline written to {args.timeline} "
              f"(p={p}, makespan {int(span.makespan):,})")
    print("\n'J' is the unified objective: latency-model makespan (per-op cost =")
    print(f"mults, per-cross-edge cost = {args.alpha:g} + {args.beta:g}*elements) plus "
          f"{args.beta:g} x the bottleneck")
    print("node's (LRU shard loads + incoming transfers).  'best seed' is the")
    print("measured best of the {partitioner} x {order} portfolio — the decoupled")
    print("pipelines the joint walk must beat; the co-search row is never worse.")
    if relax:
        print("Reduction classes relaxed: results equal up to FP reassociation.")
    return 0


def _serve_keys(args: argparse.Namespace) -> list:
    from .serve import ScheduleKey

    return [
        ScheduleKey(
            args.kernel, n, args.m, args.s, p=args.p, policy=args.policy,
            alpha=args.alpha, beta=args.beta,
        )
        for n in args.ns
    ]


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .serve import ScheduleCache, ScheduleService, ScheduleStore, warm_store

    store = ScheduleStore(args.store)

    if args.serve_command == "warm":
        keys = _serve_keys(args)
        print(banner(f"serve warm: {len(keys)} keys -> {args.store}"))
        with timed("serve.warm") as tm:
            searched = warm_store(store, keys, jobs=args.jobs, force=args.force)
        t = Table(["key", "digest", "action"])
        for key in keys:
            t.add_row(
                [key.canonical(), key.digest()[:12],
                 "searched" if key in searched else "already stored"]
            )
        print(t.render())
        print(f"{len(searched)} searched, {len(keys) - len(searched)} already "
              f"present ({tm.elapsed:.2f}s, --jobs {args.jobs})")
        return 0

    if args.serve_command == "stats":
        stats = store.stats()
        print(banner(f"serve stats: {args.store}"))
        t = Table(["entries", "bytes", "per kernel", "per policy"])
        t.add_row(
            [stats["entries"], format_int(stats["bytes"]),
             json.dumps(stats["per_kernel"]), json.dumps(stats["per_policy"])]
        )
        print(t.render())
        if args.json:
            from .obs.provenance import provenance_stamp

            payload = {
                "experiment": "serve_stats",
                "provenance": provenance_stamp(),
                "rows": [stats],
            }
            from .utils.atomic import atomic_write_json

            atomic_write_json(args.json, payload, indent=2)
            print(f"stats written to {args.json}")
        return 0

    # query: a zipf-ish synthetic request stream through the front end
    import random

    keys = _serve_keys(args)
    rng = random.Random(args.seed)
    weights = [1.0 / (rank + 1) ** args.zipf for rank in range(len(keys))]
    stream = rng.choices(keys, weights=weights, k=args.requests)
    cache = ScheduleCache(args.cache_size)
    print(banner(
        f"serve query: {args.requests} requests over {len(keys)} keys "
        f"(zipf a={args.zipf}, cache {args.cache_size}, batch {args.batch})"
    ))

    async def run_stream(service):
        latencies = []

        async def one(key):
            with timed("serve.request") as tm:
                await service.get_schedule(key)
            latencies.append(tm.elapsed)

        # Waves of --batch concurrent requests: duplicates inside a wave
        # are what the single-flight path coalesces.
        for i in range(0, len(stream), args.batch):
            await asyncio.gather(*map(one, stream[i:i + args.batch]))
        return latencies

    with probe_scope() as probe:
        service = ScheduleService(store, cache, workers=args.workers)
        try:
            latencies = asyncio.run(run_stream(service))
        finally:
            service.close()
    snap = service.stats_snapshot()
    t = Table(["requests", "mem hits", "store hits", "searches", "coalesced",
               "evictions", "hit rate"])
    t.add_row(
        [snap["requests"], snap["hits"], snap["store_hits"], snap["searches"],
         snap["coalesced"], snap["cache_evictions"],
         f"{cache.hit_rate:.3f}"]
    )
    print(t.render())
    search_t = probe.timers.get("serve.search")
    warm = sorted(latencies)[len(latencies) // 2]
    print(f"p50 request latency {warm * 1e6:.0f} us over the stream")
    if search_t and search_t["calls"]:
        cold = search_t["total"] / search_t["calls"]
        print(f"mean cold search {cold * 1e3:.1f} ms x {int(search_t['calls'])}; "
              f"a memory hit is ~{cold / max(warm, 1e-9):,.0f}x faster at p50")
    print("\n'coalesced' counts requests that attached to an in-flight search for")
    print("the same key (single flight: N concurrent duplicates -> 1 search).")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs.report import load_report, render_report

    print(render_report(load_report(args.path)))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .check.cli import cmd_check

    return cmd_check(args)


def _cmd_constants(_args: argparse.Namespace) -> int:
    print(banner("the paper's four contributions"))
    t = Table(["kernel", "quantity", "before", "after", "paper source"])
    for row in literature_bounds_table():
        t.add_row(
            [row["kernel"], row["quantity"], format_float(row["before"]),
             format_float(row["after"]), row["after_source"]]
        )
    print(t.render())
    print(f"\nsqrt(2) = {math.sqrt(2):.6f}; see benchmarks/ for measured convergence.")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="quickstart comparison")

    p_fig = sub.add_parser("figures", help="render the paper's figures")
    p_fig.add_argument("--n", type=int, default=27)
    p_fig.add_argument("--k", type=int, default=5)

    p_sweep = sub.add_parser("sweep", help="run a volume sweep")
    p_sweep.add_argument("kernel", choices=["syrk", "cholesky"])
    p_sweep.add_argument("--s", type=int, default=15)
    p_sweep.add_argument("--m", type=int, default=8)
    p_sweep.add_argument("--ns", type=int, nargs="+", default=[60, 120])

    sub.add_parser("constants", help="print the constants tables")

    p_replay = sub.add_parser("replay", help="LRU-replay a recorded op order")
    p_replay.add_argument("--s", type=int, default=15)
    p_replay.add_argument("--n", type=int, default=40)
    p_replay.add_argument("--m", type=int, default=6)

    # Flag groups that several commands share, each spelled once.
    case_args = argparse.ArgumentParser(add_help=False)
    case_args.add_argument("--kernel", choices=sorted(CASES), default="tbs")
    case_args.add_argument("--n", type=int, default=40)
    case_args.add_argument("--m", type=int, default=6)
    case_args.add_argument("--s", type=int, default=15)

    latency_args = argparse.ArgumentParser(add_help=False)
    latency_args.add_argument("--alpha", type=float, default=1.0,
                              help="per-cross-edge latency constant of the makespan model")
    latency_args.add_argument("--beta", type=float, default=1.0,
                              help="per-transferred-element latency of the makespan model")

    def report_args(timeline_help: str) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument("--report", default=None, metavar="PATH",
                            help="write the run report (provenance, timers, "
                                 "counters, convergence series) as JSON")
        parent.add_argument("--timeline", default=None, metavar="PATH",
                            help=timeline_help)
        return parent

    p_graph = sub.add_parser("graph", parents=[case_args],
                             help="dependency-DAG rescheduling report")
    p_graph.add_argument("--heuristics", nargs="+", default=None, choices=list(HEURISTICS))
    p_graph.add_argument("--no-numerics", action="store_true",
                         help="skip the bit-exact replay check (faster)")

    p_search = sub.add_parser(
        "search", help="order-search engine report",
        parents=[case_args, report_args(
            "export the best searched order as a Chrome "
            "trace-event JSON (single-node timeline)")],
    )
    p_search.add_argument("--strategy", nargs="+", default=None,
                          choices=list(STRATEGIES),
                          help="strategies to run (default: all three)")
    p_search.add_argument("--heuristics", nargs="+", default=["locality"],
                          choices=list(HEURISTICS),
                          help="one-shot baselines to print alongside")
    p_search.add_argument("--relax", action="store_true",
                          help="relax commuting reductions (orders then match "
                               "the reference only up to FP reassociation)")
    p_search.add_argument("--width", type=int, default=4, help="beam width")
    p_search.add_argument("--depth", type=int, default=4, help="lookahead depth")
    p_search.add_argument("--iters", type=int, default=800, help="annealing iterations")
    p_search.add_argument("--seed", type=int, default=0, help="annealing seed")
    p_search.add_argument("--chains", type=int, default=1,
                          help="independent annealing chains (portfolio; "
                               "chain 0 reproduces --chains 1 bit for bit)")
    p_search.add_argument("--jobs", type=int, default=1,
                          help="worker processes for the chain fan-out")

    p_trace = sub.add_parser("trace", help="compiled trace IR: compile/replay/info")
    tsub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tc = tsub.add_parser("compile", parents=[case_args],
                           help="record a kernel and save its trace")
    p_tc.add_argument("-o", "--out", required=True, help="output .npz path")
    p_tc.add_argument("--schedule-out", default=None,
                      help="also save the full schedule (reconstructible ops)")
    p_tr = tsub.add_parser("replay", help="array-based LRU/Belady replay of a saved trace")
    p_tr.add_argument("path", help="trace or schedule .npz")
    p_tr.add_argument("--capacity", type=int, nargs="+", required=True)
    p_tr.add_argument("--policy", choices=["lru", "belady", "both"], default="both")
    p_tr.add_argument("--jobs", type=int, default=1,
                      help="worker processes sharding the capacity sweep")
    p_ti = tsub.add_parser("info", help="summarize a saved trace/schedule")
    p_ti.add_argument("path")

    p_par = sub.add_parser(
        "parallel", help="sharded task-DAG executor report",
        parents=[case_args, latency_args, report_args(
            "export the lowest-makespan row as a Chrome "
            "trace-event JSON (one track per node, transfers "
            "as flow arrows)")],
    )
    p_par.add_argument("--p", type=int, nargs="+", default=[1, 4, 16])
    p_par.add_argument("--partitioners", nargs="+", default=None,
                       choices=list(PARTITIONERS))
    p_par.add_argument("--policy", choices=POLICIES, default="rewrite")
    p_par.add_argument("--refine", nargs="?", const="greedy", default=None,
                       choices=list(REFINE_STRATEGIES),
                       help="also refine each partitioner's assignment "
                            "(transfer-aware local search) and print the row")
    p_par.add_argument("--seed", type=int, default=0,
                       help="seed for the refinement annealer")
    p_par.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the multi-seed refine fan-out")

    p_cos = sub.add_parser(
        "cosearch", help="joint order x partition co-search report",
        parents=[case_args, latency_args, report_args(
            "export the winning schedule of the lowest-"
            "makespan P as a Chrome trace-event JSON")],
    )
    p_cos.add_argument("--p", type=int, nargs="+", default=[4])
    p_cos.add_argument("--iters", type=int, default=600,
                       help="annealing steps per co-search chain")
    p_cos.add_argument("--search-iters", type=int, default=200,
                       help="annealing steps for the order-search seeds")
    p_cos.add_argument("--seed", type=int, default=0,
                       help="base RNG seed (chain k gets a derived stream)")
    p_cos.add_argument("--jobs", type=int, default=1,
                       help="worker processes fanning the portfolio chains")
    p_cos.add_argument("--no-relax", action="store_true",
                       help="keep reduction chains in recorded order "
                            "(bit-exact numerics, smaller move space)")

    p_srv = sub.add_parser("serve", help="schedule-serving layer: warm/query/stats")
    ssub = p_srv.add_subparsers(dest="serve_command", required=True)

    def serve_key_args(sp):
        sp.add_argument("--store", required=True, help="store root directory")
        sp.add_argument("--kernel", choices=sorted(CASES), default="tbs")
        sp.add_argument("--ns", type=int, nargs="+", default=[40],
                        help="one key per N (the rest of the tuple is shared)")
        sp.add_argument("--m", type=int, default=6)
        sp.add_argument("--s", type=int, default=15)
        sp.add_argument("--p", type=int, default=1)
        sp.add_argument("--policy", choices=["heuristic", "search", "cosearch"],
                        default="heuristic", help="searcher pipeline (part of the key)")
        sp.add_argument("--alpha", type=float, default=1.0)
        sp.add_argument("--beta", type=float, default=1.0)

    p_sw = ssub.add_parser("warm", help="batch-search a key grid into the store")
    serve_key_args(p_sw)
    p_sw.add_argument("--jobs", type=int, default=1,
                      help="worker processes fanning the searches")
    p_sw.add_argument("--force", action="store_true",
                      help="re-search keys already present")
    p_sq = ssub.add_parser("query", help="run a synthetic request stream")
    serve_key_args(p_sq)
    p_sq.add_argument("--requests", type=int, default=64)
    p_sq.add_argument("--cache-size", type=int, default=4,
                      help="in-process LRU capacity (schedules)")
    p_sq.add_argument("--zipf", type=float, default=1.1,
                      help="zipf exponent of the key popularity ranking")
    p_sq.add_argument("--batch", type=int, default=16,
                      help="concurrent requests per wave (coalescing window)")
    p_sq.add_argument("--seed", type=int, default=0)
    p_sq.add_argument("--workers", type=int, default=0,
                      help="search-worker processes (0: search on a thread)")
    p_ss = ssub.add_parser("stats", help="reconciled store statistics")
    p_ss.add_argument("--store", required=True, help="store root directory")
    p_ss.add_argument("--json", default=None, metavar="PATH",
                      help="also write the stats as a provenance-stamped JSON")

    p_rep = sub.add_parser("report", help="pretty-print a saved run report")
    p_rep.add_argument("path", help="a --report JSON written by search/parallel")

    from .check.cli import add_check_parser

    add_check_parser(sub)

    args = parser.parse_args(argv)
    handler = {
        "demo": _cmd_demo,
        "figures": _cmd_figures,
        "sweep": _cmd_sweep,
        "constants": _cmd_constants,
        "replay": _cmd_replay,
        "graph": _cmd_graph,
        "search": _cmd_search,
        "trace": _cmd_trace,
        "parallel": _cmd_parallel,
        "cosearch": _cmd_cosearch,
        "serve": _cmd_serve,
        "report": _cmd_report,
        "check": _cmd_check,
    }[args.command]
    report_path = getattr(args, "report", None)
    if not report_path:
        return handler(args)
    # --report: run the whole command under a recording probe, then save
    # everything it observed as one provenance-stamped JSON document.
    from .obs.report import build_report, save_report

    with probe_scope() as probe:
        rc = handler(args)
    params = {
        k: v for k, v in vars(args).items() if k not in ("command", "report")
    }
    save_report(
        build_report(probe, command=args.command, params=params), report_path
    )
    print(f"report written to {report_path}")
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
