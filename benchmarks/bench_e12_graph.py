"""E12 — dependency-graph rescheduling: is the recorded order the best legal one?

Extracts the task DAG of four recorded schedules (TBS, OOC_SYRK, TBS-SYR2K,
OOC_CHOL), re-schedules each under the worklist heuristics, regenerates
explicit load/evict streams (load-on-demand, evict-by-furthest-next-use),
and compares I/O volumes against LRU replay, the Belady/MIN per-order
floor, and the paper's lower bounds.

Shape claims asserted:

* every rescheduled stream passes the machine-independent validator and
  replays to the *bit-identical* numeric result (reduction chains kept);
* Belady replay never loads more than LRU at equal capacity — MIN is the
  per-order optimum;
* rewriting even the *original* order with the on-demand/furthest-next-use
  policy matches or beats the hand-written explicit streams (they evict
  conservatively); on TBS at least one heuristic order does too;
* the DAGs expose real structure: pure accumulation kernels (SYRK/SYR2K)
  collapse to reduction classes with a tiny critical path, while Cholesky's
  factor/solve chain forces a long critical path.

A second row times DAG extraction itself at tbs N=120 and chol N=60:
:meth:`~repro.graph.dependency.DependencyGraph.from_trace` (segmented
array passes into CSR) against the per-element walk kept as the test
oracle (``tests/graph_oracles.py``).  It asserts identical edges and
prints both times and their ratio; the ratio is evidence, not a gate.

A third row times the locality list scheduler at tbs N=120, strict and
relaxed: the production pass (ready ops' scores on score levels) against
the lazy-heap pass kept as the test reference ``heap_locality_order``.
It asserts identical orders, prints both times and their ratio (again
evidence, not a gate), and writes its rows to
``benchmarks/out/bench_e12_graph.json`` (or ``$BENCH_E12_JSON``).

A fourth row times recording, the first step of a cold miss, over the
seven servebench ``cold-heuristic`` keys: on counting machines with the
production fast memory (held regions skip the element gather) and with
the mask-only fast memory kept as the test reference
``legality_oracle.MaskFastMemory``.  It asserts identical step counts,
I/O volumes, :class:`~repro.machine.tracker.IOStats` and compiled access
streams, prints both totals and their ratio (evidence, not a gate), and
writes its row to ``benchmarks/out/bench_e12_record.json`` (or
``$BENCH_E12_RECORD_JSON``).
"""

import time

import numpy as np
import pytest

from graph_oracles import heap_locality_order, walk_dependency_graph
from repro.graph.compare import CASES, compare_case, record_case
from repro.graph.dependency import DependencyGraph
from repro.graph.scheduler import HEURISTICS, list_schedule
from repro.machine import FastMemory, TwoLevelMachine
from repro.sched.schedule import record_schedule
from repro.trace.compiled import compile_trace

#: (kernel, n) of the DAG-extraction row, at M=6, S=15.
EXTRACTION_SIZES = (("tbs", 120), ("chol", 60))
#: (kernel, n) of the locality-pass row, at M=6, S=15.
LOCALITY_SIZE = ("tbs", 120)
#: (kernel, n) of the record row, at M=6, S=15: servebench's seven
#: ``cold-heuristic`` keys.
RECORD_KEYS = tuple((k, n) for n in (32, 40) for k in ("tbs", "syr2k", "chol")) + (("tbs", 56),)
#: The compiled access stream's arrays the record row compares.
STREAM_FIELDS = ("elem_ids", "is_write", "op_starts", "op_read_ends", "key_matrix", "key_flat")

SIZES = {
    "tbs": (40, 6, 15),
    "ocs": (40, 6, 15),
    "syr2k": (36, 4, 15),
    "chol": (32, 0, 15),
}


def run_case(kernel: str):
    n, mcols, s = SIZES[kernel]
    case = record_case(kernel, n, mcols, s)
    return case, compare_case(case, HEURISTICS, check_numerics=True)


@pytest.mark.benchmark(group="e12")
def test_e12_graph_rescheduling(once):
    from repro.utils.fmt import Table, format_int

    results = once(lambda: {kernel: run_case(kernel) for kernel in SIZES})

    for kernel, (case, comp) in results.items():
        n, mcols, s = SIZES[kernel]
        g = comp.graph
        counts = g.edge_counts()
        t = Table(
            ["order / policy", "Q (loads)", "stores", "Q/bound", "legal", "bit-exact"],
            title=(
                f"E12 {CASES[kernel]}: n={n} m={mcols} S={s} — {len(g)} ops, "
                f"{counts['raw']}/{counts['war']}/{counts['waw']}/{counts['reduction']} "
                f"RAW/WAR/WAW/reduction edges, critical path {int(g.critical_path_cost())}"
            ),
        )
        for row in comp.rows:
            t.add_row(
                [row.label, format_int(row.loads), format_int(row.stores),
                 f"{row.loads / case.lower_bound:.3f}",
                 "-" if row.valid is None else str(row.valid),
                 "-" if row.exact is None else str(row.exact)]
            )
        print()
        print(t.render())

        lru = comp.row("lru")
        belady = comp.row("belady")
        explicit = comp.row("explicit")
        # MIN is optimal for a fixed access sequence: never above LRU, never
        # below the cold-miss floor.
        assert belady.loads <= lru.loads
        # Every rescheduled stream is legal and numerically exact.
        for heuristic in HEURISTICS:
            row = comp.row(f"reschedule:{heuristic}")
            assert row.valid, (kernel, heuristic)
            assert row.exact, (kernel, heuristic)
        # The canonical rewrite of the *original* order (load-on-demand +
        # furthest-next-use eviction) already matches or beats the
        # hand-written explicit stream.
        assert comp.row("reschedule:original").loads <= explicit.loads, kernel
        # Nothing legal beats the Belady floor of its own order... but every
        # row must stay above the paper's lower bound.
        for row in comp.rows:
            assert row.loads >= case.lower_bound * 0.99, (kernel, row.label)

    # Headline claim: on TBS, at least one heuristic order matches or beats
    # the original explicit I/O volume.
    _case, comp = results["tbs"]
    explicit = comp.row("explicit")
    best = min(comp.row(f"reschedule:{h}").loads for h in HEURISTICS)
    assert best <= explicit.loads

    # Structure claim: accumulate-only kernels have span O(M); Cholesky's
    # dependence chain is an order of magnitude deeper.
    assert int(results["tbs"][1].graph.critical_path_cost()) <= SIZES["tbs"][1] + 1
    assert int(results["chol"][1].graph.critical_path_cost()) > 3 * (
        int(results["tbs"][1].graph.critical_path_cost())
    )


def best_of(fn, repeats: int = 3) -> tuple[float, object]:
    """The fastest of ``repeats`` wall-clock runs, and the last result."""
    best, out = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


@pytest.mark.benchmark(group="e12")
def test_e12_dag_extraction(once):
    from repro.utils.fmt import Table, format_int

    def run():
        rows = []
        for kernel, n in EXTRACTION_SIZES:
            trace = record_case(kernel, n, 6, 15).trace
            t_csr, graph = best_of(lambda: DependencyGraph.from_trace(trace))
            t_walk, walk = best_of(lambda: walk_dependency_graph(trace))
            rows.append((kernel, n, trace.n_ops, graph, walk, t_csr, t_walk))
        return rows

    rows = once(run)
    t = Table(
        ["kernel", "n", "ops", "edges", "from_trace ms", "walk ms", "ratio"],
        title="E12 DAG extraction: segmented array passes vs the per-element walk (best of 3)",
    )
    for kernel, n, n_ops, graph, walk, t_csr, t_walk in rows:
        # The same edges with the same kinds, in the same order.
        assert graph.edges() == walk.edges(), (kernel, n)
        t.add_row([kernel, n, format_int(n_ops), format_int(len(graph.edges())),
                   f"{t_csr * 1e3:.1f}", f"{t_walk * 1e3:.1f}", f"{t_csr / t_walk:.2f}x"])
    print()
    print(t.render())


@pytest.mark.benchmark(group="e12")
def test_e12_locality_pass(once):
    from common import write_bench_json
    from repro.utils.fmt import Table, format_int

    kernel, n = LOCALITY_SIZE

    def run():
        graph = DependencyGraph.from_trace(record_case(kernel, n, 6, 15).trace)
        rows = []
        for relax in (False, True):
            t_levels, order = best_of(
                lambda: list_schedule(graph, "locality", relax_reductions=relax).order
            )
            t_heap, heap = best_of(lambda: heap_locality_order(graph, relax_reductions=relax))
            # The same order, op for op.
            assert order == heap, (kernel, n, relax)
            rows.append({
                "kernel": kernel, "n": n, "ops": len(graph), "relax": relax,
                "levels_ms": t_levels * 1e3, "heap_ms": t_heap * 1e3,
                "ratio": t_levels / t_heap,
            })
        return rows

    rows = once(run)
    t = Table(
        ["kernel", "n", "ops", "relax", "levels ms", "heap ms", "ratio"],
        title="E12 locality pass: ready-only score levels vs the lazy heap (best of 3)",
    )
    for row in rows:
        t.add_row([row["kernel"], row["n"], format_int(row["ops"]), str(row["relax"]),
                   f"{row['levels_ms']:.1f}", f"{row['heap_ms']:.1f}",
                   f"{row['ratio']:.2f}x"])
    print()
    print(t.render())
    path = write_bench_json(
        "e12_locality_pass", rows,
        env_var="BENCH_E12_JSON", default_name="bench_e12_graph.json",
    )
    print(f"\nBENCH JSON written to {path}")


def record_all(cases, fast_memory) -> list:
    """``(schedule, stats)`` of each case, recorded as :func:`record_case`
    records it, on a counting machine whose fast memory is ``fast_memory``."""
    out = []
    for case in cases:
        m = TwoLevelMachine(case.capacity, numerics=False)
        m.fast = fast_memory(case.capacity, numerics=False)
        for name, shape in case.schedule.shapes.items():
            m.add_matrix(name, np.zeros(shape))
        schedule = record_schedule(m, lambda: case.run(m))
        m.assert_empty()
        out.append((schedule, m.stats))
    return out


@pytest.mark.benchmark(group="e12")
def test_e12_record_pass(once):
    from common import write_bench_json
    from legality_oracle import MaskFastMemory

    def run():
        cases = [record_case(kernel, n, 6, 15) for kernel, n in RECORD_KEYS]
        t_held, held = best_of(lambda: record_all(cases, FastMemory))
        t_mask, mask = best_of(lambda: record_all(cases, MaskFastMemory))
        for key, (schedule, stats), (ref, ref_stats) in zip(RECORD_KEYS, held, mask):
            # The same stream, step for step, and the same counts.
            assert schedule.counts() == ref.counts(), key
            assert schedule.io_volume() == ref.io_volume(), key
            assert stats == ref_stats, key
            got, want = compile_trace(schedule), compile_trace(ref)
            assert got.matrices == want.matrices, key
            for name in STREAM_FIELDS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), (key, name)
        return {
            "keys": [f"{kernel} N={n}" for kernel, n in RECORD_KEYS],
            "steps": sum(len(schedule) for schedule, _ in held),
            "production_ms": t_held * 1e3, "reference_ms": t_mask * 1e3,
            "ratio": t_held / t_mask,
        }

    row = once(run)
    print(
        f"\nE12 record pass, {len(RECORD_KEYS)} cold-heuristic keys, "
        f"{row['steps']:,} steps (best of 3): held regions {row['production_ms']:.1f} ms, "
        f"masks only {row['reference_ms']:.1f} ms, ratio {row['ratio']:.2f}x"
    )
    path = write_bench_json(
        "e12_record_pass", [row],
        env_var="BENCH_E12_RECORD_JSON", default_name="bench_e12_record.json",
    )
    print(f"BENCH JSON written to {path}")
