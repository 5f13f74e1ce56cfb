"""The graph layer's per-op passes against their reference forms.

The locality scheduler keeps ready ops' scores on score levels, DAG
extraction runs segmented array passes, and the load/evict rewrite builds
its per-op element sets from plain lists.  Each must reproduce its
straightforward form (``graph_oracles``) exactly: the same order, the same
per-op element sets, the same neighbours with the same kinds, and the same
step sequence.  The locality order is also pinned to the lazy-heap pass at
sizes the rescan cannot reach quickly.
"""

from __future__ import annotations

import numpy as np
import pytest

from graph_oracles import (
    heap_locality_order,
    numpy_rewrite_trace,
    rescan_locality_order,
    walk_dependency_graph,
)
from repro import TwoLevelMachine
from repro.core.tbs import tbs_syrk
from repro.graph import (
    HEURISTICS,
    dependency_graph,
    list_schedule,
    record_case,
    reschedule,
    rewrite_trace,
)
from repro.sched.schedule import ComputeStep, LoadStep, record_schedule
from repro.trace.compiled import compile_trace
from repro.trace.replay import belady_replay_trace

KERNELS = ("tbs", "syr2k", "chol", "ocs")
WINDOWS = (0, 1, 2, 4, 7)
_CASES: dict = {}


def case_of(kernel: str, n: int, mc: int, s: int):
    key = (kernel, n, mc, s)
    if key not in _CASES:
        case = record_case(kernel, n, mc, s)
        _CASES[key] = (case, dependency_graph(case.trace))
    return _CASES[key]


def step_signature(schedule) -> list[tuple]:
    """Each step as (kind, matrix, flat list, writeback) — or its op."""
    out = []
    for step in schedule.steps:
        if isinstance(step, ComputeStep):
            out.append(("compute", id(step.op)))
        else:
            region = step.region
            kind = "load" if isinstance(step, LoadStep) else "evict"
            wb = None if kind == "load" else step.writeback
            out.append((kind, region.matrix, region.flat.dtype.str, region.flat.tolist(), wb))
    return out


@pytest.mark.parametrize("relax", [False, True])
@pytest.mark.parametrize("kernel", KERNELS)
def test_locality_order_matches_rescan(kernel, relax):
    _case, graph = case_of(kernel, 20, 6, 15)
    for window in WINDOWS:
        got = list_schedule(
            graph, "locality", relax_reductions=relax, locality_window=window
        ).order
        want = rescan_locality_order(graph, relax_reductions=relax, window=window)
        assert got == want, f"window {window}"


@pytest.mark.parametrize("relax", [False, True])
@pytest.mark.parametrize("kernel", ("tbs", "syr2k", "chol"))
def test_locality_order_matches_heap(kernel, relax):
    _case, graph = case_of(kernel, 60, 6, 15)
    for window in (0, 1, 4):
        got = list_schedule(
            graph, "locality", relax_reductions=relax, locality_window=window
        ).order
        want = heap_locality_order(graph, relax_reductions=relax, window=window)
        assert got == want, f"window {window}"


def neighbours(graph, v: int, preds: bool) -> list[tuple[int, frozenset[str]]]:
    """Node ``v``'s predecessors (or successors) with their kinds, in the
    graph's own order."""
    if preds:
        return [(u, graph.edge_kinds(u, v)) for u in graph.effective_preds(v)]
    return [(w, graph.edge_kinds(v, w)) for w in graph.effective_succs(v)]


@pytest.mark.parametrize("s", [15, 40])
@pytest.mark.parametrize("kernel", KERNELS)
def test_dag_matches_numpy_extraction(kernel, s):
    case, graph = case_of(kernel, 20, 6, s)
    ref = walk_dependency_graph(case.trace)
    assert len(graph) == len(ref.preds)
    for v in range(len(graph)):
        assert graph.inputs(v) == ref.inputs[v]
        assert graph.writes(v) == ref.writes[v]
        # The walk's neighbours and kinds, listed in ascending order.
        for preds, want in ((True, ref.preds[v]), (False, ref.succs[v])):
            assert neighbours(graph, v, preds) == [
                (u, frozenset(kinds)) for u, kinds in sorted(want.items())
            ], (v, preds)
    assert graph.edges() == ref.edges()


@pytest.mark.parametrize("s", [15, 40])
@pytest.mark.parametrize("kernel", KERNELS)
def test_rewrite_matches_numpy_rewrite(kernel, s):
    case, graph = case_of(kernel, 20, 6, s)
    for heuristic in HEURISTICS:
        for relax in (False, True):
            order = list_schedule(graph, heuristic, relax_reductions=relax).order
            trace = case.trace.reorder(order)
            assert step_signature(rewrite_trace(trace, s)) == step_signature(
                numpy_rewrite_trace(trace, s)
            ), (heuristic, relax)


def test_rewrite_matches_numpy_rewrite_under_churn():
    # The fan-out order at S=6 evicts and reloads dirty partial sums.
    n, mc, s = 12, 4, 6
    a = np.random.default_rng(3).standard_normal((n, mc))
    m = TwoLevelMachine(s)
    m.add_matrix("A", a)
    m.add_matrix("C", np.zeros((n, n)))
    trace = compile_trace(
        record_schedule(m, lambda: tbs_syrk(m, "A", "C", range(n), range(mc)))
    )
    order = list_schedule(dependency_graph(trace), "fan-out").order
    reordered = trace.reorder(order)
    got = step_signature(rewrite_trace(reordered, s))
    assert got == step_signature(numpy_rewrite_trace(reordered, s))
    assert any(step[0] == "evict" and step[4] for step in got)


def test_belady_is_a_floor_on_the_rewrite():
    # Element-level MIN may evict an op's own operand between two of its
    # accesses; an explicit stream cannot, so the rewrite only bounds it
    # from above — and is strictly above it in most of these cases.
    strict = 0
    for kernel in KERNELS:
        for s in (6, 15, 40):
            case, graph = case_of(kernel, 12, 2, s)
            for heuristic in HEURISTICS:
                for relax in (False, True):
                    res = reschedule(
                        case.trace, s, heuristic, relax_reductions=relax, graph=graph
                    )
                    floor = belady_replay_trace(case.trace.reorder(res.order), s).loads
                    assert floor <= res.loads, (kernel, s, heuristic, relax)
                    strict += floor < res.loads
    assert strict > 0
