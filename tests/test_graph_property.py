"""Property-based check of DAG extraction against the oracle walk.

Random streams of real ops over three small matrices (``C`` is N×N, ``A``
is N×K, ``B`` is K×N) mix commuting accumulations into ``C``
(:class:`OuterColsUpdate`, :class:`TriangleUpdate`,
:class:`GemmOuterUpdate`) with sequential ops that read and overwrite
``C`` or ``A`` (:class:`CholFactorResident`, :class:`TrsmSolveStep`), so
regions overlap, partial sums are read and overwritten, and accumulation
inputs are overwritten.  For every stream, the production CSR build
(:meth:`DependencyGraph.from_trace`) must equal the per-element walk of
``graph_oracles`` edge for edge and kind for kind, and the derived views
(effective neighbours, in-degrees, reduction classes) must agree under
both ``relax_reductions`` settings.  The locality list scheduler must
equal the rescan oracle under both settings: many ops
share the 5×5 ``C``, so a ready op's score rises and falls while it waits
and ties are common.  Hypothesis drives the stream when available, a
seeded random sweep otherwise.
"""

import random

from graph_oracles import rescan_locality_order, walk_dependency_graph
from repro import TwoLevelMachine
from repro.graph.dependency import DependencyGraph
from repro.graph.scheduler import LOCALITY_WINDOW, list_schedule
from repro.sched.ops import (
    CholFactorResident,
    GemmOuterUpdate,
    OuterColsUpdate,
    TriangleUpdate,
    TrsmSolveStep,
)
from repro.trace.compiled import compile_trace

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

N, K = 5, 3


def random_ops(randint) -> list:
    """A stream of 1-12 ops; ``randint(lo, hi)`` draws from ``[lo, hi]``."""
    m = TwoLevelMachine(N * N, numerics=False)
    for name, shape in (("C", (N, N)), ("A", (N, K)), ("B", (K, N))):
        m.add_matrix(name, [[0.0] * shape[1]] * shape[0])

    def subset(limit: int, least: int = 1) -> list[int]:
        pool, out = list(range(limit)), []
        for _ in range(randint(least, limit)):
            out.append(pool.pop(randint(0, len(pool) - 1)))
        return sorted(out)

    ops = []
    for _ in range(randint(1, 12)):
        kind = randint(0, 4)
        if kind == 0:
            ops.append(OuterColsUpdate(
                m, "C", "A", "A", subset(N), subset(N), randint(0, K - 1), randint(0, K - 1)
            ))
        elif kind == 1:
            ops.append(TriangleUpdate(
                m, "C", "A", subset(N, 2), randint(0, K - 1),
                include_diagonal=bool(randint(0, 1)),
            ))
        elif kind == 2:
            ops.append(GemmOuterUpdate(m, "C", "A", "B", subset(N), subset(N), randint(0, K - 1)))
        elif kind == 3:
            ops.append(CholFactorResident(m, "C", subset(N)))
        else:  # a solve column of C or of A, against a row of C
            x = "C" if randint(0, 1) else "A"
            cols = subset(N if x == "C" else K)
            ops.append(TrsmSolveStep(m, x, "C", subset(N), cols, randint(0, len(cols) - 1)))
    return ops


def reduction_components(preds: list[dict[int, set[str]]]) -> list[list[int]]:
    """Classes of ops linked by reduction-only edges, by graph search."""
    links: dict[int, set[int]] = {}
    for v, kinds_of in enumerate(preds):
        for u, kinds in kinds_of.items():
            if kinds == {"reduction"}:
                links.setdefault(u, set()).add(v)
                links.setdefault(v, set()).add(u)
    seen: set[int] = set()
    classes = []
    for start in sorted(links):
        if start in seen:
            continue
        stack, group = [start], set()
        while stack:
            v = stack.pop()
            if v not in group:
                group.add(v)
                stack.extend(links[v])
        seen |= group
        classes.append(sorted(group))
    return classes


def check_against_walk(ops) -> None:
    trace = compile_trace(ops)
    graph = DependencyGraph.from_trace(trace)
    ref = walk_dependency_graph(trace)
    n = len(ops)
    assert len(graph) == n
    assert graph.edges() == ref.edges()
    for v in range(n):
        assert graph.inputs(v) == ref.inputs[v]
        assert graph.writes(v) == ref.writes[v]
    for relax in (False, True):
        def kept(neighbours: dict[int, set[str]]) -> list[int]:
            return sorted(u for u, kinds in neighbours.items()
                          if not (relax and kinds == {"reduction"}))

        preds = [kept(d) for d in ref.preds]
        assert [graph.effective_preds(v, relax_reductions=relax) for v in range(n)] == preds
        assert [graph.effective_succs(v, relax_reductions=relax) for v in range(n)] == [
            kept(d) for d in ref.succs
        ]
        assert graph.indegrees(relax_reductions=relax) == [len(p) for p in preds]
        assert graph.is_valid_order(list(range(n)), relax_reductions=relax)
        assert list_schedule(
            graph, "locality", relax_reductions=relax
        ).order == rescan_locality_order(
            graph, relax_reductions=relax, window=LOCALITY_WINDOW
        )
    assert graph.reduction_classes() == reduction_components(ref.preds)


if HAVE_HYPOTHESIS:

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_dag_matches_walk_hypothesis(data):
        check_against_walk(random_ops(lambda lo, hi: data.draw(st.integers(lo, hi))))


def test_dag_matches_walk_seeded_sweep():
    rng = random.Random(2028)
    for _ in range(60):
        check_against_walk(random_ops(rng.randint))
