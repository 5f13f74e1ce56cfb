"""Property-based checks for the joint order x partition co-search.

Same two-generator pattern as ``tests/test_refine_property.py`` and
``tests/test_search_property.py`` — hypothesis when available, a seeded
random sweep otherwise — feeding one set of invariants:

* after any interleaved sequence of committed order/owner moves the
  state still holds a *legal exact cover*: every op owned by exactly one
  node in ``0..p-1``, and the order a valid topological order of the
  graph under ``relax_reductions``;
* the winning order always dresses into a **validated** explicit stream
  with peak occupancy ``<= S`` (the rewriter's
  :func:`~repro.sched.validate.validate_schedule` is the judge);
* the driver is **never worse than its seed**, measured independently
  with :func:`~repro.parallel.cosearch.cosearch_cost`, across kernels x
  partitioner seeds x ``p in {2, 4, 16}``;
* chains are deterministic: ``jobs=1`` and ``jobs=4`` return
  bit-identical results for any base seed.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.baselines.ooc_syrk import ooc_syrk
from repro.core.tbs import tbs_syrk
from repro.graph.dependency import DependencyGraph
from repro.graph.rewriter import rewrite_schedule
from repro.parallel import (
    PARTITIONERS,
    CoSearchState,
    cosearch,
    cosearch_cost,
    partition_graph,
)
from repro.sched.schedule import record_schedule
from repro.trace.compiled import compile_trace

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

PS = (2, 4, 16)
S = 15


def build_graph(kernel_name: str, n: int, mc: int, s: int = S) -> DependencyGraph:
    kernel = tbs_syrk if kernel_name == "tbs" else ooc_syrk
    m = TwoLevelMachine(s, numerics=False)
    m.add_matrix("A", np.zeros((n, mc)))
    m.add_matrix("C", np.zeros((n, n)))
    schedule = record_schedule(m, lambda: kernel(m, "A", "C", range(n), range(mc)))
    return DependencyGraph.from_trace(compile_trace(schedule))


_GRAPHS: dict = {}


def cached_graph(kernel: str, n: int, mc: int) -> DependencyGraph:
    key = (kernel, n, mc)
    if key not in _GRAPHS:
        _GRAPHS[key] = build_graph(kernel, n, mc)
    return _GRAPHS[key]


def check_state_invariants(kernel: str, n: int, mc: int, p: int, seed: int):
    """Interleaved moves preserve exact cover, legality and the ledger."""
    graph = cached_graph(kernel, n, mc)
    rng = random.Random(seed)
    owner = partition_graph(graph, p, list(PARTITIONERS)[seed % len(PARTITIONERS)])
    state = CoSearchState(graph, owner, p, S)
    for _ in range(80):
        proposal = state.step(rng)
        if proposal is None:
            continue
        if rng.random() < 0.7:
            proposal[1]()  # commit
    got = state.ledger.owner
    assert len(got) == len(graph)
    assert all(0 <= q < p for q in got)  # exact cover: one owner per op
    assert sorted(state.order) == list(range(len(graph)))
    assert graph.is_valid_order(state.order, relax_reductions=True)
    measured = cosearch_cost(
        graph, got, p, S, order=state.order, relax_reductions=True
    )
    assert state.cost() == measured.cost  # incremental == ground truth


def check_never_worse(kernel: str, n: int, mc: int, p: int, seed: int):
    """cosearch() measured cost <= best measured seed cost; order valid."""
    graph = cached_graph(kernel, n, mc)
    res = cosearch(
        graph, p, S, iters=60, seed=seed,
        search_kwargs={"anneal": {"iters": 25, "seed": seed}},
    )
    assert res.cost <= res.seed_cost
    remeasured = cosearch_cost(
        graph, res.owner, p, S, order=res.order, relax_reductions=True
    )
    assert remeasured.cost == res.cost
    assert res.cost <= min(res.seed_costs.values())
    # the winning order dresses into a validated stream with peak <= S
    rewrite = rewrite_schedule(
        graph.trace, S, res.order, graph=graph, relax_reductions=True
    )
    assert rewrite.summary["peak_occupancy"] <= S


def check_jobs_identity(kernel: str, n: int, mc: int, p: int, seed: int):
    graph = cached_graph(kernel, n, mc)
    kw = dict(iters=40, seed=seed,
              search_kwargs={"anneal": {"iters": 20, "seed": seed}})
    serial = cosearch(graph, p, S, jobs=1, **kw)
    fanned = cosearch(graph, p, S, jobs=4, **kw)
    assert serial.cost == fanned.cost
    assert serial.order == fanned.order
    assert serial.owner == fanned.owner
    assert serial.chain_costs == fanned.chain_costs


if HAVE_HYPOTHESIS:

    @settings(max_examples=8, deadline=None)
    @given(
        kernel=st.sampled_from(["tbs", "ocs"]),
        n=st.integers(min_value=10, max_value=18),
        p=st.sampled_from(PS),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_state_invariants_hypothesis(kernel, n, p, seed):
        check_state_invariants(kernel, n, 3, p, seed)

    @settings(max_examples=6, deadline=None)
    @given(
        kernel=st.sampled_from(["tbs", "ocs"]),
        p=st.sampled_from(PS),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_never_worse_hypothesis(kernel, p, seed):
        check_never_worse(kernel, 14, 3, p, seed)


@pytest.mark.parametrize("kernel", ["tbs", "ocs"])
@pytest.mark.parametrize("p", PS)
def test_state_invariants_seeded(kernel, p):
    rng = random.Random(20220711 + p)
    for _ in range(2):
        check_state_invariants(kernel, rng.choice((12, 16)), 3, p, rng.randrange(2**16))


@pytest.mark.parametrize("kernel", ["tbs", "ocs"])
@pytest.mark.parametrize("p", PS)
def test_never_worse_seeded(kernel, p):
    rng = random.Random(777 + p)
    check_never_worse(kernel, 14, 3, p, rng.randrange(2**16))


@pytest.mark.parametrize("p", (2, 4))
def test_jobs_identity_seeded(p):
    check_jobs_identity("tbs", 14, 3, p, 5)
