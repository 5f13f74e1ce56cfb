"""Property-based checks for transfer-aware partition refinement.

Two generators feed the same invariants — mirroring the
``tests/test_search_property.py`` pattern (hypothesis when available, a
seeded random sweep otherwise, so the suite does not depend on the
package):

* refinement always returns a *legal exact-cover* assignment: every op
  owned by exactly one node in ``0..p-1`` — across kernels, partitioner
  seeds, refine seeds and ``p in {2, 4, 16}``;
* the measured objective never increases over the seed partition:
  ``max_q(recv_q + transfer_in_q)`` of the returned assignment is ``<=``
  the seed's, re-measured independently with :func:`partition_cost`;
* the returned bookkeeping is consistent: ``cost``/``seed_cost`` equal
  independent re-measurements, and a reverted run hands the seed back
  verbatim;
* with ``keep_writers_together`` every written element still has exactly
  one owning node (the write-group constraint of the owner-computes
  partitioner).
"""

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.baselines.ooc_syrk import ooc_syrk
from repro.core.tbs import tbs_syrk
from repro.graph.dependency import DependencyGraph
from repro.parallel import (
    PARTITIONERS,
    partition_cost,
    partition_graph,
    refine_partition,
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


def build_graph(kernel_name: str, n: int, mc: int, s: int) -> DependencyGraph:
    kernel = tbs_syrk if kernel_name == "tbs" else ooc_syrk
    m = TwoLevelMachine(s, numerics=False)
    m.add_matrix("A", np.zeros((n, mc)))
    m.add_matrix("C", np.zeros((n, n)))
    schedule = record_schedule(m, lambda: kernel(m, "A", "C", range(n), range(mc)))
    return DependencyGraph.from_trace(compile_trace(schedule))


def check_refinement(graph, p, s, partitioner, strategy, seed, keep_writers):
    seed_owner = partition_graph(graph, p, partitioner)
    result = refine_partition(
        graph, seed_owner, p, s, strategy=strategy, iters=60, max_moves=24,
        seed=seed, keep_writers_together=keep_writers,
    )
    label = (partitioner, strategy, p, seed)
    # legal exact cover: every op owned exactly once, owners in range
    assert len(result.owner) == len(graph), label
    assert all(0 <= q < p for q in result.owner), label
    # never worse than the seed, on independent re-measurement
    measured = partition_cost(graph, result.owner, p, s)
    measured_seed = partition_cost(graph, seed_owner, p, s)
    assert measured == result.cost, label
    assert measured_seed == result.seed_cost, label
    assert measured <= measured_seed, label
    if result.reverted:
        assert result.owner == tuple(seed_owner), label
    if keep_writers:
        writer: dict[int, int] = {}
        for v, node in enumerate(graph.nodes):
            for key in node.write_keys:
                assert writer.setdefault(key, result.owner[v]) == result.owner[v]


if HAVE_HYPOTHESIS:

    @settings(max_examples=10, deadline=None)
    @given(
        kernel=st.sampled_from(["tbs", "ocs"]),
        n=st.integers(min_value=8, max_value=22),
        mc=st.integers(min_value=1, max_value=3),
        s=st.integers(min_value=9, max_value=24),
        p=st.sampled_from(PS),
        partitioner=st.sampled_from(PARTITIONERS),
        strategy=st.sampled_from(["greedy", "anneal"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_refinement_legal_and_never_worse_hypothesis(
        kernel, n, mc, s, p, partitioner, strategy, seed
    ):
        graph = build_graph(kernel, n, mc, s)
        check_refinement(graph, p, s, partitioner, strategy, seed,
                         keep_writers=False)

    @settings(max_examples=6, deadline=None)
    @given(
        n=st.integers(min_value=10, max_value=20),
        mc=st.integers(min_value=1, max_value=2),
        p=st.sampled_from(PS),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_refinement_write_constraint_hypothesis(n, mc, p, seed):
        graph = build_graph("tbs", n, mc, 12)
        check_refinement(graph, p, 12, "owner-computes", "greedy", seed,
                         keep_writers=True)


def test_refinement_legal_and_never_worse_seeded_sweep():
    rng = np.random.default_rng(2026)
    for _ in range(6):
        kernel = "tbs" if rng.random() < 0.5 else "ocs"
        n = int(rng.integers(8, 22))
        mc = int(rng.integers(1, 4))
        s = int(rng.integers(9, 25))
        p = int(rng.choice(PS))
        partitioner = str(rng.choice(PARTITIONERS))
        strategy = "greedy" if rng.random() < 0.5 else "anneal"
        graph = build_graph(kernel, n, mc, s)
        check_refinement(graph, p, s, partitioner, strategy,
                         int(rng.integers(0, 2**16)), keep_writers=False)


def test_refinement_write_constraint_seeded_sweep():
    rng = np.random.default_rng(9)
    for _ in range(3):
        n = int(rng.integers(10, 21))
        mc = int(rng.integers(1, 3))
        p = int(rng.choice(PS))
        graph = build_graph("tbs", n, mc, 12)
        check_refinement(graph, p, 12, "owner-computes", "greedy",
                         int(rng.integers(0, 2**16)), keep_writers=True)
