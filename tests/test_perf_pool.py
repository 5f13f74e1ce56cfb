"""Determinism contracts of the process-parallel search fabric (PR 7).

Three layers, one invariant — *results never depend on ``jobs``*:

* :mod:`repro.perf.pool` — ``task_seed`` stream splitting (index 0 is the
  identity, so task 0 of any fan-out reproduces the classic serial run),
  ``parallel_map`` order preservation, pool probe counters;
* one-pass Belady sweeps — the grouped OPT-stack pass behind
  ``sweep_replay_trace`` must be bit-identical in loads / stores /
  evict-vs-flush split to the single-capacity chunked engine
  (``belady_replay_trace``) on the same trace at every capacity, on
  synthetic adversarial streams (hypothesis + seeded sweeps) and on
  recorded kernels; ``sweep_replay_trace`` must give the same rows serial
  and sharded;
* multi-chain annealing and multi-seed refinement — ``jobs=4`` bit-equal
  to the documented serial reduction (chain portfolio: min by
  ``(cost, chain_index)``; refine: seed-list order), with chain/seed 0
  reproducing the single-run API.

Also pins the ``scalar_run`` crossover bugfix: the scalar and vectorized
modes of the chunked engine agree at the boundary capacity where the old
hard-wired threshold flipped behavior, and with the reference walker.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph.compare import record_case, sweep_case
from repro.graph.dependency import DependencyGraph
from repro.graph.search import anneal_search
from repro.obs.probe import probe_scope
from repro.parallel.executor import partition_graph
from repro.parallel.refine import refine_partition, refine_partitions
from repro.perf.pool import SearchPool, parallel_map, task_seed
from repro.trace import replay
from repro.trace.compiled import CompiledTrace
from repro.trace.replay import (
    _SCALAR_RUN,
    belady_replay_trace,
    lru_replay_trace,
    sweep_replay_trace,
)
from replay_oracles import belady_replay_reference

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


# ---------------------------------------------------------------------------
# helpers


def build_trace(ids, writes, op_sizes):
    ids = np.asarray(ids, dtype=np.int64)
    _uniq, ids = np.unique(ids, return_inverse=True)
    ids = ids.astype(np.int64)
    n_elem = int(ids.max()) + 1 if ids.size else 0
    op_starts = np.zeros(len(op_sizes) + 1, dtype=np.int64)
    np.cumsum(np.asarray(op_sizes, dtype=np.int64), out=op_starts[1:])
    return CompiledTrace(
        matrices=("M",),
        shapes={"M": (1, max(n_elem, 1))},
        elem_ids=ids,
        is_write=np.asarray(writes, dtype=bool),
        op_starts=op_starts,
        op_read_ends=op_starts[1:].copy(),
        key_matrix=np.zeros(n_elem, dtype=np.int32),
        key_flat=np.arange(n_elem, dtype=np.int64),
        ops=None,
    )


def random_stream(rng):
    n = int(rng.integers(1, 120))
    n_keys = int(rng.integers(1, max(2, n // 2) + 1))
    ids = rng.integers(0, n_keys, size=n)
    writes = rng.random(n) < float(rng.uniform(0.0, 0.8))
    n_ops = int(rng.integers(1, 6))
    cuts = np.sort(rng.integers(0, n + 1, size=n_ops - 1))
    op_sizes = np.diff(np.concatenate([[0], cuts, [n]]))
    return ids, writes, op_sizes


def assert_one_pass_matches(trace, capacity):
    """The grouped OPT-stack counts == the chunked engine's on the same trace."""
    (one,) = sweep_replay_trace(trace, [capacity], policy="belady")
    sim = belady_replay_trace(trace, capacity)
    assert (one.loads, one.stores, one.evict_stores, one.distinct) == (
        sim.loads, sim.stores, sim.evict_stores, sim.distinct), capacity
    # flush split is derived (stores - evict_stores) but assert it anyway
    assert one.stores - one.evict_stores == sim.stores - sim.evict_stores


def square(x):  # module-level: picklable for ProcessPoolExecutor workers
    return x * x


# ---------------------------------------------------------------------------
# pool primitives


class TestTaskSeed:
    def test_index_zero_is_identity(self):
        for seed in (0, 1, 17, 2**40):
            assert task_seed(seed, 0) == seed

    def test_deterministic_and_distinct(self):
        seeds = [task_seed(42, i) for i in range(64)]
        assert seeds == [task_seed(42, i) for i in range(64)]
        assert len(set(seeds)) == 64
        assert all(0 <= s < 2**63 for s in seeds)

    def test_streams_disjoint_across_master_seeds(self):
        a = {task_seed(1, i) for i in range(1, 32)}
        b = {task_seed(2, i) for i in range(1, 32)}
        assert not (a & b)

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            task_seed(0, -1)


class TestParallelMap:
    def test_serial_and_parallel_agree_in_order(self):
        items = list(range(23))
        expect = [square(x) for x in items]
        assert parallel_map(square, items, jobs=1) == expect
        assert parallel_map(square, items, jobs=4) == expect
        assert parallel_map(square, items, jobs=4, chunk_size=2) == expect

    def test_empty_and_single(self):
        assert parallel_map(square, [], jobs=4) == []
        assert parallel_map(square, [3], jobs=4) == [9]

    def test_pool_counters_serial(self):
        with probe_scope() as probe:
            with SearchPool(jobs=1) as pool:
                pool.map(square, [1, 2, 3])
        assert probe.counters["pool.tasks"] == 3
        assert "pool.workers" not in probe.counters
        assert "pool.map" in probe.timers

    def test_pool_counters_parallel(self):
        with probe_scope() as probe:
            parallel_map(square, list(range(8)), jobs=2)
        assert probe.counters["pool.tasks"] == 8
        assert probe.counters["pool.workers"] == 2
        assert probe.counters["pool.chunks"] >= 2


# ---------------------------------------------------------------------------
# one-pass Belady sweeps

CAPACITIES = (1, 2, 3, 5, 8, 13, 64)


if HAVE_HYPOTHESIS:

    @st.composite
    def streams(draw):
        n = draw(st.integers(min_value=1, max_value=80))
        n_keys = draw(st.integers(min_value=1, max_value=max(1, n)))
        ids = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_keys - 1),
                min_size=n, max_size=n,
            )
        )
        writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return ids, writes, [n]

    @settings(max_examples=60, deadline=None)
    @given(stream=streams(), capacity=st.integers(min_value=1, max_value=12))
    def test_one_pass_bit_identical_hypothesis(stream, capacity):
        ids, writes, op_sizes = stream
        assert_one_pass_matches(build_trace(ids, writes, op_sizes), capacity)


def test_one_pass_bit_identical_seeded_sweep():
    rng = np.random.default_rng(7777)
    for _ in range(60):
        ids, writes, op_sizes = random_stream(rng)
        trace = build_trace(ids, writes, op_sizes)
        for capacity in CAPACITIES:
            assert_one_pass_matches(trace, capacity)


@pytest.mark.parametrize("kernel,n,mc", [("tbs", 24, 4), ("syr2k", 18, 3), ("chol", 16, 0)])
def test_one_pass_on_recorded_kernels(kernel, n, mc):
    trace = record_case(kernel, n, mc, 15).trace
    distinct = int(trace.n_elements)
    for capacity in (1, 7, 14, 15, 16, 30, distinct, distinct + 5):
        assert_one_pass_matches(trace, capacity)


def test_sweep_rows_independent_of_jobs_and_method():
    """Sweep rows equal per-capacity single calls, serial and sharded.

    For Belady the single calls run the chunked engine, so the rows are
    also pinned across the two Belady engines.
    """
    trace = record_case("tbs", 24, 4, 15).trace
    caps = [1, 7, 15, 16, 30, 60, 240, 10**6]
    for policy, single in (("lru", lru_replay_trace), ("belady", belady_replay_trace)):
        base = [single(trace, c) for c in caps]
        for jobs in (1, 3, 4):
            got = sweep_replay_trace(trace, caps, policy=policy, jobs=jobs)
            assert [(r.loads, r.stores, r.evict_stores) for r in got] == [
                (r.loads, r.stores, r.evict_stores) for r in base], (policy, jobs)


def test_sweep_preserves_input_order_and_duplicates():
    trace = record_case("tbs", 20, 3, 15).trace
    caps = [60, 1, 15, 1, 60]
    rows = sweep_replay_trace(trace, caps, policy="belady")
    assert rows[0].loads == rows[4].loads
    assert rows[1].loads == rows[3].loads
    assert rows[1].loads >= rows[2].loads >= rows[0].loads


def test_sweep_case_shape():
    case = record_case("tbs", 20, 3, 15)
    out = sweep_case(case, [15, 30], jobs=2)
    assert set(out) == {"lru", "belady"}
    assert all(len(rows) == 2 for rows in out.values())
    assert out["belady"][0].loads <= out["lru"][0].loads


def test_unknown_policy_rejected():
    trace = record_case("tbs", 20, 3, 15).trace
    with pytest.raises(ConfigurationError):
        sweep_replay_trace(trace, [15], policy="fifo")


def test_scalar_run_threshold_override_regression(monkeypatch):
    """Scalar and vectorized chunked modes agree at the crossover capacity.

    The old code hard-wired the run threshold; a capacity equal to it chose
    engine modes inconsistently between entry and the mid-replay switch.
    Forcing each mode through ``_SCALAR_RUN`` (read at call time) must give
    the reference walker's counts.
    """
    rng = np.random.default_rng(31337)
    key = lambda r: (r.loads, r.stores, r.evict_stores)
    for _ in range(8):
        ids, writes, op_sizes = random_stream(rng)
        trace = build_trace(ids, writes, op_sizes)
        for capacity in (_SCALAR_RUN - 1, _SCALAR_RUN, _SCALAR_RUN + 1):
            ref = key(belady_replay_reference(trace, capacity))
            for threshold in (0, 10**9, _SCALAR_RUN):
                monkeypatch.setattr(replay, "_SCALAR_RUN", threshold)
                assert key(belady_replay_trace(trace, capacity)) == ref, threshold


# ---------------------------------------------------------------------------
# search / refine fan-outs


@pytest.fixture(scope="module")
def tbs_graph():
    case = record_case("tbs", 24, 4, 15)
    return DependencyGraph.from_trace(case.trace)


def test_multi_chain_jobs_invariant(tbs_graph):
    serial = anneal_search(tbs_graph, 15, iters=150, seed=3, chains=3, jobs=1)
    fanned = anneal_search(tbs_graph, 15, iters=150, seed=3, chains=3, jobs=4)
    assert serial.cost == fanned.cost
    assert serial.order == fanned.order
    strip = lambda p: {k: v for k, v in p.items() if k != "jobs"}
    assert strip(serial.params) == strip(fanned.params)  # jobs is provenance only


def test_chain_zero_reproduces_single_chain(tbs_graph):
    single = anneal_search(tbs_graph, 15, iters=150, seed=3)
    multi = anneal_search(tbs_graph, 15, iters=150, seed=3, chains=4, jobs=2)
    # chain 0 runs the identical (seed, t_start) schedule as chains=1 ...
    assert multi.params["chain_costs"][0] == single.cost
    # ... so the portfolio min can never be worse than the classic run,
    # and ties resolve to the lowest chain index (documented reduction).
    assert multi.cost <= single.cost
    best = min(multi.params["chain_costs"])
    assert multi.params["winner_chain"] == multi.params["chain_costs"].index(best)


def test_multi_seed_refine_jobs_invariant(tbs_graph):
    owners = [
        list(partition_graph(tbs_graph, 4, part))
        for part in ("level-greedy", "locality")
    ]
    kwargs = dict(strategy="anneal", iters=120, eval_policy="belady")
    serial = refine_partitions(tbs_graph, owners, 4, 15, jobs=1, seed=5, **kwargs)
    fanned = refine_partitions(tbs_graph, owners, 4, 15, jobs=4, seed=5, **kwargs)
    assert [(r.cost, r.owner) for r in serial] == [(r.cost, r.owner) for r in fanned]
    for r in fanned:
        assert r.cost <= r.seed_cost  # never-worse survives the fan-out
        assert r.graph is tbs_graph  # parent reattached the shared DAG
    # seed index 0 reproduces the single-run API bit for bit
    lone = refine_partition(tbs_graph, owners[0], 4, 15, seed=5, **kwargs)
    assert (lone.cost, lone.owner) == (fanned[0].cost, fanned[0].owner)
