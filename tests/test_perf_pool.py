"""Determinism contracts of the process-parallel search fabric (PR 7).

Three layers, one invariant — *results never depend on ``jobs``*:

* :mod:`repro.perf.pool` — ``task_seed`` stream splitting (index 0 is the
  identity, so task 0 of any fan-out reproduces the classic serial run),
  ``parallel_map`` order preservation, pool probe counters;
* one-pass Belady sweeps — the grouped OPT-stack pass behind
  ``sweep_replay_trace`` must be bit-identical in loads / stores /
  evict-vs-flush split to the tuple-walking oracle
  (``replay_oracles.belady_replay_reference``) on the same trace at every
  capacity, on synthetic adversarial streams (hypothesis + seeded sweeps)
  and on recorded kernels; ``sweep_replay_trace`` must give the same rows
  serial and sharded, and as per-capacity ``belady_replay_trace`` calls;
* multi-chain annealing and multi-seed refinement — ``jobs=4`` bit-equal
  to the documented serial reduction (chain portfolio: min by
  ``(cost, chain_index)``; refine: seed-list order), with chain/seed 0
  reproducing the single-run API.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph.compare import record_case
from repro.graph.dependency import DependencyGraph
from repro.graph.search import anneal_search
from repro.obs.probe import probe_scope
from repro.parallel.executor import partition_graph
from repro.parallel.refine import refine_partition, refine_partitions
from repro.perf.pool import SearchPool, parallel_map, task_seed
from repro.trace.compiled import CompiledTrace
from repro.trace.replay import _live_peak, belady_replay_trace, sweep_replay_trace
from replay_oracles import belady_replay_reference, lru_replay_reference

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
    """The grouped OPT-stack counts == the oracle's on the same trace."""
    (one,) = sweep_replay_trace(trace, [capacity], policy="belady")
    ref = belady_replay_reference(trace, capacity)
    assert (one.loads, one.stores, one.evict_stores, one.distinct) == (
        ref.loads, ref.stores, ref.evict_stores, ref.distinct), capacity
    # flush split is derived (stores - evict_stores) but assert it anyway
    assert one.stores - one.evict_stores == ref.stores - ref.evict_stores


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


def test_live_peak_is_the_exact_boundary():
    """At the live peak only cold accesses miss; one below it a reuse misses.

    Capacities at or above the peak skip the OPT-stack pass on the
    strength of this and take their counts from a closed form, so both
    are pinned against the oracle, and a sweep whose grid straddles the
    peak walks the stack once and equals per-capacity calls.
    """
    key = lambda r: (r.loads, r.stores, r.evict_stores)
    rng = np.random.default_rng(2024)
    traces = [build_trace(*random_stream(rng)) for _ in range(60)]
    traces += [
        record_case(kernel, n, mc, 15).trace
        for kernel, n, mc in (("tbs", 24, 4), ("ocs", 24, 4), ("syr2k", 18, 3), ("chol", 16, 0))
    ]
    for trace in traces:
        peak = _live_peak(trace)
        at = belady_replay_trace(trace, peak)
        assert at.loads == at.distinct == np.unique(trace.elem_ids).size
        assert key(at) == key(belady_replay_reference(trace, peak))
        if peak > 1:
            assert belady_replay_trace(trace, peak - 1).loads > at.distinct
        caps = sorted({max(1, c) for c in (peak // 2, peak - 1, peak, peak + 1, 2 * peak)})
        with probe_scope() as probe:
            rows = sweep_replay_trace(trace, caps)
        below = sum(c < peak for c in caps)
        assert probe.counters.get("replay.belady.sweep_one_pass", 0) == min(below, 1)
        assert [key(r) for r in rows] == [key(belady_replay_trace(trace, c)) for c in caps]
        assert [key(r) for r in rows] == [key(belady_replay_reference(trace, c)) for c in caps]


def test_sweep_rows_independent_of_jobs_and_method():
    """Sweep rows equal the oracles' per-capacity counts, serial and sharded."""
    trace = record_case("tbs", 24, 4, 15).trace
    caps = [1, 7, 15, 16, 30, 60, 240, 10**6]
    for policy, single in (("lru", lru_replay_reference), ("belady", belady_replay_reference)):
        base = [single(trace, c) for c in caps]
        for jobs in (1, 3, 4):
            got = sweep_replay_trace(trace, caps, policy=policy, jobs=jobs)
            assert [(r.loads, r.stores, r.evict_stores) for r in got] == [
                (r.loads, r.stores, r.evict_stores) for r in base], (policy, jobs)


def test_sweep_tasks_ship_only_what_workers_read(monkeypatch):
    """However much the parent has cached, a pool task pickles to no more
    than the trace before any sweep plus the artifacts its worker reads,
    its Belady buckets take one byte per access, and its rows equal the
    serial sweep's."""
    import pickle

    import repro.perf.pool as pool

    trace = record_case("tbs", 40, 6, 15).trace
    before = len(pickle.dumps(trace))
    caps = [16, 64, 256, 10**6]
    serial = {p: sweep_replay_trace(trace, caps, policy=p) for p in ("lru", "belady")}
    assert "opt_entries" in trace._replay_cache
    tasks = []
    real = pool.parallel_map
    monkeypatch.setattr(
        pool, "parallel_map",
        lambda fn, items, jobs: tasks.extend(items) or real(fn, items, jobs=jobs),
    )
    for policy, artifacts in (("lru", {"lru_dist", "elem_runs"}),
                              ("belady", {"elem_runs", "above_peak"})):
        tasks.clear()
        assert sweep_replay_trace(trace, caps, policy=policy, jobs=2) == serial[policy]
        assert len(tasks) == 2
        for task in tasks:
            shipped = task[0]
            assert shipped.ops is None and set(shipped._replay_cache) == artifacts
            read = pickle.dumps((shipped._next_use, shipped._replay_cache, *task[1:]))
            assert len(pickle.dumps(task)) <= before + len(read)
            if policy == "belady":
                assert task[2].itemsize == 1  # one byte per access
    assert len(pickle.dumps(trace)) > before + len(read)  # what the parent holds


def test_sweep_preserves_input_order_and_duplicates():
    trace = record_case("tbs", 20, 3, 15).trace
    caps = [60, 1, 15, 1, 60]
    rows = sweep_replay_trace(trace, caps, policy="belady")
    assert rows[0].loads == rows[4].loads
    assert rows[1].loads == rows[3].loads
    assert rows[1].loads >= rows[2].loads >= rows[0].loads


def test_unknown_policy_rejected():
    trace = record_case("tbs", 20, 3, 15).trace
    with pytest.raises(ConfigurationError):
        sweep_replay_trace(trace, [15], policy="fifo")


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
