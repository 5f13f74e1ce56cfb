"""Property-based cross-checks: vectorized replays vs the reference walkers.

Two generators feed the same invariant — the array engines must return
bit-identical ``loads`` / ``stores`` / ``distinct`` to the tuple-per-touch
reference paths at every capacity:

* *synthetic streams*: adversarial raw access sequences (arbitrary element
  IDs, write flags, op boundaries) built directly as
  :class:`~repro.trace.compiled.CompiledTrace` arrays, hammering the
  reuse-distance LRU counts and the Belady OPT stack (one capacity and
  sweeps) at tiny capacities;
* *recorded op streams*: genuine kernel schedules at random shapes, which
  additionally exercise the vectorized compilation itself against
  the tuple-per-touch traversal of ``replay_oracles``.

Hypothesis drives the synthetic generator when available; a seeded random
sweep covers the same space otherwise, so the suite does not depend on the
package.
"""

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.baselines.ooc_syrk import ooc_syrk
from repro.core.tbs import tbs_syrk
from repro.sched.schedule import ComputeStep, Schedule, record_schedule, replay_schedule
from repro.trace.compiled import CompiledTrace, compile_trace
from repro.trace.io import load_schedule, load_trace, save_schedule, save_trace
from repro.trace.replay import belady_replay_trace, lru_replay_trace, sweep_replay_trace
from replay_oracles import (
    access_sequence_reference,
    belady_replay_reference,
    lru_replay_reference,
    to_access_sequence,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


def build_trace(ids, writes, op_sizes):
    ids = np.asarray(ids, dtype=np.int64)
    # densify IDs so key tables stay small
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


def assert_replays_match(trace, capacity):
    key = lambda r: (r.loads, r.stores, r.evict_stores, r.distinct)
    fast_lru = lru_replay_trace(trace, capacity)
    ref_lru = lru_replay_reference(trace, capacity)
    assert key(fast_lru) == key(ref_lru), ("lru", capacity)
    fast_min = belady_replay_trace(trace, capacity)
    (sweep_min,) = sweep_replay_trace(trace, [capacity], policy="belady")
    ref_min = belady_replay_reference(trace, capacity)
    assert key(fast_min) == key(ref_min), ("belady", capacity)
    assert key(sweep_min) == key(ref_min), ("belady-sweep", capacity)
    assert fast_min.loads <= fast_lru.loads


def random_stream(rng):
    n = int(rng.integers(1, 120))
    n_keys = int(rng.integers(1, max(2, n // 2) + 1))
    ids = rng.integers(0, n_keys, size=n)
    writes = rng.random(n) < float(rng.uniform(0.0, 0.8))
    # random op boundaries (including empty ops)
    n_ops = int(rng.integers(1, 6))
    cuts = np.sort(rng.integers(0, n + 1, size=n_ops - 1))
    op_sizes = np.diff(np.concatenate([[0], cuts, [n]]))
    return ids, writes, op_sizes


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
    def test_replays_bit_identical_hypothesis(stream, capacity):
        ids, writes, op_sizes = stream
        assert_replays_match(build_trace(ids, writes, op_sizes), capacity)


def test_replays_bit_identical_seeded_sweep():
    rng = np.random.default_rng(1234)
    for _ in range(80):
        ids, writes, op_sizes = random_stream(rng)
        trace = build_trace(ids, writes, op_sizes)
        for capacity in (1, 2, 3, 8, 64):
            assert_replays_match(trace, capacity)


def test_recorded_streams_random_shapes():
    rng = np.random.default_rng(99)
    for _ in range(6):
        n = int(rng.integers(8, 30))
        mc = int(rng.integers(1, 5))
        s = int(rng.integers(7, 40))
        kernel = tbs_syrk if rng.random() < 0.5 else ooc_syrk
        m = TwoLevelMachine(s, numerics=False)
        m.add_matrix("A", np.zeros((n, mc)))
        m.add_matrix("C", np.zeros((n, n)))
        sched = record_schedule(m, lambda: kernel(m, "A", "C", range(n), range(mc)))
        trace = compile_trace(sched)
        assert to_access_sequence(trace) == access_sequence_reference(sched)
        for capacity in (1, s, 4 * s):
            assert_replays_match(trace, capacity)


def assert_schedule_roundtrip(sched, path):
    """Save/load ``sched``; the container must preserve the access stream."""
    save_schedule(sched, path)
    loaded = load_schedule(path)
    assert loaded.shapes == sched.shapes
    assert loaded.counts() == sched.counts()
    assert loaded.io_volume() == sched.io_volume()
    assert to_access_sequence(compile_trace(loaded)) == to_access_sequence(compile_trace(sched))
    return loaded


def test_zero_op_schedule_roundtrip(tmp_path):
    empty = Schedule(steps=[], shapes={"A": (2, 3)})
    loaded = assert_schedule_roundtrip(empty, tmp_path / "empty.npz")
    assert loaded.steps == []


def test_single_op_schedule_roundtrip(tmp_path):
    m = TwoLevelMachine(8, numerics=False)
    m.add_matrix("A", np.zeros((6, 2)))
    m.add_matrix("C", np.zeros((6, 6)))
    full = record_schedule(m, lambda: tbs_syrk(m, "A", "C", range(6), range(2)))
    compute = next(s for s in full.steps if isinstance(s, ComputeStep))
    single = Schedule(steps=[compute], shapes=dict(full.shapes))
    loaded = assert_schedule_roundtrip(single, tmp_path / "one.npz")
    assert loaded.counts() == {"load": 0, "evict": 0, "compute": 1}


def test_relaxed_reduction_schedule_roundtrip(tmp_path):
    from repro.graph.compare import record_case
    from repro.graph.dependency import DependencyGraph
    from repro.graph.rewriter import rewrite_schedule
    from repro.graph.search import search_order

    case = record_case("tbs", 10, 2, 8)
    graph = DependencyGraph.from_trace(case.trace)
    found = search_order(
        graph, 8, "anneal", iters=40, seed=1, relax_reductions=True
    )
    relaxed = rewrite_schedule(
        case.trace, 8, found.order, graph=graph, relax_reductions=True
    ).schedule
    loaded = assert_schedule_roundtrip(relaxed, tmp_path / "relaxed.npz")
    # The relaxed order reassociates FP sums, so it need not match the
    # recorded reference — but the *loaded* copy must replay to results
    # bit-identical to the in-memory schedule it round-tripped from.
    results = []
    for sched in (relaxed, loaded):
        m = case.make_machine()
        replay_schedule(sched, m)
        m.assert_empty()
        results.append(m.result("C"))
    assert np.array_equal(results[0], results[1])


def test_empty_trace_roundtrip(tmp_path):
    trace = build_trace([], [], [0])
    save_trace(trace, tmp_path / "empty.npz")
    loaded = load_trace(tmp_path / "empty.npz")
    assert loaded.n_accesses == 0
    assert lru_replay_trace(loaded, 3).loads == 0
    assert belady_replay_trace(loaded, 3).loads == 0


def test_npz_roundtrip_preserves_replays(tmp_path):
    rng = np.random.default_rng(5)
    for i in range(5):
        ids, writes, op_sizes = random_stream(rng)
        trace = build_trace(ids, writes, op_sizes)
        path = tmp_path / f"t{i}.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        for capacity in (1, 3, 17):
            a = lru_replay_trace(trace, capacity)
            b = lru_replay_trace(loaded, capacity)
            assert (a.loads, a.stores) == (b.loads, b.stores)
            a = belady_replay_trace(trace, capacity)
            b = belady_replay_trace(loaded, capacity)
            assert (a.loads, a.stores) == (b.loads, b.stores)
