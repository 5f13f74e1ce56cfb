"""Tests for the compiled trace IR (repro.trace): compilation, replays, io."""

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.analysis.lru_replay import lru_replay
from repro.baselines.lu import ooc_lu
from repro.baselines.ooc_chol import ooc_chol
from repro.baselines.ooc_syrk import ooc_syrk
from repro.baselines.ooc_trsm import ooc_trsm
from repro.core.syr2k import tbs_syr2k
from repro.core.tbs import tbs_syrk
from repro.errors import ConfigurationError, ScheduleError
from repro.graph.compare import record_case
from repro.graph.dependency import DependencyGraph, dependency_graph
from repro.graph.policies import belady_replay
from repro.graph.rewriter import rewrite_trace
from repro.machine.regions import Region
from repro.sched.schedule import ComputeStep, record_schedule, replay_schedule
from repro.trace.compiled import CompiledTrace, compile_trace
from repro.sched.columns import OP_SPECS
from repro.sched.ops import ComputeOp
from repro.trace.io import (
    file_kind,
    load_schedule,
    load_trace,
    save_schedule,
    save_trace,
)
from repro.trace.replay import (
    LruCursor,
    belady_replay_trace,
    lru_replay_trace,
    sweep_replay_trace,
)
from repro.utils.rng import (
    random_diag_dominant_matrix,
    random_lower_triangular,
    random_tall_matrix,
)
from replay_oracles import (
    access_sequence_reference,
    belady_replay_reference,
    lru_replay_reference,
    to_access_sequence,
)


def recorded(kernel, n, mc, s):
    m = TwoLevelMachine(s, numerics=False)
    if kernel is ooc_chol:
        m.add_matrix("A", np.zeros((n, n)))
        return record_schedule(m, lambda: kernel(m, "A", range(n)))
    m.add_matrix("A", np.zeros((n, mc)))
    m.add_matrix("C", np.zeros((n, n)))
    if kernel is tbs_syr2k:
        m.add_matrix("B", np.zeros((n, mc)))
        return record_schedule(m, lambda: kernel(m, "A", "B", "C", range(n), range(mc)))
    return record_schedule(m, lambda: kernel(m, "A", "C", range(n), range(mc)))


@pytest.fixture(scope="module", params=["tbs", "ocs", "syr2k", "chol"])
def sched(request):
    kernel = {
        "tbs": tbs_syrk, "ocs": ooc_syrk, "syr2k": tbs_syr2k, "chol": ooc_chol,
    }[request.param]
    n, mc = (20, 0) if request.param == "chol" else (26, 3)
    return recorded(kernel, n, mc, 15)


def numeric_case(name):
    """(schedule, fresh-machine factory, reference results) of a numeric run.

    ``lu`` and ``trsm`` are the baselines whose ops (GEMM outer updates,
    the three solve steps, the resident LU) no ``record_case`` kernel uses.
    """
    if name in ("tbs", "syr2k", "chol"):
        n, mc = (16, 0) if name == "chol" else ((26, 3) if name == "tbs" else (24, 3))
        case = record_case(name, n, mc, 15)
        return case.schedule, case.make_machine, {
            r: case.reference[r] for r in case.result_names
        }
    if name == "lu":
        n, s = 14, 20
        a = random_diag_dominant_matrix(n, seed=0)

        def make_machine():
            m = TwoLevelMachine(s)
            m.add_matrix("A", a)
            return m

        m = make_machine()
        schedule = record_schedule(m, lambda: ooc_lu(m, "A", range(n)))
        return schedule, make_machine, {"A": m.result("A").copy()}
    assert name == "trsm"
    ntri, mrows = 13, 9
    l = random_lower_triangular(ntri, seed=0)
    b = random_tall_matrix(mrows, ntri, seed=1)

    def make_machine():
        m = TwoLevelMachine(15)
        m.add_matrix("L", l)
        m.add_matrix("B", b)
        return m

    m = make_machine()
    schedule = record_schedule(
        m, lambda: ooc_trsm(m, "L", "B", range(ntri), range(mrows))
    )
    return schedule, make_machine, {"B": m.result("B").copy()}


NUMERIC_CASES = ("tbs", "syr2k", "chol", "lu", "trsm")


@pytest.fixture(scope="module")
def numeric_cases():
    return {name: numeric_case(name) for name in NUMERIC_CASES}


def synthetic_trace(ids, writes, op_sizes=None):
    """Build a CompiledTrace directly from raw arrays (one fake matrix)."""
    ids = np.asarray(ids, dtype=np.int64)
    writes = np.asarray(writes, dtype=bool)
    n_elem = int(ids.max()) + 1 if ids.size else 0
    if op_sizes is None:
        op_sizes = [ids.size]
    op_starts = np.zeros(len(op_sizes) + 1, dtype=np.int64)
    np.cumsum(np.asarray(op_sizes, dtype=np.int64), out=op_starts[1:])
    return CompiledTrace(
        matrices=("M",),
        shapes={"M": (1, max(n_elem, 1))},
        elem_ids=ids,
        is_write=writes,
        op_starts=op_starts,
        op_read_ends=op_starts[1:].copy(),
        key_matrix=np.zeros(n_elem, dtype=np.int32),
        key_flat=np.arange(n_elem, dtype=np.int64),
        ops=None,
    )


class _StubOp(ComputeOp):
    """An op that only declares its regions (the compile never applies it)."""

    name = "stub"

    def __init__(self, reads, writes):
        self._reads, self._writes = reads, writes

    def reads(self):
        return self._reads

    def writes(self):
        return self._writes


def _r(matrix, flats):
    return Region(matrix, np.asarray(flats, dtype=np.int64))


class TestCompileGeneralOps:
    """The branches no library op reaches: every op here writes something
    its reads do not cover, or has a region shape the kernels never use."""

    OPS = {
        "write-only extras": [
            _StubOp([_r("A", [0, 1]), _r("C", [4])], [_r("C", [3, 4, 5]), _r("A", [1])]),
        ],
        "write repeated across two regions": [
            _StubOp([_r("A", [2])], [_r("C", [1, 2]), _r("C", [2, 3])]),
            _StubOp([_r("C", [2, 3])], [_r("C", [2]), _r("C", [2, 7])]),
        ],
        "no reads": [
            _StubOp([], [_r("B", [8, 9])]),
            _StubOp([_r("B", [9])], [_r("B", [9])]),
        ],
        "empty regions": [
            _StubOp([_r("A", []), _r("A", [5])], [_r("C", [])]),
            _StubOp([_r("C", [])], []),
            _StubOp([], []),
        ],
        "read repeated across two regions": [
            _StubOp([_r("A", [0, 1]), _r("A", [1, 2])], [_r("A", [1])]),
        ],
    }

    @pytest.mark.parametrize("case", sorted(OPS))
    def test_matches_reference_sequence(self, case):
        ops = self.OPS[case]
        trace = compile_trace(ops)
        assert to_access_sequence(trace) == access_sequence_reference(ops)
        n_reads = [sum(r.size for r in op.reads()) for op in ops]
        assert (trace.op_read_ends - trace.op_starts[:-1]).tolist() == n_reads
        assert len(set(trace.keys())) == trace.n_elements

    def test_all_cases_in_one_stream(self):
        ops = [op for case in sorted(self.OPS) for op in self.OPS[case]]
        trace = compile_trace(ops)
        assert to_access_sequence(trace) == access_sequence_reference(ops)
        assert trace.matrices == ("A", "C", "B")

    def test_extras_follow_the_reads_in_write_order(self):
        [op] = self.OPS["write-only extras"]
        assert to_access_sequence(compile_trace([op])) == [
            (("A", 0), False), (("A", 1), True), (("C", 4), True),
            (("C", 3), True), (("C", 5), True),
        ]


class TestCompiledTrace:
    def test_matches_reference_sequence(self, sched):
        trace = compile_trace(sched)
        assert to_access_sequence(trace) == access_sequence_reference(sched)

    def test_next_use_matches_python_loop(self, sched):
        trace = compile_trace(sched)
        seq = access_sequence_reference(sched)
        never = len(seq)
        expected = [never] * len(seq)
        last = {}
        for i in range(len(seq) - 1, -1, -1):
            key = seq[i][0]
            expected[i] = last.get(key, never)
            last[key] = i
        assert trace.next_use().tolist() == expected

    def test_prev_access_inverts_next_use(self, sched):
        trace = compile_trace(sched)
        nxt, prev = trace.next_use(), trace.prev_access()
        for p in range(trace.n_accesses):
            if nxt[p] < trace.n_accesses:
                assert prev[nxt[p]] == p

    def test_op_boundaries(self, sched):
        trace = compile_trace(sched)
        starts = trace.op_starts
        assert starts[0] == 0 and starts[-1] == trace.n_accesses
        assert (np.diff(starts) >= 0).all()
        assert (trace.op_read_ends >= starts[:-1]).all()
        assert (trace.op_read_ends <= starts[1:]).all()
        # This library's ops write subsets of their reads: no write extras.
        assert (trace.op_read_ends == starts[1:]).all()

    def test_keys_decode(self, sched):
        trace = compile_trace(sched)
        keys = trace.keys()
        assert len(keys) == trace.n_elements == len(set(keys))
        assert trace.key_of(0) == keys[0]
        assert set(k for k, _w in access_sequence_reference(sched)) == set(keys)

    def test_compile_is_idempotent(self, sched):
        trace = compile_trace(sched)
        assert compile_trace(trace) is trace

    def test_reorder_matches_recompilation(self, sched):
        trace = compile_trace(sched)
        rng = np.random.default_rng(0)
        order = rng.permutation(trace.n_ops).tolist()
        reordered = trace.reorder(order)
        direct = compile_trace([trace.ops[i] for i in order])
        assert to_access_sequence(reordered) == to_access_sequence(direct)
        assert reordered.ops == [trace.ops[i] for i in order]

    def test_reorder_rejects_non_permutation(self, sched):
        trace = compile_trace(sched)
        with pytest.raises(ConfigurationError, match="permutation"):
            trace.reorder([0] * trace.n_ops)

    def test_select_ops_matches_recompilation(self, sched):
        trace = compile_trace(sched)
        subset = list(range(0, trace.n_ops, 3))
        sub = trace.select_ops(subset)
        direct = compile_trace([trace.ops[i] for i in subset])
        assert to_access_sequence(sub) == to_access_sequence(direct)
        assert sub.ops == [trace.ops[i] for i in subset]
        # interning is shared with the parent, not recompiled
        assert sub.n_elements == trace.n_elements
        assert sub.key_flat is trace.key_flat

    def test_select_ops_shards_partition_the_stream(self, sched):
        trace = compile_trace(sched)
        shards = [list(range(q, trace.n_ops, 4)) for q in range(4)]
        subs = [trace.select_ops(s) for s in shards]
        assert sum(t.n_accesses for t in subs) == trace.n_accesses
        # per-op slices are bit-identical to the parent's
        for ops, sub in zip(shards, subs):
            for local, i in enumerate(ops):
                ids, writes = sub.op_slice(local)
                pids, pwrites = trace.op_slice(i)
                assert np.array_equal(ids, pids)
                assert np.array_equal(writes, pwrites)

    def test_select_ops_replay_independent_of_parent(self, sched):
        # Position links / replay caches must be per-sub-trace, so a shard
        # replay equals recompiling the same ops from scratch.
        trace = compile_trace(sched)
        trace.next_use()  # populate the parent's cache first
        subset = list(range(trace.n_ops // 2))
        sub = trace.select_ops(subset)
        direct = compile_trace([trace.ops[i] for i in subset])
        for capacity in (7, 15):
            a = lru_replay_trace(sub, capacity)
            b = lru_replay_trace(direct, capacity)
            assert (a.loads, a.stores) == (b.loads, b.stores)
            a = belady_replay_trace(sub, capacity)
            b = belady_replay_trace(direct, capacity)
            assert (a.loads, a.stores) == (b.loads, b.stores)

    def test_select_ops_rejects_bad_indices(self, sched):
        trace = compile_trace(sched)
        with pytest.raises(ConfigurationError, match="repeat"):
            trace.select_ops([0, 0])
        with pytest.raises(ConfigurationError, match="indices"):
            trace.select_ops([trace.n_ops])
        empty = trace.select_ops([])
        assert empty.n_ops == 0 and empty.n_accesses == 0

    def test_empty_ops(self):
        trace = compile_trace([])
        assert trace.n_accesses == trace.n_ops == trace.n_elements == 0
        assert to_access_sequence(trace) == []
        assert lru_replay_trace(trace, 4).loads == 0
        assert belady_replay_trace(trace, 4).loads == 0


def _three_element_trace():
    """Reads of elements [0, 1, 2, 0, 1, 2], one access per op."""
    return CompiledTrace(
        matrices=("M",),
        shapes={"M": (1, 3)},
        elem_ids=np.array([0, 1, 2, 0, 1, 2], dtype=np.int64),
        is_write=np.zeros(6, dtype=bool),
        op_starts=np.arange(7, dtype=np.int64),
        op_read_ends=np.arange(1, 7, dtype=np.int64),
        key_matrix=np.zeros(3, dtype=np.int32),
        key_flat=np.arange(3, dtype=np.int64),
        ops=None,
    )


#: Every replay entry point, as (name, (trace, capacity) -> result).
CAPACITY_ENTRY_POINTS = (
    ("lru", lru_replay_trace),
    ("belady", belady_replay_trace),
    ("sweep-lru", lambda t, c: sweep_replay_trace(t, [c], policy="lru")[0]),
    ("sweep-belady", lambda t, c: sweep_replay_trace(t, [c], policy="belady")[0]),
    ("lru-public", lru_replay),
    ("belady-public", belady_replay),
    ("lru-reference", lru_replay_reference),
    ("belady-reference", belady_replay_reference),
)


@pytest.mark.parametrize("capacity", [2.5, True, "3", 0, -1])
def test_capacity_must_be_a_positive_integer(capacity):
    """One check for every entry point: no truncating, rounding or bools."""
    trace = _three_element_trace()
    for name, replay in CAPACITY_ENTRY_POINTS:
        with pytest.raises(ConfigurationError, match="capacity"):
            replay(trace, capacity)
    with pytest.raises(ConfigurationError, match="capacity"):
        LruCursor(trace, capacity)


def test_capacity_string_is_not_a_sweep():
    with pytest.raises(ConfigurationError, match="capacity"):
        sweep_replay_trace(_three_element_trace(), "12")  # not capacities 1, 2


def test_numpy_integer_capacity_accepted():
    trace = _three_element_trace()
    for name, replay in CAPACITY_ENTRY_POINTS:
        result = replay(trace, np.int64(3))
        assert type(result.capacity) is int, name
        assert (result.capacity, result.loads) == (3, 3), name
    cursor = LruCursor(trace, np.int64(3))
    assert type(cursor.capacity) is int
    assert cursor.apply(range(trace.n_ops)) == 3


class TestVectorizedReplays:
    CAPACITIES = (1, 2, 7, 15, 31, 10**6)

    def test_lru_matches_reference(self, sched):
        trace = compile_trace(sched)
        rows = sweep_replay_trace(trace, self.CAPACITIES, policy="lru")
        for capacity, row in zip(self.CAPACITIES, rows):
            ref = lru_replay_reference(sched, capacity)
            for fast in (lru_replay_trace(trace, capacity), row):
                assert (fast.loads, fast.stores, fast.evict_stores) == (
                    ref.loads, ref.stores, ref.evict_stores), capacity
                assert fast.n_accesses == ref.n_accesses
                assert fast.distinct == ref.distinct

    def test_belady_matches_reference(self, sched):
        trace = compile_trace(sched)
        rows = sweep_replay_trace(trace, self.CAPACITIES, policy="belady")
        for capacity, row in zip(self.CAPACITIES, rows):
            ref = belady_replay_reference(sched, capacity)
            for fast in (belady_replay_trace(trace, capacity), row):
                assert (fast.loads, fast.stores, fast.evict_stores) == (
                    ref.loads, ref.stores, ref.evict_stores), capacity

    def test_public_entrypoints_accept_traces(self, sched):
        trace = compile_trace(sched)
        assert lru_replay(trace, 15).loads == lru_replay(sched, 15).loads
        assert belady_replay(trace, 15).loads == belady_replay(sched, 15).loads

    def test_belady_never_above_lru(self, sched):
        trace = compile_trace(sched)
        for capacity in (2, 15, 60):
            assert (
                belady_replay_trace(trace, capacity).loads
                <= lru_replay_trace(trace, capacity).loads
            )

    def test_bad_capacity(self, sched):
        trace = compile_trace(sched)
        for fn in (lru_replay_trace, belady_replay_trace):
            with pytest.raises(ConfigurationError):
                fn(trace, 0)

    def test_stores_split(self, sched):
        # stores == eviction writebacks + final flush, in both engines.
        trace = compile_trace(sched)
        r = lru_replay_trace(trace, 7)
        assert 0 <= r.evict_stores <= r.stores


class TestBeladyTieBreak:
    """Regression for the stale dirty-hint tie-break (ISSUE 2 satellite).

    Among equally-distant (never-used-again) victims the documented policy
    prefers clean elements, deferring dirty writebacks to the final flush.
    A policy that consults a stale dirty snapshot (or prefers dirty
    victims) turns those deferred flushes into eviction-time stores, which
    the ``evict_stores`` counter exposes.
    """

    def test_clean_victim_preferred(self):
        # capacity 2: A written, B read, then C forces one eviction.  Both
        # A and B are never used again; evicting clean B costs nothing now,
        # evicting dirty A would force an immediate writeback.
        trace = synthetic_trace([0, 1, 2], [True, False, False])
        for fn in (belady_replay_trace, belady_replay_reference):
            r = fn(trace, 2)
            assert r.loads == 3
            assert r.evict_stores == 0, fn.__name__
            assert r.stores == 1  # A flushed dirty at the end

    def test_write_hit_refreshes_dirty_state(self):
        # A is pushed clean (read), becomes dirty via a later write *hit*:
        # the tie-break must see the live dirty bit, not the push-time one.
        # capacity 2: A read, A write (hit), B read, C read -> evict B.
        trace = synthetic_trace([0, 0, 1, 2], [False, True, False, False])
        for fn in (belady_replay_trace, belady_replay_reference):
            r = fn(trace, 2)
            assert r.loads == 3
            assert r.evict_stores == 0, fn.__name__
            assert r.stores == 1

    def test_dirty_victim_when_no_clean_available(self):
        # capacity 1 forces evicting the dirty element: the writeback is
        # real and must be counted at eviction time.
        trace = synthetic_trace([0, 1], [True, False])
        for fn in (belady_replay_trace, belady_replay_reference):
            r = fn(trace, 1)
            assert r.evict_stores == 1, fn.__name__
            assert r.stores == 1

    def test_randomized_agreement_on_stores(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(3, 60))
            ids = rng.integers(0, max(2, n // 3), size=n)
            writes = rng.random(n) < 0.4
            trace = synthetic_trace(ids, writes)
            for capacity in (1, 2, 3, 5):
                fast = belady_replay_trace(trace, capacity)
                ref = belady_replay_reference(trace, capacity)
                assert (fast.loads, fast.stores, fast.evict_stores) == (
                    ref.loads, ref.stores, ref.evict_stores)


class TestTraceIO:
    def test_trace_roundtrip(self, sched, tmp_path):
        trace = compile_trace(sched)
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.ops is None
        assert loaded.matrices == trace.matrices
        assert loaded.shapes == trace.shapes
        np.testing.assert_array_equal(loaded.elem_ids, trace.elem_ids)
        np.testing.assert_array_equal(loaded.is_write, trace.is_write)
        np.testing.assert_array_equal(loaded.op_starts, trace.op_starts)
        for capacity in (1, 15, 10**6):
            a = lru_replay_trace(trace, capacity)
            b = lru_replay_trace(loaded, capacity)
            assert (a.loads, a.stores) == (b.loads, b.stores)
            a = belady_replay_trace(trace, capacity)
            b = belady_replay_trace(loaded, capacity)
            assert (a.loads, a.stores) == (b.loads, b.stores)

    def test_schedule_roundtrip_bit_identical(self, numeric_cases, tmp_path):
        for name, (schedule, make_machine, reference) in numeric_cases.items():
            path = tmp_path / f"{name}.npz"
            save_schedule(schedule, path)
            loaded = load_schedule(path)
            assert loaded.shapes == schedule.shapes
            assert len(loaded.steps) == len(schedule.steps)
            assert loaded.io_volume() == schedule.io_volume()
            assert loaded.counts() == schedule.counts()
            m = make_machine()
            replay_schedule(loaded, m)
            m.assert_empty()
            for rname, want in reference.items():
                assert np.array_equal(m.result(rname), want), name
            # the compiled streams are identical too
            assert (
                to_access_sequence(compile_trace(loaded))
                == to_access_sequence(compile_trace(schedule))
            )
            # and a second save writes the same container
            again = tmp_path / f"{name}-again.npz"
            save_schedule(loaded, again)
            assert again.read_bytes() == path.read_bytes()

    def test_loaded_ops_equal_recorded_and_read_only(self, numeric_cases, tmp_path):
        """Every op class: regions, work counts and derived index arrays
        survive the round trip, and the loaded arrays cannot be written."""
        seen = set()
        for name, (schedule, _, _) in numeric_cases.items():
            path = tmp_path / f"{name}.npz"
            save_schedule(schedule, path)
            loaded = load_schedule(path)
            for want, got in zip(schedule.steps, loaded.steps):
                assert type(want) is type(got)
                if not isinstance(want, ComputeStep):
                    assert want.region.matrix == got.region.matrix
                    assert np.array_equal(want.region.flat, got.region.flat)
                    assert getattr(want, "writeback", None) == getattr(got, "writeback", None)
                    assert not got.region.flat.flags.writeable
                    continue
                a, b = want.op, got.op
                assert type(a) is type(b)
                seen.add(type(b))
                assert (a.mults, a.flops) == (b.mults, b.flops)
                for want_regions, got_regions in (
                    (a.reads(), b.reads()), (a.writes(), b.writes()),
                ):
                    assert len(want_regions) == len(got_regions)
                    for r, q in zip(want_regions, got_regions):
                        assert r.matrix == q.matrix
                        assert np.array_equal(r.flat, q.flat)
                        assert not q.flat.flags.writeable
                assert vars(a).keys() == vars(b).keys()
                for attr, value in vars(a).items():
                    other = getattr(b, attr)
                    if isinstance(value, np.ndarray):
                        assert np.array_equal(value, other), (name, attr)
                        assert not other.flags.writeable, (name, attr)
                        with pytest.raises(ValueError):
                            other[...] = 0
                    elif isinstance(value, Region):
                        assert value.matrix == other.matrix
                        assert np.array_equal(value.flat, other.flat)
                    else:
                        assert value == other, (name, attr)
        assert seen == set(OP_SPECS)

    def test_loaded_schedule_builds_steps_only_when_read(self, sched, tmp_path, monkeypatch):
        import repro.trace.io as tio

        builds = []
        real = tio.build_steps
        monkeypatch.setattr(tio, "build_steps", lambda *a: builds.append(1) or real(*a))
        path = tmp_path / "s.npz"
        save_schedule(sched, path)
        loaded = load_schedule(path)
        assert len(loaded) == len(sched.steps)
        assert loaded.counts() == sched.counts()
        assert loaded.io_volume() == sched.io_volume()
        assert builds == []
        steps = loaded.steps
        assert builds == [1] and loaded.steps is steps and isinstance(steps, list)
        assert len(loaded) == len(steps) and loaded.counts() == sched.counts()
        assert builds == [1]

    def test_concurrent_first_access_builds_once(self, sched, tmp_path, monkeypatch):
        """Eight threads read ``steps`` of one loaded schedule at once: one
        build, and every thread gets the same list."""
        import sys
        import threading
        import time

        import repro.trace.io as tio

        builds = []
        real = tio.build_steps

        def slow_build(*args):
            builds.append(threading.get_ident())
            time.sleep(0.05)  # hold the build open while the others arrive
            return real(*args)

        monkeypatch.setattr(tio, "build_steps", slow_build)
        path = tmp_path / "s.npz"
        save_schedule(sched, path)
        loaded = load_schedule(path)
        barrier = threading.Barrier(8)
        got = [None] * 8

        def read(i):
            barrier.wait(timeout=10)
            got[i] = loaded.steps

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(builds) == 1
        assert all(steps is got[0] for steps in got) and len(got[0]) == len(sched.steps)

    def test_loaded_schedule_pickles(self, numeric_cases, tmp_path):
        import pickle

        schedule, make_machine, reference = numeric_cases["chol"]
        path = tmp_path / "s.npz"
        save_schedule(schedule, path)
        copy = pickle.loads(pickle.dumps(load_schedule(path)))
        assert copy.counts() == schedule.counts() and copy.shapes == schedule.shapes
        m = make_machine()
        replay_schedule(copy, m)
        for name, want in reference.items():
            assert np.array_equal(m.result(name), want)

    def test_file_kind_and_mismatch(self, sched, tmp_path):
        trace = compile_trace(sched)
        tpath, spath = tmp_path / "t.npz", tmp_path / "s.npz"
        save_trace(trace, tpath)
        save_schedule(sched, spath)
        assert file_kind(tpath) == "trace"
        assert file_kind(spath) == "schedule"
        with pytest.raises(ConfigurationError, match="expected"):
            load_trace(spath)
        with pytest.raises(ConfigurationError, match="expected"):
            load_schedule(tpath)

    def test_not_a_container(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(ConfigurationError):
            load_trace(path)

    def test_save_is_atomic_under_interrupt(self, sched, tmp_path, monkeypatch):
        """A save killed mid-write never tears the destination container."""
        import repro.trace.io as tio

        path = tmp_path / "s.npz"
        save_schedule(sched, path)
        before = path.read_bytes()

        def torn_write(file, **payload):
            with open(file, "wb") as fh:
                fh.write(b"PK\x03\x04 half a container")
            raise KeyboardInterrupt  # the canonical mid-write kill

        monkeypatch.setattr(tio.np, "savez_compressed", torn_write)
        with pytest.raises(KeyboardInterrupt):
            save_schedule(sched, path)
        monkeypatch.undo()
        # old entry intact, no temp-file litter next to it
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.npz"]
        assert load_schedule(path).counts() == sched.counts()

    def test_save_extensionless_path_lands_like_numpy(self, sched, tmp_path):
        """numpy appends .npz to bare names; the atomic path must match."""
        save_schedule(sched, tmp_path / "bare")
        assert (tmp_path / "bare.npz").exists()
        assert load_schedule(tmp_path / "bare.npz").counts() == sched.counts()


class TestGraphOverTrace:
    def test_graph_carries_trace_and_int_keys(self, sched):
        graph = dependency_graph(sched)
        assert graph.trace is not None
        node = graph.nodes[0]
        assert all(isinstance(k, int) for k in node.touched_keys())
        # decoded keys equal the op's region keys
        op = node.op
        decoded = {graph.trace.key_of(k) for k in node.touched_keys()}
        expected = {
            (r.matrix, int(i))
            for r in list(op.reads()) + list(op.writes())
            for i in r.flat
        }
        assert decoded == expected

    def test_dependency_graph_accepts_trace(self, sched):
        trace = compile_trace(sched)
        g1 = dependency_graph(trace)
        g2 = dependency_graph(sched)
        assert g1.edges() == g2.edges()

    def test_from_trace_requires_ops(self, sched, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(compile_trace(sched), path)
        with pytest.raises(ConfigurationError, match="op objects"):
            DependencyGraph.from_trace(load_trace(path))

    def test_rewrite_trace_requires_ops(self, sched, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(compile_trace(sched), path)
        with pytest.raises(ScheduleError, match="op objects"):
            rewrite_trace(load_trace(path), 15)
