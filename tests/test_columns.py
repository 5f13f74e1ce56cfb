"""The schedule's container columns (repro.sched.columns).

The rewriter writes a schedule as columns, the saver writes them as they
are, and the certifier builds its load/evict events from them; a
schedule made of steps derives the same columns from its steps.  These
tests pin the two derivations to each other, member for member, and the
certificates of the rewritten, the step-built and the loaded schedule to
each other, finding for finding.  They also pin that a heuristic miss
builds no step object.
"""

from __future__ import annotations

import numpy as np
import pytest

from container_columns import read_columns

from repro.check.certify import certify_schedule
from repro.graph.compare import record_case
from repro.graph.rewriter import reschedule, rewrite_trace
from repro.graph.scheduler import HEURISTICS
from repro.machine.regions import Region
from repro.sched.ops import ComputeOp
from repro.sched.schedule import LoadStep, Schedule
from repro.trace.io import load_schedule, save_schedule

KERNELS = ("tbs", "syr2k", "chol", "ocs")
N, M = 20, 6


@pytest.fixture(scope="module")
def cases():
    return {k: record_case(k, N, M, 15) for k in KERNELS}


def members(path) -> dict:
    header, arrays = read_columns(path)
    members = {name: (a.dtype.str, a.shape, a.tobytes()) for name, a in arrays.items()}
    return dict(members, header=header)


def certificate(schedule, s):
    cert = certify_schedule(schedule, s)
    return cert.findings, cert.stats


@pytest.mark.parametrize("s", [15, 40])
@pytest.mark.parametrize("relax", [False, True])
@pytest.mark.parametrize("heuristic", HEURISTICS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_rewritten_columns_equal_the_steps(cases, tmp_path, kernel, heuristic, relax, s):
    rewritten = reschedule(cases[kernel].trace, s, heuristic, relax_reductions=relax).schedule
    assert rewritten.columns is not None
    stepped = Schedule(list(rewritten.steps), rewritten.shapes)
    assert stepped.columns is None
    assert rewritten.columns is not None  # building the steps keeps them
    a, b = tmp_path / "rewritten.npz", tmp_path / "stepped.npz"
    save_schedule(rewritten, a)
    save_schedule(stepped, b)
    assert members(a) == members(b)
    want = certificate(stepped, s)
    assert certificate(rewritten, s) == want
    assert certificate(load_schedule(a), s) == want


def test_resaving_a_loaded_schedule_writes_its_columns(cases, tmp_path, monkeypatch):
    import repro.trace.io as tio

    builds = []
    real = tio.build_steps
    monkeypatch.setattr(tio, "build_steps", lambda columns: builds.append(1) or real(columns))
    path, again = tmp_path / "a.npz", tmp_path / "b.npz"
    save_schedule(reschedule(cases["chol"].trace, 15).schedule, path)
    save_schedule(load_schedule(path), again)
    assert members(again) == members(path)
    assert builds == []  # nothing was built to write them


def test_columns_go_stale_when_the_built_steps_change_length(cases):
    """Like the statistics cache, the columns hold while the built steps
    keep their length; a schedule whose steps grew is certified (and
    saved) from its steps."""
    schedule = reschedule(cases["tbs"].trace, 15).schedule
    n = len(schedule)
    assert certify_schedule(schedule, 15).ok
    schedule.steps.append(LoadStep(Region("A", np.array([0]))))
    assert schedule.columns is None and len(schedule) == n + 1
    cert = certify_schedule(schedule, 15)
    assert [(f.code, f.op_index) for f in cert.findings] == [("RPS105", n)]
    assert cert.stats["n_steps"] == n + 1


@pytest.mark.parametrize("kernel", KERNELS)
def test_loaded_statistics_come_from_the_columns_on_first_call(
    cases, tmp_path, monkeypatch, kernel
):
    """A load computes no statistics; ``len()``, ``counts()`` and
    ``io_volume()`` then equal a plain step-built schedule's, and answering
    them builds no step (the two column passes run once)."""
    import repro.trace.io as tio
    from repro.sched.columns import ScheduleColumns

    builds, passes = [], []
    real = tio.build_steps
    monkeypatch.setattr(tio, "build_steps", lambda columns: builds.append(1) or real(columns))
    for name in ("counts", "io_volume"):
        method = getattr(ScheduleColumns, name)
        monkeypatch.setattr(
            ScheduleColumns, name,
            lambda self, method=method, name=name: passes.append(name) or method(self),
        )
    path = tmp_path / "s.npz"
    save_schedule(reschedule(cases[kernel].trace, 15).schedule, path)
    passes.clear()
    loaded = load_schedule(path)
    assert passes == []
    answers = (len(loaded), loaded.counts(), loaded.io_volume())
    assert (len(loaded), loaded.counts(), loaded.io_volume()) == answers
    assert builds == [] and sorted(passes) == ["counts", "io_volume"]
    plain = Schedule(list(loaded.steps), loaded.shapes)
    assert plain.columns is None
    assert answers == (len(plain), plain.counts(), plain.io_volume())


def test_heuristic_miss_builds_no_step(tmp_path, monkeypatch):
    """record -> compile -> DAG -> list schedule -> rewrite -> certify ->
    save: the rewritten schedule's steps are never built."""
    import repro.graph.rewriter as rewriter
    import repro.trace.io as tio
    from repro.serve.frontend import _search_to_store
    from repro.serve.store import ScheduleKey, ScheduleStore

    builds = []
    for module in (rewriter, tio):
        real = module.build_steps
        monkeypatch.setattr(
            module, "build_steps",
            lambda columns, real=real, name=module.__name__: builds.append(name) or real(columns),
        )
    key = ScheduleKey("syr2k", 24, M, 15)
    assert _search_to_store((str(tmp_path), key.as_dict())) == key.digest()
    assert builds == []
    served = ScheduleStore(str(tmp_path)).get(key, verify=True)
    assert served is not None and builds == []  # certified from the columns
    assert len(served.steps) == len(served)
    assert builds == ["repro.trace.io"]
    fresh = reschedule(record_case("syr2k", 24, M, 15).trace, 15).schedule
    assert len(fresh.steps) == len(fresh)
    assert builds == ["repro.trace.io", "repro.graph.rewriter"]


def test_rewritten_steps_share_the_trace_ops_and_read_only_regions(cases):
    trace = cases["syr2k"].trace
    result = reschedule(trace, 15)
    computes = [step.op for step in result.schedule.steps if hasattr(step, "op")]
    assert sorted(map(id, computes)) == sorted(map(id, trace.ops))
    region = next(step.region for step in result.schedule.steps if hasattr(step, "region"))
    assert not region.flat.flags.writeable


class _StubOp(ComputeOp):
    """An op that only declares its regions (the rewrite never applies it)."""

    name = "stub"

    def __init__(self, reads, writes):
        self._reads, self._writes = reads, writes

    def reads(self):
        return self._reads

    def writes(self):
        return self._writes


def _signature(schedule):
    return [
        (type(step).__name__, step.region.matrix, step.region.flat.tolist(), getattr(step, "writeback", None))
        if hasattr(step, "region") else ("ComputeStep", id(step.op))
        for step in schedule.steps
    ]


def test_an_eviction_goes_out_by_matrix_then_writeback():
    """One eviction of a written X element and a clean Y element: the X
    group (the trace's first matrix) goes out first, although it is the
    dirty one, as the oracle rewrite orders its groups."""
    from graph_oracles import numpy_rewrite_trace

    from repro.trace.compiled import compile_trace

    x = [Region("X", np.array([i])) for i in range(3)]
    y = [Region("Y", np.array([i])) for i in range(3)]
    ops = [_StubOp([x[i], y[i]], [x[i]]) for i in range(3)]
    trace = compile_trace(ops, shapes={"X": (1, 3), "Y": (1, 3)})
    rewritten = rewrite_trace(trace, 2)
    evictions = [(s.region.matrix, s.writeback) for s in rewritten.steps if hasattr(s, "writeback")]
    assert evictions[:2] == [("X", True), ("Y", False)]
    assert _signature(rewritten) == _signature(numpy_rewrite_trace(trace, 2))
    assert certify_schedule(rewritten, 2).ok
