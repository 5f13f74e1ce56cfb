"""Recorded schedules pinned bit for bit, and the serve path's counting record.

The digests and per-matrix volumes below are fixed values: a change to
how regions or ops are built must leave every step of every kernel's
recorded schedule, and its traffic per matrix, unchanged.
"""

import hashlib

import numpy as np
import pytest

from repro.graph.compare import record_case
from repro.sched.schedule import EvictStep, LoadStep, record_schedule, replay_schedule
from repro.serve.frontend import _case_graph
from repro.serve.store import ScheduleKey
from repro.trace.compiled import compile_trace

M, S = 6, 15

#: (kernel, N) -> (step-stream digest, loads by matrix, stores by matrix).
#: Below N=21 TBS falls back to OOC_SYRK, so tbs and ocs share N=20's pin.
PINS = {
    ("tbs", 20): (
        "11b6dca77a0e357d0718ef435d62cb8d246df89ee2d0efe5fa623010bcf12324",
        {"A": 840, "C": 210}, {"C": 210},
    ),
    ("tbs", 33): (
        "dce39075b233cdcb3473696e0d297f5b9684dfc919c28b998c8b9377027a8a91",
        {"A": 2076, "C": 561}, {"C": 561},
    ),
    ("ocs", 20): (
        "11b6dca77a0e357d0718ef435d62cb8d246df89ee2d0efe5fa623010bcf12324",
        {"A": 840, "C": 210}, {"C": 210},
    ),
    ("ocs", 33): (
        "6d1c94ee5ed4fe3a3c319efb1a6d838dfe1642c1ae04b76f181a7fd5fece2f9f",
        {"A": 2178, "C": 561}, {"C": 561},
    ),
    ("syr2k", 20): (
        "a4f0558133300fc5b54ad36c28ef28b63c4a138bfa078174082cc35aa0ebe3d0",
        {"A": 960, "B": 960, "C": 210}, {"C": 210},
    ),
    ("syr2k", 33): (
        "dd5fb8e61a1169d18753e4cebb1876f7ebaf2e225242282f556dd15d86b4a151",
        {"A": 2862, "B": 2862, "C": 561}, {"C": 561},
    ),
    ("chol", 20): (
        "74f4018c463940c1e24d2d6490f05a462e7d5927ec91a9076ab77eb76128a38a",
        {"A": 1092}, {"A": 210},
    ),
    ("chol", 33): (
        "df416e40d801387756fb5510f3d3f1958aa9baa22b1b86b4562c67858422f378",
        {"A": 4356}, {"A": 561},
    ),
}


def step_digest(schedule) -> str:
    """SHA-256 over every step: kind, matrix, flat bytes and writeback for
    loads and evicts; op name and public parameters for compute steps."""
    h = hashlib.sha256()
    for step in schedule.steps:
        if isinstance(step, (LoadStep, EvictStep)):
            h.update(b"E" if isinstance(step, EvictStep) else b"L")
            h.update(step.region.matrix.encode())
            h.update(np.asarray(step.region.flat, dtype=np.int64).tobytes())
            if isinstance(step, EvictStep):
                h.update(b"1" if step.writeback else b"0")
            continue
        op = step.op
        h.update(b"C" + op.name.encode())
        for attr in sorted(vars(op)):
            if attr.startswith("_"):
                continue
            value = getattr(op, attr)
            h.update(attr.encode())
            if isinstance(value, np.ndarray):
                h.update(np.asarray(value, dtype=np.int64).tobytes())
            else:
                h.update(repr(value).encode())
    return h.hexdigest()


@pytest.mark.parametrize("kernel,n", sorted(PINS))
def test_recorded_schedule_is_pinned(kernel, n):
    case = record_case(kernel, n, M, S)
    digest, loads, stores = PINS[kernel, n]
    assert step_digest(case.schedule) == digest
    m = case.make_machine()
    replay_schedule(case.schedule, m)
    m.assert_empty()
    assert dict(m.stats.loads_by_matrix) == loads
    assert dict(m.stats.stores_by_matrix) == stores
    assert (m.stats.loads, m.stats.stores) == (case.explicit_loads, case.explicit_stores)
    for name in case.result_names:
        assert np.array_equal(m.result(name), case.reference[name])


@pytest.mark.parametrize("kernel", ["tbs", "ocs", "syr2k", "chol"])
def test_serve_path_counting_record_equals_numeric_record(kernel):
    """A miss records on a counting machine and runs no numerics; its trace
    equals, array for array, the trace of a numeric recording."""
    case, graph = _case_graph(ScheduleKey(kernel, 33, M, S))
    assert case._reference is None  # nothing on the serve path asked for numerics
    numeric = case.make_machine()
    assert numeric.numerics
    want = compile_trace(record_schedule(numeric, lambda: case.run(numeric)))
    got = case.trace
    assert graph.trace is got and len(graph.ops) == got.n_ops
    assert got.matrices == want.matrices and got.shapes == want.shapes
    for field in ("elem_ids", "is_write", "op_starts", "op_read_ends", "key_matrix", "key_flat"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
