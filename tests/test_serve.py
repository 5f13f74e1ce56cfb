"""Tests for the schedule-serving layer (:mod:`repro.serve`).

Covers the three tiers and their contracts: content-addressed store
round-trips (bit-identical replays), corruption recovery (bad, stale and
misfiled objects, and a tampered index or scalar of every op type, read
as misses, never exceptions), listing from the object headers alone
under concurrent puts, the bounded cache's LRU semantics pinned against
the array replay engines on the same access log, with Belady's count as
its floor, and the async front end's tiers: a disk hit is read on the
event loop, so only a miss submits work to an executor, and the
single-flight guarantee (N concurrent duplicates → exactly one search).
"""

import asyncio
import concurrent.futures
import hashlib
import json
import multiprocessing
import os
import shutil
import threading
import time
from unittest import mock

import numpy as np
import pytest

from container_columns import read_columns, step_spans, write_columns, write_zip

from repro.__main__ import main
from repro.baselines.lu import ooc_lu
from repro.errors import ConfigurationError
from repro.graph.compare import record_case
from repro.machine.machine import TwoLevelMachine
from repro.obs.probe import probe_scope
from repro.sched.columns import OP_SPECS
from repro.sched.schedule import Schedule, record_schedule, replay_schedule
from repro.serve import (
    SEARCHERS,
    ScheduleCache,
    ScheduleKey,
    ScheduleService,
    ScheduleStore,
    log_to_trace,
    warm_store,
)
from repro.serve.store import _POLICIES
from repro.trace.io import load_schedule, read_header, save_schedule
from repro.trace.replay import belady_replay_trace, lru_replay_trace

CASE_ARGS = ("tbs", 20, 3, 10)


@pytest.fixture(scope="module")
def case():
    return record_case(*CASE_ARGS)


@pytest.fixture
def key():
    return ScheduleKey("tbs", 20, 3, 10)


@pytest.fixture
def store(tmp_path):
    return ScheduleStore(tmp_path / "store")


@pytest.fixture(scope="module")
def op_sources() -> dict[type, Schedule]:
    """Per op type, a recorded schedule that holds it: the Cholesky and
    SYR2K cases hold the five that ``record_case`` kernels emit, and an
    LU factorization the four of :func:`repro.baselines.lu.ooc_lu`."""
    lu = TwoLevelMachine(20, numerics=False)
    lu.add_matrix("A", np.zeros((14, 14)))
    sources = [
        record_case("chol", 12, 3, 10).schedule,
        record_case("syr2k", 12, 3, 10).schedule,
        record_schedule(lu, lambda: ooc_lu(lu, "A", range(14))),
    ]
    by_type = {}
    for schedule in sources:
        for step in schedule.steps:
            if hasattr(step, "op"):
                by_type.setdefault(type(step.op), schedule)
    return by_type


def _op_tampers():
    """``(op type, field, tamper)`` for every index field of every op type
    (set to its bound, or repeat an index) and every integer or bool
    scalar (set outside its range)."""
    for cls, (_, fields, scalars) in OP_SPECS.items():
        for f in fields:
            yield cls, f, "bound"
            yield cls, f, "repeat"
        for f, kind in scalars.items():
            if kind is not float:
                yield cls, f, "range"


def _save_under_own_digest(store, schedule, fields: dict) -> str:
    """File ``schedule`` at the digest of ``fields``, which its header holds
    as its key, whether or not a :class:`ScheduleKey` accepts them."""
    canonical = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    path = store.object_path(digest)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    save_schedule(schedule, path, fields)
    assert read_header(path)["key"] == fields
    return digest


class TestScheduleKey:
    def test_digest_is_spelling_independent(self):
        a = ScheduleKey("tbs", 40, 6, 15, p=1, alpha=1, beta=1)
        b = ScheduleKey("tbs", np.int64(40), 6.0, 15, p=np.int64(1), alpha=1.0, beta=1.0)
        assert a == b and a.digest() == b.digest()
        c = ScheduleKey("tbs", 40, 6, 15.0)
        assert c.digest() == a.digest() and type(c.s) is int

    @pytest.mark.parametrize("field", ["n", "m", "s", "p"])
    @pytest.mark.parametrize("value", [15.5, 32.7, True, "15", float("nan"), float("inf")])
    def test_non_whole_dimension_rejected(self, field, value):
        """Never truncated into another key's digest, however it arrives."""
        fields = {**ScheduleKey("tbs", 20, 3, 10).as_dict(), field: value}
        with pytest.raises(ConfigurationError, match=f"key field {field} "):
            ScheduleKey.from_dict(fields)
        kernel = fields.pop("kernel")
        with pytest.raises(ConfigurationError, match=f"key field {field} "):
            ScheduleKey(kernel, **fields)

    def test_dict_roundtrip(self, key):
        assert ScheduleKey.from_dict(key.as_dict()) == key
        assert json.loads(key.canonical()) == key.as_dict()

    def test_every_field_addresses(self, key):
        cosearch = ScheduleKey("tbs", 20, 3, 10, policy="cosearch")
        for base, other in (
            (key, ScheduleKey("ocs", 20, 3, 10)),
            (key, ScheduleKey("tbs", 21, 3, 10)),
            (key, ScheduleKey("tbs", 20, 4, 10)),
            (key, ScheduleKey("tbs", 20, 3, 11)),
            (key, ScheduleKey("tbs", 20, 3, 10, policy="search")),
            (key, cosearch),
            (cosearch, ScheduleKey("tbs", 20, 3, 10, p=4, policy="cosearch")),
            (cosearch, ScheduleKey("tbs", 20, 3, 10, policy="cosearch", alpha=2.0)),
            (cosearch, ScheduleKey("tbs", 20, 3, 10, policy="cosearch", beta=0.5)),
        ):
            assert other.digest() != base.digest()

    @pytest.mark.parametrize("policy", ["heuristic", "search"])
    def test_ignored_fields_share_a_digest(self, policy):
        """heuristic and search read neither p nor alpha nor beta, so keys
        that differ only there are one key: one search, one object."""
        base = ScheduleKey("tbs", 20, 3, 10, policy=policy)
        for fields in ({"p": 4}, {"alpha": 2.0}, {"beta": 0.5},
                       {"p": 2, "alpha": 3.0, "beta": 0.25}):
            other = ScheduleKey("tbs", 20, 3, 10, policy=policy, **fields)
            assert other == base and other.digest() == base.digest()
            assert (other.p, other.alpha, other.beta) == (1, 1.0, 1.0)
        assert ScheduleKey.from_dict({**base.as_dict(), "p": 8}) == base

    def test_cosearch_keeps_placement_fields(self):
        keys = [
            ScheduleKey("tbs", 20, 3, 10, policy="cosearch", **fields)
            for fields in ({}, {"p": 4}, {"alpha": 2.0}, {"beta": 0.5})
        ]
        assert len({k.digest() for k in keys}) == len(keys)
        assert keys[1].p == 4

    def test_ignored_fields_are_still_checked(self):
        with pytest.raises(ConfigurationError):
            ScheduleKey("tbs", 20, 3, 10, p=0, policy="search")
        with pytest.raises(ConfigurationError, match="key field p"):
            ScheduleKey("tbs", 20, 3, 10, p=2.5)

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_non_finite_constant_rejected(self, field):
        """A NaN never equals itself, so no stored object could match its key."""
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="finite"):
                ScheduleKey("tbs", 20, 3, 10, policy="cosearch", **{field: value})

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_negative_constant_rejected(self, field):
        """The latency model prices no negative time: the key is refused
        before a miss would record and search it."""
        fields = {**ScheduleKey("tbs", 24, 6, 15, p=4, policy="cosearch").as_dict(),
                  field: -1.0}
        with pytest.raises(ConfigurationError, match=">= 0"):
            ScheduleKey.from_dict(fields)
        kernel = fields.pop("kernel")
        with pytest.raises(ConfigurationError, match=">= 0"):
            ScheduleKey(kernel, **fields)
        assert ScheduleKey("tbs", 24, 6, 15, policy="cosearch", **{field: 0.0})

    @pytest.mark.parametrize("policy", ["heuristic", "search"])
    def test_negative_constant_of_a_single_node_key_normalizes(self, policy):
        key = ScheduleKey("tbs", 20, 3, 10, policy=policy, alpha=-1.0, beta=-2.0)
        assert key == ScheduleKey("tbs", 20, 3, 10, policy=policy)

    def test_key_at_reads_a_negative_constant_as_no_key(self, store, case):
        fields = {**ScheduleKey("tbs", 20, 3, 10, p=2, policy="cosearch").as_dict(),
                  "alpha": -1.0}
        digest = _save_under_own_digest(store, case.schedule, fields)
        assert store.key_at(digest) is None
        assert store.keys() == []

    def test_key_at_reads_an_unknown_policy_as_no_key(self, store, case):
        fields = {**ScheduleKey("tbs", 20, 3, 10).as_dict(), "policy": "magic"}
        digest = _save_under_own_digest(store, case.schedule, fields)
        assert store.key_at(digest) is None
        assert store.keys() == []
        assert store.stats()["per_policy"] == {"?": 1}

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            ScheduleKey("tbs", 0, 3, 10)
        with pytest.raises(ConfigurationError):
            ScheduleKey("tbs", 20, 3, 10, p=0)

    def test_sortable(self, key):
        assert sorted([ScheduleKey("tbs", 30, 3, 10), key])[0] == key


def _race_key(worker: int, i: int) -> ScheduleKey:
    """Key ``i`` of concurrent writer ``worker``: forty distinct digests,
    every one certifiable at the shared case's capacity."""
    return ScheduleKey("tbs", 20, 3, 10, p=1 + worker, policy="cosearch", alpha=1.0 + i)


def _put_ten(root: str, source: str, worker: int, barrier) -> None:
    schedule = load_schedule(source)
    store = ScheduleStore(root)
    barrier.wait()
    for i in range(10):
        store.put(_race_key(worker, i), schedule)


class TestScheduleStore:
    def test_put_get_bit_identical(self, store, case, key):
        digest = store.put(key, case.schedule)
        assert digest == key.digest()
        assert key in store and len(store) == 1
        loaded = store.get(key)
        assert case.check_exact(loaded)  # replays to bit-identical results

    def test_missing_is_none(self, store, key):
        assert store.get(key) is None
        assert key not in store

    def test_second_instance_same_root(self, store, case, key):
        store.put(key, case.schedule)
        again = ScheduleStore(store.root)
        assert again.get(key) is not None

    def test_corrupt_object_reads_as_miss(self, store, case, key):
        store.put(key, case.schedule)
        with open(store.object_path(key), "wb") as fh:
            fh.write(b"this is not a zip archive")
        with probe_scope() as probe:
            assert store.get(key) is None
        assert probe.counters["serve.store.corrupt"] == 1
        # a fresh put repairs the entry
        store.put(key, case.schedule)
        assert store.get(key) is not None

    def test_truncated_object_reads_as_miss(self, store, case, key):
        store.put(key, case.schedule)
        path = store.object_path(key)
        size = os.path.getsize(path)
        with open(path, "rb+") as fh:
            fh.truncate(size // 2)
        assert store.get(key) is None

    @pytest.mark.parametrize(
        "tamper",
        ["span_past_end", "unknown_matrix", "negative_flat", "flat_past_matrix"],
    )
    def test_malformed_container_reads_as_miss(self, store, case, key, tamper):
        """A parseable container whose columns point outside their data is
        corrupt: ``get`` counts it and reads a miss, even without verify."""
        store.put(key, case.schedule)
        path = store.object_path(key)
        header, arrays = read_columns(path)
        step = int(np.flatnonzero(arrays["kind"] == 0)[0])  # the first load
        (start, end), = step_spans(header, arrays)[step]
        if tamper == "span_past_end":
            # the last span claims 2 entries past the end of index_data
            arrays["lengths"][-1] += 2
        elif tamper == "unknown_matrix":
            arrays["ref"][step] = len(header["matrices"])
        elif tamper == "negative_flat":
            arrays["index_data"][start] = -5
        else:
            rows, cols = header["shapes"][arrays["ref"][step]]
            arrays["index_data"][end - 1] = rows * cols
        write_columns(path, header, arrays)
        with probe_scope() as probe:
            assert store.get(key) is None
        assert probe.counters["serve.store.corrupt"] == 1
        store.put(key, case.schedule)  # the next put repairs the entry
        assert case.check_exact(store.get(key))

    def test_repeated_op_indices_read_as_miss(self, store, case, key):
        """An op whose stored index set repeats an index cannot be rebuilt:
        the loader rejects it, so ``get`` counts a corrupt miss."""
        store.put(key, case.schedule)
        path = store.object_path(key)
        header, arrays = read_columns(path)
        start, _ = next(
            span
            for kind, spans in zip(arrays["kind"], step_spans(header, arrays))
            if kind == 2
            for span in spans if span[1] - span[0] >= 2
        )
        arrays["index_data"][start + 1] = arrays["index_data"][start]
        write_columns(path, header, arrays)
        with probe_scope() as probe:
            assert store.get(key) is None
        assert probe.counters["serve.store.corrupt"] == 1
        store.put(key, case.schedule)  # the next put repairs the entry
        assert case.check_exact(store.get(key))

    @pytest.mark.parametrize("step_kind", [0, 1], ids=["load", "evict"])
    def test_repeated_flat_reads_as_miss(self, store, case, key, step_kind):
        """A load or evict span that repeats a flat would load an element
        twice or evict it twice, and certify would then report RPS102 and
        RPS101: the loader rejects it, so ``get`` counts a corrupt miss."""
        store.put(key, case.schedule)
        path = store.object_path(key)
        header, arrays = read_columns(path)
        (start, _), = next(
            spans
            for kind, spans in zip(arrays["kind"], step_spans(header, arrays))
            if kind == step_kind and spans[0][1] - spans[0][0] >= 2
        )
        arrays["index_data"][start + 1] = arrays["index_data"][start]
        write_columns(path, header, arrays)
        with pytest.raises(ConfigurationError, match="a load/evict span repeats a flat"):
            load_schedule(path)
        with probe_scope() as probe:
            assert store.get(key) is None
        assert probe.counters["serve.store.corrupt"] == 1

    def test_repeat_check_on_flats_near_int64(self, tmp_path, case):
        """Flats of a 2**31 - 1 square matrix reach 2**62, where (array,
        flat) keys overflow int64: the fifth of five one-flat loads would
        key its flat 2**34 - 4 onto the first's flat 0.  The loader sorts
        the pairs instead, so it finds no repeat there, and finds a real
        one."""
        path = tmp_path / "wide.npz"
        save_schedule(case.schedule, path)
        header, _ = read_columns(path)
        side = 2**31 - 1
        header = dict(header, shapes=[[side, side] for _ in header["shapes"]], ops=[])

        def write_loads(lengths: list[int], flats: list[int]) -> None:
            write_columns(path, header, {
                "kind": np.zeros(len(lengths), dtype=np.int8),
                "ref": np.zeros(len(lengths), dtype=np.int32),
                "writeback": np.zeros(len(lengths), dtype=bool),
                "lengths": np.array(lengths, dtype=np.int64),
                "index_data": np.array(flats, dtype=np.int64),
            })

        top = side * side - 1
        write_loads([1] * 5, [0, top, 1, 2, 2**34 - 4])
        assert len(load_schedule(path)) == 5
        write_loads([1, 2, 1, 1, 1], [0, top, top, 1, 2, 2**34 - 4])
        with pytest.raises(ConfigurationError, match="a load/evict span repeats"):
            load_schedule(path)

    @pytest.mark.parametrize("row", [20, 500])
    def test_op_row_past_matrix_reads_as_miss(self, store, row):
        """A stored op row at or past its matrix's row count is corrupt.

        Region constructors bound columns only, so before the loader
        bounded rows, row 20 of the 20-row ``C`` was served as flat 402 of
        its 400 elements, and row 500 made ``get(verify=True)`` raise.
        """
        case = record_case("tbs", 20, 3, 15)
        key = ScheduleKey("tbs", 20, 3, 15)
        store.put(key, case.schedule)
        path = store.object_path(key)
        header, arrays = read_columns(path)
        outer = header["ops"].index("outer_cols")
        step = int(np.flatnonzero((arrays["kind"] == 2) & (arrays["ref"] == outer))[0])
        (_, i_end), _ = step_spans(header, arrays)[step]  # the spans of I and J
        arrays["index_data"][i_end - 1] = row
        write_columns(path, header, arrays)
        for verify in (False, True):
            with probe_scope() as probe:
                assert store.get(key, verify=verify) is None
            assert probe.counters["serve.store.corrupt"] == 1

    @pytest.mark.parametrize(
        "cls, field, tamper", list(_op_tampers()), ids=lambda v: getattr(v, "name", v)
    )
    def test_op_field_tamper_reads_as_miss(self, store, key, op_sources, cls, field, tamper):
        """Every op type's index fields and integer or bool scalars are
        bounded: an index set to its field's bound or repeated inside its
        set, and a scalar set outside its range, make the loader name the
        op type and the field, and ``get`` counts a corrupt miss."""
        store.put(key, op_sources[cls])
        path = store.object_path(key)
        header, arrays = read_columns(path)
        matrices, fields, scalars = OP_SPECS[cls]
        t = header["ops"].index(cls.name)
        table = arrays[f"params_{t}"]
        typed = (arrays["kind"] == 2) & (arrays["ref"] == t)
        spans = [op for op, hit in zip(step_spans(header, arrays), typed) if hit]

        def least(row: int, bounds: tuple[str, ...]) -> int:
            values = []
            for bound in bounds:
                name, what = bound.split(".")
                if what == "size":
                    start, end = spans[row][list(fields).index(name)]
                    values.append(end - start)
                else:
                    matrix = int(table[row, matrices.index(name)])
                    values.append(header["shapes"][matrix][("rows", "cols").index(what)])
            return min(values)

        if tamper == "range":
            kind = scalars[field]
            table[0, len(matrices) + list(scalars).index(field)] = (
                2 if kind is bool else least(0, kind)
            )
        else:
            j = list(fields).index(field)
            row = next(r for r, op in enumerate(spans) if op[j][1] - op[j][0] >= 2)
            start, _ = spans[row][j]
            data = arrays["index_data"]
            data[start] = least(row, fields[field]) if tamper == "bound" else data[start + 1]
        write_columns(path, header, arrays)
        with pytest.raises(ConfigurationError, match=f"a {cls.name} {field} "):
            load_schedule(path)
        with probe_scope() as probe:
            assert store.get(key) is None
        assert probe.counters["serve.store.corrupt"] == 1

    def test_older_format_reads_as_stale(self, store, case, key):
        """An object in a retired format is a counted stale miss, and the
        next put rewrites it.  Each was a numpy zip: version 1 (JSON step
        records), version 2 (the columns of today, with no key in the
        header) and version 3 (the columns and the key)."""
        store.put(key, case.schedule)
        path = store.object_path(key)
        header, arrays = read_columns(path)
        v3 = dict(header, version=3)
        del header["key"]
        v1 = {
            "kind": "schedule",
            "version": 1,
            "shapes": {"A": [20, 3], "C": [20, 20]},
            "steps": [
                {"t": "L", "m": "A", "i": [0, 2]},
                {"t": "E", "m": "A", "i": [0, 2], "wb": False},
            ],
        }
        for old in [
            (v1, {"index_data": np.arange(2, dtype=np.int64)}),
            (dict(header, version=2), arrays),
            (v3, arrays),
        ]:
            write_zip(path, *old)
            with probe_scope() as probe:
                assert store.get(key) is None
            assert probe.counters["serve.store.stale"] == 1
            assert "serve.store.corrupt" not in probe.counters
            assert key not in store
            store.put(key, case.schedule)
            with probe_scope() as probe:
                assert case.check_exact(store.get(key))
            assert "serve.store.stale" not in probe.counters

    def test_damaged_bytes_read_as_corrupt(self, store, case, key):
        """The checksum and length are checked on every read: a flipped
        byte anywhere (spread over the file, and every byte of the gzip
        header and trailer), a truncation and appended bytes are each a
        counted corrupt miss, with and without verify."""
        store.put(key, case.schedule)
        path = store.object_path(key)
        whole = open(path, "rb").read()
        size = len(whole)
        offsets = {*np.linspace(0, size - 1, 24).astype(int).tolist(),
                   *range(10), *range(size - 8, size)}
        damaged = []
        for offset in sorted(offsets):
            flipped = bytearray(whole)
            flipped[offset] ^= 0xFF
            damaged.append(bytes(flipped))
        damaged += [whole[:10], whole[: size // 2], whole[:-1], whole + b"\0", whole + whole]
        for data in damaged:
            with open(path, "wb") as fh:
                fh.write(data)
            for verify in (False, True):
                with probe_scope() as probe:
                    assert store.get(key, verify=verify) is None
                assert probe.counters["serve.store.corrupt"] == 1
            with pytest.raises(ConfigurationError):
                read_header(path)
            assert key not in store and store.key_at(key.digest()) is None
        with open(path, "wb") as fh:
            fh.write(whole)
        assert case.check_exact(store.get(key, verify=True))

    def test_in_agrees_with_get(self, store, case, key):
        """``key in store`` holds exactly when the object at its path holds
        ``key``: not for a zip of a retired format, a copy of another
        key's object, or a truncated object."""
        stale, misfiled, torn = (ScheduleKey("tbs", 20, 3, 10 + i) for i in (1, 2, 3))
        for k in (key, stale, torn):
            store.put(k, case.schedule)
        header, arrays = read_columns(store.object_path(stale))
        write_zip(store.object_path(stale), dict(header, version=3), arrays)
        os.makedirs(os.path.dirname(store.object_path(misfiled)), exist_ok=True)
        shutil.copyfile(store.object_path(key), store.object_path(misfiled))
        with open(store.object_path(torn), "rb+") as fh:
            fh.truncate(os.path.getsize(store.object_path(torn)) // 2)
        for k in (key, stale, misfiled, torn):
            assert (k in store) == (store.get(k) is not None) == (k == key)

    @pytest.mark.parametrize("kernel", ["tbs", "syr2k", "chol", "ocs"])
    def test_column_rewrite_of_an_untouched_object_is_byte_identical(self, store, kernel):
        """``write_columns`` of an untouched container writes the saver's
        bytes, so every tamper test's container reaches the column checks."""
        key = ScheduleKey(kernel, 12, 3, 10)
        store.put(key, record_case(kernel, 12, 3, 10).schedule)
        path = store.object_path(key)
        saved = open(path, "rb").read()
        write_columns(path, *read_columns(path))
        assert open(path, "rb").read() == saved
        assert store.get(key) is not None

    def test_misfiled_object_reads_as_corrupt(self, store, case, key):
        """An object copied to another key's digest path holds the wrong key
        in its header: a counted corrupt miss, which the next put repairs."""
        other = ScheduleKey("tbs", 20, 3, 10, policy="search")
        store.put(key, case.schedule)
        os.makedirs(os.path.dirname(store.object_path(other)), exist_ok=True)
        shutil.copyfile(store.object_path(key), store.object_path(other))
        with probe_scope() as probe:
            assert store.get(other) is None
        assert probe.counters["serve.store.corrupt"] == 1
        assert store.keys() == [key]
        assert store.stats()["per_kernel"] == {"?": 1, "tbs": 1}
        store.put(other, case.schedule)
        assert case.check_exact(store.get(other))
        assert store.keys() == sorted([key, other])

    def test_manifest_is_sorted_and_deterministic(self, store, case, key):
        """No manifest: after any sequence of puts, repeats included, the
        root holds only ``objects/``, and each object's header its key."""
        others = [ScheduleKey("tbs", 20, 3, 10, policy=p) for p in ("search", "cosearch")]
        for k in [key, *others, key]:
            store.put(k, case.schedule)
        assert os.listdir(store.root) == ["objects"]
        for k in [key, *others]:
            assert read_header(store.object_path(k))["key"] == k.as_dict()

    def test_stale_manifest_entry_dropped(self, store, case, key):
        """A deleted object leaves the listing and the stats."""
        store.put(key, case.schedule)
        os.unlink(store.object_path(key))
        assert store.get(key) is None
        assert store.keys() == []
        assert store.stats()["entries"] == 0

    def test_keys_listing(self, store, case, key):
        store.put(key, case.schedule)
        other = ScheduleKey("tbs", 20, 3, 10, policy="search")
        store.put(other, case.schedule)
        # A stray file at no digest's object path is not an object.
        open(os.path.join(os.path.dirname(store.object_path(key)), "stray.npz"), "wb").close()
        assert store.keys() == sorted([key, other])
        assert sorted(store.digests()) == sorted([key.digest(), other.digest()])
        assert store.stats()["entries"] == 2

    def test_concurrent_puts_keep_every_key(self, store, case, tmp_path, capsys):
        """Four processes put ten distinct keys each at once: every key is
        listed and every object certifies at its own key's capacity."""
        source = str(tmp_path / "schedule.npz")
        save_schedule(case.schedule, source)
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(4)
        workers = [
            ctx.Process(target=_put_ten, args=(store.root, source, w, barrier))
            for w in range(4)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in workers] == [0] * 4
        assert store.keys() == sorted(_race_key(w, i) for w in range(4) for i in range(10))
        assert store.stats()["per_kernel"] == {"tbs": 40}
        capsys.readouterr()
        assert main(["check", "--store", store.root, "--all", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["stats"]["objects"] == 40

    def test_interrupted_put_keeps_old_entry(self, store, case, key, monkeypatch):
        import repro.utils.atomic as atomic
        from container_columns import torn_open

        store.put(key, case.schedule)
        before = open(store.object_path(key), "rb").read()
        monkeypatch.setattr(atomic, "open", torn_open, raising=False)
        with pytest.raises(KeyboardInterrupt):
            store.put(key, case.schedule)
        monkeypatch.undo()
        assert open(store.object_path(key), "rb").read() == before
        assert store.get(key) is not None

    def test_stats_shape(self, store, case, key):
        store.put(key, case.schedule)
        stats = store.stats()
        assert stats["per_kernel"] == {"tbs": 1}
        assert stats["per_policy"] == {"heuristic": 1}


class TestScheduleCache:
    def test_bound_is_hard(self):
        cache = ScheduleCache(3)
        for i in range(50):
            d = f"k{i % 7}"
            if cache.get(d) is None:
                cache.put(d, i)
            assert len(cache) <= 3
        assert cache.evictions > 0

    def test_lru_eviction_order(self):
        cache = ScheduleCache(3)
        for d in ("a", "b", "c"):
            cache.get(d)
            cache.put(d, d)
        assert cache.get("a") == "a"       # refresh a: b is now the LRU entry
        cache.put("d", "d")
        assert "b" not in cache
        assert all(d in cache for d in ("a", "c", "d"))

    def test_put_refresh_never_evicts(self):
        cache = ScheduleCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 3)                  # refresh, not insert
        assert cache.evictions == 0 and cache.get("a") == 3

    def test_lru_matches_replay_engine(self):
        rng = np.random.default_rng(7)
        log = [f"k{i}" for i in rng.integers(0, 12, size=400)]
        trace = log_to_trace(log)
        for capacity in (1, 2, 3, 5, 8, 12, 20):
            cache = ScheduleCache.replay(log, capacity)
            ref = lru_replay_trace(trace, capacity)
            assert cache.misses == ref.loads, capacity
            assert cache.hits == ref.n_accesses - ref.loads

    def test_misses_at_least_belady_loads(self):
        """Belady's count on the same log is a floor the LRU cache never
        beats, and reaches once the whole universe fits."""
        rng = np.random.default_rng(11)
        log = [f"k{i}" for i in rng.integers(0, 10, size=300)]
        trace = log_to_trace(log)
        for capacity in (1, 2, 4, 6, 10):
            cache = ScheduleCache.replay(log, capacity)
            floor = belady_replay_trace(trace, capacity).loads
            assert cache.misses >= floor, capacity
            if capacity >= len(set(log)):
                assert cache.misses == floor

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            ScheduleCache(0)
        with pytest.raises(TypeError):
            ScheduleCache(2, "fifo")  # LRU is the only policy

    def test_log_records_gets(self):
        log = ["a", "a"]
        cache = ScheduleCache.replay(log, 2)
        assert cache.hits + cache.misses == len(log)  # one access per get
        assert cache.hit_rate == 0.5
        assert not hasattr(cache, "log")  # counters only, no history

    def test_evictions_counted_on_probe(self):
        with probe_scope() as probe:
            ScheduleCache.replay(["a", "b", "c", "a"], 1)
        assert probe.counters["serve.evictions"] == 3


def run(coro):
    return asyncio.run(coro)


class SlowSearcher:
    """A deliberately slow, call-counting fake searcher (thread-safe)."""

    def __init__(self, schedule, delay=0.05, fail_first=False):
        self.schedule = schedule
        self.delay = delay
        self.fail_first = fail_first
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, key):
        with self._lock:
            self.calls += 1
            first = self.calls == 1
        time.sleep(self.delay)
        if self.fail_first and first:
            raise RuntimeError("transient search failure")
        return self.schedule


class CountingExecutor(concurrent.futures.ThreadPoolExecutor):
    """A thread pool that records every callable submitted to it."""

    def __init__(self):
        super().__init__(max_workers=2)
        self.submitted = []

    def submit(self, fn, /, *args, **kwargs):
        self.submitted.append(fn)
        return super().submit(fn, *args, **kwargs)


def run_counting(coro):
    """Run ``coro`` on a loop whose default executor is a
    :class:`CountingExecutor`: its result, and the callables submitted."""
    executor = CountingExecutor()

    async def main():
        asyncio.get_running_loop().set_default_executor(executor)
        return await coro

    return asyncio.run(main()), executor.submitted


def faked(searcher):
    """Serve every policy through ``searcher`` on the production miss path
    (search, put and read-back from the store)."""
    return mock.patch.dict(SEARCHERS, dict.fromkeys(SEARCHERS, searcher))


def served(probe, *tiers):
    """The probe's ``serve.<tier>`` counts, 0 for a tier never counted."""
    return tuple(probe.counters.get(f"serve.{tier}", 0) for tier in tiers)


class TestScheduleService:
    def test_single_flight(self, store, case, key):
        searcher = SlowSearcher(case.schedule)
        service = ScheduleService(store, ScheduleCache(4))

        async def fan_out():
            return await asyncio.gather(
                *[service.get_schedule(key) for _ in range(16)]
            )

        with faked(searcher), probe_scope() as probe:
            results = run(fan_out())
        assert searcher.calls == 1
        assert all(r is results[0] for r in results)
        assert served(probe, "requests", "misses", "searches", "coalesced") == (16, 1, 1, 15)

    def test_hits_submit_nothing(self, store, case, key):
        """A disk hit is read on the loop and a memory hit never leaves it."""
        store.put(key, case.schedule)
        service = ScheduleService(store, ScheduleCache(4))

        async def twice():
            return [await service.get_schedule(key) for _ in range(2)]

        with probe_scope() as probe:
            (disk, memory), submitted = run_counting(twice())
        assert disk is memory and submitted == []
        assert served(probe, "store_hits", "hits", "misses") == (1, 1, 0)

    def test_miss_submits_only_its_search(self, store, key):
        service = ScheduleService(store, ScheduleCache(4))
        with probe_scope() as probe:
            _, submitted = run_counting(service.get_schedule(key))
        assert [fn.__name__ for fn in submitted] == ["_search_to_store"]
        assert served(probe, "misses", "searches", "store_hits") == (1, 1, 0)

    def test_concurrent_requests_for_a_stored_key(self, store, case, key):
        """A disk hit has no await between lookup and return, so concurrent
        requests for a stored key never coalesce: the first is a store hit
        and the rest memory hits."""
        store.put(key, case.schedule)
        service = ScheduleService(store, ScheduleCache(4))

        async def fan_out():
            return await asyncio.gather(*[service.get_schedule(key) for _ in range(8)])

        with probe_scope() as probe:
            results, submitted = run_counting(fan_out())
        assert served(probe, "store_hits", "hits", "coalesced", "misses") == (1, 7, 0, 0)
        assert submitted == []
        assert len({id(r) for r in results}) == 1

    def test_memory_then_store_tiers(self, store, case, key):
        searcher = SlowSearcher(case.schedule, delay=0.0)
        service = ScheduleService(store, ScheduleCache(4))
        with faked(searcher), probe_scope() as probe:
            run(service.get_schedule(key))
            run(service.get_schedule(key))
        assert served(probe, "searches", "hits", "store_hits") == (1, 1, 0)
        # a fresh service over the same root serves from disk, no search
        cold = ScheduleService(store, ScheduleCache(4))
        with faked(searcher), probe_scope() as probe:
            run(cold.get_schedule(key))
        assert served(probe, "searches", "store_hits") == (0, 1)
        assert searcher.calls == 1

    def test_corrupt_store_falls_through_to_search(self, store, case, key):
        store.put(key, case.schedule)
        with open(store.object_path(key), "wb") as fh:
            fh.write(b"garbage")
        searcher = SlowSearcher(case.schedule, delay=0.0)
        service = ScheduleService(store, ScheduleCache(4))
        with faked(searcher):
            run(service.get_schedule(key))
        assert searcher.calls == 1         # corrupt entry read as a miss
        assert store.get(key) is not None  # ... and the search repaired it

    def test_search_failure_propagates_then_retries(self, store, case, key):
        """A failed fill counts once as ``serve.failed``, not as a search,
        and every request that joined it gets its exception."""
        searcher = SlowSearcher(case.schedule, delay=0.01, fail_first=True)

        async def herd():
            return await asyncio.gather(
                *[service.get_schedule(key) for _ in range(3)],
                return_exceptions=True,
            )

        service = ScheduleService(store, ScheduleCache(4))
        with faked(searcher), probe_scope() as probe:
            results = run(herd())
        assert isinstance(results[0], RuntimeError)
        assert all(r is results[0] for r in results)
        assert searcher.calls == 1         # the herd shared one failure
        assert served(probe, "requests", "misses", "coalesced", "failed", "searches") == (
            3, 1, 2, 1, 0)
        # the failed flight is gone; the next request searches again
        with faked(searcher), probe_scope() as probe:
            assert case.check_exact(run(service.get_schedule(key)))
        assert searcher.calls == 2
        assert served(probe, "requests", "misses", "searches", "failed") == (1, 1, 1, 0)

    def test_concurrency_stress(self, store, case):
        keys = [ScheduleKey("tbs", 20, 3, 10 + i) for i in range(6)]
        rng = np.random.default_rng(3)
        stream = [keys[i] for i in rng.integers(0, len(keys), size=60)]
        searcher = SlowSearcher(case.schedule, delay=0.02)
        service = ScheduleService(store, ScheduleCache(3))

        async def herd():
            return await asyncio.gather(*[service.get_schedule(k) for k in stream])

        with faked(searcher), probe_scope() as probe:
            results = run(herd())
        distinct = len({k.digest() for k in stream})
        assert searcher.calls == distinct  # one search per distinct key, ever
        assert len(results) == len(stream)
        assert len(service.cache) <= 3
        requests, hits, store_hits, misses, coalesced, searches = served(
            probe, "requests", "hits", "store_hits", "misses", "coalesced", "searches")
        assert requests == len(stream) == hits + store_hits + misses + coalesced
        assert misses == searches == distinct

    def test_real_searcher_by_policy(self, store, key):
        service = ScheduleService(store, ScheduleCache(2))
        with probe_scope() as probe:
            schedule = run(service.get_schedule(key))
        assert isinstance(schedule, Schedule)
        assert served(probe, "searches") == (1,)
        case = record_case(*CASE_ARGS)
        assert case.check_exact(schedule)

    def test_unknown_policy_raises(self):
        """The key refuses the policy, so no request reaches the store or a
        searcher; the policies a key accepts are the ones a searcher serves."""
        with pytest.raises(ConfigurationError, match="unknown serving policy 'magic'"):
            ScheduleKey("tbs", 20, 3, 10, policy="magic")
        with pytest.raises(ConfigurationError, match="policy"):
            ScheduleKey.from_dict({**ScheduleKey("tbs", 20, 3, 10).as_dict(), "policy": "magic"})
        assert tuple(SEARCHERS) == _POLICIES

    def test_async_context_manager(self, store, case, key):
        async def scenario():
            async with ScheduleService(store, ScheduleCache(2)) as service:
                return await service.get_schedule(key)

        with faked(SlowSearcher(case.schedule, delay=0.0)), probe_scope() as probe:
            assert case.check_exact(run(scenario()))
        assert served(probe, "searches") == (1,)


class TestWarmStore:
    def test_warm_fills_misses_only(self, store, case, key):
        other = ScheduleKey("tbs", 22, 3, 10)
        assert warm_store(store, [key, other]) == [key, other]
        assert warm_store(store, [key, other]) == []
        assert warm_store(store, [key], force=True) == [key]
        assert len(store) == 2
        # a key listed twice is searched once
        searcher = SlowSearcher(case.schedule, delay=0.0)
        with faked(searcher), probe_scope() as probe:
            assert warm_store(store, [key, key], force=True) == [key]
        assert searcher.calls == 1
        assert probe.counters["serve.searches"] == 1

    def test_warm_repairs_stale_and_misfiled_objects(self, store, case, key):
        """An object in format v2 holds no key, and a copy filed under
        another key's path holds the wrong one: both are misses for
        ``get``, so warm searches exactly those two keys, and ``get``
        then hits both."""
        misfiled, good = ScheduleKey("tbs", 22, 3, 10), ScheduleKey("tbs", 24, 3, 10)
        for k in (key, good):
            store.put(k, case.schedule)
        header, arrays = read_columns(store.object_path(key))
        del header["key"]
        write_zip(store.object_path(key), dict(header, version=2), arrays)
        os.makedirs(os.path.dirname(store.object_path(misfiled)), exist_ok=True)
        shutil.copyfile(store.object_path(good), store.object_path(misfiled))
        assert warm_store(store, [key, misfiled, good]) == [key, misfiled]
        with probe_scope() as probe:
            assert all(store.get(k) is not None for k in (key, misfiled, good))
        assert not {"serve.store.stale", "serve.store.corrupt"} & set(probe.counters)
        assert store.keys() == sorted([key, misfiled, good])

    def test_warm_parallel_matches_serial(self, tmp_path):
        keys = [ScheduleKey("tbs", 20, 3, 10), ScheduleKey("tbs", 22, 3, 10)]
        serial = ScheduleStore(tmp_path / "serial")
        fanned = ScheduleStore(tmp_path / "fanned")
        warm_store(serial, keys, jobs=1)
        warm_store(fanned, keys, jobs=2)
        for key in keys:
            a, b = serial.get(key), fanned.get(key)
            assert len(a.steps) == len(b.steps)
            assert a.io_volume() == b.io_volume()


class TestServeCli:
    def test_warm_query_stats_roundtrip(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        base = ["--store", root, "--kernel", "tbs", "--ns", "20", "22",
                "--m", "3", "--s", "10"]
        # a repeated --ns is one key, searched once
        assert main(["serve", "warm"] + base + ["--ns", "20", "22", "22"]) == 0
        out = capsys.readouterr().out
        assert "2 searched, 0 already present" in out
        assert main(["serve", "warm"] + base) == 0
        assert "0 searched" in capsys.readouterr().out
        assert main(
            ["serve", "query"] + base
            + ["--requests", "40", "--cache-size", "2", "--batch", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "mem hits" in out and "coalesced" in out
        stats_json = str(tmp_path / "serve_stats.json")
        assert main(["serve", "stats", "--store", root, "--json", stats_json]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        doc = json.loads(open(stats_json).read())
        assert doc["experiment"] == "serve_stats"
        assert "provenance" in doc and doc["rows"][0]["entries"] == 2

    def test_query_cold_searches(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        assert main(
            ["serve", "query", "--store", root, "--kernel", "tbs",
             "--ns", "20", "--m", "3", "--s", "10",
             "--requests", "8", "--cache-size", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "searches" in out and "mean cold search" in out


def test_loaded_schedule_replays(tmp_path, case):
    """End to end: serve → load → replay on a fresh machine, bit-identical."""
    store = ScheduleStore(tmp_path / "s")
    key = ScheduleKey(*CASE_ARGS)
    warm_store(store, [key])
    m = case.make_machine()
    replay_schedule(store.get(key), m)
    m.assert_empty()
    assert np.array_equal(m.result("C"), case.reference["C"])
