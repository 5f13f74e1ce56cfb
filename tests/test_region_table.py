"""The process-wide region table: sharing, repeated indices, read-only flats, lifetime.

Every region constructor looks its input up in one table keyed on
(constructor, matrix, column count, index bytes, scalars).  These tests
pin the contract the machine, the compute ops and ``load_schedule`` rely
on: one object per distinct input, built and checked once; failures never
stored; flats read-only; entries held only as long as something else
holds their region.
"""

import gc
import io
import sys
import threading

import numpy as np
import pytest

from repro import TwoLevelMachine
from repro.baselines.ooc_chol import ooc_chol
from repro.baselines.ooc_syrk import ooc_syrk
from repro.core.syr2k import tbs_syr2k
from repro.core.tbs import tbs_syrk
from repro.errors import ConfigurationError
from repro.graph.compare import record_case
from repro.machine import regions
from repro.machine.regions import (
    column_segment_region,
    lower_tile_region,
    row_segment_region,
    tile_region,
    triangle_block_region,
)
from repro.sched.schedule import ComputeStep, record_schedule
from repro.trace.io import load_schedule, save_schedule
from repro.utils.rng import random_spd_matrix, random_tall_matrix

#: Each constructor with its index-set argument left open.
CONSTRUCTORS = {
    "tile_rows": lambda idx: tile_region("A", idx, [0, 1], 5),
    "tile_cols": lambda idx: tile_region("A", [0, 1], idx, 5),
    "triangle_block": lambda idx: triangle_block_region("A", idx, 5),
    "lower_tile": lambda idx: lower_tile_region("A", idx, 5),
    "lower_tile_strict": lambda idx: lower_tile_region("A", idx, 5, strict=True),
    "column_segment": lambda idx: column_segment_region("A", idx, 2, 5),
    "row_segment": lambda idx: row_segment_region("A", 3, idx, 5),
}


def table_keys(*matrices: str) -> list[tuple]:
    gc.collect()
    return [key for key in list(regions._TABLE.keys()) if key[1] in matrices]


def count_builds(monkeypatch, name: str) -> list[int]:
    """Count the calls of the region builder ``regions.<name>``."""
    calls = [0]
    build = getattr(regions, name)

    def counted(*args):
        calls[0] += 1
        return build(*args)

    monkeypatch.setattr(regions, name, counted)
    return calls


class TestRepeatedIndices:
    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_repeated_index_raises(self, name):
        with pytest.raises(ConfigurationError, match="duplicate-free"):
            CONSTRUCTORS[name]([1, 1, 2])

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_distinct_unsorted_input_is_sorted(self, name):
        got = CONSTRUCTORS[name]([2, 0, 1])
        want = CONSTRUCTORS[name]([0, 1, 2])
        assert np.array_equal(got.flat, want.flat)
        assert np.all(np.diff(got.flat) > 0)

    def test_tile_keeps_its_promised_size(self):
        with pytest.raises(ConfigurationError):
            tile_region("A", [1, 1], [0, 1], 5)
        assert tile_region("A", [1, 2], [0, 1], 5).size == 2 * 2

    def test_lower_tile_of_repeated_rows_raises(self):
        with pytest.raises(ValueError):  # ConfigurationError is a ValueError
            lower_tile_region("A", [1, 1, 2], 5)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: tile_region("A", [-1, 0], [0], 5),
            lambda: tile_region("A", [0], [4, 5], 5),
            lambda: lower_tile_region("A", [0, 5], 5),
            lambda: column_segment_region("A", [0, 1], 5, 5),
            lambda: row_segment_region("A", -1, [0], 5),
        ],
    )
    def test_out_of_range_index_raises(self, build):
        with pytest.raises(ConfigurationError):
            build()


def _syrk_machine(n):
    m = TwoLevelMachine(15)
    m.add_matrix("A", random_tall_matrix(n, 3, seed=0))
    m.add_matrix("B", random_tall_matrix(n, 3, seed=1))
    m.add_matrix("C", np.zeros((n, n)))
    return m


class TestKernelsRejectRepeatedRows:
    """A repeated row fails at the call, not as a misleading later error."""

    @pytest.mark.parametrize("rows", [[0, 1, 1, 2], list(range(30)) + [7]])
    @pytest.mark.parametrize("kernel", ["chol", "ocs", "tbs", "syr2k"])
    def test_duplicated_row_raises(self, kernel, rows):
        n = max(rows) + 1
        if kernel == "chol":
            m = TwoLevelMachine(15)
            m.add_matrix("A", random_spd_matrix(n, seed=0))
            run = lambda: ooc_chol(m, "A", rows)  # noqa: E731
        else:
            m = _syrk_machine(n)
            run = {
                "ocs": lambda: ooc_syrk(m, "A", "C", rows, range(3)),
                "tbs": lambda: tbs_syrk(m, "A", "C", rows, range(3)),
                "syr2k": lambda: tbs_syr2k(m, "A", "B", "C", rows, range(3)),
            }[kernel]
        with pytest.raises(ConfigurationError, match="duplicate-free"):
            run()
        assert m.stats.loads == 0  # rejected before any traffic


class TestSharing:
    def test_same_input_same_object(self):
        first = tile_region("S1", [0, 2], [1], 5)
        assert tile_region("S1", np.array([0, 2]), range(1, 2), 5) is first
        assert tile_region("S1", [0, 2], [1], 6) is not first  # ncols is part of the key
        assert triangle_block_region("S1", [1, 3], 5) is lower_tile_region(
            "S1", [1, 3], 5, strict=True
        )

    def test_hit_runs_no_constructor(self, monkeypatch):
        builds = count_builds(monkeypatch, "_build_tile")
        m = TwoLevelMachine(10)
        m.add_matrix("S2", np.zeros((4, 4)))
        first = m.tile("S2", [0, 1], [2, 3])
        for _ in range(3):
            assert m.tile("S2", [0, 1], [2, 3]) is first
        assert builds[0] == 1

    def test_failure_is_never_cached(self, monkeypatch):
        builds = count_builds(monkeypatch, "_build_triangle")
        for _ in range(3):
            with pytest.raises(ConfigurationError):
                lower_tile_region("S3", [1, 1, 2], 5)
        assert builds[0] == 3
        assert table_keys("S3") == []

    def test_concurrent_misses_share_one_object(self):
        """Threads that miss on the same inputs at once still get one object."""
        inputs = [list(range(i, i + 4)) for i in range(300)]
        got: list = [None] * 8

        def work(slot, barrier):
            barrier.wait()
            got[slot] = [column_segment_region("S4", rows, 1, 400) for rows in inputs]

        barrier = threading.Barrier(len(got))
        threads = [threading.Thread(target=work, args=(i, barrier)) for i in range(len(got))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for regions_seen in got[1:]:
            assert all(a is b for a, b in zip(got[0], regions_seen))

    def test_recorded_and_loaded_flats_are_read_only(self):
        case = record_case("tbs", 20, 6, 15)
        buf = io.BytesIO()
        save_schedule(case.schedule, buf)
        buf.seek(0)
        for schedule in (case.schedule, load_schedule(buf)):
            for step in schedule.steps:
                if isinstance(step, ComputeStep):
                    handed_out = step.op.reads() + step.op.writes()
                else:
                    handed_out = [step.region]
                for region in handed_out:
                    assert not region.flat.flags.writeable
            with pytest.raises(ValueError):
                schedule.steps[0].region.flat[0] = 0

    def test_counting_run_keeps_no_entries(self, monkeypatch):
        builds = count_builds(monkeypatch, "_build_column_segments")
        n, mcols = 300, 6
        m = TwoLevelMachine(15, numerics=False)
        m.add_matrix("A_life", np.zeros((n, mcols)))
        m.add_matrix("C_life", np.zeros((n, n)))
        assert not m._recorders
        tbs_syrk(m, "A_life", "C_life", range(n), range(mcols))
        m.assert_empty()
        assert builds[0] > 0  # the run did build through the table
        assert table_keys("A_life", "C_life") == []

    def test_recorded_schedule_holds_its_entries(self):
        m = TwoLevelMachine(15, numerics=False)
        m.add_matrix("A_held", np.zeros((20, 3)))
        m.add_matrix("C_held", np.zeros((20, 20)))
        schedule = record_schedule(
            m, lambda: tbs_syrk(m, "A_held", "C_held", range(20), range(3))
        )
        assert table_keys("A_held", "C_held")
        del schedule
        assert table_keys("A_held", "C_held") == []
