"""Tests for repro.machine.regions: shapes, orientation, merging."""

import numpy as np
import pytest

from repro.machine.regions import (
    Region,
    column_segment_region,
    lower_tile_region,
    merge_regions,
    row_segment_region,
    tile_region,
    triangle_block_region,
)
from repro.sched.schedule import EvictStep, LoadStep


def unflatten(region: Region, ncols: int) -> set[tuple[int, int]]:
    return {(int(f) // ncols, int(f) % ncols) for f in region.flat}


class TestTileRegion:
    def test_size_and_content(self):
        r = tile_region("C", [1, 3], [0, 2], ncols=5)
        assert r.size == 4
        assert unflatten(r, 5) == {(1, 0), (1, 2), (3, 0), (3, 2)}

    def test_contiguous(self):
        r = tile_region("C", range(2), range(3), ncols=4)
        assert unflatten(r, 4) == {(i, j) for i in range(2) for j in range(3)}

    def test_flat_sorted_unique(self):
        r = tile_region("C", [3, 1], [2, 0], ncols=5)
        assert np.all(np.diff(r.flat) > 0)


class TestTriangleBlockRegion:
    def test_subdiagonal_orientation(self):
        r = triangle_block_region("C", [0, 2, 5], ncols=6)
        pairs = unflatten(r, 6)
        assert pairs == {(2, 0), (5, 0), (5, 2)}
        for i, j in pairs:
            assert i > j, "triangle blocks live strictly below the diagonal"

    @pytest.mark.parametrize("side", [2, 3, 5, 8])
    def test_size_formula(self, side):
        rows = np.arange(0, 3 * side, 3)
        r = triangle_block_region("C", rows, ncols=3 * side)
        assert r.size == side * (side - 1) // 2

    def test_scattered_rows(self):
        rows = [1, 4, 9, 10]
        r = triangle_block_region("C", rows, ncols=12)
        pairs = unflatten(r, 12)
        assert len(pairs) == 6
        assert all(i in rows and j in rows and i > j for i, j in pairs)

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ValueError):
            triangle_block_region("C", [1, 1, 2], ncols=5)


class TestLowerTileRegion:
    def test_includes_diagonal_by_default(self):
        r = lower_tile_region("C", [2, 3, 4], ncols=6)
        pairs = unflatten(r, 6)
        assert (2, 2) in pairs and (4, 2) in pairs and (3, 4) not in pairs
        assert len(pairs) == 6  # 3*(3+1)/2

    def test_strict_excludes_diagonal(self):
        r = lower_tile_region("C", [2, 3, 4], ncols=6, strict=True)
        pairs = unflatten(r, 6)
        assert all(i > j for i, j in pairs)
        assert len(pairs) == 3


class TestSegments:
    def test_column_segment(self):
        r = column_segment_region("A", [0, 3, 7], 2, ncols=4)
        assert unflatten(r, 4) == {(0, 2), (3, 2), (7, 2)}

    def test_row_segment(self):
        r = row_segment_region("L", 5, [0, 1, 4], ncols=6)
        assert unflatten(r, 6) == {(5, 0), (5, 1), (5, 4)}

    def test_empty_segment(self):
        r = column_segment_region("A", [], 0, ncols=4)
        assert r.size == 0


class TestMergeRegions:
    def test_union_not_double_count(self):
        a = tile_region("C", [0, 1], [0, 1], ncols=4)
        b = tile_region("C", [1, 2], [1, 2], ncols=4)
        merged = merge_regions([a, b])
        assert len(merged) == 1
        assert merged[0].size == 7  # 4 + 4 - 1 overlap

    def test_multiple_matrices(self):
        a = tile_region("C", [0], [0], ncols=4)
        b = tile_region("A", [0], [0, 1], ncols=4)
        merged = merge_regions([a, b])
        names = {r.matrix for r in merged}
        assert names == {"A", "C"}

    def test_empty(self):
        assert merge_regions([]) == []


class TestRegionBasics:
    def test_len_and_repr(self):
        r = tile_region("C", [0, 1], [0, 1, 2], ncols=5)
        assert len(r) == 6
        assert "C" in repr(r) and "n=6" in repr(r)

    def test_identity_equality(self):
        """Regions compare and hash by identity, so ``==``, ``in`` and
        ``list.remove`` over regions and the steps that hold them never
        compare flat arrays (which raised for more than one element)."""
        a, b = Region("C", np.array([0, 1])), Region("C", np.array([0, 1]))
        assert a == a and a != b and not (a == b)
        assert len({a, b, a}) == 2 and hash(a) == hash(a)
        steps = [LoadStep(b), LoadStep(a), EvictStep(a, writeback=False)]
        assert LoadStep(a) in steps and LoadStep(a) == steps[1]
        steps.remove(LoadStep(a))
        assert steps == [LoadStep(b), EvictStep(a, writeback=False)]
        assert len({LoadStep(a), LoadStep(a), LoadStep(b)}) == 2
