"""Tests for repro.config (derived shape parameters and their inequalities)
and for the machine configuration those parameters size."""

import math

import pytest

from repro import TwoLevelMachine
from repro.config import (
    lbc_block_size,
    square_tile_side_for_memory,
    tiled_tbs_shape_for_memory,
    triangle_side_for_memory,
)
from repro.errors import ConfigurationError


class TestMachineConfig:
    """The machine has two configurations: numeric (the default) and counting."""

    def test_valid(self):
        m = TwoLevelMachine(10)
        assert m.capacity == 10
        assert m.numerics is True
        assert TwoLevelMachine(10, numerics=False).numerics is False

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_nonpositive_capacity_rejected(self, bad):
        for numerics in (True, False):
            with pytest.raises(ConfigurationError):
                TwoLevelMachine(bad, numerics=numerics)


class TestTriangleSide:
    @pytest.mark.parametrize(
        "s,expected",
        [(1, 1), (2, 1), (3, 2), (5, 2), (6, 3), (10, 4), (14, 4), (15, 5), (5050, 100)],
    )
    def test_known_values(self, s, expected):
        assert triangle_side_for_memory(s) == expected

    @pytest.mark.parametrize("s", list(range(1, 200)) + [10**6, 10**9])
    def test_defining_inequality(self, s):
        k = triangle_side_for_memory(s)
        assert k * (k + 1) // 2 <= s, "triangle plus vector must fit"
        assert (k + 1) * (k + 2) // 2 > s, "k must be maximal"

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            triangle_side_for_memory(0)


class TestSquareTileSide:
    @pytest.mark.parametrize("s", list(range(3, 200)) + [10**6])
    def test_defining_inequality(self, s):
        t = square_tile_side_for_memory(s)
        assert t >= 1
        assert t * t + 2 * t <= s, "tile plus two streamed vectors must fit"
        assert (t + 1) * (t + 1) + 2 * (t + 1) > s, "t must be maximal"

    def test_known_values(self):
        assert square_tile_side_for_memory(3) == 1
        assert square_tile_side_for_memory(15) == 3
        assert square_tile_side_for_memory(5050) == 70

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            square_tile_side_for_memory(2)


class TestTiledShape:
    @pytest.mark.parametrize("s", [18, 30, 66, 120, 465, 5050])
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_defining_inequality(self, s, k):
        tri = k * (k - 1) // 2
        if s < tri + k:
            with pytest.raises(ConfigurationError):
                tiled_tbs_shape_for_memory(s, k)
            return
        b = tiled_tbs_shape_for_memory(s, k)
        assert b >= 1
        assert b * b * tri + k * b <= s
        assert (b + 1) * (b + 1) * tri + k * (b + 1) > s

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ConfigurationError):
            tiled_tbs_shape_for_memory(100, 1)


class TestLbcBlockSize:
    @pytest.mark.parametrize("n", [1, 4, 16, 36, 100, 144, 97, 360, 1024])
    def test_divides_and_near_sqrt(self, n):
        b = lbc_block_size(n)
        assert n % b == 0
        # No other divisor is closer to sqrt(N).
        target = math.sqrt(n)
        for d in range(1, n + 1):
            if n % d == 0:
                assert abs(b - target) <= abs(d - target) + 1e-12

    def test_square_number_gets_exact_root(self):
        assert lbc_block_size(144) == 12
        assert lbc_block_size(400) == 20

    def test_prime_degenerates_gracefully(self):
        # A prime N only has divisors 1 and N; pick the closer one.
        assert lbc_block_size(7) in (1, 7)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            lbc_block_size(0)
