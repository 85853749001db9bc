import math

import numpy as np
import pytest

from volcnn.errors import InvalidParameterError
from volcnn.tensor import RngStream

from oracles import splitmix64_reference, uniform_reference

SEEDS = [0, 1, 42, 0x9E3779B97F4A7C15, -1]


class TestRngStreamBits:
    """The stream's bits, against a sequential pure-Python SplitMix64."""

    def test_oracle_matches_published_first_output(self):
        # SplitMix64 from seed 0 starts with 0xE220A8397B1DCDAF
        assert splitmix64_reference(0, 1) == [0xE220A8397B1DCDAF]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_raw_matches_oracle_across_split_calls(self, seed):
        s = RngStream(seed)
        got = np.concatenate([s.raw(3), s.raw(0), s.raw(2)])
        assert got.dtype == np.uint64
        assert [int(z) for z in got] == splitmix64_reference(seed, 5)
        np.testing.assert_array_equal(got, RngStream(seed).raw(5))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_uniform_matches_oracle(self, seed):
        s = RngStream(seed)
        got = np.concatenate([s.uniform(4), s.uniform(3)])
        assert got.tolist() == uniform_reference(seed, 7)


class TestGaussian32:
    def test_pairs_match_box_muller_on_oracle_bits(self):
        # pair i reads raw draw i: u1 from bits 63..40, u2 from bits 31..8;
        # the cosines come first, then the sines, cut to n
        n = 9
        z = RngStream(5).gaussian32(n)
        assert z.dtype == np.float32 and z.shape == (n,)
        cos, sin = [], []
        for raw in splitmix64_reference(5, (n + 1) // 2):
            r = math.sqrt(-2.0 * math.log(1.0 - (raw >> 40) / 2.0 ** 24))
            theta = 2 * math.pi * ((raw >> 8) & 0xFFFFFF) / 2.0 ** 24
            cos.append(r * math.cos(theta))
            sin.append(r * math.sin(theta))
        np.testing.assert_allclose(z, (cos + sin)[:n], rtol=1e-5, atol=1e-6)

    def test_uses_one_raw_draw_per_pair(self):
        s = RngStream(8)
        s.gaussian32(7)
        np.testing.assert_array_equal(s.raw(2), RngStream(8).raw(6)[4:])

    def test_negative_count_rejected(self):
        for draw in (RngStream(1).gaussian32, RngStream(1).raw):
            with pytest.raises(InvalidParameterError, match="draw count must be >= 0"):
                draw(-1)

    def test_moments_and_tail_of_n01(self):
        # Bounds are five standard errors of each statistic under N(0, 1).
        n = 1 << 22
        z = RngStream(2021).gaussian32(n).astype(np.float64)
        assert abs(z.mean()) <= 5 / math.sqrt(n)
        assert abs(z.var() - 1.0) <= 5 * math.sqrt(2.0 / n)
        p3 = math.erfc(3 / math.sqrt(2))
        assert abs(np.mean(np.abs(z) > 3) - p3) <= 5 * math.sqrt(p3 * (1 - p3) / n)
        # u1 >= 2**-24 caps the radius; allow a few float32 roundings above it
        assert np.abs(z).max() <= math.sqrt(-2.0 * math.log(2.0 ** -24)) * (1 + 2 ** -20)


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(42).uniform(3)
        b = RngStream(42).uniform(3)
        np.testing.assert_array_equal(a, b)

    def test_zero_draws_leave_state(self):
        s = RngStream(42)
        out = s.uniform(0)
        assert out.size == 0
        np.testing.assert_array_equal(s.uniform(3), RngStream(42).uniform(3))

    def test_stream_advances(self):
        s = RngStream(42)
        first = s.uniform(3)
        second = s.uniform(3)
        assert not np.array_equal(first, second)

    def test_uniform_range(self):
        u = RngStream(9).uniform(10000)
        assert np.all(u >= 0) and np.all(u < 1)

    def test_uniform_mean_law_of_large_numbers(self):
        # oracle: direct simulation at a fixed seed
        u = RngStream(42).uniform(100000)
        assert 0.49 <= u.mean() <= 0.51

    def test_fork_deterministic_and_distinct(self):
        base = RngStream(1)
        a = base.fork("augment").uniform(5)
        b = RngStream(1).fork("augment").uniform(5)
        c = RngStream(1).fork("dropout").uniform(5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_fork_does_not_consume_parent(self):
        s = RngStream(5)
        s.fork("x")
        np.testing.assert_array_equal(s.uniform(4), RngStream(5).uniform(4))

    def test_integers_bounds(self):
        v = RngStream(11).integers(10000, 7)
        assert v.min() >= 0 and v.max() <= 6
        # all values hit for a healthy stream
        assert set(np.unique(v)) == set(range(7))
        with pytest.raises(InvalidParameterError, match="bound must be >= 1"):
            RngStream(11).integers(1, 0)
