import numpy as np

from volcnn.tensor import RngStream


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

    def test_gaussian_moments(self):
        g = RngStream(7).gaussian(1_000_000)
        assert abs(g.mean()) < 0.01
        assert abs(g.var() - 1.0) < 0.02

    def test_gaussian_odd_count(self):
        assert RngStream(3).gaussian(5).shape == (5,)

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
