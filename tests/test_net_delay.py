"""Tests for repro.net.delay."""

import math

import pytest

from repro.net.delay import ConstantDelay, ExponentialDelay, UniformDelay
from repro.util.rng import make_rng


class TestConstantDelay:
    def test_returns_constant(self):
        model = ConstantDelay(2.5)
        assert model.sample(0, 1, make_rng(0)) == 2.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantDelay(-1.0)

    def test_zero_allowed(self):
        assert ConstantDelay(0.0).sample(0, 1, make_rng(0)) == 0.0

    def test_nan_rejected(self):
        # A NaN arrival time at the head of the event queue stalls it.
        with pytest.raises(ValueError):
            ConstantDelay(math.nan)

    def test_infinite_rejected(self):
        # An infinite delay is a send that never arrives and is never lost.
        with pytest.raises(ValueError):
            ConstantDelay(math.inf)


class TestExponentialDelay:
    def test_mean_approximated(self):
        model = ExponentialDelay(mean=2.0)
        rng = make_rng(1)
        samples = [model.sample(0, 1, rng) for _ in range(20000)]
        assert abs(sum(samples) / len(samples) - 2.0) < 0.1

    def test_nonnegative(self):
        model = ExponentialDelay(mean=1.0)
        rng = make_rng(2)
        assert all(model.sample(0, 1, rng) >= 0 for _ in range(100))

    def test_invalid_mean_rejected(self):
        with pytest.raises(ValueError):
            ExponentialDelay(0.0)

    def test_nan_mean_rejected(self):
        with pytest.raises(ValueError):
            ExponentialDelay(math.nan)

    def test_infinite_mean_rejected(self):
        with pytest.raises(ValueError):
            ExponentialDelay(math.inf)


class TestUniformDelay:
    def test_within_bounds(self):
        model = UniformDelay(0.5, 1.5)
        rng = make_rng(3)
        for _ in range(500):
            value = model.sample(0, 1, rng)
            assert 0.5 <= value <= 1.5

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            UniformDelay(2.0, 1.0)
        with pytest.raises(ValueError):
            UniformDelay(-1.0, 1.0)

    @pytest.mark.parametrize(
        "low, high", [(0.5, math.nan), (math.nan, 1.0), (0.5, math.inf)]
    )
    def test_non_finite_bounds_rejected(self, low, high):
        with pytest.raises(ValueError):
            UniformDelay(low, high)
