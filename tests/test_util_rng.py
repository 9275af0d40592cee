"""Tests for repro.util.rng."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.view import View
from repro.util.rng import BlockDraws, make_rng
from repro.util.stats import chi_square_uniformity


class TestMakeRng:
    def test_returns_generator(self):
        assert isinstance(make_rng(0), np.random.Generator)

    def test_none_seed_allowed(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_same_seed_same_stream(self):
        a = make_rng(42)
        b = make_rng(42)
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_different_seeds_diverge(self):
        a = make_rng(1)
        b = make_rng(2)
        draws_a = [int(a.integers(1 << 30)) for _ in range(8)]
        draws_b = [int(b.integers(1 << 30)) for _ in range(8)]
        assert draws_a != draws_b

    def test_passthrough_generator(self):
        generator = np.random.default_rng(5)
        assert make_rng(generator) is generator

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(9)
        assert isinstance(make_rng(seq), np.random.Generator)


#: The largest double below 1: the worst uniform ``integers`` can be handed.
ALMOST_ONE = math.nextafter(1.0, 0.0)

#: A fixed-seed statistical check is rejected below this p-value, or beyond
#: this many standard errors: a defect moves either by orders of magnitude.
ALPHA = 1e-4
STANDARD_ERRORS = 5.0


class _FixedUniforms:
    """Stands in for a ``Generator`` whose every uniform is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


def _mixed_calls(draws, count):
    out = []
    for step in range(count):
        out.append(draws.integers(40))
        out.append(draws.random())
        out.append(draws.exponential(0.5 + step % 3))
    return out


class TestBlockDraws:
    def test_same_seed_same_sequence_across_refills(self):
        # Three calls a step, so the block runs out mid-step more than once.
        count = BlockDraws.BLOCK
        first = _mixed_calls(BlockDraws(make_rng(7)), count)
        assert first == _mixed_calls(BlockDraws(make_rng(7)), count)
        assert first != _mixed_calls(BlockDraws(make_rng(8)), count)

    def test_every_uniform_is_served_once(self):
        draws, twin = BlockDraws(make_rng(3)), make_rng(3)
        served = [draws.random() for _ in range(2 * BlockDraws.BLOCK)]
        drawn = np.concatenate([twin.random(BlockDraws.BLOCK) for _ in range(2)])
        assert sorted(served) == sorted(drawn.tolist())

    def test_return_types_are_plain_python(self):
        draws = BlockDraws(make_rng(0))
        assert type(draws.integers(40)) is int
        assert type(draws.random()) is float
        assert type(draws.exponential(2.0)) is float

    @settings(max_examples=300, deadline=None)
    @given(
        high=st.integers(min_value=1, max_value=2**31),
        u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @example(high=2**31, u=ALMOST_ONE)
    @example(high=2**31 - 1, u=ALMOST_ONE)
    @example(high=3, u=ALMOST_ONE)
    @example(high=1, u=ALMOST_ONE)
    def test_integers_stay_below_high(self, high, u):
        assert 0 <= BlockDraws(_FixedUniforms(u)).integers(high) < high

    @pytest.mark.parametrize("high", [0, -1, -5, -(2**31)])
    def test_an_empty_range_fails_closed_like_the_generator(self, high):
        # int(0.7 * -5) == -3 would read a list from its end.
        with pytest.raises(ValueError):
            make_rng(0).integers(high)
        draws = BlockDraws(_FixedUniforms(0.7))
        with pytest.raises(ValueError):
            draws.integers(high)

    def test_extreme_uniforms_keep_the_other_draws_in_range(self):
        top = BlockDraws(_FixedUniforms(ALMOST_ONE))
        bottom = BlockDraws(_FixedUniforms(0.0))
        assert math.isfinite(top.exponential(1.0)) and top.exponential(1.0) > 0.0
        assert bottom.exponential(1.0) == 0.0
        assert top.random() < 1.0 and bottom.random() == 0.0

    def test_integers_are_uniform(self):
        draws, cells = BlockDraws(make_rng(11)), 40
        counts = [0] * cells
        for _ in range(100 * BlockDraws.BLOCK):
            counts[draws.integers(cells)] += 1
        _, p_value = chi_square_uniformity(counts)
        assert p_value > ALPHA

    @pytest.mark.parametrize("scale", [1.0 / 5000.0, 0.01, 3.0])
    def test_exponential_has_the_laws_moments_and_shape(self, scale):
        draws, size = BlockDraws(make_rng(13)), 100 * BlockDraws.BLOCK
        sample = np.array([draws.exponential(scale) for _ in range(size)])
        assert sample.min() >= 0.0
        # Exp(scale): variance scale^2, fourth central moment 9 scale^4, so
        # the sample variance has variance (9 - 1) scale^4 / size.
        assert abs(sample.mean() - scale) < STANDARD_ERRORS * scale / math.sqrt(size)
        assert abs(sample.var(ddof=1) - scale**2) < (
            STANDARD_ERRORS * scale**2 * math.sqrt(8.0 / size)
        )
        # Its CDF maps the law onto the uniform one.
        cells = 40
        counts = np.bincount(
            (cells * -np.expm1(-sample / scale)).astype(int), minlength=cells
        )
        _, p_value = chi_square_uniformity(counts)
        assert p_value > ALPHA

    def test_view_draws_through_it_unchanged(self):
        """``View`` makes the same calls on it as on a ``Generator``."""
        draws, view = BlockDraws(make_rng(5)), View(8)
        seen = set()
        for _ in range(2000):
            i, j = view.sample_two_slots(draws)
            assert i != j and 0 <= i < 8 and 0 <= j < 8
            seen.add((i, j))
        assert len(seen) == 8 * 7
        slots = {view.store_random_empty(k, False, draws) for k in range(8)}
        assert slots == set(range(8))
