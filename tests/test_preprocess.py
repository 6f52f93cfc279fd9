import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from minicar.errors import ConfigError, DataError
from minicar.preprocess import (differentiate, erode_mask, local_poly_derivative, local_poly_value,
                                rolling_stats, smooth)


def test_smooth_window_one_is_identity(rng):
    x = rng.normal(size=50)
    np.testing.assert_array_equal(smooth(x, 1), x)


def test_smooth_leaves_constants_alone():
    x = np.full(100, 3.7)
    np.testing.assert_allclose(smooth(x, 21), x, rtol=1e-14)


def test_smooth_preserves_length(rng):
    x = rng.normal(size=33)
    assert smooth(x, 7).size == 33


def test_smooth_reduces_white_noise_variance(rng):
    x = rng.normal(size=20000)
    window = 21
    interior = smooth(x, window)[window:-window]
    # variance of a mean of `window` iid samples
    assert np.var(interior) == pytest.approx(1.0 / window, rel=0.15)


def test_smooth_rejects_even_window():
    with pytest.raises(ConfigError):
        smooth(np.zeros(10), 4)


def test_smooth_rejects_oversized_window():
    with pytest.raises(ConfigError):
        smooth(np.zeros(5), 7)


def test_differentiate_constant_is_zero():
    t = np.linspace(0, 1, 50)
    np.testing.assert_array_equal(differentiate(np.full(50, 2.0), t), np.zeros(50))


def test_differentiate_identity_is_one():
    t = np.linspace(0, 1, 101)
    np.testing.assert_allclose(differentiate(t.copy(), t), np.ones(101), rtol=1e-12)


def test_differentiate_exact_on_quadratics():
    t = np.arange(0, 1.0001, 0.01)
    d = differentiate(t * t, t)
    np.testing.assert_allclose(d[1:-1], 2 * t[1:-1], atol=1e-10)


def test_differentiate_needs_three_samples():
    with pytest.raises(DataError):
        differentiate(np.zeros(2), np.array([0.0, 1.0]))


def test_differentiate_rejects_nonmonotone_time():
    with pytest.raises(DataError):
        differentiate(np.zeros(4), np.array([0.0, 1.0, 0.5, 2.0]))


def test_differentiate_rejects_unequal_lengths():
    with pytest.raises(ConfigError, match="^series and t must have equal length$"):
        differentiate(np.zeros(4), np.arange(5.0))


def test_erode_mask_rejects_a_negative_guard():
    with pytest.raises(ConfigError, match="^guard must be non-negative$"):
        erode_mask(np.ones(4, dtype=bool), -1)


@pytest.mark.parametrize("window", [3, 6])
def test_local_poly_rejects_a_window_too_small_or_even(window):
    with pytest.raises(ConfigError, match=rf"^local polynomial window must be odd and >= 5, "
                                          rf"got {window}$"):
        local_poly_value(np.zeros(20), window)


def test_local_poly_rejects_a_window_longer_than_the_series():
    with pytest.raises(ConfigError, match="^window 7 exceeds series length 6$"):
        local_poly_derivative(np.zeros(6), 0.01, 7)


@pytest.mark.parametrize("dt", [0.0, -0.01])
def test_local_poly_derivative_rejects_a_non_positive_dt(dt):
    with pytest.raises(ConfigError, match="^dt must be positive$"):
        local_poly_derivative(np.zeros(20), dt, 5)


def test_erode_mask():
    mask = np.array([0, 1, 1, 1, 1, 1, 0, 1], dtype=bool)
    np.testing.assert_array_equal(
        erode_mask(mask, 1),
        np.array([0, 0, 1, 1, 1, 0, 0, 0], dtype=bool),
    )
    np.testing.assert_array_equal(erode_mask(mask, 0), mask)


def _erode_mask_by_loop(mask, guard):
    return [all(mask[max(i - guard, 0):i + guard + 1]) for i in range(len(mask))]


@given(mask=st.lists(st.booleans(), max_size=60), guard=st.integers(0, 40))
@example(mask=[], guard=0)
@example(mask=[], guard=3)
def test_erode_mask_matches_a_plain_loop(mask, guard):
    """A row survives when every row of its window, clipped at the ends, is True."""
    eroded = erode_mask(np.array(mask, dtype=bool), guard)
    assert eroded.dtype == bool
    assert eroded.tolist() == _erode_mask_by_loop(mask, guard)


def test_rolling_stats_constant():
    mean, std = rolling_stats(np.full(40, 5.0), 11)
    np.testing.assert_allclose(mean, 5.0)
    np.testing.assert_allclose(std, 0.0, atol=1e-7)
