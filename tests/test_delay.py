import numpy as np
import pytest

from minicar.delay import MAX_LAG_S, delay_shift, estimate_delay_xcorr
from minicar.errors import ConfigError, DataError


# --- delay_shift ---------------------------------------------------------------


def test_delay_shift_zero_is_passthrough(rng):
    x = rng.normal(size=20)
    np.testing.assert_array_equal(delay_shift(x, 0.0, 0.01), x)


def test_delay_shift_by_whole_steps(rng):
    x = rng.normal(size=100)
    out = delay_shift(x, 0.15, 0.01)
    assert out.shape == x.shape
    np.testing.assert_array_equal(out[15:], x[:-15])


def test_delay_shift_fills_with_first_sample():
    x = np.array([-0.2] + [1.0] * 9)
    out = delay_shift(x, 0.05, 0.01)
    assert out.tolist() == [-0.2] * 6 + [1.0] * 4


def test_delay_shift_rounds_to_whole_steps():
    x = np.arange(5.0)
    # 0.014 s at 0.01 s per sample rounds to one sample
    np.testing.assert_array_equal(delay_shift(x, 0.014, 0.01), [0.0, 0.0, 1.0, 2.0, 3.0])


def test_delay_shift_keeps_length_when_delay_exceeds_series():
    out = delay_shift(np.array([0.3, 0.1, 0.2]), 0.05, 0.01)
    assert out.tolist() == [0.3, 0.3, 0.3]
    assert delay_shift(np.array([]), 0.05, 0.01).size == 0


def test_delay_shift_rejects_negative():
    with pytest.raises(ConfigError):
        delay_shift(np.zeros(3), -0.1, 0.01)
    with pytest.raises(ConfigError):
        delay_shift(np.zeros(3), 0.1, 0.0)


# --- estimate_delay_xcorr --------------------------------------------------------


def test_identical_series_gives_zero_delay(rng):
    x = rng.normal(size=200)
    assert estimate_delay_xcorr(x, x, 0.01) == 0.0


def test_pure_shift_recovered_exactly(rng):
    dt = 0.01
    x = rng.normal(size=500)
    shifted = np.concatenate([np.zeros(15), x[:-15]])
    est = estimate_delay_xcorr(x, shifted, dt)
    assert abs(est - 0.15) <= dt + 1e-12


def test_periodic_signal_prefers_smallest_nonnegative_lag():
    dt = 0.01
    t = np.arange(0, 6, dt)
    cmd = np.sin(2 * np.pi * 1.0 * t)  # period 1 s
    meas = np.sin(2 * np.pi * 1.0 * (t - 0.15))
    est = estimate_delay_xcorr(cmd, meas, dt)
    assert est == pytest.approx(0.15, abs=dt)


def test_flat_series_rejected():
    with pytest.raises(DataError, match="zero-variance"):
        estimate_delay_xcorr(np.ones(100), np.ones(100), 0.01)


def test_too_short_rejected():
    with pytest.raises(DataError):
        estimate_delay_xcorr(np.arange(5.0), np.arange(5.0), 0.01)


def test_length_mismatch_rejected():
    with pytest.raises(DataError):
        estimate_delay_xcorr(np.arange(20.0), np.arange(21.0), 0.01)


@pytest.mark.parametrize("dt", [0.0, -0.01])
def test_non_positive_dt_rejected(dt):
    with pytest.raises(DataError, match="^dt must be positive$"):
        estimate_delay_xcorr(np.arange(20.0), np.arange(20.0), dt)


def test_lag_search_respects_max_lag(rng):
    dt = 0.01
    x = rng.normal(size=400)
    shifted = np.concatenate([np.zeros(80), x[:-80]])  # 0.8 s shift
    est = estimate_delay_xcorr(x, shifted, dt)
    assert est <= MAX_LAG_S + 1e-12
