"""Property-based checks of the pure model invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from minicar import models
from minicar.delay import delay_shift
from minicar.params import reference_params
from minicar.preprocess import smooth

REF = reference_params()

finite_floats = st.floats(-10.0, 10.0, allow_nan=False)
unit_floats = st.floats(-1.0, 1.0, allow_nan=False)


@given(v=finite_floats)
def test_friction_is_odd(v):
    assert models.friction_force(-v, REF.friction) == -models.friction_force(v, REF.friction)


@given(alpha=st.floats(-np.pi, np.pi, allow_nan=False))
def test_pacejka_is_odd_and_bounded(alpha):
    f = models.pacejka_lateral(alpha, REF.tire)
    assert abs(f) <= REF.tire.D
    np.testing.assert_allclose(models.pacejka_lateral(-alpha, REF.tire), -f, atol=1e-15)


@given(s1=unit_floats, s2=unit_floats)
def test_steering_monotone_pairwise(s1, s2):
    lo, hi = min(s1, s2), max(s1, s2)
    assert models.steering_angle(lo, REF.steering) <= models.steering_angle(hi, REF.steering) + 1e-15


@given(tau=unit_floats)
def test_smooth_positive_throttle_approximates_relu(tau):
    value = float(models.smooth_positive_throttle(tau, REF.motor.g))
    relu = max(0.0, tau + REF.motor.g)
    # worst gap of the tanh gate at sharpness 100 is under 0.012
    assert abs(value - relu) < 0.012


@given(vx=finite_floats, vy=finite_floats, eta=st.floats(-50, 50, allow_nan=False))
def test_body_frame_rotation_preserves_norm(vx, vy, eta):
    bx, by = models.body_frame_velocity(vx, vy, eta)
    np.testing.assert_allclose(np.hypot(bx, by), np.hypot(vx, vy), rtol=1e-9, atol=1e-12)


@given(
    values=st.lists(st.floats(-5, 5, allow_nan=False), min_size=5, max_size=60),
    half=st.integers(0, 10),
)
def test_smooth_stays_within_input_range(values, half):
    series = np.asarray(values)
    window = min(2 * half + 1, len(series) | 1)
    if window > len(series):
        window = (len(series) | 1) - 2 if (len(series) | 1) > len(series) else len(series) | 1
    window = max(window, 1)
    if window > len(series):
        return
    out = smooth(series, window)
    assert out.min() >= series.min() - 1e-12
    assert out.max() <= series.max() + 1e-12


@given(
    commands=st.lists(unit_floats, min_size=1, max_size=80),
    steps=st.integers(0, 25),
)
@settings(max_examples=60)
def test_delay_shift_is_a_pure_shift(commands, steps):
    dt = 0.01
    reference = [commands[0]] * steps + list(commands)
    out = delay_shift(commands, steps * dt, dt)
    assert out.tolist() == reference[: len(commands)]
