"""Zero-noise identifiability: every sub-model fit recovers its own
generating curve to better than 1e-6 RMS over the sampled range.

Initial guesses follow the plot-reading practice the pipeline
documents: order-of-magnitude values a person would read off the
synthesized data. The front-tire family in particular has long, nearly
flat parameter valleys, and a deliberately bad initial guess parks
first-order optimizers on a shelf well above this test's bar.
"""

import numpy as np
import pytest

from minicar import fitting, models
from minicar.datasets import Dataset


def _dataset(X, Y):
    return Dataset(
        X=X, Y=Y,
        x_names=tuple(f"x{i}" for i in range(np.atleast_2d(X).shape[1])),
        y_names=("y",),
    )


def _curve_rms(curve, params, data):
    columns = [data.X[:, j:j + 1] for j in range(data.X.shape[1])]
    return float(np.sqrt(np.mean((curve(*columns, params) - data.Y) ** 2)))


def test_friction_zero_noise_round_trip(ref):
    X = np.linspace(0.05, 3.0, 200)[:, None]
    data = _dataset(X, models.friction_force(X, ref.friction))
    _, result = fitting.fit_friction(data)
    assert _curve_rms(models.friction_force, result.params, data) < 1e-6


def test_motor_zero_noise_round_trip(ref):
    taus, vs = np.meshgrid(np.arange(0.16, 0.41, 0.04), np.linspace(0, 3, 60))
    X = np.column_stack([taus.ravel(), vs.ravel()])
    data = _dataset(X, models.motor_force(X[:, 0:1], X[:, 1:2], ref.motor))
    _, result = fitting.fit_motor(data)
    assert _curve_rms(models.motor_force, result.params, data) < 1e-6


def test_steering_zero_noise_round_trip(ref):
    X = np.linspace(-1, 1, 41)[:, None]
    data = _dataset(X, models.steering_angle(X, ref.steering))
    _, result = fitting.fit_steering(data)
    assert _curve_rms(models.steering_angle, result.params, data) < 1e-6


def test_front_tire_zero_noise_round_trip(ref):
    X = np.linspace(-0.5, 0.5, 200)[:, None]
    data = _dataset(X, models.pacejka_lateral(X, ref.tire))
    config = fitting.default_config(
        "front_tire",
        initial=np.array([3.0, 0.8, 0.35, -2.0]),  # read off the plotted curve
        max_iterations=20000,
    )
    result = fitting.lm_fit(fitting._stage_residuals("front_tire", data), config)
    assert _curve_rms(models.pacejka_lateral, result.params, data) < 1e-6


def test_rear_tire_zero_noise_round_trip(ref):
    X = np.linspace(-0.5, 0.5, 200)[:, None]
    data = _dataset(X, models.rear_lateral(X, ref.tire.C_r))
    c_r, result = fitting.fit_rear_tire(data)
    assert _curve_rms(models.rear_lateral, result.params, data) < 1e-6
    assert c_r == pytest.approx(ref.tire.C_r, rel=1e-6)
