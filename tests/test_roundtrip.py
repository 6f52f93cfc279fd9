"""Zero-noise identifiability: every sub-model fit recovers its own
generating curve to better than 1e-6 RMS over the sampled range.

Initial guesses follow the plot-reading practice the pipeline
documents: order-of-magnitude values a person would read off the
synthesized data. The front-tire family in particular has long, nearly
flat parameter valleys, and a deliberately bad initial guess parks
first-order optimizers on a shelf well above this test's bar.
"""

from dataclasses import replace

import numpy as np
import pytest

from minicar import fitting, models
from minicar.datasets import Dataset


def _curve_rms(curve, params, data):
    return float(np.sqrt(np.mean((curve(*data.inputs, params) - data.label) ** 2)))


def test_friction_zero_noise_round_trip(ref):
    v = np.linspace(0.05, 3.0, 200)
    data = Dataset((v,), models.friction_force(v, ref.friction))
    _, result = fitting.fit_friction(data)
    assert _curve_rms(models.friction_force, result.params, data) < 1e-6


def test_motor_zero_noise_round_trip(ref):
    taus, vs = np.meshgrid(np.arange(0.16, 0.41, 0.04), np.linspace(0, 3, 60))
    tau, v = taus.ravel(), vs.ravel()
    data = Dataset((tau, v), models.motor_force(tau, v, ref.motor))
    _, result = fitting.fit_motor(data)
    assert _curve_rms(models.motor_force, result.params, data) < 1e-6


def test_steering_zero_noise_round_trip(ref):
    s = np.linspace(-1, 1, 41)
    data = Dataset((s,), models.steering_angle(s, ref.steering))
    _, result = fitting.fit_steering(data)
    assert _curve_rms(models.steering_angle, result.params, data) < 1e-6


def test_front_tire_zero_noise_round_trip(ref):
    alpha = np.linspace(-0.5, 0.5, 200)
    data = Dataset((alpha,), models.pacejka_lateral(alpha, ref.tire))
    config = replace(fitting.default_config("front_tire"),
                     initial=np.array([3.0, 0.8, 0.35, -2.0]))  # read off the plotted curve
    result = fitting.lm_fit(fitting._stage_residuals("front_tire", data), config)
    assert _curve_rms(models.pacejka_lateral, result.params, data) < 1e-6


def test_rear_tire_zero_noise_round_trip(ref):
    alpha = np.linspace(-0.5, 0.5, 200)
    data = Dataset((alpha,), models.rear_lateral(alpha, ref.tire.C_r))
    c_r, result = fitting.fit_rear_tire(data)
    assert _curve_rms(models.rear_lateral, result.params, data) < 1e-6
    assert c_r == pytest.approx(ref.tire.C_r, rel=1e-6)
