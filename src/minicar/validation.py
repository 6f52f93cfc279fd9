"""One-step-ahead prediction error of a fitted model against a log.

Works on any CSV in the RawLog dialect (``read_table``, re-exported
from ``logs``), including trajectory exports that carry exact state
columns. When a dynamic-model validation has to fall back from state
columns to motion-capture data, the body-frame lateral velocity is
reconstructed by differentiation, which bounds the achievable
accuracy; exact checks should use trajectory exports.
"""

from __future__ import annotations

import logging

import numpy as np

from . import models
from .datasets import SMOOTH_WINDOW
from .delay import delay_shift
from .errors import ConfigError, DataError
from .integrators import rk4_step
from .logs import read_table, uniform_step
from .params import VehicleParams
from .preprocess import differentiate, smooth
from .simulator import BLEND_SPEED, rolling_fallback_step

logger = logging.getLogger(__name__)


def _first_present(table: dict, *names: str) -> np.ndarray | None:
    for name in names:
        if name in table:
            return table[name]
    return None


def _applied_inputs(table: dict, params: VehicleParams, dt: float):
    tau_app = _first_present(table, "tau_applied")
    s_app = _first_present(table, "s_applied")
    if tau_app is not None and s_app is not None:
        return tau_app, s_app
    # reconstruct what the actuators saw by shifting the commands
    return (
        delay_shift(table["tau"], params.delays.long_delay, dt),
        delay_shift(table["s"], params.delays.steer_delay, dt),
    )


def _dt_of(table: dict) -> float:
    t = table.get("t")
    if t is None or t.size < 2:
        raise DataError("log needs a time column with at least two rows")
    if np.any(np.diff(t) <= 0):
        raise DataError("log time must be strictly increasing")
    dt, off_grid = uniform_step(t)
    if off_grid is not None:
        raise DataError(f"one-step validation needs a uniform sample rate (row {off_grid + 1})")
    return dt


def _kinematic_states(table: dict) -> tuple[list, list[str]]:
    v = _first_present(table, "v", "v_enc")
    if v is None:
        raise DataError("kinematic validation needs a v or v_enc column")
    x = _first_present(table, "x", "x_t")
    y = _first_present(table, "y", "y_t")
    eta = _first_present(table, "eta", "eta_t")
    if x is not None and y is not None and eta is not None:
        return [x, y, eta, v], ["x", "y", "eta", "v"]
    # without pose the speed channel is still self-contained
    zeros = np.zeros_like(v)
    return [zeros, zeros, zeros, v], ["v"]


def _dynamic_states(table: dict) -> tuple[list, list[str]]:
    x = _first_present(table, "x", "x_t")
    y = _first_present(table, "y", "y_t")
    eta = _first_present(table, "eta", "eta_t")
    if x is None or y is None or eta is None:
        raise DataError("dynamic validation needs pose columns (state or mocap)")
    v_x = _first_present(table, "v_x", "v_enc")
    omega = _first_present(table, "omega", "omega_imu")
    if v_x is None or omega is None:
        raise DataError("dynamic validation needs v_x/v_enc and omega/omega_imu columns")
    v_y = _first_present(table, "v_y")
    if v_y is None:
        logger.warning("no v_y column; reconstructing it from pose by differentiation")
        t = table["t"]
        vx_abs = differentiate(smooth(x, SMOOTH_WINDOW), t)
        vy_abs = differentiate(smooth(y, SMOOTH_WINDOW), t)
        _, v_y = models.body_frame_velocity(vx_abs, vy_abs, eta)
    return [x, y, eta, v_x, v_y, omega], ["x", "y", "eta", "v_x", "v_y", "omega"]


def _one_step(model: str, current: list, inputs: tuple, params: VehicleParams, dt: float,
              normalized: bool) -> list:
    """One-step-ahead prediction of rows whose inputs all take the same
    branch: the kinematic model, the dynamic one, or (``model`` of
    "fallback") the simulator's rolling fallback below BLEND_SPEED."""
    gate, delta, tan_d, cos_d, sin_d = inputs
    motor, friction, geom = tuple(params.motor), tuple(params.friction), params.geometry

    def kinematic_rhs(y):
        return models.kinematic_rhs(y, tan_d, models.net_force(gate, y[3], motor, friction),
                                    geom)

    if model == "fallback":
        return rolling_fallback_step(kinematic_rhs, current, delta, tan_d, geom, dt)
    if model == "kinematic":
        models.check_kinematic_steering(delta)
        return rk4_step(kinematic_rhs, current, dt)
    tire = models.tire_coefficients(params)

    def dynamic_rhs(y):
        return models.dynamic_rhs(y, delta, cos_d, sin_d,
                                  models.net_force(gate, y[3], motor, friction), tire, geom,
                                  normalized=normalized)

    return rk4_step(dynamic_rhs, current, dt)


def one_step_rms(
    table: dict[str, np.ndarray],
    params: VehicleParams,
    model: str,
    *,
    normalized: bool = False,
) -> dict[str, float]:
    """Per-channel RMS of one-step-ahead predictions along a log.

    Each row is predicted as the simulator steps it: with
    ``normalized`` slip, a dynamic row that starts below BLEND_SPEED
    takes the simulator's rolling fallback, so a trajectory export
    validates to round-off under either slip convention.
    """
    if model not in ("kinematic", "dynamic"):
        raise ConfigError(f"unknown model kind {model!r}")
    dt = _dt_of(table)
    tau_app, s_app = _applied_inputs(table, params, dt)

    if model == "kinematic":
        states, channels = _kinematic_states(table)
    else:
        states, channels = _dynamic_states(table)

    current = [column[:-1] for column in states]
    delta = models.steering_angle(s_app[:-1], params.steering)
    inputs = (models.smooth_positive_throttle(tau_app[:-1], params.motor.g), delta,
              *models.steering_terms(delta))

    if model == "dynamic" and normalized:
        slow = current[3] < BLEND_SPEED
        predicted = [np.empty_like(column) for column in current]
        for rows, branch in ((slow, "fallback"), (~slow, "dynamic")):
            if rows.any():
                part = _one_step(branch, [column[rows] for column in current],
                                 tuple(a[rows] for a in inputs), params, dt, normalized)
                for out, column in zip(predicted, part):
                    out[rows] = column
    else:
        predicted = _one_step(model, current, inputs, params, dt, normalized)

    names = (
        models.KINEMATIC_STATE_NAMES if model == "kinematic" else models.DYNAMIC_STATE_NAMES
    )
    return {
        name: float(np.sqrt(np.mean((predicted[i] - states[i][1:]) ** 2)))
        for i, name in enumerate(names)
        if name in channels
    }
