"""One-step-ahead prediction error of a fitted model against a log.

Works on any CSV in the RawLog dialect (``read_table``, re-exported
from ``logs``), including trajectory exports that carry exact state
columns. When a dynamic-model validation has to fall back from state
columns to motion-capture data, the body-frame lateral velocity is
reconstructed by differentiation, by the tire dataset's own rule
(``datasets.pose_velocities``), which bounds the achievable accuracy;
exact checks should use trajectory exports.

Every row is predicted at once by the simulator's own step law
(``simulator.held_inputs`` and ``simulator.stepper``) on column arrays.
"""

from __future__ import annotations

import logging

import numpy as np

from . import models
from .datasets import pose_velocities
from .delay import delay_shift
from .errors import ConfigError, DataError
from .integrators import rk4_step  # unused; perfbench/tracing.py patches it by name
from .logs import command_out_of_range, grid_step, read_table
from .params import VehicleParams
from .preprocess import differentiate, smooth  # unused, like rk4_step
from .simulator import held_inputs, stepper

logger = logging.getLogger(__name__)


def _first_present(table: dict, *names: str) -> np.ndarray | None:
    for name in names:
        if name in table:
            return table[name]
    return None


def _applied_inputs(table: dict, params: VehicleParams, dt: float):
    for name in ("tau", "s", "tau_applied", "s_applied"):
        if name in table and (bad := command_out_of_range(table[name])) is not None:
            raise DataError(f"{name} must lie in [-1, 1] (row {bad + 1})")
    if "tau_applied" in table and "s_applied" in table:
        return table["tau_applied"], table["s_applied"]
    for name in ("tau", "s"):
        if name not in table:
            raise DataError(f"log needs a {name} column (or tau_applied and s_applied)")
    # reconstruct what the actuators saw by shifting the commands
    return (
        delay_shift(table["tau"], params.delays.long_delay, dt),
        delay_shift(table["s"], params.delays.steer_delay, dt),
    )


def _dt_of(table: dict) -> float:
    t = table.get("t")
    if t is None or t.size < 2:
        raise DataError("log needs a time column with at least two rows")
    return grid_step(t, DataError)


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
        *_, v_y = pose_velocities(table["t"], x, y, eta)
    return [x, y, eta, v_x, v_y, omega], ["x", "y", "eta", "v_x", "v_y", "omega"]


def one_step_rms(
    table: dict[str, np.ndarray],
    params: VehicleParams,
    model: str,
    *,
    normalized: bool = False,
) -> dict[str, float]:
    """Per-channel RMS of one-step-ahead predictions along a log whose
    commands lie in [-1, 1]. Rows are stepped as the simulator steps
    them, so a trajectory export validates to round-off under either
    slip convention."""
    if model not in ("kinematic", "dynamic"):
        raise ConfigError(f"unknown model kind {model!r}")
    dt = _dt_of(table)
    tau_app, s_app = _applied_inputs(table, params, dt)

    if model == "kinematic":
        states, channels = _kinematic_states(table)
    else:
        states, channels = _dynamic_states(table)

    predicted = stepper(model, params, dt, normalized=normalized)(
        [column[:-1] for column in states], held_inputs(tau_app[:-1], s_app[:-1], params))

    names = (
        models.KINEMATIC_STATE_NAMES if model == "kinematic" else models.DYNAMIC_STATE_NAMES
    )
    return {
        name: float(np.sqrt(np.mean((predicted[i] - states[i][1:]) ** 2)))
        for i, name in enumerate(names)
        if name in channels
    }
