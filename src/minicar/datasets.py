"""Turn raw logs into labelled rows for the staged sub-model fits.

Each builder's Dataset holds the argument columns of one sub-model
curve and a label derived from the log by smoothing, differentiation,
rigid-body bookkeeping or ``models.kinematic_steering_angle``. A builder
skips a log too short for its smoothing windows, and raises DataError
only when no log gives a row.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import models
from .delay import delay_shift
from .errors import DataError
from .logs import RawLog
from .params import Geometry, VehicleParams
from .preprocess import (
    SMOOTH_WINDOW,
    differentiate,
    erode_mask,
    local_poly_derivative,
    local_poly_value,
    pose_velocities,
    rolling_stats,
    smooth,
)

logger = logging.getLogger(__name__)

# Speed below which encoder quantization dominates; rows under this are
# rejected by every operation that divides by or inverts velocity.
V_MIN = 0.05

# Force labels differentiate noisy encoder speed, and the friction
# curve's tanh knee bends hard below 0.2 m/s: a moving average wide
# enough to tame the noise there flattens the knee and biases the
# fitted bend sharpness. The force builders therefore use a cubic
# local-polynomial derivative, which stays unbiased through the bend
# and supports a wide window.
FORCE_WINDOW = 21

# Steady-segment detection for constant-steering tests.
STEADY_WINDOW_S = 0.5
STEADY_REL_TOL = 0.05
# Absolute yaw-rate scale: a purely relative threshold would reject
# every near-zero-yaw segment as soon as the IMU has any noise.
STEADY_OMEGA_FLOOR = 0.3
# Fewest rows a steering segment needs, in total and steady above V_MIN.
MIN_SEGMENT_ROWS = 10

@dataclass(frozen=True)
class Dataset:
    """Labelled rows for one sub-model curve: ``inputs`` holds one 1-D
    column per argument of the curve, in argument order, and ``label``
    the value the curve should take on each row. Finite, non-empty and
    read-only."""

    inputs: tuple[np.ndarray, ...]
    label: np.ndarray

    def __post_init__(self):
        inputs = tuple(np.array(column, dtype=float) for column in self.inputs)
        label = np.array(self.label, dtype=float)
        columns = (*inputs, label)
        if label.ndim != 1 or any(column.shape != label.shape for column in inputs):
            raise DataError("inputs and label must be 1-D columns of equal length")
        if label.size == 0:
            raise DataError("dataset is empty")
        if not all(np.isfinite(column).all() for column in columns):
            raise DataError("dataset contains non-finite entries")
        for column in columns:
            column.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "label", label)

    def __len__(self) -> int:
        return self.label.size


def _stacked(blocks: list) -> Dataset:
    """The Dataset of a builder's ``(inputs, label)`` row blocks, stacked
    in order; a block's column may be a 1-D array or a single value."""
    inputs, labels = zip(*blocks)
    return Dataset(tuple(map(np.hstack, zip(*inputs))), np.hstack(labels))


# Commanded throttle leads the applied force by the actuation delay;
# rows within this many seconds of a throttle transition are discarded
# so delayed actuation cannot leak across the label stencil.
TRANSITION_GUARD_S = 0.05


def _force_rows(log: RawLog, m: float, commanded: np.ndarray):
    """Smoothed speed and total-force labels m * dv/dt for one log, and
    the rows whose whole stencil shares the ``commanded`` condition and
    lies inside the log."""
    v = local_poly_value(log.v_enc, FORCE_WINDOW)
    force = m * local_poly_derivative(log.v_enc, log.dt, FORCE_WINDOW)
    trim = FORCE_WINDOW // 2 + 1  # half smoothing window + central-difference reach
    keep = erode_mask(commanded, trim + int(np.ceil(TRANSITION_GUARD_S / log.dt)))
    keep[:trim] = False
    keep[len(log) - trim :] = False
    return v, force, keep


def build_friction_dataset(logs: Sequence[RawLog], m: float) -> Dataset:
    """Coasting rows only: speed, labelled with the total force (pure friction).

    A row qualifies when the commanded throttle is zero across the whole
    differentiation stencil (so delayed actuation and smoothing cannot
    leak motor force into the labels) and the vehicle is still moving.
    """
    blocks = []
    for log in logs:
        if len(log) < FORCE_WINDOW:
            continue
        v, force, keep = _force_rows(log, m, log.tau == 0.0)
        keep &= v > V_MIN
        if np.any(keep):
            blocks.append(((v[keep],), force[keep]))
    if not blocks:
        raise DataError("no coasting data: need rows with tau = 0 and v > v_min")
    return _stacked(blocks)


def build_motor_dataset(logs: Sequence[RawLog], m: float, friction) -> Dataset:
    """Powered rows: throttle and speed, labelled with the total force
    minus friction."""
    blocks = []
    for log in logs:
        if len(log) < FORCE_WINDOW:
            continue
        v, force, keep = _force_rows(log, m, log.tau > 0.0)
        if np.any(keep):
            blocks.append(((log.tau[keep], v[keep]),
                           force[keep] - models.friction_force(v[keep], friction)))
    if not blocks:
        raise DataError("no powered data: need rows with tau > 0")
    return _stacked(blocks)


def _constant_runs(values: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) index pairs of the maximal runs of equal values."""
    if values.size == 0:
        return []
    bounds = [0, *(np.flatnonzero(values[1:] != values[:-1]) + 1).tolist(), values.size]
    return list(zip(bounds[:-1], bounds[1:]))


def build_steering_dataset(logs: Sequence[RawLog], l: float) -> Dataset:
    """One averaged (s, delta) pair per steady constant-steering segment.

    A segment qualifies when the commanded steering is constant and the
    rolling standard deviation of the yaw rate stays below
    STEADY_REL_TOL of max(|rolling mean|, STEADY_OMEGA_FLOOR), which
    rejects spin-up transients while tolerating sensor noise around
    zero yaw.
    """
    blocks = []
    skipped = 0
    for log in logs:
        if len(log) < SMOOTH_WINDOW:
            continue
        dt = log.dt
        stat_window = max(3, int(round(STEADY_WINDOW_S / dt)) | 1)
        v = smooth(log.v_enc, SMOOTH_WINDOW)
        omega = smooth(log.omega_imu, SMOOTH_WINDOW)
        for start, stop in _constant_runs(log.s):
            if stop - start < max(MIN_SEGMENT_ROWS, stat_window):
                skipped += 1
                continue
            seg_omega = omega[start:stop]
            seg_v = v[start:stop]
            mean, std = rolling_stats(seg_omega, stat_window)
            steady = std < STEADY_REL_TOL * np.maximum(np.abs(mean), STEADY_OMEGA_FLOOR)
            usable = steady & (seg_v > V_MIN)
            if np.count_nonzero(usable) < MIN_SEGMENT_ROWS:
                skipped += 1
                logger.warning(
                    "steering segment s=%+.2f in %s excluded (no steady rows above v_min)",
                    log.s[start],
                    log.name or "<log>",
                )
                continue
            delta = models.kinematic_steering_angle(seg_omega[usable], seg_v[usable], l)
            blocks.append(((log.s[start],), np.mean(delta)))
    if not blocks:
        raise DataError("no steady constant-steering segments found")
    if skipped:
        logger.info("steering dataset: %d segments skipped", skipped)
    return _stacked(blocks)


def _axle_forces(ax_abs, ay_abs, domega, eta, geom: Geometry) -> tuple:
    """Body-frame longitudinal force and front and rear lateral forces
    (f_x, f_yf, f_yr) of the planar rigid-body force balance.

    The world-frame force m*(ax, ay), rotated into the body frame, is
    (f_x, f_yf + f_yr); the yaw moment l_f*f_yf - l_r*f_yr = I_z*domega
    splits the lateral total between the axles.
    """
    f_x, f_y = models.body_frame_velocity(geom.m * ax_abs, geom.m * ay_abs, eta)
    moment = geom.I_z * domega
    return f_x, (geom.l_r * f_y + moment) / geom.l, (geom.l_f * f_y - moment) / geom.l


def build_tire_dataset(logs: Sequence[RawLog], params: VehicleParams) -> tuple[Dataset, Dataset]:
    """Slip-angle/lateral-force pairs for the front and rear tires, the
    slip angles in the parameters' convention.

    Pose tracks are differentiated twice (with smoothing between
    stages) to get body-frame velocities, accelerations and yaw
    acceleration, from which ``_axle_forces`` gives each row's total
    longitudinal force and the two axle lateral forces; the front force
    is then projected into the steered tire frame assuming the drive
    force splits equally between the axles.
    """
    geom = params.geometry
    front, rear = [], []
    for log in logs:
        if log.mocap is None:
            raise DataError(f"tire dataset needs motion-capture columns ({log.name or '<log>'})")
        if len(log) < 3 + 2 * SMOOTH_WINDOW:
            continue
        t = log.t
        eta, vx_abs, vy_abs, v_x, v_y = pose_velocities(t, log.mocap.x_t, log.mocap.y_t,
                                                        log.mocap.eta_t)
        omega = differentiate(eta, t)
        ax_abs = differentiate(smooth(vx_abs, SMOOTH_WINDOW), t)
        ay_abs = differentiate(smooth(vy_abs, SMOOTH_WINDOW), t)
        domega = differentiate(smooth(omega, SMOOTH_WINDOW), t)

        # applied steering lags the command by the identified delay
        s_applied = delay_shift(log.s, params.delays.steer_delay, log.dt)
        delta = models.steering_angle(s_applied, params.steering)

        f_x, f_yf_veh, f_yr_veh = _axle_forces(ax_abs, ay_abs, domega, eta, geom)
        # project the front axle force into the steered tire frame
        f_xf = f_x / 2.0
        f_yf_tire = np.sin(-delta) * f_xf + np.cos(-delta) * f_yf_veh

        keep = (v_x > V_MIN) & np.isfinite(f_yf_tire)
        trim = 2 * (SMOOTH_WINDOW // 2 + 1)
        keep[:trim] = False
        keep[len(log) - trim :] = False
        if not np.any(keep):
            continue

        alpha_f, alpha_r = models.slip_angles(v_x[keep], v_y[keep], omega[keep], delta[keep],
                                              params)
        front.append(((alpha_f,), f_yf_tire[keep]))
        rear.append(((alpha_r,), f_yr_veh[keep]))
    if not front:
        raise DataError("no usable tire rows (all below v_min or logs too short)")
    return _stacked(front), _stacked(rear)
