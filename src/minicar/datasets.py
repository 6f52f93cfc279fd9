"""Turn raw logs into training matrices for the staged sub-model fits.

Each builder produces a Dataset whose X rows feed one sub-model curve
and whose Y rows are force or angle labels derived from the log by
smoothing, numerical differentiation and rigid-body bookkeeping.
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
    differentiate,
    erode_mask,
    local_poly_derivative,
    local_poly_value,
    rolling_stats,
    smooth,
)

logger = logging.getLogger(__name__)

# Speed below which encoder quantization dominates; rows under this are
# rejected by every operation that divides by or inverts velocity.
V_MIN = 0.05

# Moving-average width applied to encoder speed, yaw rate and pose
# tracks before differentiation.
SMOOTH_WINDOW = 5

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
    """Paired training inputs X (N x M) and labels Y (N x n)."""

    X: np.ndarray
    Y: np.ndarray
    x_names: tuple[str, ...]
    y_names: tuple[str, ...]

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        if X.shape[0] != Y.shape[0]:
            raise DataError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
        if X.shape[0] == 0:
            raise DataError("dataset is empty")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise DataError("dataset contains non-finite entries")
        if X.shape[1] != len(self.x_names) or Y.shape[1] != len(self.y_names):
            raise DataError("column descriptor count does not match matrix width")
        X.setflags(write=False)
        Y.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    def __len__(self) -> int:
        return int(self.X.shape[0])


def _stacked(x_blocks: list, y_blocks: list, x_names: tuple[str, ...],
             y_names: tuple[str, ...]) -> Dataset:
    """The Dataset of a builder's row blocks, stacked in order; a block
    of one column may be a 1-D array or a single value."""
    def rows(blocks, width):
        return np.concatenate([np.reshape(block, (-1, width)) for block in blocks])

    return Dataset(X=rows(x_blocks, len(x_names)), Y=rows(y_blocks, len(y_names)),
                   x_names=x_names, y_names=y_names)


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
    """Coasting rows only: X = speed, Y = total force (pure friction).

    A row qualifies when the commanded throttle is zero across the whole
    differentiation stencil (so delayed actuation and smoothing cannot
    leak motor force into the labels) and the vehicle is still moving.
    """
    xs, ys = [], []
    for log in logs:
        if len(log) < 3:
            continue
        v, force, keep = _force_rows(log, m, log.tau == 0.0)
        keep &= v > V_MIN
        if np.any(keep):
            xs.append(v[keep])
            ys.append(force[keep])
    if not xs:
        raise DataError("no coasting data: need rows with tau = 0 and v > v_min")
    return _stacked(xs, ys, ("v [m/s]",), ("F_friction [N]",))


def build_motor_dataset(logs: Sequence[RawLog], m: float, friction) -> Dataset:
    """Powered rows: X = (throttle, speed), Y = total force minus friction."""
    xs, ys = [], []
    for log in logs:
        if len(log) < 3:
            continue
        v, force, keep = _force_rows(log, m, log.tau > 0.0)
        if np.any(keep):
            xs.append(np.column_stack([log.tau[keep], v[keep]]))
            ys.append(force[keep] - models.friction_force(v[keep], friction))
    if not xs:
        raise DataError("no powered data: need rows with tau > 0")
    return _stacked(xs, ys, ("tau", "v [m/s]"), ("F_motor [N]",))


def estimate_steering_angle_series(omega, v, l: float) -> np.ndarray:
    """Steering angle arctan(l * omega / v) from yaw rate and speed.

    Rows with v <= V_MIN are flagged as NaN rather than silently
    dropped, so callers keep their index alignment.
    """
    omega = np.asarray(omega, dtype=float)
    v = np.asarray(v, dtype=float)
    if omega.shape != v.shape:
        raise DataError("omega and v must have equal length")
    ok = v > V_MIN
    if not np.any(ok):
        raise DataError(f"all rows have v <= v_min ({V_MIN} m/s)")
    out = np.full(omega.shape, np.nan)
    out[ok] = np.arctan(l * omega[ok] / v[ok])
    return out


def _constant_runs(values: np.ndarray):
    """Yield (start, stop) index pairs of maximal constant runs."""
    n = values.size
    start = 0
    for i in range(1, n + 1):
        if i == n or values[i] != values[start]:
            yield start, i
            start = i


def build_steering_dataset(logs: Sequence[RawLog], l: float) -> Dataset:
    """One averaged (s, delta) pair per steady constant-steering segment.

    A segment qualifies when the commanded steering is constant and the
    rolling standard deviation of the yaw rate stays below
    STEADY_REL_TOL of max(|rolling mean|, STEADY_OMEGA_FLOOR), which
    rejects spin-up transients while tolerating sensor noise around
    zero yaw.
    """
    xs, ys = [], []
    skipped = 0
    for log in logs:
        if len(log) < 3:
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
            delta = estimate_steering_angle_series(seg_omega[usable], seg_v[usable], l)
            xs.append(log.s[start])
            ys.append(np.nanmean(delta))
    if not xs:
        raise DataError("no steady constant-steering segments found")
    if skipped:
        logger.info("steering dataset: %d segments skipped", skipped)
    return _stacked(xs, ys, ("s",), ("delta [rad]",))


def pose_velocities(t, x, y, eta) -> tuple:
    """``(eta, vx, vy, v_x, v_y)`` of a pose track: the heading smoothed
    over SMOOTH_WINDOW, the derivative of the smoothed position and that
    velocity rotated into the body frame by the smoothed heading."""
    x, y, eta = (smooth(track, SMOOTH_WINDOW) for track in (x, y, eta))
    vx, vy = differentiate(x, t), differentiate(y, t)
    return (eta, vx, vy, *models.body_frame_velocity(vx, vy, eta))


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


def build_tire_dataset(
    logs: Sequence[RawLog],
    params: VehicleParams,
    *,
    normalized: bool = False,
) -> tuple[Dataset, Dataset]:
    """Slip-angle/lateral-force pairs for the front and rear tires.

    Pose tracks are differentiated twice (with smoothing between
    stages) to get body-frame velocities, accelerations and yaw
    acceleration, from which ``_axle_forces`` gives each row's total
    longitudinal force and the two axle lateral forces; the front force
    is then projected into the steered tire frame assuming the drive
    force splits equally between the axles.
    """
    geom = params.geometry
    front_x, front_y, rear_x, rear_y = [], [], [], []
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

        alpha_f, alpha_r = models.slip_angles(
            v_x[keep], v_y[keep], omega[keep], delta[keep], geom, normalized=normalized
        )
        front_x.append(alpha_f)
        front_y.append(f_yf_tire[keep])
        rear_x.append(alpha_r)
        rear_y.append(f_yr_veh[keep])
    if not front_x:
        raise DataError("no usable tire rows (all below v_min or logs too short)")
    return (_stacked(front_x, front_y, ("alpha_f [rad]",), ("F_y_front [N]",)),
            _stacked(rear_x, rear_y, ("alpha_r [rad]",), ("F_y_rear [N]",)))
