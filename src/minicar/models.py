"""Sub-model curves, their parameter Jacobians and the ODE right-hand
sides of the two bicycle models.

This is the one place a curve's formula is written: the simulator
evaluates the curves and the fitting stages minimise their squared
residuals. Each curve unpacks its parameters in field order
(``a, b, c = p``), so ``p`` may be the parameter dataclass or a fit
vector in the same order. Each ``<curve>_jacobian`` takes the same
arguments and stacks the derivatives with respect to those parameters
on a new last axis.

Every function here is pure and broadcasts over numpy arrays, so the
same code serves scalar evaluation, batched dataset work and the
fixed-step integrator. States are plain float arrays:

* kinematic: ``[x, y, eta, v]`` with (x, y) at the rear axle
* dynamic:   ``[x, y, eta, v_x, v_y, omega]`` with (x, y) at the CoM
  and (v_x, v_y) in the body frame

Headings accumulate without wrapping; wrap only for display.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError
from .params import Geometry, VehicleParams

# Fixed sharpness constants of the input maps. These are part of the
# model structure, not fitting parameters.
THROTTLE_SHARPNESS = 100.0
STEER_BLEND_SHARPNESS = 30.0

KINEMATIC_STATE_NAMES = ("x", "y", "eta", "v")
DYNAMIC_STATE_NAMES = ("x", "y", "eta", "v_x", "v_y", "omega")


def friction_force(v, p) -> np.ndarray:
    """Longitudinal resistance -(a*tanh(b*v) + v*c); odd in v, opposes motion."""
    a, b, c = p
    v = np.asarray(v, dtype=float)
    return -(a * np.tanh(b * v) + v * c)


def friction_force_jacobian(v, p) -> np.ndarray:
    a, b, c = p
    th = np.tanh(b * v)
    return np.stack([-th, -a * v * (1 - th * th), -v], axis=-1)


def smooth_positive_throttle(tau, g) -> np.ndarray:
    """Smooth stand-in for max(0, tau + g).

    The tanh gate keeps the curve continuously differentiable so that
    gradient-based fitting and MPC-style consumers behave well around
    the dead-zone boundary.
    """
    x = np.asarray(tau, dtype=float) + g
    return x * 0.5 * (np.tanh(THROTTLE_SHARPNESS * x) + 1.0)


def motor_force(tau, v, p) -> np.ndarray:
    """Drive force (d - v*e) * smooth_positive_throttle(tau, g).

    Zero below the dead zone (tau <= -g) and at the no-load speed d/e.
    """
    d, e, g = p
    return (d - np.asarray(v, dtype=float) * e) * smooth_positive_throttle(tau, g)


def motor_force_jacobian(tau, v, p) -> np.ndarray:
    d, e, g = p
    k = THROTTLE_SHARPNESS
    x = tau + g
    gate = np.tanh(k * x)
    soft = x * 0.5 * (gate + 1.0)
    dsoft_dg = 0.5 * (gate + 1.0) + x * 0.5 * k * (1 - gate * gate)
    return np.stack([soft, -v * soft, (d - v * e) * dsoft_dg], axis=-1)


def steering_angle(s, p) -> np.ndarray:
    """Map a normalized steering command to a road-wheel angle [rad].

    Two tanh branches are blended by a soft switch on the sign of
    (s + c_t), capturing left/right asymmetry of the linkage.
    """
    a_t, b_t, c_t, d_t, e_t = p
    x = np.asarray(s, dtype=float) + c_t
    weight = 0.5 * (np.tanh(STEER_BLEND_SHARPNESS * x) + 1.0)
    return weight * a_t * np.tanh(b_t * x) + (1.0 - weight) * d_t * np.tanh(e_t * x)


def steering_angle_jacobian(s, p) -> np.ndarray:
    a_t, b_t, c_t, d_t, e_t = p
    k = STEER_BLEND_SHARPNESS
    x = s + c_t
    gate = np.tanh(k * x)
    w = 0.5 * (gate + 1.0)
    tb, te = np.tanh(b_t * x), np.tanh(e_t * x)
    sech_b, sech_e = 1 - tb * tb, 1 - te * te
    dw_dc = 0.5 * k * (1 - gate * gate)
    d_c = (
        w * a_t * b_t * sech_b
        + (1 - w) * d_t * e_t * sech_e
        + dw_dc * (a_t * tb - d_t * te)
    )
    return np.stack(
        [w * tb, w * a_t * x * sech_b, d_c, (1 - w) * te, (1 - w) * d_t * x * sech_e],
        axis=-1,
    )


def kinematic_rhs(state, delta, f_total, geom: Geometry) -> np.ndarray:
    """Time derivative of the kinematic state ``[x, y, eta, v]``.

    ``f_total`` is the net longitudinal force (drive plus friction),
    precomputed by the caller.
    """
    state = np.asarray(state, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if np.any(np.abs(delta) >= np.pi / 2):
        raise ConfigError("steering angle magnitude must stay below pi/2")
    eta = state[..., 2]
    v = state[..., 3]
    out = np.empty(state.shape)
    out[..., 0] = v * np.cos(eta)
    out[..., 1] = v * np.sin(eta)
    out[..., 2] = v * np.tan(delta) / geom.l
    out[..., 3] = np.asarray(f_total, dtype=float) / geom.m
    return out


def slip_angles(v_x, v_y, omega, delta, geom: Geometry, *, normalized: bool = False,
                v_eps: float = 1e-6):
    """Front and rear tire slip angles [rad].

    The default form feeds the raw lateral velocities ``v_y + omega*l_f``
    and ``v_y - omega*l_r`` straight into arctan; this is the convention
    the reference parameter set was fitted against. With ``normalized``
    the arguments are divided by ``v_x`` first (the textbook definition),
    which requires ``v_x`` to stay away from zero.
    """
    v_y = np.asarray(v_y, dtype=float)
    omega = np.asarray(omega, dtype=float)
    front_arg = v_y + omega * geom.l_f
    rear_arg = v_y - omega * geom.l_r
    if normalized:
        v_x = np.asarray(v_x, dtype=float)
        if np.any(v_x <= v_eps):
            raise DataError("normalized slip angles need v_x > 0")
        front_arg = front_arg / v_x
        rear_arg = rear_arg / v_x
    alpha_f = -np.arctan(front_arg) + delta
    alpha_r = -np.arctan(rear_arg)
    return alpha_f, alpha_r


def pacejka_lateral(alpha, p) -> np.ndarray:
    """Magic-formula lateral force D*sin(C*arctan(B*a - E*(B*a - arctan(B*a)))).

    Reads the first four fields (D, C, B, E) of ``p``, so TireParams,
    whose rear coefficient comes last, serves as is.
    """
    D, C, B, E, *_ = p
    ba = B * np.asarray(alpha, dtype=float)
    return D * np.sin(C * np.arctan(ba - E * (ba - np.arctan(ba))))


def pacejka_lateral_jacobian(alpha, p) -> np.ndarray:
    D, C, B, E, *_ = p
    ba = B * alpha
    atan_ba = np.arctan(ba)
    u = ba - E * (ba - atan_ba)
    atan_u = np.arctan(u)
    outer = np.cos(C * atan_u)
    du = D * outer * C / (1 + u * u)
    du_dB = alpha * (1 - E * (1 - 1 / (1 + ba * ba)))
    return np.stack(
        [np.sin(C * atan_u), D * outer * atan_u, du * du_dB, du * -(ba - atan_ba)],
        axis=-1,
    )


def rear_lateral(alpha, c_r) -> np.ndarray:
    """Linear rear lateral force C_r * alpha (the rear never saturates here).

    ``c_r`` is the coefficient itself or its one-element fit vector.
    """
    return c_r * np.asarray(alpha, dtype=float)


def rear_lateral_jacobian(alpha, c_r) -> np.ndarray:
    return np.asarray(alpha, dtype=float)[..., None]


def dynamic_rhs(state, delta, f_x_total, params: VehicleParams, *,
                normalized: bool = False) -> np.ndarray:
    """Time derivative of the dynamic state ``[x, y, eta, v_x, v_y, omega]``.

    ``f_x_total`` is the net longitudinal force; it is split equally
    between the axles (four-wheel drive), each half acting along its
    own tire frame. Lateral forces come from the magic-formula front
    tire and the linear rear tire.
    """
    if params.tire is None:
        raise ConfigError("dynamic model requires tire parameters")
    state = np.asarray(state, dtype=float)
    delta = np.asarray(delta, dtype=float)
    geom = params.geometry
    eta = state[..., 2]
    v_x = state[..., 3]
    v_y = state[..., 4]
    omega = state[..., 5]

    alpha_f, alpha_r = slip_angles(v_x, v_y, omega, delta, geom, normalized=normalized)
    f_yf = pacejka_lateral(alpha_f, params.tire)
    f_yr = rear_lateral(alpha_r, params.tire.C_r)
    f_half = np.asarray(f_x_total, dtype=float) / 2.0

    cos_d, sin_d = np.cos(delta), np.sin(delta)
    cos_e, sin_e = np.cos(eta), np.sin(eta)
    front_y = f_yf * cos_d + f_half * sin_d  # front axle force, vehicle-frame y
    out = np.empty(state.shape)
    out[..., 0] = v_x * cos_e - v_y * sin_e
    out[..., 1] = v_x * sin_e + v_y * cos_e
    out[..., 2] = omega
    out[..., 3] = (f_half + f_half * cos_d - f_yf * sin_d) / geom.m + omega * v_y
    out[..., 4] = (f_yr + front_y) / geom.m - omega * v_x
    out[..., 5] = (geom.l_f * front_y - geom.l_r * f_yr) / geom.I_z
    return out


def body_frame_velocity(v_abs_x, v_abs_y, eta):
    """Rotate an absolute-frame velocity into the body frame (by -eta)."""
    v_abs_x = np.asarray(v_abs_x, dtype=float)
    v_abs_y = np.asarray(v_abs_y, dtype=float)
    cos_e, sin_e = np.cos(eta), np.sin(eta)
    return cos_e * v_abs_x + sin_e * v_abs_y, -sin_e * v_abs_x + cos_e * v_abs_y


def rectangle_inertia(m: float, l: float, w: float) -> float:
    """Yaw inertia of a uniform l-by-w rectangle of mass m."""
    if m <= 0 or l <= 0 or w <= 0:
        raise ConfigError("rectangle_inertia needs positive mass and dimensions")
    return m * (l * l + w * w) / 12.0
