"""Curves and ODE right-hand sides for the two bicycle models.

Every function here is pure and broadcasts over numpy arrays, so the
same code serves scalar evaluation, batched dataset work and the
fixed-step integrator. States are plain float arrays:

* kinematic: ``[x, y, eta, v]`` with (x, y) at the rear axle
* dynamic:   ``[x, y, eta, v_x, v_y, omega]`` with (x, y) at the CoM
  and (v_x, v_y) in the body frame

Headings accumulate without wrapping; wrap only for display.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .params import Geometry, TireParams, VehicleParams

# Fixed sharpness constants of the input maps. These are part of the
# model structure, not fitting parameters.
THROTTLE_SHARPNESS = 100.0
STEER_BLEND_SHARPNESS = 30.0

KINEMATIC_STATE_NAMES = ("x", "y", "eta", "v")
DYNAMIC_STATE_NAMES = ("x", "y", "eta", "v_x", "v_y", "omega")


@dataclass(frozen=True)
class KinematicState:
    """Named view of the 4-state vector; (x, y) is the rear axle."""

    x: float = 0.0
    y: float = 0.0
    eta: float = 0.0
    v: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite(self.as_array())):
            raise ConfigError("state components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.eta, self.v])

    @classmethod
    def from_array(cls, state) -> "KinematicState":
        x, y, eta, v = (float(c) for c in state)
        return cls(x=x, y=y, eta=eta, v=v)


@dataclass(frozen=True)
class DynamicState:
    """Named view of the 6-state vector; (x, y) is the CoM and the
    velocities are body-frame."""

    x: float = 0.0
    y: float = 0.0
    eta: float = 0.0
    v_x: float = 0.0
    v_y: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite(self.as_array())):
            raise ConfigError("state components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.eta, self.v_x, self.v_y, self.omega])

    @classmethod
    def from_array(cls, state) -> "DynamicState":
        x, y, eta, v_x, v_y, omega = (float(c) for c in state)
        return cls(x=x, y=y, eta=eta, v_x=v_x, v_y=v_y, omega=omega)


def friction_force(v, p) -> np.ndarray:
    """Longitudinal resistance -(a*tanh(b*v) + v*c); odd in v, opposes motion."""
    return -(p.a * np.tanh(p.b * np.asarray(v, dtype=float)) + np.asarray(v, dtype=float) * p.c)


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
    return (p.d - np.asarray(v, dtype=float) * p.e) * smooth_positive_throttle(tau, p.g)


def steering_angle(s, p) -> np.ndarray:
    """Map a normalized steering command to a road-wheel angle [rad].

    Two tanh branches are blended by a soft switch on the sign of
    (s + c_t), capturing left/right asymmetry of the linkage.
    """
    x = np.asarray(s, dtype=float) + p.c_t
    weight = 0.5 * (np.tanh(STEER_BLEND_SHARPNESS * x) + 1.0)
    return weight * p.a_t * np.tanh(p.b_t * x) + (1.0 - weight) * p.d_t * np.tanh(p.e_t * x)


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


def pacejka_lateral(alpha, p: TireParams) -> np.ndarray:
    """Magic-formula lateral force D*sin(C*arctan(B*a - E*(B*a - arctan(B*a))))."""
    ba = p.B * np.asarray(alpha, dtype=float)
    return p.D * np.sin(p.C * np.arctan(ba - p.E * (ba - np.arctan(ba))))


def rear_lateral(alpha, c_r) -> np.ndarray:
    """Linear rear lateral force C_r * alpha (the rear never saturates here)."""
    return c_r * np.asarray(alpha, dtype=float)


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
