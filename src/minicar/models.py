"""Sub-model curves, their parameter Jacobians and the ODE right-hand
sides of the two bicycle models.

This is the one place a curve's formula is written: the simulator
evaluates the curves and the fitting stages minimise their squared
residuals. Each curve unpacks its parameters in field order
(``a, b, c = p``), so ``p`` may be the parameter dataclass or a fit
vector in the same order.

Each curve has one value-and-Jacobian function,
``<curve>_and_jacobian(*inputs, p, jac, work)``, which evaluates the
curve and its derivatives with respect to ``p`` in one pass, so every
intermediate they share is computed once. The inputs are 1-D float
arrays of N rows. The caller owns both buffers and may reuse them
from call to call: ``jac`` is a C-contiguous ``(N, n_p)`` array whose
column k the function overwrites with d(curve)/d(p[k]), and ``work``
is a C-contiguous ``(JACOBIAN_WORK_ROWS, N)`` scratch array. The
returned curve value is a row of ``work``, valid until the next call
that uses it. Transcendental functions run on contiguous ``work``
rows only, and every expression keeps the evaluation order of the
plain curve, so the value equals the curve's bit for bit.

Every other function here is pure and broadcasts over numpy arrays,
so the same code serves scalar evaluation, batched dataset work and
the fixed-step integrator. States are plain float arrays:

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

# Rows of the scratch array a value-and-Jacobian function may use.
JACOBIAN_WORK_ROWS = 6

KINEMATIC_STATE_NAMES = ("x", "y", "eta", "v")
DYNAMIC_STATE_NAMES = ("x", "y", "eta", "v_x", "v_y", "omega")


def friction_force(v, p) -> np.ndarray:
    """Longitudinal resistance -(a*tanh(b*v) + v*c); odd in v, opposes motion."""
    a, b, c = p
    v = np.asarray(v, dtype=float)
    return -(a * np.tanh(b * v) + v * c)


def friction_force_and_jacobian(v, p, jac, work) -> np.ndarray:
    a, b, c = p
    th, t, u = work[:3]
    np.tanh(np.multiply(v, b, out=th), out=th)
    np.negative(th, out=jac[:, 0])
    np.subtract(1, np.multiply(th, th, out=t), out=t)
    np.multiply(np.multiply(v, -a, out=u), t, out=jac[:, 1])  # -a * v * (1 - th^2)
    np.negative(v, out=jac[:, 2])
    np.add(np.multiply(th, a, out=t), np.multiply(v, c, out=u), out=t)
    return np.negative(t, out=t)


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


def motor_force_and_jacobian(tau, v, p, jac, work) -> np.ndarray:
    d, e, g = p
    x, gate, half_gate, half_x, soft = work[:5]
    np.add(tau, g, out=x)
    np.tanh(np.multiply(x, THROTTLE_SHARPNESS, out=gate), out=gate)
    np.add(gate, 1.0, out=half_gate)
    np.multiply(x, 0.5, out=half_x)
    np.multiply(half_x, half_gate, out=soft)  # smooth_positive_throttle(tau, g)
    jac[:, 0] = soft
    np.negative(np.multiply(v, soft, out=jac[:, 1]), out=jac[:, 1])
    # d soft / d g = 0.5 * (gate + 1) + x * 0.5 * k * (1 - gate^2)
    np.multiply(half_gate, 0.5, out=half_gate)
    np.subtract(1, np.multiply(gate, gate, out=gate), out=gate)
    np.multiply(np.multiply(half_x, THROTTLE_SHARPNESS, out=half_x), gate, out=half_x)
    np.add(half_gate, half_x, out=half_gate)
    drive = np.subtract(d, np.multiply(v, e, out=x), out=x)  # d - v * e
    np.multiply(drive, half_gate, out=jac[:, 2])
    return np.multiply(drive, soft, out=soft)


def steering_angle(s, p) -> np.ndarray:
    """Map a normalized steering command to a road-wheel angle [rad].

    Two tanh branches are blended by a soft switch on the sign of
    (s + c_t), capturing left/right asymmetry of the linkage.
    """
    a_t, b_t, c_t, d_t, e_t = p
    x = np.asarray(s, dtype=float) + c_t
    weight = 0.5 * (np.tanh(STEER_BLEND_SHARPNESS * x) + 1.0)
    return weight * a_t * np.tanh(b_t * x) + (1.0 - weight) * d_t * np.tanh(e_t * x)


def steering_angle_and_jacobian(s, p, jac, work) -> np.ndarray:
    a_t, b_t, c_t, d_t, e_t = p
    x, dw_dc, w, tb, te, wa = work
    np.add(s, c_t, out=x)
    gate = np.tanh(np.multiply(x, STEER_BLEND_SHARPNESS, out=dw_dc), out=dw_dc)
    np.multiply(np.add(gate, 1.0, out=w), 0.5, out=w)
    # d w / d c_t = 0.5 * k * (1 - gate^2)
    np.subtract(1, np.multiply(gate, gate, out=dw_dc), out=dw_dc)
    np.multiply(dw_dc, 0.5 * STEER_BLEND_SHARPNESS, out=dw_dc)
    np.tanh(np.multiply(x, b_t, out=tb), out=tb)
    np.tanh(np.multiply(x, e_t, out=te), out=te)
    np.multiply(w, tb, out=jac[:, 0])
    np.multiply(w, a_t, out=wa)
    wd = np.subtract(1, w, out=w)  # 1 - w, then (1 - w) * d_t
    np.multiply(wd, te, out=jac[:, 3])
    np.multiply(wd, d_t, out=wd)
    # jac[:, 1], jac[:, 2] and jac[:, 4] double as scratch until written
    np.multiply(wa, x, out=jac[:, 1])
    d_c = np.multiply(tb, a_t, out=jac[:, 2])
    np.subtract(d_c, np.multiply(te, d_t, out=jac[:, 4]), out=d_c)
    np.multiply(dw_dc, d_c, out=d_c)  # dw_dc * (a_t * tb - d_t * te)
    value = np.multiply(wa, tb, out=dw_dc)
    np.add(value, np.multiply(wd, te, out=jac[:, 4]), out=value)
    sech_b = np.subtract(1, np.multiply(tb, tb, out=tb), out=tb)
    sech_e = np.subtract(1, np.multiply(te, te, out=te), out=te)
    np.multiply(jac[:, 1], sech_b, out=jac[:, 1])
    np.multiply(np.multiply(wa, b_t, out=wa), sech_b, out=wa)
    np.multiply(np.multiply(wd, e_t, out=tb), sech_e, out=tb)
    np.add(np.add(wa, tb, out=wa), d_c, out=d_c)
    np.multiply(np.multiply(wd, x, out=jac[:, 4]), sech_e, out=jac[:, 4])
    return value


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


def pacejka_lateral_and_jacobian(alpha, p, jac, work) -> np.ndarray:
    D, C, B, E, *_ = p
    ba, gap, u, du_dB, outer, value = work
    np.multiply(alpha, B, out=ba)
    np.subtract(np.arctan(ba, out=gap), ba, out=gap)  # -(ba - arctan(ba)), exactly
    np.add(np.multiply(gap, E, out=u), ba, out=u)  # ba - E * (ba - arctan(ba))
    # d u / d B = alpha * (1 - E * (1 - 1 / (1 + ba^2)))
    np.add(np.multiply(ba, ba, out=du_dB), 1, out=du_dB)
    np.subtract(1, np.divide(1, du_dB, out=du_dB), out=du_dB)
    np.subtract(1, np.multiply(du_dB, E, out=du_dB), out=du_dB)
    np.multiply(alpha, du_dB, out=du_dB)
    atan_u = np.arctan(u, out=ba)
    np.multiply(atan_u, C, out=outer)
    np.sin(outer, out=value)
    np.cos(outer, out=outer)
    jac[:, 0] = value
    np.multiply(outer, D, out=outer)
    np.multiply(outer, atan_u, out=jac[:, 1])
    # d(value)/du = D * cos(C * atan_u) * C / (1 + u^2)
    np.multiply(outer, C, out=outer)
    np.divide(outer, np.add(np.multiply(u, u, out=u), 1, out=u), out=outer)
    np.multiply(outer, du_dB, out=jac[:, 2])
    np.multiply(outer, gap, out=jac[:, 3])
    return np.multiply(value, D, out=value)


def rear_lateral(alpha, c_r) -> np.ndarray:
    """Linear rear lateral force C_r * alpha (the rear never saturates here).

    ``c_r`` is the coefficient itself or its one-element fit vector.
    """
    return c_r * np.asarray(alpha, dtype=float)


def rear_lateral_and_jacobian(alpha, c_r, jac, work) -> np.ndarray:
    jac[:, 0] = alpha
    return np.multiply(alpha, c_r, out=work[0])


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
