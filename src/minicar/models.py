"""Sub-model curves, their parameter Jacobians and the laws and
right-hand sides of the two bicycle models.

This is the one place a curve's formula is written: the simulator
evaluates the curves and the fitting stages minimise their squared
residuals. Each curve unpacks its parameters in field order
(``a, b, c = p``), so ``p`` may be the parameter dataclass or a fit
vector in the same order.

Each curve has one Jacobian, ``<curve>_jacobian(*inputs, p)``, or with
its value from one pass, ``pacejka_lateral_and_jacobian``: for 1-D
inputs of N rows a fresh C-contiguous ``(N, n_p)`` array whose column
k is d(curve)/d(p[k]).

Every other function here is pure and takes numpy arrays of rows.
The transcendental functions are numpy's ufuncs, not ``math``'s, whose
results differ in the last bit.

Each model's law is written once: ``kinematic_speed_law`` (the speed
rate) and ``dynamic_body_law`` (the body rates), built once per run from
a VehicleParams with the curves they read written inline, in every
operation's order and with the same ufuncs, since on single floats a
Python call costs more than the arithmetic it wraps. They are the only
functions stepped on Python floats: ``simulate`` steps them on floats,
each ufunc result made a Python float, and ``simulator.stepper`` (and
so ``validate``) on rows; tests/test_bit_identity.py pins the two to
each other and to the curves. A state is a sequence of components, each
an array of rows (or, in a law, a float), and a right-hand side returns
the tuple of their derivatives:

* kinematic: ``(x, y, eta, v)`` with (x, y) at the rear axle;
  ``kinematic_rhs`` is ``heading_velocity``, the yaw rate and the speed law
* dynamic:   ``(x, y, eta, v_x, v_y, omega)`` with (x, y) at the CoM and
  (v_x, v_y) in the body frame; ``dynamic_rhs`` is ``world_velocity``,
  omega and the body law

Headings accumulate without wrapping; wrap only for display.

The inputs are held over an RK4 step, so the laws take what depends on
them alone precomputed, ``rate(gate, v)`` the gate and ``rates(u, body)``
a step's ``simulator.held_inputs`` ``u``. The kinematic yaw rate is
singular at |delta| = pi/2, so no step may propagate kinematically at
an angle that ``steering_refused`` flags; no right-hand side checks it.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError
from .params import Geometry, VehicleParams

# Fixed sharpness constants of the input maps. These are part of the
# model structure, not fitting parameters.
THROTTLE_SHARPNESS = 100.0
STEER_BLEND_SHARPNESS = 30.0

# Normalized slip angles divide by v_x, so they refuse any v_x at or
# below this speed [m/s].
SLIP_V_EPS = 1e-6

# The model kinds and the names of their state components, in order.
STATE_NAMES = {"kinematic": ("x", "y", "eta", "v"),
               "dynamic": ("x", "y", "eta", "v_x", "v_y", "omega")}


def friction_force(v, p):
    """Longitudinal resistance -(a*tanh(b*v) + v*c); odd in v, opposes motion."""
    a, b, c = p
    return -(a * np.tanh(b * v) + v * c)


def friction_force_jacobian(v, p) -> np.ndarray:
    a, b, c = p
    th = np.tanh(b * v)
    return np.stack([-th, -a * v * (1 - th * th), -v], axis=-1)


def smooth_positive_throttle(tau, g):
    """Smooth stand-in for max(0, tau + g).

    The tanh gate keeps the curve continuously differentiable so that
    gradient-based fitting and MPC-style consumers behave well around
    the dead-zone boundary.
    """
    x = tau + g
    return x * 0.5 * (np.tanh(THROTTLE_SHARPNESS * x) + 1.0)


def drive_force(gate, v, p):
    """Drive force (d - v*e) * gate, for a precomputed throttle gate."""
    d, e, _ = p
    return (d - v * e) * gate


def motor_force(tau, v, p):
    """Drive force (d - v*e) * smooth_positive_throttle(tau, g).

    Zero below the dead zone (tau <= -g) and at the no-load speed d/e.
    """
    *_, g = p
    return drive_force(smooth_positive_throttle(tau, g), v, p)


def motor_force_jacobian(tau, v, p) -> np.ndarray:
    d, e, g = p
    x = tau + g
    gate = np.tanh(THROTTLE_SHARPNESS * x)
    soft = x * 0.5 * (gate + 1.0)  # smooth_positive_throttle(tau, g)
    dsoft_dg = 0.5 * (gate + 1.0) + x * 0.5 * THROTTLE_SHARPNESS * (1 - gate * gate)
    return np.stack([soft, -v * soft, (d - v * e) * dsoft_dg], axis=-1)


def steering_angle(s, p):
    """Map a normalized steering command to a road-wheel angle [rad].

    Two tanh branches are blended by a soft switch on the sign of
    (s + c_t), capturing left/right asymmetry of the linkage.
    """
    a_t, b_t, c_t, d_t, e_t = p
    x = s + c_t
    weight = 0.5 * (np.tanh(STEER_BLEND_SHARPNESS * x) + 1.0)
    return weight * a_t * np.tanh(b_t * x) + (1.0 - weight) * d_t * np.tanh(e_t * x)


def steering_angle_jacobian(s, p) -> np.ndarray:
    a_t, b_t, c_t, d_t, e_t = p
    x = s + c_t
    gate = np.tanh(STEER_BLEND_SHARPNESS * x)
    w = 0.5 * (gate + 1.0)
    tb, te = np.tanh(b_t * x), np.tanh(e_t * x)
    sech_b, sech_e = 1 - tb * tb, 1 - te * te
    dw_dc = 0.5 * STEER_BLEND_SHARPNESS * (1 - gate * gate)
    d_c = w * a_t * b_t * sech_b + (1 - w) * d_t * e_t * sech_e + dw_dc * (a_t * tb - d_t * te)
    return np.stack([w * tb, w * a_t * x * sech_b, d_c, (1 - w) * te,
                     (1 - w) * d_t * x * sech_e], axis=-1)


def steering_terms(delta) -> tuple:
    """``(tan, cos, sin)`` of the road-wheel angle ``delta``."""
    return np.tan(delta), np.cos(delta), np.sin(delta)


def steering_refused(delta):
    """Whether the kinematic model refuses the road-wheel angle ``delta``,
    elementwise: its yaw rate v*tan(delta)/l is singular at |delta| = pi/2."""
    return abs(delta) >= np.pi / 2


def steering_refusal() -> ConfigError:
    """The error for a kinematic step at a refused angle, placed by ``MinicarError.at``."""
    return ConfigError("steering angle magnitude must stay below pi/2")


def slip_refusal() -> DataError:
    """``steering_refusal`` for a step whose normalized slip angles meet v_x <= SLIP_V_EPS."""
    return DataError("normalized slip angles need v_x > 0")


def kinematic_yaw_rate(v, tan_delta, geom: Geometry):
    """Yaw rate of a rigidly rolling bicycle at speed ``v``."""
    return v * tan_delta / geom.l


def kinematic_steering_angle(omega, v, l: float):
    """The road-wheel angle of ``kinematic_yaw_rate`` inverted; ``v`` must be nonzero."""
    return np.arctan(l * omega / v)


def rolling_body(v, tan_delta, geom: Geometry) -> tuple:
    """The body state ``(v_x, v_y, omega)`` of a dynamic model rolling
    rigidly, like the kinematic one, at speed ``v``."""
    omega = kinematic_yaw_rate(v, tan_delta, geom)
    return v, omega * geom.l_r, omega


def heading_velocity(v, eta) -> tuple:
    """World-frame velocity ``(dx/dt, dy/dt)`` at speed ``v`` along heading ``eta``."""
    return v * np.cos(eta), v * np.sin(eta)


def kinematic_rhs(state, gate, tan_delta, rate, geom: Geometry) -> tuple:
    """Time derivative of the kinematic state ``(x, y, eta, v)`` at the
    throttle gate ``gate`` and the tangent ``tan_delta`` of the
    road-wheel angle; ``rate`` is a ``kinematic_speed_law``."""
    _, _, eta, v = state
    return (*heading_velocity(v, eta), kinematic_yaw_rate(v, tan_delta, geom), rate(gate, v))


def _as_is(x):
    """A row binding's ufunc result, taken as it is."""
    return x


def kinematic_speed_law(params: VehicleParams, *, rows: bool = False):
    """``rate(gate, v)``, the net force ``drive_force(gate, v, motor) +
    friction_force(v, friction)`` of the parameters' groups over the
    mass, on Python floats; with ``rows``, on column arrays of rows."""
    (d, e, _), (a, b, c), m, tanh = params.motor, params.friction, params.geometry.m, np.tanh
    value = _as_is if rows else float

    def rate(gate, v):
        return ((d - v * e) * gate + -(a * value(tanh(b * v)) + v * c)) / m

    return rate


def slip_angles(v_x, v_y, omega, delta, params: VehicleParams):
    """Front and rear tire slip angles [rad] in the parameters' convention.

    The default form feeds the raw lateral velocities ``v_y + omega*l_f``
    and ``v_y - omega*l_r`` straight into arctan; this is the convention
    the reference parameter set was fitted against. Under
    ``normalized_slip`` the arguments are divided by ``v_x`` first (the
    textbook definition), which requires ``v_x`` to stay away from zero:
    any v_x <= SLIP_V_EPS raises ``slip_refusal()``.
    """
    geom = params.geometry
    front_arg = v_y + omega * geom.l_f
    rear_arg = v_y - omega * geom.l_r
    if params.normalized_slip:
        if np.any(v_x <= SLIP_V_EPS):
            raise slip_refusal()
        front_arg, rear_arg = front_arg / v_x, rear_arg / v_x
    alpha_f = -np.arctan(front_arg) + delta
    alpha_r = -np.arctan(rear_arg)
    return alpha_f, alpha_r


def pacejka_lateral(alpha, p):
    """Magic-formula lateral force D*sin(C*arctan(B*a - E*(B*a - arctan(B*a)))).

    Reads the first four fields (D, C, B, E) of ``p``, so TireParams,
    whose rear coefficient comes last, serves as is.
    """
    D, C, B, E, *_ = p
    ba = B * alpha
    return D * np.sin(C * np.arctan(ba - E * (ba - np.arctan(ba))))


def pacejka_lateral_and_jacobian(alpha, p) -> tuple:
    """``(pacejka_lateral(alpha, p), J)``, sharing their arctan, sin and
    cos terms: the value is D times column 0 of J, bit for bit."""
    D, C, B, E, *_ = p
    ba = B * alpha
    gap = ba - np.arctan(ba)
    u = ba - E * gap
    atan_u = np.arctan(u)
    d_outer = D * np.cos(C * atan_u)
    du = d_outer * C / (1 + u * u)  # d(value)/du
    jac = np.empty((len(alpha), 4))
    jac[:, 0], jac[:, 1] = np.sin(C * atan_u), d_outer * atan_u
    jac[:, 2] = du * (alpha * (1 - E * (1 - 1 / (1 + ba * ba))))
    jac[:, 3] = du * -gap
    return D * jac[:, 0], jac


def rear_lateral(alpha, c_r):
    """Linear rear lateral force C_r * alpha (the rear never saturates here).

    ``c_r`` is the coefficient itself or its one-element fit vector.
    """
    return c_r * alpha


def rear_lateral_jacobian(alpha, c_r) -> np.ndarray:
    return np.stack([alpha], axis=-1)


def dynamic_body_law(params: VehicleParams, *, rows: bool = False):
    """``rates(u, body)``: the time derivative of the body state ``body =
    (v_x, v_y, omega)`` under the ``simulator.held_inputs`` ``u = (gate,
    delta, tan, cos, sin)`` of a step. The net force is split equally
    between the axles (four-wheel drive), each half along its own tire
    frame, and the lateral forces are ``pacejka_lateral`` in front and
    ``rear_lateral`` behind, at the parameters' ``slip_angles``, on Python
    floats; with ``rows``, on column arrays of rows. Slip angles
    normalized by any v_x <= SLIP_V_EPS raise ``slip_refusal()``, and
    parameters without a tire group ConfigError."""
    if params.tire is None:
        raise ConfigError("dynamic model requires tire parameters")
    (d, e, _), (a, b, c), (D, C, B, E, c_r) = params.motor, params.friction, params.tire
    geom, normalized = params.geometry, params.normalized_slip
    l_f, l_r, m, I_z = geom.l_f, geom.l_r, geom.m, geom.I_z
    tanh, arctan, sin = np.tanh, np.arctan, np.sin
    value, any_row = (_as_is, np.any) if rows else (float, bool)

    def rates(u, body):
        gate, delta, _, cos_d, sin_d = u
        v_x, v_y, omega = body
        f_half = ((d - v_x * e) * gate + -(a * value(tanh(b * v_x)) + v_x * c)) / 2.0
        front_arg, rear_arg = v_y + omega * l_f, v_y - omega * l_r
        if normalized:
            if any_row(v_x <= SLIP_V_EPS):
                raise slip_refusal()
            front_arg, rear_arg = front_arg / v_x, rear_arg / v_x
        alpha_f, alpha_r = -value(arctan(front_arg)) + delta, -value(arctan(rear_arg))
        ba, f_yr = B * alpha_f, c_r * alpha_r
        f_yf = D * value(sin(C * value(arctan(ba - E * (ba - value(arctan(ba)))))))
        front_y = f_yf * cos_d + f_half * sin_d  # front axle force, vehicle-frame y
        return ((f_half + f_half * cos_d - f_yf * sin_d) / m + omega * v_y,
                (f_yr + front_y) / m - omega * v_x,
                (l_f * front_y - l_r * f_yr) / I_z)

    return rates


def world_velocity(v_x, v_y, eta) -> tuple:
    """World-frame velocity ``(dx/dt, dy/dt)`` of ``(v_x, v_y)`` at heading ``eta``."""
    cos_e, sin_e = np.cos(eta), np.sin(eta)
    return v_x * cos_e - v_y * sin_e, v_x * sin_e + v_y * cos_e


def dynamic_rhs(state, u, rates) -> tuple:
    """Time derivative of the dynamic state ``(x, y, eta, v_x, v_y, omega)``
    under a step's held inputs ``u``; ``rates`` is a ``dynamic_body_law``."""
    _, _, eta, v_x, v_y, omega = state
    return (*world_velocity(v_x, v_y, eta), omega, *rates(u, (v_x, v_y, omega)))


def body_frame_velocity(v_abs_x, v_abs_y, eta):
    """Rotate an absolute-frame velocity into the body frame (by -eta)."""
    v_abs_x = np.asarray(v_abs_x, dtype=float)
    v_abs_y = np.asarray(v_abs_y, dtype=float)
    cos_e, sin_e = np.cos(eta), np.sin(eta)
    return cos_e * v_abs_x + sin_e * v_abs_y, -sin_e * v_abs_x + cos_e * v_abs_y

