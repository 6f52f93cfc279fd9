"""Sub-model curves, their parameter Jacobians and the ODE right-hand
sides of the two bicycle models.

This is the one place a curve's formula is written: the simulator
evaluates the curves and the fitting stages minimise their squared
residuals. Each curve unpacks its parameters in field order
(``a, b, c = p``), so ``p`` may be the parameter dataclass or a fit
vector in the same order.

Each curve has one Jacobian, ``<curve>_jacobian(*inputs, p)``, or with
its value from one pass, ``pacejka_lateral_and_jacobian``: for 1-D
inputs of N rows a fresh C-contiguous ``(N, n_p)`` array whose column
k is d(curve)/d(p[k]).

Every other function here is pure and takes either Python floats or
numpy arrays, so one definition serves the dataset, fitting and
validation code, which works on columns of rows, and the simulator,
which evaluates the pose of either model (yaw rate and world-frame
velocity) on whole-series arrays. The transcendental functions come
from numpy's ufuncs, not from ``math``, whose results differ in the
last bit, so a float input gives exactly what the array call gives at
that element.

The simulator steps the rest of a state on floats, where a Python call
costs more than the arithmetic it wraps, so it steps on flat float laws
built once per run: ``kinematic_speed_law`` (``kinematic_rhs``'s speed
rate) and ``dynamic_body_law`` (``dynamic_body_rates``), both of
``net_force``. They call no function here: each writes its curves inline
on coefficients bound once, in every operation's order and with the same
numpy ufuncs, so either way of integrating yields the same states;
tests/test_bit_identity.py pins each law to what it restates on drawn
coefficients, and tests/test_simulator.py pins ``simulate`` to ``rk4_step``.

A state is a sequence of components, each a float or an array of
rows, and a right-hand side returns the tuple of their derivatives:

* kinematic: ``(x, y, eta, v)`` with (x, y) at the rear axle; its
  right-hand side is ``heading_velocity``, ``kinematic_yaw_rate`` and
  the net force over the mass
* dynamic:   ``(x, y, eta, v_x, v_y, omega)`` with (x, y) at the CoM
  and (v_x, v_y) in the body frame; likewise ``world_velocity``, omega
  and ``dynamic_body_rates``

Headings accumulate without wrapping; wrap only for display.

The inputs are held over an RK4 step, so the right-hand sides take
what depends on them alone precomputed (``simulator.held_inputs``).
The kinematic yaw rate is singular at |delta| = pi/2, so no step may
propagate kinematically at an angle that ``steering_refused`` flags; no
right-hand side checks its inputs.
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


def _float_kernel(ufunc):
    """``ufunc`` made to return a Python float for a Python float."""

    def kernel(x):
        return float(ufunc(x)) if x.__class__ is float else ufunc(x)

    return kernel


_tanh, _arctan, _sin, _cos, _tan = map(_float_kernel, (np.tanh, np.arctan, np.sin, np.cos,
                                                       np.tan))


def friction_force(v, p):
    """Longitudinal resistance -(a*tanh(b*v) + v*c); odd in v, opposes motion."""
    a, b, c = p
    return -(a * _tanh(b * v) + v * c)


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
    return x * 0.5 * (_tanh(THROTTLE_SHARPNESS * x) + 1.0)


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


def net_force(gate, v, motor, friction):
    """Net longitudinal force at speed ``v``: drive plus friction.

    ``gate`` is ``smooth_positive_throttle(tau, motor.g)`` of the
    applied throttle, which stays fixed while ``v`` evolves.
    """
    return drive_force(gate, v, motor) + friction_force(v, friction)


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
    weight = 0.5 * (_tanh(STEER_BLEND_SHARPNESS * x) + 1.0)
    return weight * a_t * _tanh(b_t * x) + (1.0 - weight) * d_t * _tanh(e_t * x)


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
    return _tan(delta), _cos(delta), _sin(delta)


def steering_refused(delta):
    """Whether the kinematic model refuses the road-wheel angle ``delta``,
    elementwise: its yaw rate v*tan(delta)/l is singular at |delta| = pi/2."""
    return abs(delta) >= np.pi / 2


def steering_refusal(t: float | None = None, row: int | None = None) -> ConfigError:
    """The error for a kinematic step at a refused angle, from ``t`` (at 1-based log ``row``)."""
    return ConfigError("steering angle magnitude must stay below pi/2"
                       + ("" if t is None else f" at t={t:.6f} s"), row=row)


def slip_refusal(t: float | None = None, row: int | None = None) -> DataError:
    """``steering_refusal`` for a step whose normalized slip angles meet v_x <= SLIP_V_EPS."""
    return DataError("normalized slip angles need v_x > 0"
                     + ("" if t is None else f" at t={t:.6f} s"), row=row)


def kinematic_yaw_rate(v, tan_delta, geom: Geometry):
    """Yaw rate of a rigidly rolling bicycle at speed ``v``."""
    return v * tan_delta / geom.l


def rolling_body(v, tan_delta, geom: Geometry) -> tuple:
    """The body state ``(v_x, v_y, omega)`` of a dynamic model rolling
    rigidly, like the kinematic one, at speed ``v``."""
    omega = kinematic_yaw_rate(v, tan_delta, geom)
    return v, omega * geom.l_r, omega


def heading_velocity(v, eta) -> tuple:
    """World-frame velocity ``(dx/dt, dy/dt)`` at speed ``v`` along heading ``eta``."""
    return v * _cos(eta), v * _sin(eta)


def kinematic_rhs(state, tan_delta, f_total, geom: Geometry) -> tuple:
    """Time derivative of the kinematic state ``(x, y, eta, v)``.

    ``tan_delta`` is the tangent of the road-wheel angle and ``f_total``
    the net longitudinal force (drive plus friction), both precomputed
    by the caller.
    """
    _, _, eta, v = state
    return (*heading_velocity(v, eta), kinematic_yaw_rate(v, tan_delta, geom), f_total / geom.m)


def kinematic_speed_law(motor, friction, geom: Geometry):
    """``rate(gate, v)``, the speed rate of ``kinematic_rhs`` under
    ``net_force(gate, v, motor, friction)``, flat on floats with ``drive_force``
    and ``friction_force`` inline and their coefficients and ``m`` bound once."""
    (d, e, _), (a, b, c), m, tanh = motor, friction, geom.m, np.tanh

    def rate(gate, v):
        return ((d - v * e) * gate + -(a * float(tanh(b * v)) + v * c)) / m

    return rate


def slip_angles(v_x, v_y, omega, delta, geom: Geometry, *, normalized: bool = False):
    """Front and rear tire slip angles [rad].

    The default form feeds the raw lateral velocities ``v_y + omega*l_f``
    and ``v_y - omega*l_r`` straight into arctan; this is the convention
    the reference parameter set was fitted against. With ``normalized``
    the arguments are divided by ``v_x`` first (the textbook definition),
    which requires ``v_x`` to stay away from zero.
    """
    front_arg = v_y + omega * geom.l_f
    rear_arg = v_y - omega * geom.l_r
    if normalized:
        if np.any(v_x <= SLIP_V_EPS):
            raise slip_refusal()
        front_arg = front_arg / v_x
        rear_arg = rear_arg / v_x
    alpha_f = -_arctan(front_arg) + delta
    alpha_r = -_arctan(rear_arg)
    return alpha_f, alpha_r


def pacejka_lateral(alpha, p):
    """Magic-formula lateral force D*sin(C*arctan(B*a - E*(B*a - arctan(B*a)))).

    Reads the first four fields (D, C, B, E) of ``p``, so TireParams,
    whose rear coefficient comes last, serves as is.
    """
    D, C, B, E, *_ = p
    ba = B * alpha
    return D * _sin(C * _arctan(ba - E * (ba - _arctan(ba))))


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


def tire_coefficients(params: VehicleParams) -> tuple:
    """The tire group as the tuple ``dynamic_body_rates`` reads, (D, C, B, E, C_r)."""
    if params.tire is None:
        raise ConfigError("dynamic model requires tire parameters")
    return tuple(params.tire)


def dynamic_body_rates(body, delta, cos_d, sin_d, f_x_total, tire: tuple,
                       geom: Geometry, *, normalized: bool = False) -> tuple:
    """Time derivative of the body state ``(v_x, v_y, omega)``.

    ``delta`` is the road-wheel angle, ``cos_d`` and ``sin_d`` its
    precomputed cosine and sine, and ``tire`` the tuple of
    ``tire_coefficients``. ``f_x_total`` is the net longitudinal force;
    it is split equally between the axles (four-wheel drive), each half
    acting along its own tire frame. Lateral forces come from the
    magic-formula front tire and the linear rear tire.
    """
    v_x, v_y, omega = body
    alpha_f, alpha_r = slip_angles(v_x, v_y, omega, delta, geom, normalized=normalized)
    f_yf = pacejka_lateral(alpha_f, tire)
    f_yr = rear_lateral(alpha_r, tire[4])
    f_half = f_x_total / 2.0
    front_y = f_yf * cos_d + f_half * sin_d  # front axle force, vehicle-frame y
    return (
        (f_half + f_half * cos_d - f_yf * sin_d) / geom.m + omega * v_y,
        (f_yr + front_y) / geom.m - omega * v_x,
        (geom.l_f * front_y - geom.l_r * f_yr) / geom.I_z,
    )


def dynamic_body_law(motor, friction, tire: tuple, geom: Geometry, *,
                     normalized: bool = False):
    """``rates_at(gate, delta, cos_d, sin_d, t)``, the right-hand side
    ``body -> dynamic_body_rates(body, delta, cos_d, sin_d, net_force(gate,
    v_x, motor, friction), tire, geom, normalized=normalized)``, flat on
    floats with every curve it reads inline and their coefficients and
    the geometry bound once. ``t``, the step's start, names a refused step."""
    (d, e, _), (a, b, c), (D, C, B, E, c_r) = motor, friction, tire
    l_f, l_r, m, I_z = geom.l_f, geom.l_r, geom.m, geom.I_z
    tanh, arctan, sin = np.tanh, np.arctan, np.sin

    def rates_at(gate, delta, cos_d, sin_d, t):
        def rates(body):
            v_x, v_y, omega = body
            f_half = ((d - v_x * e) * gate + -(a * float(tanh(b * v_x)) + v_x * c)) / 2.0
            front_arg, rear_arg = v_y + omega * l_f, v_y - omega * l_r
            if normalized:
                if v_x <= SLIP_V_EPS:
                    raise slip_refusal(t)
                front_arg, rear_arg = front_arg / v_x, rear_arg / v_x
            alpha_f, alpha_r = -float(arctan(front_arg)) + delta, -float(arctan(rear_arg))
            ba, f_yr = B * alpha_f, c_r * alpha_r
            f_yf = D * float(sin(C * float(arctan(ba - E * (ba - float(arctan(ba)))))))
            front_y = f_yf * cos_d + f_half * sin_d
            return ((f_half + f_half * cos_d - f_yf * sin_d) / m + omega * v_y,
                    (f_yr + front_y) / m - omega * v_x,
                    (l_f * front_y - l_r * f_yr) / I_z)

        return rates

    return rates_at


def world_velocity(v_x, v_y, eta) -> tuple:
    """World-frame velocity ``(dx/dt, dy/dt)`` of ``(v_x, v_y)`` at heading ``eta``."""
    cos_e, sin_e = _cos(eta), _sin(eta)
    return v_x * cos_e - v_y * sin_e, v_x * sin_e + v_y * cos_e


def dynamic_rhs(state, delta, cos_d, sin_d, f_x_total, tire: tuple,
                geom: Geometry, *, normalized: bool = False) -> tuple:
    """Time derivative of the dynamic state ``(x, y, eta, v_x, v_y, omega)``;
    the other arguments are those of ``dynamic_body_rates``."""
    _, _, eta, v_x, v_y, omega = state
    return (*world_velocity(v_x, v_y, eta), omega,
            *dynamic_body_rates((v_x, v_y, omega), delta, cos_d, sin_d, f_x_total, tire, geom,
                                normalized=normalized))


def body_frame_velocity(v_abs_x, v_abs_y, eta):
    """Rotate an absolute-frame velocity into the body frame (by -eta)."""
    v_abs_x = np.asarray(v_abs_x, dtype=float)
    v_abs_y = np.asarray(v_abs_y, dtype=float)
    cos_e, sin_e = np.cos(eta), np.sin(eta)
    return cos_e * v_abs_x + sin_e * v_abs_y, -sin_e * v_abs_x + cos_e * v_abs_y

