"""On Python floats, every model function gives exactly what the array
call gives at that element, so the simulator (floats, one scenario) and
the dataset, fitting and validation code (arrays of rows) evaluate one
model bit for bit."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minicar import models
from minicar.integrators import rk4_step
from minicar.params import reference_params
from minicar.simulator import BLEND_SPEED, held_inputs, stepper

REF = reference_params()
MOTOR, FRICTION, TIRE = tuple(REF.motor), tuple(REF.friction), models.tire_coefficients(REF)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _rows(*columns):
    """Lists of 1 to 8 rows, one value per strategy in ``columns``."""
    return st.lists(st.tuples(*columns), min_size=1, max_size=8)


def _assert_rowwise_equal(fn, rows):
    """``fn`` on column arrays equals ``fn`` on each row's floats, and
    each float call returns Python floats."""
    columns = [np.array(c) for c in zip(*rows)]
    on_columns = fn(*columns)
    for i, row in enumerate(rows):
        on_floats = fn(*row)
        flat = on_floats if isinstance(on_floats, tuple) else (on_floats,)
        expected = on_columns if isinstance(on_columns, tuple) else (on_columns,)
        assert all(type(value) is float for value in flat), flat
        assert list(flat) == [float(np.broadcast_to(e, (len(rows),))[i]) for e in expected]


CURVES = {
    "friction_force": (lambda v: models.friction_force(v, REF.friction), (_floats(-5, 5),)),
    "smooth_positive_throttle": (lambda tau: models.smooth_positive_throttle(tau, REF.motor.g),
                                 (_floats(-1, 1),)),
    "drive_force": (lambda gate, v: models.drive_force(gate, v, MOTOR),
                    (_floats(0, 1.5), _floats(-5, 5))),
    "motor_force": (lambda tau, v: models.motor_force(tau, v, REF.motor),
                    (_floats(-1, 1), _floats(-5, 5))),
    "net_force": (lambda gate, v: models.net_force(gate, v, MOTOR, FRICTION),
                  (_floats(0, 1.5), _floats(-5, 5))),
    "steering_angle": (lambda s: models.steering_angle(s, REF.steering), (_floats(-1, 1),)),
    "steering_terms": (models.steering_terms, (_floats(-1.5, 1.5),)),
    "kinematic_yaw_rate": (lambda v, tan_d: models.kinematic_yaw_rate(v, tan_d, REF.geometry),
                           (_floats(-4, 4), _floats(-20, 20))),
    "pacejka_lateral": (lambda a: models.pacejka_lateral(a, TIRE), (_floats(-3, 3),)),
    "rear_lateral": (lambda a: models.rear_lateral(a, REF.tire.C_r), (_floats(-3, 3),)),
}


@pytest.mark.parametrize("name", sorted(CURVES))
@given(data=st.data())
def test_curve_on_floats_equals_array_element(name, data):
    curve, columns = CURVES[name]
    _assert_rowwise_equal(curve, data.draw(_rows(*columns)))


@pytest.mark.parametrize("normalized", [False, True])
@given(rows=_rows(_floats(0.01, 4), _floats(-2, 2), _floats(-6, 6), _floats(-0.6, 0.6)))
def test_slip_angles_on_floats_equal_array_element(normalized, rows):
    _assert_rowwise_equal(
        lambda v_x, v_y, omega, delta: models.slip_angles(v_x, v_y, omega, delta, REF.geometry,
                                                          normalized=normalized),
        rows)


_POSE = (_floats(-20, 20), _floats(-20, 20), _floats(-30, 30))


def _kinematic_rhs(x, y, eta, v, delta, force):
    tan_d, _, _ = models.steering_terms(delta)
    return models.kinematic_rhs((x, y, eta, v), tan_d, force, REF.geometry)


def _dynamic_rhs(x, y, eta, v_x, v_y, omega, delta, force, normalized):
    _, cos_d, sin_d = models.steering_terms(delta)
    return models.dynamic_rhs((x, y, eta, v_x, v_y, omega), delta, cos_d, sin_d, force, TIRE,
                              REF.geometry, normalized=normalized)


@given(rows=_rows(*_POSE, _floats(-4, 4), _floats(-1.5, 1.5), _floats(-5, 5)))
def test_kinematic_rhs_on_floats_equals_array_element(rows):
    _assert_rowwise_equal(_kinematic_rhs, rows)


@pytest.mark.parametrize("normalized", [False, True])
@given(rows=_rows(*_POSE, _floats(0.1, 4), _floats(-2, 2), _floats(-6, 6), _floats(-0.6, 0.6),
                  _floats(-5, 5)))
def test_dynamic_rhs_and_its_rk4_step_on_floats_equal_array_element(normalized, rows):
    def rhs(*row):
        return _dynamic_rhs(*row, normalized)

    def step(*row):
        *state, delta, force = row
        return tuple(rk4_step(lambda s: rhs(*s, delta, force), state, 0.01))

    _assert_rowwise_equal(rhs, rows)
    _assert_rowwise_equal(step, rows)


# The speed range of each case: "fallback" rows all start below
# BLEND_SPEED, "dynamic" rows none, and "blend" rows on both sides, so
# one array call splits its rows between the two branches.
SPEEDS = {"kinematic": (-4, 4), "dynamic": (BLEND_SPEED, 4), "fallback": (0.01, BLEND_SPEED),
          "blend": (0.01, 4)}


@pytest.mark.parametrize("kind, normalized", [("kinematic", False), ("dynamic", False),
                                              ("dynamic", True), ("fallback", True),
                                              ("blend", True)])
@given(data=st.data())
def test_rk4_step_on_precomputed_inputs_on_floats_equals_array_element(kind, normalized, data):
    """``stepper`` under ``held_inputs`` steps floats as it steps arrays."""
    model = "kinematic" if kind == "kinematic" else "dynamic"
    params = replace(REF, normalized_slip=normalized)
    step = stepper(model, params, 0.01)
    speed = _floats(*SPEEDS[kind])
    state = (*_POSE, speed) if model == "kinematic" else (
        *_POSE, speed, _floats(-2, 2), _floats(-6, 6))
    rows = data.draw(_rows(*state, _floats(-1, 1), _floats(-1, 1)))
    _assert_rowwise_equal(
        lambda *row: tuple(step(list(row[:-2]), held_inputs(*row[-2:], params))), rows)


@given(rows=_rows(_floats(0, 1.5), _floats(-0.6, 0.6), _floats(0.01, 4), _floats(-2, 2),
                  _floats(-6, 6)), normalized=st.booleans())
def test_flat_float_laws_equal_the_array_functions_they_restate(rows, normalized):
    """The simulator's pass 1 steps on ``kinematic_speed_law`` and
    ``dynamic_body_law``; on floats they give what the array functions
    they restate give at each element."""
    geom = REF.geometry
    gate, delta, v_x, v_y, omega = (np.array(c) for c in zip(*rows))
    _, cos_d, sin_d = models.steering_terms(delta)
    force = models.net_force(gate, v_x, MOTOR, FRICTION)
    speed = models.kinematic_rhs((0.0, 0.0, 0.0, v_x), 0.0, force, geom)[3]
    body = models.dynamic_body_rates((v_x, v_y, omega), delta, cos_d, sin_d, force, TIRE, geom,
                                     normalized=normalized)
    rate = models.kinematic_speed_law(MOTOR, FRICTION, geom)
    rates_at = models.dynamic_body_law(MOTOR, FRICTION, TIRE, geom, normalized=normalized)
    for i, (g, d, *state) in enumerate(rows):
        flat = (rate(g, state[0]), *rates_at(g, d, *models.steering_terms(d)[1:])(state))
        assert all(type(value) is float for value in flat), flat
        assert list(flat) == [float(c[i]) for c in (speed, *body)]
