"""On single values, every model function gives exactly what the array
call gives at that element; each model's law gives on Python floats
what it gives on arrays, so the simulator (floats, one scenario) and the
dataset, fitting and validation code (arrays of rows) evaluate one model
bit for bit; each law equals the curves it writes inline; a row stepped
alone steps as it does among others; and the front-tire fit's one-pass
value and Jacobian equal the curve and the Jacobian written on their
own."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import curve_laws
from minicar import models
from minicar.fitting import default_config
from minicar.integrators import rk4_step
from minicar.params import FrictionParams, TireParams, reference_params
from minicar.simulator import BLEND_SPEED, held_inputs, stepper

REF = reference_params()


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _rows(*columns):
    """Lists of 1 to 8 rows, one value per strategy in ``columns``."""
    return st.lists(st.tuples(*columns), min_size=1, max_size=8)


def _assert_rowwise_equal(fn, rows):
    """``fn`` on column arrays equals ``fn`` on each row's floats."""
    columns = [np.array(c) for c in zip(*rows)]
    on_columns = fn(*columns)
    for i, row in enumerate(rows):
        on_floats = fn(*row)
        flat = on_floats if isinstance(on_floats, tuple) else (on_floats,)
        expected = on_columns if isinstance(on_columns, tuple) else (on_columns,)
        assert list(flat) == [float(np.broadcast_to(e, (len(rows),))[i]) for e in expected]


CURVES = {
    "friction_force": (lambda v: models.friction_force(v, REF.friction), (_floats(-5, 5),)),
    "smooth_positive_throttle": (lambda tau: models.smooth_positive_throttle(tau, REF.motor.g),
                                 (_floats(-1, 1),)),
    "drive_force": (lambda gate, v: models.drive_force(gate, v, REF.motor),
                    (_floats(0, 1.5), _floats(-5, 5))),
    "motor_force": (lambda tau, v: models.motor_force(tau, v, REF.motor),
                    (_floats(-1, 1), _floats(-5, 5))),
    "steering_angle": (lambda s: models.steering_angle(s, REF.steering), (_floats(-1, 1),)),
    "steering_terms": (models.steering_terms, (_floats(-1.5, 1.5),)),
    "kinematic_yaw_rate": (lambda v, tan_d: models.kinematic_yaw_rate(v, tan_d, REF.geometry),
                           (_floats(-4, 4), _floats(-20, 20))),
    "pacejka_lateral": (lambda a: models.pacejka_lateral(a, REF.tire), (_floats(-3, 3),)),
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
    params = replace(REF, normalized_slip=normalized)
    _assert_rowwise_equal(
        lambda v_x, v_y, omega, delta: models.slip_angles(v_x, v_y, omega, delta, params), rows)


_POSE = (_floats(-20, 20), _floats(-20, 20), _floats(-30, 30))
RATE = models.kinematic_speed_law(REF, rows=True)
RATES = {normalized: models.dynamic_body_law(replace(REF, normalized_slip=normalized),
                                             rows=True)
         for normalized in (False, True)}


def _kinematic_rhs(x, y, eta, v, delta, gate):
    tan_d, _, _ = models.steering_terms(delta)
    return models.kinematic_rhs((x, y, eta, v), gate, tan_d, RATE, REF.geometry)


def _dynamic_rhs(x, y, eta, v_x, v_y, omega, delta, gate, normalized):
    return models.dynamic_rhs((x, y, eta, v_x, v_y, omega),
                              (gate, delta, *models.steering_terms(delta)), RATES[normalized])


@given(rows=_rows(*_POSE, _floats(-4, 4), _floats(-1.5, 1.5), _floats(0, 1.5)))
def test_kinematic_rhs_on_floats_equals_array_element(rows):
    _assert_rowwise_equal(_kinematic_rhs, rows)


@pytest.mark.parametrize("normalized", [False, True])
@given(rows=_rows(*_POSE, _floats(0.1, 4), _floats(-2, 2), _floats(-6, 6), _floats(-0.6, 0.6),
                  _floats(0, 1.5)))
def test_dynamic_rhs_and_its_rk4_step_on_floats_equal_array_element(normalized, rows):
    def rhs(*row):
        return _dynamic_rhs(*row, normalized)

    def step(*row):
        *state, delta, gate = row
        return tuple(rk4_step(lambda s: rhs(*s, delta, gate), state, 0.01))

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
    """``stepper`` under ``held_inputs`` steps a row alone, as a one-row
    array, as it steps that row among the others: ``one_step_rms``
    bisects for the first failing row on this."""
    model = "kinematic" if kind == "kinematic" else "dynamic"
    params = replace(REF, normalized_slip=normalized)
    step = stepper(model, params, 0.01)
    speed = _floats(*SPEEDS[kind])
    state = (*_POSE, speed) if model == "kinematic" else (
        *_POSE, speed, _floats(-2, 2), _floats(-6, 6))
    *states, tau, s = (np.array(c) for c in zip(*data.draw(_rows(*state, _floats(-1, 1),
                                                                   _floats(-1, 1)))))
    inputs = held_inputs(tau, s, params)
    together = np.array(step(states, inputs))
    for i in range(tau.size):
        alone = step([c[i:i + 1] for c in states], [a[i:i + 1] for a in inputs])
        np.testing.assert_array_equal(np.array(alone)[:, 0], together[:, i])


def _box(stage):
    """A parameter vector of a fit stage, drawn from the stage's box."""
    box = default_config(stage)
    return st.tuples(*(_floats(float(lo), float(hi)) for lo, hi in zip(box.lower, box.upper)))


# The ranges of (gate, delta, v_x, v_y, omega) the laws are checked on.
LAW_INPUTS = ((0, 1.5), (-0.6, 0.6), (0.01, 4), (-2, 2), (-6, 6))

# Rows of law inputs, a seed for 64 uniform ones more (a last-bit slip
# shows in about 1% of rows) and a parameter set in either slip
# convention whose friction and tire groups are the reference ones or
# ones drawn from the fit stages' boxes, which lie inside the groups'
# checks.
LAW_CASES = dict(
    rows=_rows(*(_floats(lo, hi) for lo, hi in LAW_INPUTS)), seed=st.integers(0, 2**32 - 1),
    params=st.builds(
        lambda normalized, groups: replace(REF, friction=groups[0], tire=groups[1],
                                           normalized_slip=normalized),
        st.booleans(), st.sampled_from([(REF.friction, REF.tire)])
        | st.tuples(_box("friction").map(lambda p: FrictionParams(*p)),
                    st.tuples(_box("front_tire"), _box("rear_tire")).map(
                        lambda tire: TireParams(*tire[0], *tire[1])))))


def _laws(params, **bindings):
    """The two laws of ``params``, built with ``bindings``."""
    return (models.kinematic_speed_law(params, **bindings),
            models.dynamic_body_law(params, **bindings))


def _on_columns(rows, seed, rate, rates):
    """Both laws on the rows and 64 uniform ones more as columns: the
    speed rate, then the body rates."""
    rows = rows + np.random.default_rng(seed).uniform(*zip(*LAW_INPUTS), (64, 5)).tolist()
    gate, delta, v_x, v_y, omega = (np.array(c) for c in zip(*rows))
    u = (gate, delta, *models.steering_terms(delta))
    return rows, (rate(gate, v_x), *rates(u, (v_x, v_y, omega)))


@given(**LAW_CASES)
def test_each_law_on_floats_equals_the_law_on_arrays(rows, seed, params):
    """The simulator's pass 1 steps each law on Python floats and
    ``stepper`` on column arrays of rows; the two bindings give the same
    bits, the floats as Python floats."""
    rate, rates = _laws(params)
    rows, columns = _on_columns(rows, seed, *_laws(params, rows=True))
    for i, (g, d, *state) in enumerate(rows):
        u = (g, d, *map(float, models.steering_terms(d)))  # pass 1's inputs are floats
        flat = (rate(g, state[0]), *rates(u, state))
        assert all(type(value) is float for value in flat), flat
        assert list(flat) == [float(c[i]) for c in columns]


@given(**LAW_CASES)
def test_each_law_equals_the_curves_it_writes_inline(rows, seed, params):
    """Each law writes its curves inline; on arrays it gives the bits of
    the same laws written from ``drive_force``, ``friction_force``,
    ``slip_angles``, ``pacejka_lateral`` and ``rear_lateral``."""
    _, laws = _on_columns(rows, seed, *_laws(params, rows=True))
    _, reference = _on_columns(rows, seed, *curve_laws(params))
    for law, expected in zip(laws, reference):
        np.testing.assert_array_equal(law, expected)


def _stacked_pacejka_jacobian(alpha, p):
    """The magic formula's Jacobian on its own, its four columns stacked:
    the reference for the fused pass."""
    D, C, B, E = p
    ba = B * alpha
    atan_ba = np.arctan(ba)
    u = ba - E * (ba - atan_ba)
    atan_u = np.arctan(u)
    outer = np.cos(C * atan_u)
    du = D * outer * C / (1 + u * u)  # d(value)/du
    du_dB = alpha * (1 - E * (1 - 1 / (1 + ba * ba)))
    return np.stack([np.sin(C * atan_u), D * outer * atan_u, du * du_dB, du * -(ba - atan_ba)],
                    axis=-1)


@pytest.mark.parametrize("rows", [11, 1001, 11602])
def test_fused_pacejka_pass_equals_the_curve_and_the_stacked_jacobian(rows):
    """At the box's two corners and 23 drawn in-box parameter vectors,
    ``pacejka_lateral_and_jacobian`` gives ``pacejka_lateral`` and the
    stacked Jacobian bit for bit, as a C-contiguous array."""
    rng = np.random.default_rng(rows)
    alpha = rng.uniform(-0.6, 0.6, rows)
    box = default_config("front_tire")
    for p in [box.lower, box.upper, *rng.uniform(box.lower, box.upper, (23, 4))]:
        value, jac = models.pacejka_lateral_and_jacobian(alpha, p)
        assert np.array_equal(value, models.pacejka_lateral(alpha, p))
        assert np.array_equal(jac, _stacked_pacejka_jacobian(alpha, p))
        assert jac.flags.c_contiguous and jac.shape == (rows, 4)
