import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import fsolve

from minicar import models
from minicar.errors import ConfigError, DataError
from minicar.params import FrictionParams, Geometry, rectangle_inertia


def test_friction_zero_at_rest(ref):
    assert models.friction_force(0.0, ref.friction) == 0.0


def test_friction_at_one_mps(ref):
    # tanh(13.32) is saturated, so the value is -(a + c)
    assert models.friction_force(1.0, ref.friction) == pytest.approx(-2.01, abs=1e-9)


def test_friction_is_odd(ref):
    v = np.linspace(-5, 5, 41)
    np.testing.assert_allclose(
        models.friction_force(-v, ref.friction),
        -models.friction_force(v, ref.friction),
        atol=1e-14,
    )


def test_smooth_positive_throttle_dead_zone_boundary(ref):
    assert models.smooth_positive_throttle(-ref.motor.g, ref.motor.g) == 0.0


def test_smooth_positive_throttle_passes_positive():
    # gate saturates: result is the raw offset value
    assert models.smooth_positive_throttle(0.55, 0.0) == pytest.approx(0.55, abs=1e-12)


def test_smooth_positive_throttle_suppresses_negative():
    assert abs(models.smooth_positive_throttle(-0.5, 0.0)) < 1e-20


def test_motor_force_zero_at_dead_zone(ref):
    assert models.motor_force(0.15, 1.0, ref.motor) == pytest.approx(0.0, abs=1e-15)


def test_motor_force_value(ref):
    # (28.88 - 2*5.99) * (0.4 - 0.15), gate saturated
    expected = (28.88 - 2.0 * 5.99) * 0.25
    assert models.motor_force(0.4, 2.0, ref.motor) == pytest.approx(expected, rel=1e-10)


def test_motor_force_no_load_speed(ref):
    v0 = ref.motor.d / ref.motor.e
    for tau in (0.2, 0.5, 1.0):
        assert models.motor_force(tau, v0, ref.motor) == pytest.approx(0.0, abs=1e-12)


def test_motor_force_zero_below_dead_zone(ref):
    # the smooth gate leaks by design right below the boundary (its
    # sharpness is 100), so machine-level zero applies from 0.15 under
    # the threshold downward
    for tau in np.linspace(-1, 0.0, 30):
        assert abs(models.motor_force(tau, 1.0, ref.motor)) < 1e-12
    # in the transition strip the leak peaks at |x|*(1-tanh(100|x|))/2
    # of the torque scale, about 0.03 N here
    for tau in np.linspace(0.0, 0.15, 10):
        assert abs(models.motor_force(tau, 1.0, ref.motor)) < 0.05


def test_steering_zero_at_offset(ref):
    assert models.steering_angle(-ref.steering.c_t, ref.steering) == 0.0


def test_steering_at_zero_input(ref):
    assert models.steering_angle(0.0, ref.steering) == pytest.approx(0.0112386, abs=1e-6)


def test_steering_at_full_input(ref):
    assert models.steering_angle(1.0, ref.steering) == pytest.approx(0.5320794, abs=1e-6)


def test_steering_monotone(ref):
    s = np.linspace(-1, 1, 401)
    delta = models.steering_angle(s, ref.steering)
    assert np.all(np.diff(delta) >= 0)


def test_kinematic_rhs_straight_roll(ref):
    d = models.kinematic_rhs(np.array([0.0, 0.0, 0.0, 1.0]), 0.0, 0.0, lambda g, v: 0.0,
                             ref.geometry)
    np.testing.assert_allclose(d, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_kinematic_rhs_unit_yaw_rate(ref):
    # tan(delta) = l makes the yaw rate equal the speed
    d = models.kinematic_rhs(np.array([0.0, 0.0, 0.0, 1.0]), 0.0, ref.geometry.l,
                             lambda g, v: 0.0, ref.geometry)
    assert d[2] == pytest.approx(1.0, rel=1e-12)


def test_kinematic_rhs_axis_aligned(ref):
    d = models.kinematic_rhs(np.array([0.0, 0.0, math.pi / 2, 2.0]), 0.0, 0.0, lambda g, v: 1.0,
                             ref.geometry)
    np.testing.assert_allclose(d, [0.0, 2.0, 0.0, 1.0], atol=1e-12)


def test_kinematic_rhs_rejects_steering_singularity():
    """The kinematic model's one angle rule, on floats and on rows, and
    its error; the simulator and validation apply them to every step
    that propagates kinematically."""
    assert models.steering_refused(math.pi / 2) and models.steering_refused(-math.pi / 2)
    assert not models.steering_refused(float(np.nextafter(math.pi / 2, 0.0)))
    np.testing.assert_array_equal(models.steering_refused(np.array([0.1, 1.6, -0.2, 1.5])),
                                  [False, True, False, False])
    refusal = models.steering_refusal().at(0.45, row=46)
    assert isinstance(refusal, ConfigError)
    assert str(refusal) == "steering angle magnitude must stay below pi/2 at t=0.450000 s (row 46)"
    assert str(models.steering_refusal()) == "steering angle magnitude must stay below pi/2"


def test_steering_terms(ref):
    delta = np.array([-0.4, 0.0, 0.3])
    tan_d, cos_d, sin_d = models.steering_terms(delta)
    np.testing.assert_array_equal(tan_d, np.tan(delta))
    np.testing.assert_array_equal(cos_d, np.cos(delta))
    np.testing.assert_array_equal(sin_d, np.sin(delta))


def test_kinematic_speed_law_is_motor_plus_friction_over_the_mass(ref):
    tau, v = np.array([-0.5, 0.05, 0.3, 1.0]), np.array([0.0, 0.4, -1.0, 2.0])
    gate = models.smooth_positive_throttle(tau, ref.motor.g)
    rate = models.kinematic_speed_law(ref, rows=True)
    np.testing.assert_array_equal(
        rate(gate, v),
        (models.motor_force(tau, v, ref.motor) + models.friction_force(v, ref.friction))
        / ref.geometry.m)


def test_slip_angles_zero(ref):
    af, ar = models.slip_angles(1.0, 0.0, 0.0, 0.0, ref)
    assert af == 0.0 and ar == 0.0


def test_slip_angles_pure_steering_offset(ref):
    af, ar = models.slip_angles(1.0, 0.0, 0.0, 0.2, ref)
    assert af == pytest.approx(0.2) and ar == 0.0


def test_slip_angles_symmetric_drift(ref):
    af, ar = models.slip_angles(1.0, 0.1, 0.0, 0.0, ref)
    assert af == pytest.approx(-math.atan(0.1), rel=1e-12)
    assert ar == pytest.approx(-math.atan(0.1), rel=1e-12)


def test_slip_angles_normalized_divides_by_speed(ref):
    af, ar = models.slip_angles(2.0, 0.1, 0.0, 0.0, replace(ref, normalized_slip=True))
    assert af == pytest.approx(-math.atan(0.05), rel=1e-12)
    assert ar == pytest.approx(-math.atan(0.05), rel=1e-12)


def test_slip_angles_normalized_rejects_standstill(ref):
    with pytest.raises(DataError):
        models.slip_angles(0.0, 0.1, 0.0, 0.0, replace(ref, normalized_slip=True))


def test_pacejka_zero(ref):
    assert models.pacejka_lateral(0.0, ref.tire) == 0.0


def test_pacejka_bounded_by_peak(ref):
    alpha = np.linspace(-np.pi, np.pi, 1001)
    assert np.all(np.abs(models.pacejka_lateral(alpha, ref.tire)) <= ref.tire.D)


def test_pacejka_matches_independent_evaluation(ref):
    # second, scalar implementation straight from the formula
    def oracle(alpha):
        ba = ref.tire.B * alpha
        inner = ba - ref.tire.E * (ba - math.atan(ba))
        return ref.tire.D * math.sin(ref.tire.C * math.atan(inner))

    for alpha in (-1.0, -0.3, 0.05, 0.1, 0.7):
        assert models.pacejka_lateral(alpha, ref.tire) == pytest.approx(
            oracle(alpha), rel=1e-14
        )


def test_rear_lateral(ref):
    assert models.rear_lateral(0.0, ref.tire.C_r) == 0.0
    assert models.rear_lateral(0.1, 0.39) == pytest.approx(0.039, rel=1e-12)
    assert models.rear_lateral(0.4, 0.39) == pytest.approx(2 * models.rear_lateral(0.2, 0.39))


def _dynamic_rhs(state, delta, gate, params):
    """``models.dynamic_rhs`` on the body law of ``params`` at the
    road-wheel angle ``delta`` and the throttle gate ``gate``."""
    return models.dynamic_rhs(state, (gate, delta, *models.steering_terms(delta)),
                              models.dynamic_body_law(params, rows=True))


def test_dynamic_rhs_equilibrium_at_rest(ref):
    d = _dynamic_rhs(np.zeros(6), 0.0, 0.0, ref)
    np.testing.assert_allclose(d, np.zeros(6), atol=1e-15)


def test_dynamic_rhs_straight_roll(ref):
    state = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    d = _dynamic_rhs(state, 0.0, 0.0, ref)
    np.testing.assert_allclose(d[:2], [1.0, 0.0], atol=1e-15)
    assert d[4] == 0.0 and d[5] == 0.0


@pytest.mark.parametrize("rows", [False, True])
def test_the_body_law_refuses_normalized_slip_at_or_below_the_speed_floor(ref, rows):
    """Both bindings of the normalized body law raise ``slip_refusal()``
    at v_x <= SLIP_V_EPS, the float one too; just above it they give
    finite rates."""
    rates = models.dynamic_body_law(replace(ref, normalized_slip=True), rows=rows)
    u = (0.5, 0.1, math.tan(0.1), math.cos(0.1), math.sin(0.1))
    speeds = (models.SLIP_V_EPS, 0.0, -0.4)
    for v_x in ([np.array([1.0, v]) for v in speeds] if rows else speeds):
        with pytest.raises(DataError, match=r"^normalized slip angles need v_x > 0$"):
            rates(u, (v_x, 0.1, 0.2))
    v_x = 2 * models.SLIP_V_EPS
    assert np.isfinite(rates(u, (np.array([v_x]) if rows else v_x, 0.1, 0.2))).all()


def test_dynamic_rhs_requires_tire(ref):
    with pytest.raises(ConfigError, match="tire"):
        _dynamic_rhs(np.zeros(6), 0.0, 0.0, replace(ref, tire=None))


def test_dynamic_rhs_steady_cornering_fixed_point(ref):
    """With v_x held under constant steering, (v_y, omega) settle onto
    the equilibrium an independent root-find locates.

    The reference tires are weak enough that held-speed cornering is
    only stable in the normalized-slip form below its critical speed
    (about 0.5 m/s); the operating point is pinned inside that
    envelope.
    """
    from minicar.simulator import rk4_step

    delta, v_x = 0.2, 0.3
    geom, norm_ref = ref.geometry, replace(ref, normalized_slip=True)
    sin_d, cos_d = float(np.sin(delta)), float(np.cos(delta))

    def holding_gate(v_y, omega):
        # the throttle gate of the net longitudinal force that keeps
        # dv_x = 0 at this instant
        alpha_f, _ = models.slip_angles(v_x, v_y, omega, delta, norm_ref)
        f_yf = models.pacejka_lateral(alpha_f, ref.tire)
        force = 2 * (f_yf * sin_d - geom.m * omega * v_y) / (1 + cos_d)
        return ((force - models.friction_force(v_x, ref.friction))
                / models.drive_force(1.0, v_x, ref.motor))

    def lateral_rhs(z):
        v_y, omega = z
        d = _dynamic_rhs((0.0, 0.0, 0.0, v_x, v_y, omega), delta, holding_gate(v_y, omega),
                         norm_ref)
        assert abs(d[3]) < 1e-9  # the holding gate does its job
        return d[4], d[5]

    z = (0.0, 0.0)  # stepped on scalars, cheaper than on arrays of two values
    for _ in range(30000):
        z = rk4_step(lateral_rhs, z, 0.002)

    z_star = fsolve(lateral_rhs, x0=z, xtol=1e-13)
    np.testing.assert_allclose(lateral_rhs(z_star), [0, 0], atol=1e-9)
    np.testing.assert_allclose(z, z_star, atol=1e-6)
    # converged to a genuine turn: same sign as the steering input
    assert z_star[1] > 0.3


def test_body_frame_velocity_identity():
    vx, vy = models.body_frame_velocity(1.2, -0.3, 0.0)
    assert vx == 1.2 and vy == -0.3


def test_body_frame_velocity_quarter_turn():
    vx, vy = models.body_frame_velocity(0.0, 1.0, math.pi / 2)
    assert vx == pytest.approx(1.0, rel=1e-12)
    assert vy == pytest.approx(0.0, abs=1e-12)


def test_body_frame_velocity_preserves_norm(rng):
    v = rng.normal(size=(50, 2))
    eta = rng.uniform(-np.pi, np.pi, 50)
    bx, by = models.body_frame_velocity(v[:, 0], v[:, 1], eta)
    np.testing.assert_allclose(np.hypot(bx, by), np.hypot(v[:, 0], v[:, 1]), rtol=1e-12)


def test_rectangle_inertia_unit_square():
    assert rectangle_inertia(12.0, 1.0, 1.0) == pytest.approx(2.0, rel=1e-12)


def test_rectangle_inertia_reproduces_reference_value():
    # length back-derived from I_z = 0.006513 with m = 1.67, w = 0.1
    l = math.sqrt(12 * 0.006513 / 1.67 - 0.1**2)
    assert l == pytest.approx(0.192, abs=5e-4)
    assert rectangle_inertia(1.67, l, 0.1) == pytest.approx(0.006513, rel=1e-9)


def test_rectangle_inertia_scales_with_mass():
    assert rectangle_inertia(2.0, 0.3, 0.1) == pytest.approx(
        2 * rectangle_inertia(1.0, 0.3, 0.1)
    )


def test_rectangle_inertia_rejects_nonpositive():
    with pytest.raises(ConfigError):
        rectangle_inertia(0.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        rectangle_inertia(1.0, -1.0, 1.0)


def test_curves_match_analytic_input_derivatives(ref, rng):
    """Central differences of every curve agree with hand-coded
    derivatives: the input maps stay smooth for gradient consumers."""
    t = ref.tire
    s = ref.steering
    k = 100.0
    kb = 30.0

    def d_friction(v):
        return -(ref.friction.a * ref.friction.b / np.cosh(ref.friction.b * v) ** 2
                 + ref.friction.c)

    def d_motor(tau, v=1.0):
        x = tau + ref.motor.g
        gate = np.tanh(k * x)
        return (ref.motor.d - v * ref.motor.e) * (
            0.5 * (gate + 1) + x * 0.5 * k * (1 - gate**2)
        )

    def d_steering(sv):
        x = sv + s.c_t
        gate = np.tanh(kb * x)
        w = 0.5 * (gate + 1)
        tb, te = np.tanh(s.b_t * x), np.tanh(s.e_t * x)
        return (
            w * s.a_t * s.b_t * (1 - tb**2)
            + (1 - w) * s.d_t * s.e_t * (1 - te**2)
            + 0.5 * kb * (1 - gate**2) * (s.a_t * tb - s.d_t * te)
        )

    def d_pacejka(alpha):
        ba = t.B * alpha
        u = ba - t.E * (ba - np.arctan(ba))
        du = t.B * (1 - t.E * (1 - 1 / (1 + ba**2)))
        return t.D * np.cos(t.C * np.arctan(u)) * t.C / (1 + u**2) * du

    h = 1e-6
    cases = [
        (lambda v: models.friction_force(v, ref.friction), d_friction, rng.uniform(0.1, 3, 10)),
        (lambda x: models.motor_force(x, 1.0, ref.motor), d_motor, rng.uniform(0.2, 0.9, 10)),
        (lambda x: models.steering_angle(x, s), d_steering, rng.uniform(-0.9, 0.9, 10)),
        (lambda a: models.pacejka_lateral(a, t), d_pacejka, rng.uniform(-1, 1, 10)),
    ]
    for fn, dfn, points in cases:
        for x in points:
            fd = (fn(x + h) - fn(x - h)) / (2 * h)
            assert fd == pytest.approx(dfn(x), rel=1e-5)


def test_geometry_wheelbase_consistency():
    with pytest.raises(ConfigError):
        Geometry(m=1.0, l=0.2, l_f=0.05, l_r=0.05, w=0.1, I_z=0.01)


def test_rectangle_geometry_puts_the_centre_of_mass_midway_unless_told():
    midway = Geometry.rectangle(2.0, 0.3, 0.1)
    assert (midway.l_f, midway.l_r, midway.I_z) == (0.15, 0.15, rectangle_inertia(2.0, 0.3, 0.1))
    forward = Geometry.rectangle(2.0, 0.3, 0.1, l_f=0.1)
    assert (forward.l_f, forward.l_r, forward.I_z) == (0.1, 0.3 - 0.1, midway.I_z)


def test_friction_params_validation():
    with pytest.raises(ConfigError):
        FrictionParams(a=-1.0, b=1.0, c=0.0)


def test_state_views_feed_scenarios(ref):
    from minicar.scenarios import Scenario, constant
    from minicar.simulator import simulate

    scen = Scenario(
        name="state-view", duration=0.5, dt=0.01, model="dynamic",
        throttle=constant(0.0), steering=constant(0.0),
        initial_state=np.array([0.0, 0.0, 0.0, 0.4, 0.0, 0.0]),
    )
    traj = simulate(scen, ref)
    assert traj.states[0, 3] == 0.4


@pytest.mark.parametrize("curve, inputs, group, n_fit", [
    ("friction_force", 1, "friction", 3),
    ("motor_force", 2, "motor", 3),
    ("steering_angle", 1, "steering", 5),
    ("pacejka_lateral", 1, "tire", 4),
    ("rear_lateral", 1, None, 1),
])
def test_curve_takes_group_or_field_order_vector(curve, inputs, group, n_fit, ref, rng):
    """Bit-identical output for the parameter group and for its fit vector;
    rear_lateral takes C_r itself or [C_r]."""
    fn = getattr(models, curve)
    params = getattr(ref, group) if group else ref.tire.C_r
    vector = np.array(list(params) if group else [params])[:n_fit]
    args = [rng.uniform(-1, 1, (20, 1)) for _ in range(inputs)]
    np.testing.assert_array_equal(fn(*args, params), fn(*args, vector))
