import logging
from dataclasses import replace

import numpy as np
import pytest

from minicar import datasets, models
from minicar.datasets import (
    Dataset,
    build_friction_dataset,
    build_motor_dataset,
    build_steering_dataset,
    build_tire_dataset,
    estimate_steering_angle_series,
)
from minicar.errors import DataError
from minicar.logs import MocapBlock, RawLog
from minicar.scenarios import PiecewiseSchedule, Scenario, constant, mocap_circular_ramp
from minicar.simulator import NoiseSpec, synthesize_log


def make_log(t, tau, s, v, omega, mocap=None, name="test"):
    return RawLog(
        t=np.asarray(t, float),
        tau=np.asarray(tau, float),
        s=np.asarray(s, float),
        v_enc=np.asarray(v, float),
        omega_imu=np.asarray(omega, float),
        mocap=mocap,
        name=name,
    )


# --- Dataset container ---------------------------------------------------


def test_dataset_rejects_row_mismatch():
    with pytest.raises(DataError):
        Dataset(X=np.zeros((3, 1)), Y=np.zeros((2, 1)), x_names=("x",), y_names=("y",))


def test_dataset_rejects_non_finite():
    with pytest.raises(DataError):
        Dataset(X=np.array([[np.nan]]), Y=np.zeros((1, 1)), x_names=("x",), y_names=("y",))


def test_dataset_rejects_empty():
    with pytest.raises(DataError):
        Dataset(X=np.zeros((0, 1)), Y=np.zeros((0, 1)), x_names=("x",), y_names=("y",))


# --- friction ------------------------------------------------------------


def test_friction_requires_coasting_rows(ref):
    n = 100
    log = make_log(np.arange(n) * 0.01, np.full(n, 0.3), np.zeros(n), np.ones(n), np.zeros(n))
    with pytest.raises(DataError, match="coasting"):
        build_friction_dataset([log], ref.geometry.m)


def _coast_log(ref):
    scen = Scenario(
        name="coast", duration=6.0, dt=0.01, model="kinematic",
        throttle=PiecewiseSchedule(times=(0.0, 2.0), values=(0.35, 0.0)),
        steering=constant(0.0),
    )
    return synthesize_log(scen, ref, NoiseSpec(), 3)


def test_friction_excludes_standstill(ref):
    # coasting log that comes to rest: no rows below v_min survive
    data = build_friction_dataset([_coast_log(ref)], ref.geometry.m)
    assert np.all(data.X[:, 0] > 0.05)


def test_friction_zero_noise_labels_match_curve(ref):
    # residual floor is the central-difference truncation error of the
    # curved roll-out profile at 100 Hz
    log = _coast_log(ref)
    data = build_friction_dataset([log], ref.geometry.m)
    residual = data.Y[:, 0] - models.friction_force(data.X[:, 0], ref.friction)
    assert np.sqrt(np.mean(residual**2)) < 5e-3


# --- motor ---------------------------------------------------------------


def _step_log(ref, tau=0.3, seed=0, noise=0.0):
    scen = Scenario(
        name="step", duration=8.0, dt=0.01, model="kinematic",
        throttle=PiecewiseSchedule(times=(0.0, 1.0, 6.0), values=(0.0, tau, 0.0)),
        steering=constant(0.0),
    )
    return synthesize_log(scen, ref, NoiseSpec(v_enc=noise), seed)


def test_motor_dataset_excludes_coasting(ref):
    log = _step_log(ref)
    data = build_motor_dataset([log], ref.geometry.m, ref.friction)
    assert np.all(data.X[:, 0] > 0)


def test_motor_zero_noise_label_residual(ref):
    """Sub-micronewton labels need the differentiation truncation error
    out of the way: sample fast, so that the cubic local fit over
    FORCE_WINDOW samples is exact to round-off."""
    scen = Scenario(
        name="step_fast", duration=2.5, dt=1e-4, model="kinematic",
        throttle=PiecewiseSchedule(times=(0.0, 0.5), values=(0.0, 0.3)),
        steering=constant(0.0),
    )
    log = synthesize_log(scen, ref, NoiseSpec(), 0)
    data = build_motor_dataset([log], ref.geometry.m, ref.friction)
    predicted = models.motor_force(data.X[:, 0], data.X[:, 1], ref.motor)
    rms = np.sqrt(np.mean((data.Y[:, 0] - predicted) ** 2))
    assert rms < 1e-6


def test_motor_label_residual_at_logging_rate(ref):
    log = _step_log(ref)
    data = build_motor_dataset([log], ref.geometry.m, ref.friction)
    predicted = models.motor_force(data.X[:, 0], data.X[:, 1], ref.motor)
    rms = np.sqrt(np.mean((data.Y[:, 0] - predicted) ** 2))
    assert rms < 2e-2  # truncation floor of 100 Hz central differences


def test_motor_requires_powered_rows(ref):
    n = 50
    log = make_log(np.arange(n) * 0.01, np.zeros(n), np.zeros(n), np.ones(n), np.zeros(n))
    with pytest.raises(DataError, match="powered"):
        build_motor_dataset([log], ref.geometry.m, ref.friction)


# --- steering angle series ------------------------------------------------


def test_estimate_steering_angle_zero_yaw():
    delta = estimate_steering_angle_series(np.zeros(5), np.ones(5), 0.2)
    np.testing.assert_array_equal(delta, np.zeros(5))


def test_estimate_steering_angle_value():
    delta = estimate_steering_angle_series(np.array([1.0]), np.array([1.0]), 0.2)
    assert delta[0] == pytest.approx(np.arctan(0.2), rel=1e-12)


def test_estimate_steering_angle_round_trip(ref):
    # delta -> kinematic yaw rate -> estimate -> delta
    geom = ref.geometry
    delta = np.linspace(-0.5, 0.5, 21)
    v = 1.3
    omega = v * np.tan(delta) / geom.l
    back = estimate_steering_angle_series(omega, np.full(21, v), geom.l)
    np.testing.assert_allclose(back, delta, rtol=1e-12)


def test_estimate_steering_angle_flags_slow_rows():
    delta = estimate_steering_angle_series(
        np.array([1.0, 1.0, 1.0]), np.array([1.0, 0.01, 2.0]), 0.2
    )
    assert np.isnan(delta[1]) and np.isfinite(delta[0]) and np.isfinite(delta[2])


def test_estimate_steering_angle_rejects_all_slow():
    with pytest.raises(DataError):
        estimate_steering_angle_series(np.ones(3), np.full(3, 0.01), 0.2)


# --- steering dataset ------------------------------------------------------


def _steer_logs(ref, s_values, seed=0, noise_v=0.0, noise_w=0.0):
    logs = []
    for i, s in enumerate(s_values):
        scen = Scenario(
            name=f"steer_{s}", duration=6.0, dt=0.01, model="kinematic",
            throttle=constant(0.25), steering=constant(float(s)),
        )
        logs.append(
            synthesize_log(scen, ref, NoiseSpec(v_enc=noise_v, omega_imu=noise_w), seed + i)
        )
    return logs


def test_steering_dataset_one_row_per_grid_segment(ref):
    s_values = np.round(np.arange(-1.0, 1.01, 0.2), 10)
    data = build_steering_dataset(_steer_logs(ref, s_values), ref.geometry.l)
    assert len(data) == 11
    np.testing.assert_allclose(np.sort(data.X[:, 0]), s_values, atol=1e-12)


def test_steering_dataset_matches_true_map(ref):
    s_values = (-0.8, -0.4, 0.0, 0.4, 0.8)
    data = build_steering_dataset(_steer_logs(ref, s_values), ref.geometry.l)
    expected = models.steering_angle(data.X[:, 0], ref.steering)
    np.testing.assert_allclose(data.Y[:, 0], expected, atol=2e-4)


def test_steering_dataset_excludes_slow_segments(ref, caplog):
    # throttle too weak to exceed v_min: every segment is excluded
    logs = []
    for s in (-0.5, 0.5):
        scen = Scenario(
            name=f"slow_{s}", duration=4.0, dt=0.01, model="kinematic",
            throttle=constant(0.16), steering=constant(s),
        )
        logs.append(synthesize_log(scen, ref, NoiseSpec(), 1))
    with caplog.at_level(logging.WARNING):
        with pytest.raises(DataError, match="steady"):
            build_steering_dataset(logs, ref.geometry.l)
    assert any("excluded" in r.message for r in caplog.records)


# --- tire dataset ----------------------------------------------------------


def test_tire_dataset_requires_mocap(ref):
    n = 50
    log = make_log(np.arange(n) * 0.01, np.zeros(n), np.zeros(n), np.ones(n), np.zeros(n))
    with pytest.raises(DataError, match="motion-capture"):
        build_tire_dataset([log], ref)


def test_tire_dataset_matrix_solve_matches_closed_form_at_zero_heading(ref):
    """At eta = 0 the force solve reduces to
    F_yf = (I_z*domega + l_r*m*a_y) / l with pose made of exact
    polynomials, so central differences are exact."""
    geom = ref.geometry
    n = 400
    t = np.arange(n) * 0.01
    a_y = 0.8
    mocap = MocapBlock(x_t=1.0 * t, y_t=0.5 * a_y * t * t, eta_t=np.zeros(n))
    # steering command at the map's zero crossing keeps delta = 0, so
    # the tire-frame projection is the identity
    s0 = -ref.steering.c_t
    log = make_log(t, np.zeros(n), np.full(n, s0), np.ones(n), np.zeros(n), mocap=mocap)
    front, rear = build_tire_dataset([log], ref)
    # omega and domega vanish; closed form per row:
    expected_front = (geom.l_r * geom.m * a_y) / geom.l
    expected_rear = (geom.l_f * geom.m * a_y) / geom.l
    np.testing.assert_allclose(front.Y[:, 0], expected_front, rtol=1e-10)
    np.testing.assert_allclose(rear.Y[:, 0], expected_rear, rtol=1e-10)


def test_tire_dataset_zero_acceleration_gives_zero_labels(ref):
    n = 300
    t = np.arange(n) * 0.01
    mocap = MocapBlock(x_t=1.2 * t, y_t=np.zeros(n), eta_t=np.zeros(n))
    log = make_log(t, np.zeros(n), np.zeros(n), np.full(n, 1.2), np.zeros(n), mocap=mocap)
    front, rear = build_tire_dataset([log], ref)
    np.testing.assert_allclose(front.Y, 0.0, atol=1e-9)
    np.testing.assert_allclose(rear.Y, 0.0, atol=1e-9)


@pytest.fixture(scope="module")
def circle_logs(ref):
    """Noiseless circular-ramp logs, one per turning direction."""
    return [synthesize_log(mocap_circular_ramp(s, duration=20.0), ref, NoiseSpec(), 9)
            for s in (-0.4, 0.4)]


def test_tire_dataset_round_trip_points_on_curve(ref, circle_logs):
    """Noiseless circular-ramp logs produce (alpha, force) pairs lying
    on the generating curves."""
    front, rear = build_tire_dataset(circle_logs, ref)
    front_true = models.pacejka_lateral(front.X[:, 0], ref.tire)
    rear_true = models.rear_lateral(rear.X[:, 0], ref.tire.C_r)
    assert np.sqrt(np.mean((front.Y[:, 0] - front_true) ** 2)) < 0.02
    assert np.sqrt(np.mean((rear.Y[:, 0] - rear_true) ** 2)) < 0.02


def _solved_axle_forces(ax_abs, ay_abs, domega, eta, geom):
    """The planar force balance solved row by row as a 3x3 linear system
    for (f_x, f_yf, f_yr)."""
    cos_e, sin_e = np.cos(eta), np.sin(eta)
    m_rows = np.empty((eta.size, 3, 3))
    m_rows[:, 0] = np.column_stack([cos_e, -sin_e, -sin_e])
    m_rows[:, 1] = np.column_stack([sin_e, cos_e, cos_e])
    m_rows[:, 2] = [0.0, geom.l_f, -geom.l_r]
    rhs = np.column_stack([geom.m * ax_abs, geom.m * ay_abs, geom.I_z * domega])
    return tuple(np.linalg.solve(m_rows, rhs[:, :, None])[:, :, 0].T)


@pytest.mark.parametrize("noisy", [False, True])
def test_tire_labels_equal_the_solved_force_balance(ref, circle_logs, monkeypatch, noisy):
    """The closed-form axle forces give the labels that solving the 3x3
    force balance per row gives, over whole circles of heading: to 1e-12
    relative, or to 1e-12 of the largest label where a label near zero
    is a difference of larger forces in both forms. The labelling
    geometry puts the CoM off centre, so swapped axles would show."""
    l = ref.geometry.l
    params = replace(ref, geometry=replace(ref.geometry, l_f=0.3 * l, l_r=0.7 * l))
    logs = circle_logs
    if noisy:
        noise = NoiseSpec(mocap_xy=0.001, mocap_eta=0.002)
        logs = [synthesize_log(mocap_circular_ramp(0.4, duration=20.0), ref, noise, 4)]
    closed = build_tire_dataset(logs, params)
    monkeypatch.setattr(datasets, "_axle_forces", _solved_axle_forces)
    for mine, solved in zip(closed, build_tire_dataset(logs, params)):
        np.testing.assert_array_equal(mine.X, solved.X)
        np.testing.assert_allclose(mine.Y, solved.Y, rtol=1e-12,
                                   atol=1e-12 * np.abs(solved.Y).max())
