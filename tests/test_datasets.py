import inspect
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from minicar import datasets, fitting, models
from minicar.datasets import (
    Dataset,
    build_friction_dataset,
    build_motor_dataset,
    build_steering_dataset,
    build_tire_dataset,
)
from minicar.errors import DataError
from minicar.logs import MocapBlock, RawLog
from minicar.params import reference_params
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
    with pytest.raises(DataError, match="equal length"):
        Dataset((np.zeros(3),), np.zeros(2))
    with pytest.raises(DataError, match="equal length"):
        Dataset((np.zeros(2), np.zeros(3)), np.zeros(2))


def test_dataset_rejects_a_2d_label():
    with pytest.raises(DataError, match="1-D"):
        Dataset((np.ones(4),), np.ones((4, 2)))
    with pytest.raises(DataError, match="1-D"):
        Dataset((np.ones(4),), np.ones((4, 1)))


def test_dataset_rejects_non_finite():
    with pytest.raises(DataError, match="non-finite"):
        Dataset((np.array([np.nan]),), np.zeros(1))
    with pytest.raises(DataError, match="non-finite"):
        Dataset((np.zeros(1),), np.array([np.inf]))


def test_dataset_rejects_empty():
    with pytest.raises(DataError, match="empty"):
        Dataset((np.zeros(0),), np.zeros(0))


def test_dataset_is_read_only_and_leaves_its_arguments_writable():
    tau, v, force = np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])
    data = Dataset((tau, v), force)
    assert len(data) == 2
    for column in (*data.inputs, data.label):
        with pytest.raises(ValueError):
            column[0] = 0.0
    force[0] = 0.0
    assert data.label[0] == 5.0


@pytest.fixture(scope="module")
def stage_datasets(ref, circle_logs):
    """One builder's dataset per fit stage, from small noiseless logs."""
    front, rear = build_tire_dataset(circle_logs, ref)
    return {
        "friction": build_friction_dataset([_coast_log(ref)], ref.geometry.m),
        "motor": build_motor_dataset([_step_log(ref)], ref.geometry.m, ref.friction),
        "steering": build_steering_dataset(_steer_logs(ref, (-0.4, 0.4)), ref.geometry.l),
        "front_tire": front,
        "rear_tire": rear,
    }


@pytest.mark.parametrize("stage", ["friction", "motor", "steering", "front_tire", "rear_tire"])
def test_builder_gives_one_input_column_per_curve_argument(stage, stage_datasets):
    """A stage's dataset holds one input column for each argument its
    ``models`` curve takes before the parameters."""
    data = stage_datasets[stage]
    arguments = list(inspect.signature(fitting._STAGES[stage].curve).parameters)[:-1]
    assert len(data.inputs) == len(arguments)
    assert all(column.shape == data.label.shape == (len(data),) for column in data.inputs)


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
    assert np.all(data.inputs[0] > 0.05)


def test_friction_zero_noise_labels_match_curve(ref):
    # residual floor is the central-difference truncation error of the
    # curved roll-out profile at 100 Hz
    log = _coast_log(ref)
    data = build_friction_dataset([log], ref.geometry.m)
    residual = data.label - models.friction_force(data.inputs[0], ref.friction)
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
    assert np.all(data.inputs[0] > 0)


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
    predicted = models.motor_force(*data.inputs, ref.motor)
    rms = np.sqrt(np.mean((data.label - predicted) ** 2))
    assert rms < 1e-6


def test_motor_label_residual_at_logging_rate(ref):
    log = _step_log(ref)
    data = build_motor_dataset([log], ref.geometry.m, ref.friction)
    predicted = models.motor_force(*data.inputs, ref.motor)
    rms = np.sqrt(np.mean((data.label - predicted) ** 2))
    assert rms < 2e-2  # truncation floor of 100 Hz central differences


def test_motor_requires_powered_rows(ref):
    n = 50
    log = make_log(np.arange(n) * 0.01, np.zeros(n), np.zeros(n), np.ones(n), np.zeros(n))
    with pytest.raises(DataError, match="powered"):
        build_motor_dataset([log], ref.geometry.m, ref.friction)


# --- steering angle series ------------------------------------------------


def test_estimate_steering_angle_zero_yaw():
    delta = models.kinematic_steering_angle(np.zeros(5), np.ones(5), 0.2)
    np.testing.assert_array_equal(delta, np.zeros(5))


def test_estimate_steering_angle_value():
    delta = models.kinematic_steering_angle(np.array([1.0]), np.array([1.0]), 0.2)
    assert delta[0] == pytest.approx(np.arctan(0.2), rel=1e-12)


# Angles too small for their yaw rate at the lowest speed to stay a
# normal float are left out: a subnormal yaw rate has lost its precision.
@given(delta=st.floats(-np.pi / 2, np.pi / 2, exclude_min=True, exclude_max=True)
       .filter(lambda delta: delta == 0.0 or abs(delta) > 1e-300),
       v=st.floats(1e-3, 1e3))
@example(delta=0.0, v=1.0)  # zero yaw rate: straight ahead, exactly
@example(delta=float(np.arctan(0.192)), v=1.0)  # 1 rad/s at 1 m/s on the reference wheelbase
def test_estimate_steering_angle_round_trip(delta, v):
    """delta -> kinematic yaw rate -> kinematic_steering_angle -> delta,
    for every |delta| < pi/2 and v > 0."""
    geom = reference_params().geometry
    omega = models.kinematic_yaw_rate(v, np.tan(delta), geom)
    back = models.kinematic_steering_angle(omega, v, geom.l)
    assert back == pytest.approx(delta, rel=1e-12, abs=0.0)


# --- steering dataset ------------------------------------------------------


def _constant_runs_by_loop(values):
    runs, start = [], 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] != values[start]:
            runs.append((start, i))
            start = i
    return runs


def _piecewise_constant(rng, rows):
    return np.repeat(rng.choice([-0.4, 0.0, 0.4], 12), rng.integers(1, 20, 12))[:rows]


@pytest.mark.parametrize("make", [
    lambda rng: np.array([0.3]),
    lambda rng: np.full(801, 0.2),
    lambda rng: rng.uniform(0, 1, 1401) > 0.2,  # a mask, as measure_steer_delay passes
    *[lambda rng, rows=rows: _piecewise_constant(rng, rows) for rows in (7, 60, 500)],
], ids=["one_row", "all_equal", "mask", "piecewise7", "piecewise60", "piecewise500"])
def test_constant_runs_match_a_plain_loop(make, rng):
    values = make(rng)
    runs = list(datasets._constant_runs(values))
    assert runs == _constant_runs_by_loop(values.tolist())
    assert all(type(a) is int and type(b) is int for a, b in runs)


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
    np.testing.assert_allclose(np.sort(data.inputs[0]), s_values, atol=1e-12)


def test_steering_dataset_matches_true_map(ref):
    s_values = (-0.8, -0.4, 0.0, 0.4, 0.8)
    data = build_steering_dataset(_steer_logs(ref, s_values), ref.geometry.l)
    expected = models.steering_angle(data.inputs[0], ref.steering)
    np.testing.assert_allclose(data.label, expected, atol=2e-4)


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


def test_steering_dataset_skips_segments_shorter_than_its_window(ref, caplog):
    """A log whose steering changes every 5 rows adds no row, and the
    builder logs how many segments it skipped."""
    logs = _steer_logs(ref, (-0.4, 0.4))
    n = 60
    chatter = make_log(np.arange(n) * 0.01, np.full(n, 0.25), np.repeat([0.2, -0.2] * 6, 5),
                       np.full(n, 0.5), np.zeros(n), name="chatter")
    alone = build_steering_dataset(logs, ref.geometry.l)
    with caplog.at_level(logging.INFO, logger="minicar.datasets"):
        with_chatter = build_steering_dataset([chatter, *logs], ref.geometry.l)
    assert [r.message for r in caplog.records] == ["steering dataset: 12 segments skipped"]
    for got, want in zip((*with_chatter.inputs, with_chatter.label), (*alone.inputs, alone.label)):
        np.testing.assert_array_equal(got, want)


# --- logs too short for a builder's window ---------------------------------


def _short_log(n, tau, s=0.0):
    """``n`` samples at 100 Hz of one held command at 0.5 m/s."""
    return make_log(np.arange(n) * 0.01, np.full(n, tau), np.full(n, s), np.full(n, 0.5),
                    np.zeros(n), name=f"short_{n}")


@pytest.mark.parametrize("stage", ["friction", "motor", "steering"])
def test_a_log_shorter_than_the_builder_window_adds_no_rows(ref, stage):
    """Friction and motor need FORCE_WINDOW rows for their local cubic,
    steering SMOOTH_WINDOW rows for its moving average: a shorter log is
    skipped, and the dataset is the one built without it."""
    build, logs, short = {
        "friction": (lambda logs: build_friction_dataset(logs, ref.geometry.m),
                     [_coast_log(ref)], _short_log(10, 0.0)),
        "motor": (lambda logs: build_motor_dataset(logs, ref.geometry.m, ref.friction),
                  [_step_log(ref)], _short_log(10, 0.3)),
        "steering": (lambda logs: build_steering_dataset(logs, ref.geometry.l),
                     _steer_logs(ref, (-0.4, 0.4)), _short_log(4, 0.25, 0.4)),
    }[stage]
    alone, with_short = build(logs), build([short, *logs])
    assert len(with_short.inputs) == len(alone.inputs)
    for got, want in zip((*with_short.inputs, with_short.label), (*alone.inputs, alone.label)):
        np.testing.assert_array_equal(got, want)


# --- tire dataset ----------------------------------------------------------


def test_tire_dataset_requires_mocap(ref):
    n = 50
    log = make_log(np.arange(n) * 0.01, np.zeros(n), np.zeros(n), np.ones(n), np.zeros(n))
    with pytest.raises(DataError, match="motion-capture"):
        build_tire_dataset([log], ref)


@pytest.mark.parametrize("n, speed", [(12, 1.0), (50, 0.0)])
def test_tire_dataset_refuses_logs_with_no_usable_row(ref, n, speed):
    """A pose log shorter than its two smoothing windows, or one standing
    still below v_min, is skipped; with no other log there is no row."""
    t = np.arange(n) * 0.01
    log = make_log(t, np.zeros(n), np.zeros(n), np.full(n, speed), np.zeros(n),
                   mocap=MocapBlock(speed * t, np.zeros(n), np.zeros(n)))
    with pytest.raises(DataError, match=r"^no usable tire rows \(all below v_min or logs too "
                                        r"short\)$"):
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
    np.testing.assert_allclose(front.label, expected_front, rtol=1e-10)
    np.testing.assert_allclose(rear.label, expected_rear, rtol=1e-10)


def test_tire_dataset_zero_acceleration_gives_zero_labels(ref):
    n = 300
    t = np.arange(n) * 0.01
    mocap = MocapBlock(x_t=1.2 * t, y_t=np.zeros(n), eta_t=np.zeros(n))
    log = make_log(t, np.zeros(n), np.zeros(n), np.full(n, 1.2), np.zeros(n), mocap=mocap)
    front, rear = build_tire_dataset([log], ref)
    np.testing.assert_allclose(front.label, 0.0, atol=1e-9)
    np.testing.assert_allclose(rear.label, 0.0, atol=1e-9)


@pytest.fixture(scope="module")
def circle_logs(ref):
    """Noiseless circular-ramp logs, one per turning direction."""
    return [synthesize_log(mocap_circular_ramp(s, duration=20.0), ref, NoiseSpec(), 9)
            for s in (-0.4, 0.4)]


def test_tire_dataset_round_trip_points_on_curve(ref, circle_logs):
    """Noiseless circular-ramp logs produce (alpha, force) pairs lying
    on the generating curves."""
    front, rear = build_tire_dataset(circle_logs, ref)
    front_true = models.pacejka_lateral(front.inputs[0], ref.tire)
    rear_true = models.rear_lateral(rear.inputs[0], ref.tire.C_r)
    assert np.sqrt(np.mean((front.label - front_true) ** 2)) < 0.02
    assert np.sqrt(np.mean((rear.label - rear_true) ** 2)) < 0.02


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
        np.testing.assert_array_equal(mine.inputs, solved.inputs)
        np.testing.assert_allclose(mine.label, solved.label, rtol=1e-12,
                                   atol=1e-12 * np.abs(solved.label).max())
