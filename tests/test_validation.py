import math
from dataclasses import replace

import numpy as np
import pytest

from minicar.datasets import SMOOTH_WINDOW
from minicar.errors import ConfigError, DataError, IntegrationError
from minicar.logs import save_log
from minicar.models import body_frame_velocity
from minicar.preprocess import differentiate, smooth
from minicar.scenarios import Scenario, SineSchedule, constant
from minicar.simulator import (NoiseSpec, save_trajectory, simulate, synthesize_log,
                               trajectory_to_csv)
from minicar import validation
from minicar.validation import one_step_rms, read_table


def _scenario(model="kinematic", duration=4.0, mocap=False, init=(), steer=None):
    return Scenario(
        name="val", duration=duration, dt=0.01, model=model,
        throttle=constant(0.3),
        steering=steer or SineSchedule(amplitude=0.4, frequency=0.3),
        initial_state=init, mocap=mocap,
    )


def test_kinematic_self_validation_is_exact(ref, tmp_path):
    scen = _scenario(mocap=True)
    log = synthesize_log(scen, ref, NoiseSpec(), 0)
    path = tmp_path / "log.csv"
    save_log(log, path)
    rms = one_step_rms(read_table(path), ref, "kinematic")
    assert set(rms) == {"x", "y", "eta", "v"}
    for channel, value in rms.items():
        assert value < 1e-6, channel


def test_dynamic_self_validation_on_trajectory_export(ref, tmp_path):
    scen = _scenario(model="dynamic", init=(0, 0, 0, 0.5, 0, 0))
    traj = simulate(scen, ref)
    path = tmp_path / "traj.csv"
    save_trajectory(traj, ref, path)
    rms = one_step_rms(read_table(path), ref, "dynamic")
    assert set(rms) == {"x", "y", "eta", "v_x", "v_y", "omega"}
    for channel, value in rms.items():
        assert value < 1e-6, channel


def test_kinematic_without_pose_reports_speed_only(ref, tmp_path):
    log = synthesize_log(_scenario(), ref, NoiseSpec(), 0)
    path = tmp_path / "log.csv"
    save_log(log, path)
    rms = one_step_rms(read_table(path), ref, "kinematic")
    assert set(rms) == {"v"}
    assert rms["v"] < 1e-6


def test_dynamic_validation_requires_pose(ref, tmp_path):
    log = synthesize_log(_scenario(), ref, NoiseSpec(), 0)
    path = tmp_path / "log.csv"
    save_log(log, path)
    with pytest.raises(DataError, match="pose"):
        one_step_rms(read_table(path), ref, "dynamic")


def test_dynamic_validation_of_a_pose_log_shorter_than_the_smoothing_window_is_refused(ref):
    """Reconstructing v_y smooths the pose over SMOOTH_WINDOW rows, so a
    3-row pose log without v_y fails at the boundary, giving its count."""
    table = read_table(b"t,tau,s,v_enc,omega_imu,x_t,y_t,eta_t\n0,0.3,0,0.5,0,0,0,0\n"
                       b"0.01,0.3,0,0.5,0,0.005,0,0\n0.02,0.3,0,0.5,0,0.01,0,0\n")
    with pytest.raises(DataError, match=rf"^reconstructing v_y from the pose needs at least "
                                        rf"{SMOOTH_WINDOW} rows, got 3$"):
        one_step_rms(table, ref, "dynamic")


def test_dynamic_validation_reconstructs_lateral_velocity(ref, tmp_path):
    scen = _scenario(model="dynamic", duration=6.0, mocap=True, init=(0, 0, 0, 0.5, 0, 0))
    log = synthesize_log(scen, ref, NoiseSpec(), 0)
    path = tmp_path / "log.csv"
    save_log(log, path)
    rms = one_step_rms(read_table(path), ref, "dynamic")
    # reconstruction by differentiation bounds the attainable accuracy
    assert rms["v_y"] < 5e-3
    assert rms["x"] < 1e-4


def test_dynamic_validation_reconstructs_lateral_velocity_by_the_tire_dataset_rule(ref, tmp_path):
    """Without a v_y column, the differentiated pose is rotated into the
    body frame by the smoothed heading, as ``build_tire_dataset`` does."""
    scen = _scenario(model="dynamic", duration=6.0, mocap=True, init=(0, 0, 0, 0.5, 0, 0))
    path = tmp_path / "log.csv"
    save_log(synthesize_log(scen, ref, NoiseSpec(mocap_xy=0.001, mocap_eta=0.002), 3), path)
    table = read_table(path)
    t, x, y, eta = (table[name] for name in ("t", "x_t", "y_t", "eta_t"))
    vx, vy = (differentiate(smooth(track, SMOOTH_WINDOW), t) for track in (x, y))
    _, v_y = body_frame_velocity(vx, vy, smooth(eta, SMOOTH_WINDOW))
    assert one_step_rms(table, ref, "dynamic") == one_step_rms({**table, "v_y": v_y}, ref,
                                                                "dynamic")


def test_kinematic_error_grows_with_speed_on_dynamic_logs(ref, tmp_path):
    """The kinematic model's lateral-channel error on circular
    dynamic-model logs grows as the speed rises."""
    results = {}
    for name, tau in (("slow", 0.22), ("fast", 0.3)):
        scen = Scenario(
            name=name, duration=8.0, dt=0.01, model="dynamic",
            throttle=constant(tau), steering=constant(0.35),
            initial_state=(0, 0, 0, 0.4, 0, 0),
        )
        traj = simulate(scen, ref)
        path = tmp_path / f"{name}.csv"
        save_trajectory(traj, ref, path)
        results[name] = one_step_rms(read_table(path), ref, "kinematic")
    assert results["fast"]["eta"] > results["slow"]["eta"]
    assert results["fast"]["y"] > results["slow"]["y"]


def test_validation_rejects_unknown_model(ref, tmp_path):
    log = synthesize_log(_scenario(), ref, NoiseSpec(), 0)
    path = tmp_path / "log.csv"
    save_log(log, path)
    for model in ("unicycle", ["kinematic"]):  # a list is not hashable
        with pytest.raises(ConfigError, match="unknown model kind"):
            one_step_rms(read_table(path), ref, model)


def test_read_table_errors(tmp_path):
    from minicar.errors import ParseError

    path = tmp_path / "bad.csv"
    path.write_text("t,v\n0.0\n")
    with pytest.raises(ParseError, match="row 1"):
        read_table(path)


def test_read_table_rejects_non_finite_field(tmp_path):
    from minicar.errors import ParseError

    path = tmp_path / "bad.csv"
    path.write_text("t,v_x\n0.0,1.0\n0.01,nan\n")
    with pytest.raises(ParseError, match=r"non-finite v_x \(row 2\)"):
        read_table(path)


def test_one_step_rms_rejects_non_uniform_grid(ref):
    t = np.array([0.0, 0.01, 0.5, 0.51])
    table = {"t": t, "tau": np.zeros(4), "s": np.zeros(4), "v_enc": np.ones(4)}
    with pytest.raises(DataError, match="uniform time grid.*row 3"):
        one_step_rms(table, ref, "kinematic")


@pytest.mark.parametrize("t, row", [([0.0, math.nan, 0.02], 2), ([0.0, 0.01, math.inf], 3)])
def test_the_time_step_of_a_non_finite_time_column_is_refused(t, row):
    with pytest.raises(DataError, match=rf"time must be finite \(row {row}\)"):
        validation._dt_of({"t": np.array(t)})


def test_one_step_rms_names_the_row_where_time_goes_back(ref):
    t = np.arange(8) * 0.01
    t[5] = 0.02  # row 6 (1-based) goes back in time
    table = {"t": t, "tau": np.zeros(8), "s": np.zeros(8), "v_enc": np.ones(8)}
    with pytest.raises(DataError, match=r"strictly increasing \(row 6\)"):
        one_step_rms(table, ref, "kinematic")


@pytest.mark.parametrize("column", ["tau", "s", "tau_applied", "s_applied"])
@pytest.mark.parametrize("value, row", [(2.0, 3), (-1.5, 1), (1 + 1e-8, 4)])
def test_one_step_rms_rejects_commands_outside_unit_range(ref, column, value, row):
    """Every command column, applied or not, must lie in [-1, 1] (to the
    tolerance ``load_log`` allows), and the error names its 1-based row."""
    n = 5
    table = {name: np.zeros(n) for name in ("tau", "s", "tau_applied", "s_applied", "v_enc")}
    table["t"] = np.arange(n) * 0.01
    table[column][row - 1] = value
    with pytest.raises(DataError,
                       match=rf"{column} must lie in \[-1, 1\] \(row {row}\)") as caught:
        one_step_rms(table, ref, "kinematic")
    assert caught.value.row == row
    table[column][row - 1] = 1 + 1e-10  # within the tolerance
    one_step_rms(table, ref, "kinematic")


def test_normalized_validation_follows_the_blend_row_by_row(ref, tmp_path):
    """A normalized coast through the blend speed: rows above it take
    the dynamic model, rows below it the rolling fallback, and the
    export validates to round-off either way."""
    coast = Scenario(name="coast", duration=3.0, dt=0.01, model="dynamic",
                     throttle=constant(0.0), steering=constant(0.3),
                     initial_state=(0, 0, 0, 0.6, 0, 0))
    normalized = replace(ref, normalized_slip=True)
    traj = simulate(coast, normalized)
    v_x = traj.states[:-1, 3]
    assert np.any(v_x < 0.3) and np.any(v_x >= 0.3)
    path = tmp_path / "coast.csv"
    save_trajectory(traj, normalized, path)
    rms = one_step_rms(read_table(path), normalized, "dynamic")
    assert all(v <= 1e-9 for v in rms.values()), rms


@pytest.mark.parametrize("normalized", [False, True])
def test_one_step_rms_names_the_row_and_time_of_a_non_finite_prediction(ref, tmp_path,
                                                                         normalized):
    """A speed of 1e300 in data row 101 (t = 1.0 s) of a dynamic
    circle's export overflows that row's step: the error names the row
    and its time, and no RuntimeWarning escapes."""
    circle = _scenario(model="dynamic", init=(0, 0, 0, 0.5, 0, 0), steer=constant(0.4))
    params = replace(ref, normalized_slip=normalized)
    path = tmp_path / "circle.csv"
    save_trajectory(simulate(circle, params), params, path)
    table = read_table(path)
    table["v_enc"] = table["v_enc"].copy()
    table["v_enc"][100] = 1e300
    with pytest.raises(IntegrationError, match=r"at t=1\.000000 s \(row 101\)"):
        one_step_rms(table, params, "dynamic")


def test_one_step_rms_rejects_an_rms_that_overflows(ref, tmp_path):
    """With a stall force of 1e305 N every predicted speed is finite but
    their squared errors overflow: the error names the channel."""
    path = tmp_path / "log.csv"
    save_log(synthesize_log(_scenario(), ref, NoiseSpec(), 0), path)
    wild = replace(ref, motor=replace(ref.motor, d=1e305))
    with pytest.raises(DataError, match="RMS of channel 'v' is not finite"):
        one_step_rms(read_table(path), wild, "kinematic")


@pytest.mark.parametrize("model", ["kinematic", "dynamic"])
def test_an_export_writes_its_sensor_columns_bit_equal_to_its_states(ref, model):
    """``v_enc`` is the speed state and, for the dynamic model,
    ``omega_imu`` the yaw-rate state, bit for bit, so validate reads an
    export's states from the columns it reads a log's from."""
    scen = _scenario(model=model, init=(0, 0, 0, 0.5, 0, 0) if model == "dynamic" else ())
    table = read_table(trajectory_to_csv(simulate(scen, ref), ref).encode())
    speed = "v" if model == "kinematic" else "v_x"
    assert table["v_enc"].tobytes() == table[speed].tobytes()
    if model == "dynamic":
        assert table["omega_imu"].tobytes() == table["omega"].tobytes()


def test_a_pose_is_one_whole_triple(ref, tmp_path):
    """A table with x and y but no eta validates on the mocap triple
    alone, never on a pose put together from both vocabularies."""
    scen = _scenario(mocap=True)
    path = tmp_path / "log.csv"
    save_log(synthesize_log(scen, ref, NoiseSpec(mocap_xy=0.01), 1), path)
    table = read_table(path)
    mocap = one_step_rms(table, ref, "kinematic")
    assert set(mocap) == {"x", "y", "eta", "v"}
    wrong = {"x": table["y_t"], "y": table["x_t"]}
    assert one_step_rms({**table, **wrong}, ref, "kinematic") == mocap


@pytest.mark.parametrize("have, missing", [("tau_applied", "s_applied"),
                                           ("s_applied", "tau_applied")])
def test_one_applied_input_without_its_pair_is_refused(ref, have, missing):
    """A lone ``tau_applied`` or ``s_applied`` fails naming the missing
    one, though the commands it could be shifted from are there."""
    n = 5
    table = {name: np.zeros(n) for name in ("tau", "s", "v_enc", have)}
    table["t"] = np.arange(n) * 0.01
    with pytest.raises(DataError, match=f"no {missing} column"):
        one_step_rms(table, ref, "kinematic")


@pytest.mark.parametrize("model", ["kinematic", "dynamic"])
def test_a_refused_steering_angle_names_its_row(ref, tmp_path, model):
    """Steering that reaches |delta| >= pi/2 from data row 46 (t = 0.45 s)
    on: a kinematic step, or a normalized dynamic step that rolls, fails
    naming that row."""
    wide = replace(ref, steering=replace(ref.steering, a_t=3.0, d_t=3.0, b_t=5.0, e_t=5.0),
                   normalized_slip=True)
    path = tmp_path / "log.csv"
    save_log(synthesize_log(_scenario(duration=1.0, mocap=True), ref, NoiseSpec(), 0), path)
    table = read_table(path)
    table["s"] = np.where(table["t"] < 0.295, 0.0, 1.0)  # full lock from row 31, applied at row 46
    table["v_enc"] = np.full_like(table["t"], 0.1)  # below the blend speed
    with pytest.raises(ConfigError, match=r"pi/2 at t=0\.450000 s \(row 46\)$"):
        one_step_rms(table, wide, model)


def test_a_normalized_slip_refusal_names_its_row(spin):
    """The export of a spinning normalized run up to t = 0.25 s, with one
    row more: the step from its last row takes v_x from 0.398 m/s to 0
    or below, and validation names that row and its time."""
    params, scenario = spin
    traj = simulate(replace(scenario, duration=0.25), params)
    table = read_table(trajectory_to_csv(traj, params).encode())
    table = {name: np.append(column, column[-1]) for name, column in table.items()}
    table["t"][-1] = 0.255
    with pytest.raises(DataError, match=r"^normalized slip angles need v_x > 0 "
                                        r"at t=0\.250000 s \(row 51\)$"):
        one_step_rms(table, params, "dynamic")


def test_a_refused_row_is_found_by_bisection(ref, tmp_path, monkeypatch):
    """Row 3,990 of a 4,001-row kinematic export, the first at full lock
    of a widened steering map, is named after at most 2·⌈log₂ 4000⌉ + 2
    calls of the step, not one call per row before it."""
    wide = replace(ref, steering=replace(ref.steering, a_t=3.0, d_t=3.0, b_t=5.0, e_t=5.0))
    path = tmp_path / "traj.csv"
    save_trajectory(simulate(_scenario(duration=40.0, steer=constant(0.0)), ref), ref, path)
    table = read_table(path)
    assert table["t"].size == 4001
    table["s_applied"] = np.where(np.arange(4001) < 3989, table["s_applied"], 1.0)
    make, calls = validation.stepper, []

    def counting_stepper(*args, **kwargs):
        step = make(*args, **kwargs)

        def counted(rows, inputs):
            calls.append(rows[0].size)
            return step(rows, inputs)

        return counted

    monkeypatch.setattr(validation, "stepper", counting_stepper)
    with pytest.raises(ConfigError, match=r"pi/2 at t=39\.890000 s \(row 3990\)$"):
        one_step_rms(table, wide, "kinematic")
    assert len(calls) <= 2 * math.ceil(math.log2(4000)) + 2
