import numpy as np
import pytest

from minicar.datasets import SMOOTH_WINDOW
from minicar.errors import DataError
from minicar.logs import save_log
from minicar.models import body_frame_velocity
from minicar.preprocess import differentiate, smooth
from minicar.scenarios import Scenario, SineSchedule, constant
from minicar.simulator import NoiseSpec, save_trajectory, simulate, synthesize_log
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
    from minicar.errors import ConfigError

    with pytest.raises(ConfigError):
        one_step_rms(read_table(path), ref, "unicycle")


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
    with pytest.raises(DataError, match=rf"{column} must lie in \[-1, 1\] \(row {row}\)"):
        one_step_rms(table, ref, "kinematic")
    table[column][row - 1] = 1 + 1e-10  # within the tolerance
    one_step_rms(table, ref, "kinematic")


def test_normalized_validation_follows_the_blend_row_by_row(ref, tmp_path):
    """A normalized coast through the blend speed: rows above it take
    the dynamic model, rows below it the rolling fallback, and the
    export validates to round-off either way."""
    coast = Scenario(name="coast", duration=3.0, dt=0.01, model="dynamic",
                     throttle=constant(0.0), steering=constant(0.3),
                     initial_state=(0, 0, 0, 0.6, 0, 0))
    traj = simulate(coast, ref, normalized=True)
    v_x = traj.states[:-1, 3]
    assert np.any(v_x < 0.3) and np.any(v_x >= 0.3)
    path = tmp_path / "coast.csv"
    save_trajectory(traj, ref, path)
    rms = one_step_rms(read_table(path), ref, "dynamic", normalized=True)
    assert all(v <= 1e-9 for v in rms.values()), rms
