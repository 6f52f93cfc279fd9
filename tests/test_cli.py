import json

import numpy as np
import pytest

from minicar.cli import main
from minicar.params import reference_params, save_params
from minicar.validation import read_table


@pytest.fixture()
def params_file(tmp_path):
    path = tmp_path / "params.json"
    save_params(reference_params(), path)
    return path


def write_scenario(tmp_path, **overrides):
    doc = {
        "name": "cli_step",
        "duration": 3.0,
        "dt": 0.01,
        "model": "kinematic",
        "throttle": {"type": "step", "t": 0.5, "before": 0.0, "after": 0.3},
        "steering": {"type": "piecewise", "times": [0.0], "values": [0.0]},
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def test_simulate_writes_outputs(tmp_path, params_file):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "sim"
    assert main(["simulate", "--params", str(params_file), "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    assert (out / "trajectory.csv").is_file()
    assert (out / "path.svg").is_file()
    assert (out / "channels.svg").is_file()
    assert (out / "run_manifest.json").is_file()
    table = read_table(out / "trajectory.csv")
    assert np.all(np.diff(table["v"]) >= -1e-12)  # monotone step response


def test_simulate_zero_input_constant_state(tmp_path, params_file):
    scenario = write_scenario(
        tmp_path,
        throttle={"type": "piecewise", "times": [0.0], "values": [0.0]},
    )
    out = tmp_path / "sim0"
    assert main(["simulate", "--params", str(params_file), "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    table = read_table(out / "trajectory.csv")
    np.testing.assert_allclose(table["x"], 0.0, atol=1e-9)
    np.testing.assert_allclose(table["v"], 0.0, atol=1e-9)


def test_simulate_rejects_bad_scenario(tmp_path, params_file):
    scenario = write_scenario(tmp_path, dt=0.0)
    assert main(["simulate", "--params", str(params_file), "--scenario", str(scenario),
                 "--out", str(tmp_path / "x")]) != 0


def test_validate_errors_on_missing_params(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text("t,tau,s,v_enc,omega_imu\n0,0,0,0,0\n0.01,0,0,0,0\n")
    assert main(["validate", "--params", str(tmp_path / "nope.json"),
                 "--log", str(log), "--model", "kinematic"]) != 0


def test_validate_on_own_trajectory(tmp_path, params_file, capsys):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "sim"
    main(["simulate", "--params", str(params_file), "--scenario", str(scenario),
          "--out", str(out)])
    report = tmp_path / "report.json"
    code = main(["validate", "--params", str(params_file),
                 "--log", str(out / "trajectory.csv"), "--model", "kinematic",
                 "--out", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert all(v < 1e-6 for v in doc["rms"].values())


def test_fit_on_empty_directory_fails(tmp_path, params_file):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["fit", "--logs", str(empty), "--out", str(tmp_path / "p.json")]) != 0


def test_fit_missing_stage_with_explicit_request_fails(tmp_path, params_file):
    # a directory holding only steer logs cannot satisfy --stages friction
    from minicar.logs import save_log
    from minicar.scenarios import constant_steering_battery
    from minicar.simulator import NoiseSpec, synthesize_log

    logs_dir = tmp_path / "logs" / "steer"
    logs_dir.mkdir(parents=True)
    ref = reference_params()
    for i, scen in enumerate(constant_steering_battery(s_values=(-0.5, 0.5), duration=4.0)):
        save_log(synthesize_log(scen, ref, NoiseSpec(seed=i)), logs_dir / f"{scen.name}.csv")
    assert main(["fit", "--logs", str(tmp_path / "logs"),
                 "--out", str(tmp_path / "p.json"), "--stages", "friction"]) == 1
    # but fitting just the steering map succeeds
    assert main(["fit", "--logs", str(tmp_path / "logs"),
                 "--out", str(tmp_path / "p.json"), "--stages", "steering"]) == 0


def test_generate_requires_noise_file(tmp_path, params_file):
    assert main(["generate", "--params", str(params_file),
                 "--noise", str(tmp_path / "missing.json"), "--seed", "1",
                 "--out", str(tmp_path / "g")]) != 0


def test_fit_without_mocap_succeeds_with_tire_absent(tmp_path):
    """Directory-convention tagging, no mocap subdirectory: the four
    kinematic stages fit, exit status is zero and the parameter JSON
    carries a null tire group."""
    from minicar.logs import save_log
    from minicar.scenarios import (
        PiecewiseSchedule,
        Scenario,
        constant,
        constant_steering_battery,
        sinusoidal_steering,
        step_throttle_battery,
    )
    from minicar.simulator import NoiseSpec, synthesize_log

    ref = reference_params()
    logs_dir = tmp_path / "logs"
    batteries = {
        "coast": [
            Scenario(
                name=f"coast_{tau}", duration=8.0, dt=0.01, model="kinematic",
                throttle=PiecewiseSchedule(times=(0.0, 4.0), values=(tau, 0.0)),
                steering=constant(0.0),
            )
            for tau in (0.4, 0.3)
        ],
        "step": step_throttle_battery(levels=(0.25, 0.35), hold=5.0),
        "steer": constant_steering_battery(s_values=(-0.8, -0.3, 0.3, 0.8), duration=6.0),
        "sine": [sinusoidal_steering(duration=10.0)],
    }
    seed = 0
    for tag, battery in batteries.items():
        subdir = logs_dir / tag
        subdir.mkdir(parents=True)
        for scen in battery:
            seed += 1
            log = synthesize_log(scen, ref, NoiseSpec(seed=seed, v_enc=0.01, omega_imu=0.01))
            save_log(log, subdir / f"{scen.name}.csv")

    out = tmp_path / "fit" / "params.json"
    assert main(["fit", "--logs", str(logs_dir), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["tire"] is None
    assert doc["friction"] is not None and doc["steering"] is not None
    assert doc["delays"]["steer_delay"] == pytest.approx(0.15, abs=0.011)
    report = json.loads((out.parent / "report.json").read_text())
    status = {s["name"]: s["status"] for s in report["stages"]}
    assert status["tire"] == "skipped"
    assert status["friction"] == status["motor"] == status["steering"] == "fitted"


@pytest.mark.parametrize("text", ["{bad", "[0.02]", '{"v_enc": "loud"}'])
def test_generate_rejects_malformed_noise_json(tmp_path, params_file, caplog, text):
    noise = tmp_path / "bad.json"
    noise.write_text(text)
    code = main(["generate", "--params", str(params_file), "--noise", str(noise),
                 "--seed", "1", "--out", str(tmp_path / "g")])
    assert code == 2
    assert str(noise) in caplog.text


def test_fit_rejects_malformed_manifest(tmp_path, caplog):
    logs_dir = tmp_path / "logs"
    logs_dir.mkdir()
    (logs_dir / "manifest.json").write_text("{bad")
    code = main(["fit", "--logs", str(logs_dir), "--out", str(tmp_path / "p.json")])
    assert code == 2
    assert "manifest.json" in caplog.text


def test_run_manifest_records_both_smoothing_windows(tmp_path, params_file):
    from minicar.pipeline import PipelineConfig

    scenario = write_scenario(tmp_path, duration=0.5)
    out = tmp_path / "sim"
    assert main(["simulate", "--params", str(params_file), "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    defaults = json.loads((out / "run_manifest.json").read_text())["defaults"]
    config = PipelineConfig(geometry=reference_params().geometry)
    assert defaults["smooth_window"] == config.smooth_window == 5
    assert defaults["force_window"] == config.force_window == 21


def test_run_manifest_records_every_scalar_default(tmp_path, params_file):
    from dataclasses import MISSING, fields

    from minicar import datasets
    from minicar.pipeline import PipelineConfig

    scenario = write_scenario(tmp_path, duration=0.5)
    out = tmp_path / "sim"
    assert main(["simulate", "--params", str(params_file), "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    defaults = json.loads((out / "run_manifest.json").read_text())["defaults"]
    scalars = {f.name: f.default for f in fields(PipelineConfig)
               if f.default is not MISSING and f.default is not None}
    assert set(scalars) == {"v_min", "smooth_window", "force_window", "normalized_slip",
                            "long_delay", "delay_max_lag"}
    for name, value in scalars.items():
        assert defaults[name] == value
    assert defaults["steady_window_s"] == datasets.STEADY_WINDOW_S
    assert defaults["steady_rel_tol"] == datasets.STEADY_REL_TOL
    assert defaults["steady_omega_floor"] == datasets.STEADY_OMEGA_FLOOR
    assert defaults["transition_guard_s"] == datasets.TRANSITION_GUARD_S


def test_fit_report_records_convergence(tmp_path):
    from minicar.logs import save_log
    from minicar.scenarios import constant_steering_battery
    from minicar.simulator import NoiseSpec, synthesize_log

    logs_dir = tmp_path / "logs" / "steer"
    logs_dir.mkdir(parents=True)
    ref = reference_params()
    for i, scen in enumerate(constant_steering_battery(s_values=(-0.5, 0.5), duration=4.0)):
        save_log(synthesize_log(scen, ref, NoiseSpec(seed=i)), logs_dir / f"{scen.name}.csv")
    out = tmp_path / "fit" / "p.json"
    assert main(["fit", "--logs", str(tmp_path / "logs"), "--out", str(out),
                 "--stages", "steering"]) == 0
    stages = {s["name"]: s for s in json.loads((out.parent / "report.json").read_text())["stages"]}
    assert isinstance(stages["steering"]["converged"], bool)
    assert stages["steering"]["iterations"] > 0
    assert all(s["converged"] is None for s in stages.values() if s["status"] == "skipped")
    diagnostics = stages["steering"]["diagnostics"]
    assert set(diagnostics) == {"grad_norm", "cond", "rel_std_err", "active_bounds"}
    assert list(diagnostics["rel_std_err"]) == ["a_t", "b_t", "c_t", "d_t", "e_t"]
    # two segments cannot pin five parameters: JᵀJ is singular, σ² undefined
    assert diagnostics["cond"] is None
    assert all(v is None for v in diagnostics["rel_std_err"].values())
    assert all(s["diagnostics"] is None for s in stages.values() if s["status"] == "skipped")
