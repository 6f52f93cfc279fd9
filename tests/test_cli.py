import json
import logging
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import minicar
from minicar import cli, svgplot, validation
from minicar.cli import build_parser, main
from minicar.params import Geometry, reference_params, save_params
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


def _normalized_params(tmp_path, params_file):
    """A copy of the parameter file in the normalized slip convention."""
    doc = json.loads(params_file.read_text())
    assert doc["normalized_slip"] is False
    params = tmp_path / "normalized.json"
    params.write_text(json.dumps({**doc, "normalized_slip": True}))
    return params


def _wild_params(tmp_path, params_file):
    doc = json.loads(params_file.read_text())
    doc["motor"]["d"] = 1e9  # a stall force no state stays sane under
    params = tmp_path / "wild.json"
    params.write_text(json.dumps(doc))
    return params


def test_simulate_writes_outputs(tmp_path, params_file):
    scenario = write_scenario(tmp_path)
    out = tmp_path / "sim"
    assert main(["simulate", "--params", str(params_file), "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    assert (out / "trajectory.csv").is_file()
    assert (out / "path.svg").is_file()
    assert (out / "channels.svg").is_file()
    table = read_table(out / "trajectory.csv")
    assert np.all(np.diff(table["v"]) >= -1e-12)  # monotone step response
    (run,) = json.loads((out / "run_manifest.json").read_text())["scenarios"]
    assert run["name"] == "cli_step" and run["steps"] == table["t"].size - 1 == 300
    assert run["wall_s"] > 0


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


def _one_error(caplog) -> str:
    (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    return error


def _full_lock(tmp_path, params_file):
    """A steering map whose full lock reaches |delta| >= pi/2, and a
    scenario that commands full lock from t = 0.3 s (applied at 0.45 s)."""
    doc = json.loads(params_file.read_text())
    doc["steering"].update(a_t=3.0, d_t=3.0, b_t=5.0, e_t=5.0)
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(doc))
    return wide, write_scenario(tmp_path, steering={"type": "piecewise", "times": [0.0, 0.3],
                                                    "values": [0.0, 1.0]})


def test_simulate_that_fails_creates_no_output_directory(tmp_path, params_file, caplog):
    """A scenario that does not load, and one whose steering reaches
    |delta| >= pi/2, each fail with status 2 and one error naming the
    file or the scenario and the step's time, and leave no --out."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x"}')
    out = tmp_path / "simout"
    assert main(["simulate", "--params", str(params_file), "--scenario", str(bad),
                 "--out", str(out)]) == 2
    assert str(bad) in _one_error(caplog) and not out.exists()
    caplog.clear()
    wide, scenario = _full_lock(tmp_path, params_file)
    assert main(["simulate", "--params", str(wide), "--scenario", str(scenario),
                 "--out", str(out)]) == 2
    assert "at t=0.450000 s in scenario 'cli_step'" in _one_error(caplog) and not out.exists()


def test_fit_on_a_log_it_cannot_read_creates_no_output_directory(tmp_path, caplog):
    log = tmp_path / "logs" / "coast" / "a.csv"
    log.parent.mkdir(parents=True)
    log.write_text("t,tau\n0,0\n0.01,0\n")
    out = tmp_path / "fitout"
    assert main(["fit", "--logs", str(tmp_path / "logs"), "--out", str(out / "p.json")]) == 2
    assert _one_error(caplog).startswith(f"{log}: expected header") and not out.exists()


def test_validate_names_the_row_of_a_refused_steering_angle(tmp_path, params_file, caplog):
    wide, scenario = _full_lock(tmp_path, params_file)
    sim = tmp_path / "sim"
    assert main(["simulate", "--params", str(params_file), "--scenario", str(scenario),
                 "--out", str(sim)]) == 0
    caplog.clear()
    assert main(["validate", "--params", str(wide), "--log", str(sim / "trajectory.csv"),
                 "--model", "kinematic"]) == 2
    assert _one_error(caplog).endswith("pi/2 at t=0.450000 s (row 46)")


@pytest.mark.parametrize("params_text", ["[]", '{"schema_version": 1, "friction": [1]}'])
def test_simulate_rejects_malformed_params_with_status_2(tmp_path, caplog, params_text):
    params = tmp_path / "bad.json"
    params.write_text(params_text)
    code = main(["simulate", "--params", str(params), "--scenario", str(write_scenario(tmp_path)),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "parameter" in caplog.text


@pytest.mark.parametrize("overrides, field", [
    ({"duration": "abc"}, "duration"),
    ({"initial_state": 3}, "initial_state"),
    ({"throttle": [1]}, "throttle"),
    ({"steering": {"type": "piecewise", "times": ["a"], "values": [0.0]}}, "times"),
    ({"mocap": "false"}, "mocap"),
    ({"intial_state": [0.0, 0.0, 0.0, 0.5]}, "intial_state"),
    ({"steering": {"type": "sine", "amplitude": 0.4, "frequency": 0.5, "ofset": 0.2}}, "ofset"),
    ({"throttle": {"type": "step", "t": 0.5, "before": 0.0, "after": 0.3, "aftr": 0.1}}, "aftr"),
    ({"duration": 0.004}, "duration / dt"),
])
def test_simulate_rejects_malformed_scenario_fields_with_status_2(tmp_path, params_file, caplog,
                                                                   overrides, field):
    scenario = write_scenario(tmp_path, **overrides)
    code = main(["simulate", "--params", str(params_file), "--scenario", str(scenario),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert field in caplog.text


@pytest.mark.parametrize("option", ["--params", "--scenario"])
def test_simulate_rejects_non_utf8_documents_with_status_2(tmp_path, params_file, caplog,
                                                           option):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    files = {"--params": params_file, "--scenario": write_scenario(tmp_path), option: bad}
    code = main(["simulate", "--params", str(files["--params"]),
                 "--scenario", str(files["--scenario"]), "--out", str(tmp_path / "x")])
    assert code == 2
    assert str(bad) in caplog.text


def test_validate_on_a_directory_exits_2(tmp_path, params_file):
    assert main(["validate", "--params", str(params_file), "--log", str(tmp_path),
                 "--model", "kinematic"]) == 2


@pytest.mark.parametrize("header, missing", [("t,v_enc", "tau"), ("t,tau,v_enc", "s"),
                                             ("t,s,tau_applied,v_enc", "tau")])
def test_validate_without_a_command_column_exits_2_naming_it(tmp_path, params_file, caplog,
                                                            header, missing):
    log = tmp_path / "log.csv"
    row = ",".join("0" for _ in header.split(","))
    log.write_text(f"{header}\n{row}\n{row.replace('0', '0.01', 1)}\n")
    assert main(["validate", "--params", str(params_file), "--log", str(log),
                 "--model", "kinematic"]) == 2
    assert f"{missing} column" in caplog.text


@pytest.mark.parametrize("text, model, refusal", [
    ("t,tau,s,v_enc\n0,0,0,0\n0.01,0,0,0\n0.01,0,0,0\n", "kinematic",
     "time must be strictly increasing (row 3)"),
    ("t,tau,s,v_enc\n0,0,0,0\n0.01,0,0,0\n", "dynamic",
     "dynamic validation needs an omega_imu column"),
    ("t,tau,v_enc\n0,0,0\n0.01,0,0\n", "kinematic",
     "log needs an s column (or tau_applied and s_applied)"),
], ids=["time", "omega_imu", "s"])
def test_validate_names_its_log_in_every_refusal(tmp_path, params_file, caplog, text, model,
                                                 refusal):
    """As ``fit`` does, ``validate`` starts each refusal of its log's
    content with the log's path."""
    log = tmp_path / "bad.csv"
    log.write_text(text)
    assert main(["validate", "--params", str(params_file), "--log", str(log),
                 "--model", model]) == 2
    assert _one_error(caplog) == f"{log}: {refusal}"


def _straight_log(tmp_path) -> Path:
    log = tmp_path / "log.csv"
    log.write_text("t,tau,s,v_enc,omega_imu\n0,0,0,0,0\n0.01,0,0,0,0\n")
    return log


@pytest.mark.parametrize("out", ["existing", "new/"])
def test_validate_refuses_an_out_that_names_a_directory(tmp_path, params_file, caplog, capsys,
                                                       monkeypatch, out):
    """``--out`` names the report file: an existing directory, or a path
    ending in a slash, exits 2 with one error naming it before the log
    is read, and prints and writes nothing."""
    log = _straight_log(tmp_path)
    (tmp_path / "existing").mkdir()
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(validation, "read_table", lambda path: pytest.fail("the log was read"))
    target = f"{tmp_path}/{out}"
    assert main(["validate", "--params", str(params_file), "--log", str(log),
                 "--model", "kinematic", "--out", target]) == 2
    assert target in _one_error(caplog)
    assert capsys.readouterr().out == ""
    assert sorted(tmp_path.rglob("*")) == before


def test_validate_creates_the_missing_parent_of_its_out(tmp_path, params_file, capsys):
    report = tmp_path / "missing" / "dir" / "r.json"
    assert main(["validate", "--params", str(params_file), "--log", str(_straight_log(tmp_path)),
                 "--model", "kinematic", "--out", str(report)]) == 0
    assert json.loads(report.read_text()) == json.loads(capsys.readouterr().out)


def test_main_reuses_one_parser_without_carrying_state_between_calls(tmp_path, params_file,
                                                                     capsys):
    """In one process, a flag given to one call does not reach the next,
    an argparse error does not stop the next call, and ``build_parser``
    still returns a fresh parser."""
    scenario = write_scenario(
        tmp_path, model="dynamic", duration=2.0,
        throttle={"type": "piecewise", "times": [0.0], "values": [0.3]},
        steering={"type": "piecewise", "times": [0.0], "values": [0.4]},
        initial_state=[0.0, 0.0, 0.0, 0.5, 0.0, 0.0])
    out = tmp_path / "sim"
    assert main(["simulate", "--params", str(params_file), "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    validate = ["validate", "--params", str(params_file), "--log", str(out / "trajectory.csv"),
                "--model", "dynamic"]

    def rms(*flags):
        capsys.readouterr()
        assert main([*validate, *flags]) == 0
        return json.loads(capsys.readouterr().out)["rms"]

    default = rms()
    report = tmp_path / "report.json"
    assert rms("--out", str(report)) == default
    report.unlink()
    assert rms() == default
    assert not report.exists()
    with pytest.raises(SystemExit) as exc:
        main(["fit"])
    assert exc.value.code == 2
    assert rms() == default
    assert build_parser() is not build_parser()


def test_validate_errors_on_missing_params(tmp_path):
    assert main(["validate", "--params", str(tmp_path / "nope.json"),
                 "--log", str(_straight_log(tmp_path)), "--model", "kinematic"]) != 0


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


def test_validate_reads_a_log_with_a_byte_order_mark_as_one_without(tmp_path, params_file,
                                                                    capsys):
    """A log saved with a leading U+FEFF, as spreadsheets export it,
    validates to the same RMS as the plain log."""
    out = tmp_path / "sim"
    main(["simulate", "--params", str(params_file), "--scenario", str(write_scenario(tmp_path)),
          "--out", str(out)])
    marked = tmp_path / "marked.csv"
    marked.write_text("\ufeff" + (out / "trajectory.csv").read_text(), encoding="utf-8")
    rms = []
    for log in (out / "trajectory.csv", marked):
        capsys.readouterr()
        assert main(["validate", "--params", str(params_file), "--log", str(log),
                     "--model", "kinematic"]) == 0
        rms.append(json.loads(capsys.readouterr().out)["rms"])
    assert rms[0] == rms[1] and len(rms[0]) == 4


@pytest.mark.parametrize("case", ["overflowed rms", "non-finite prediction"])
def test_validate_exits_2_on_a_non_finite_result_writing_no_json(tmp_path, params_file, caplog,
                                                                capsys, case):
    """A stall force of 1e305 N overflows the RMS of a step log, and a
    speed of 1e300 in data row 101 of a dynamic circle's export
    overflows that row's prediction. Each fails with status 2 and one
    logged error naming the channel or the row, without a warning; no
    report reaches stdout or --out."""
    if case == "overflowed rms":
        doc = json.loads(params_file.read_text())
        doc["motor"]["d"] = 1e305
        params = tmp_path / "wild.json"
        params.write_text(json.dumps(doc))
        scenario, model, named = write_scenario(tmp_path), "kinematic", "RMS of channel"
    else:
        params = params_file
        scenario = write_scenario(
            tmp_path, model="dynamic", duration=4.0,
            throttle={"type": "piecewise", "times": [0.0], "values": [0.3]},
            steering={"type": "piecewise", "times": [0.0], "values": [0.4]},
            initial_state=[0.0, 0.0, 0.0, 0.5, 0.0, 0.0])
        model, named = "dynamic", "t=1.000000 s (row 101)"
    sim = tmp_path / "sim"
    assert main(["simulate", "--params", str(params_file), "--scenario", str(scenario),
                 "--out", str(sim)]) == 0
    log = sim / "trajectory.csv"
    if case == "non-finite prediction":
        lines = log.read_text().splitlines()
        fields = lines[101].split(",")
        fields[lines[0].split(",").index("v_enc")] = "1e300"
        lines[101] = ",".join(fields)
        log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    caplog.clear()
    report = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["validate", "--params", str(params), "--log", str(log), "--model", model,
                     "--out", str(report)])
    assert code == 2
    assert not caught
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and named in errors[0], errors
    assert capsys.readouterr().out == ""
    assert not report.exists()


@pytest.mark.parametrize("v_x0", [0.2, 0.0])
def test_validate_normalized_slip_on_own_slow_dynamic_export(tmp_path, params_file, v_x0):
    """A normalized dynamic turn that stays under the blend speed, from
    a slow start and from rest, validates to round-off against its own
    export: validate falls back to rigid rolling row by row as the
    simulator does step by step. The parameter file carries the
    convention, so neither command takes a flag."""
    params_file = _normalized_params(tmp_path, params_file)
    scenario = write_scenario(
        tmp_path, model="dynamic", duration=4.0,
        throttle={"type": "piecewise", "times": [0.0], "values": [0.2]},
        steering={"type": "piecewise", "times": [0.0], "values": [0.3]},
        initial_state=[0.0, 0.0, 0.0, v_x0, 0.0, 0.0])
    out = tmp_path / "sim"
    assert main(["simulate", "--params", str(params_file), "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    report = tmp_path / "report.json"
    assert main(["validate", "--params", str(params_file), "--log", str(out / "trajectory.csv"),
                 "--model", "dynamic", "--out", str(report)]) == 0
    rms = json.loads(report.read_text())["rms"]
    assert set(rms) == {"x", "y", "eta", "v_x", "v_y", "omega"}
    assert all(v <= 1e-9 for v in rms.values()), rms


def test_the_parameter_file_carries_the_slip_convention(tmp_path, params_file):
    """A file that records ``"normalized_slip": true`` simulates a coast
    through the blend speed whose export validates to round-off with no
    flag; the same export checked against the raw-slip file is far off."""
    from minicar.simulator import BLEND_SPEED

    normalized = _normalized_params(tmp_path, params_file)
    scenario = write_scenario(
        tmp_path, model="dynamic", duration=3.0,
        throttle={"type": "piecewise", "times": [0.0], "values": [0.0]},
        steering={"type": "piecewise", "times": [0.0], "values": [0.3]},
        initial_state=[0.0, 0.0, 0.0, 0.6, 0.0, 0.0])
    out = tmp_path / "sim"
    assert main(["simulate", "--params", str(normalized), "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    log = out / "trajectory.csv"
    v_x = read_table(log)["v_x"][:-1]
    assert (v_x < BLEND_SPEED).any() and (v_x >= BLEND_SPEED).any()

    def rms(params):
        report = tmp_path / "report.json"
        assert main(["validate", "--params", str(params), "--log", str(log),
                     "--model", "dynamic", "--out", str(report)]) == 0
        return json.loads(report.read_text())["rms"]

    own = rms(normalized)
    assert set(own) == {"x", "y", "eta", "v_x", "v_y", "omega"}
    assert all(v <= 1e-12 for v in own.values()), own
    assert rms(params_file)["omega"] > 1e-3


def test_fit_normalized_slip_writes_the_convention_into_the_parameter_file(tmp_path,
                                                                            params_file):
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"v_enc": 0.02, "omega_imu": 0.02, "mocap_xy": 0.001,
                                 "mocap_eta": 0.002}))
    logs, fitted = tmp_path / "logs", tmp_path / "fit" / "params.json"
    assert main(["generate", "--params", str(_normalized_params(tmp_path, params_file)),
                 "--noise", str(noise), "--seed", "3", "--dt", "0.05", "--out", str(logs)]) == 0
    assert main(["fit", "--logs", str(logs), "--out", str(fitted), "--normalized-slip"]) == 0
    report = json.loads((fitted.parent / "report.json").read_text())
    assert "tire" in {stage["name"] for stage in report["stages"] if stage["status"] == "fitted"}
    assert json.loads(fitted.read_text())["normalized_slip"] is True


@pytest.mark.parametrize("command, args", [
    ("simulate", ["--params", "p.json", "--scenario", "s.json", "--out", "o"]),
    ("generate", ["--params", "p.json", "--noise", "n.json", "--seed", "1", "--out", "o"]),
    ("validate", ["--params", "p.json", "--log", "l.csv", "--model", "dynamic"]),
])
def test_only_fit_takes_normalized_slip(capsys, command, args):
    """The other commands follow the convention their parameter file records."""
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--normalized-slip"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --normalized-slip" in capsys.readouterr().err


def test_each_call_applies_its_own_log_level(tmp_path, caplog):
    """In one process, a plain call, a -v call and a plain call again:
    the pipeline's per-stage DEBUG records come from the middle call
    alone."""
    logs = _steer_logs(tmp_path)
    debug = []
    for i, flags in enumerate([[], ["-v"], []]):
        caplog.clear()
        assert main([*flags, "fit", "--logs", str(logs), "--stages", "steering",
                     "--out", str(tmp_path / f"fit{i}" / "params.json")]) == 0
        debug.append([r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG])
    assert not debug[0] and not debug[2]
    assert "stage friction skipped: not requested" in debug[1]


def _steer_logs(tmp_path) -> Path:
    """A log directory holding two noiseless constant-steering logs."""
    from minicar.logs import save_log
    from minicar.scenarios import constant_steering_battery
    from minicar.simulator import NoiseSpec, synthesize_log

    logs_dir = tmp_path / "logs" / "steer"
    logs_dir.mkdir(parents=True)
    ref = reference_params()
    for i, scen in enumerate(constant_steering_battery(s_values=(-0.5, 0.5), duration=4.0)):
        save_log(synthesize_log(scen, ref, NoiseSpec(), i), logs_dir / f"{scen.name}.csv")
    return logs_dir.parent


@pytest.mark.parametrize("out", ["existing", "new/"])
def test_fit_refuses_an_out_that_names_a_directory(tmp_path, caplog, monkeypatch, out):
    """``--out`` names the parameter file: an existing directory, or a
    path ending in a slash, exits 2 with one error naming it before any
    log loads, and writes nothing."""
    logs = _steer_logs(tmp_path)
    (tmp_path / "existing").mkdir()
    before = sorted(tmp_path.rglob("*"))
    load_log, loaded = cli.load_log, []
    monkeypatch.setattr(cli, "load_log", lambda path: loaded.append(path) or load_log(path))
    target = f"{tmp_path}/{out}"
    assert main(["fit", "--logs", str(logs), "--out", target, "--stages", "steering"]) == 2
    assert target in _one_error(caplog)
    assert loaded == [] and sorted(tmp_path.rglob("*")) == before


def test_fit_checks_its_stages_before_reading_any_log(tmp_path, caplog, monkeypatch):
    """An unknown name in ``--stages`` exits 2 with one error naming it
    and the valid stages, before any log is parsed."""
    logs = _steer_logs(tmp_path)
    load_log, loaded = cli.load_log, []
    monkeypatch.setattr(cli, "load_log", lambda path: loaded.append(path) or load_log(path))
    out = tmp_path / "fit" / "p.json"
    assert main(["fit", "--logs", str(logs), "--out", str(out),
                 "--stages", "steering,bogus"]) == 2
    assert loaded == [] and not out.parent.exists()
    error = _one_error(caplog)
    assert "['bogus']" in error and "friction, motor, steering, delay, tire" in error


@pytest.mark.parametrize("option, value, rule", [
    ("--mass", "-1", "mass must be finite and > 0"),
    ("--width", "0", "width must be finite and > 0"),
    ("--wheelbase", "0", "wheelbase must be finite and > 0"),
    ("--lf", "0.3", "lf must lie in [0, wheelbase]"),
    ("--mass", "nan", "mass must be finite and > 0"),
])
def test_fit_checks_its_geometry_before_reading_any_log(tmp_path, caplog, monkeypatch, option,
                                                        value, rule):
    """A geometry option that breaks its rule exits 2 with one error
    naming the option and the rule, before any log is parsed."""
    monkeypatch.setattr(cli, "load_log", lambda path: pytest.fail(f"{path} was read"))
    out = tmp_path / "fit" / "p.json"
    assert main(["fit", "--logs", str(_unreadable_logs(tmp_path)), "--out", str(out),
                 option, value]) == 2
    assert _one_error(caplog) == f"{option} {float(value)}: {rule}"
    assert not out.parent.exists()


def _unreadable_logs(tmp_path) -> Path:
    """A log directory whose one tagged log no parser accepts."""
    log = tmp_path / "logs" / "steer" / "a.csv"
    log.parent.mkdir(parents=True, exist_ok=True)
    log.write_text("not a log\n")
    return log.parent.parent


# Runs ``cli.main`` on its arguments, with the log and table readers
# failing the run when called, and exits with its status.
_UNREAD = """
import sys
from minicar import cli, validation

def read(path):
    raise AssertionError(f"{path} was read")

cli.load_log = validation.read_table = read
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("case", ["fit --out", "missing logs", "empty logs", "stages",
                                  "geometry", "validate --out"])
def test_every_refusal_exits_2_with_one_error_line(tmp_path, params_file, case):
    """Each refusal of the command line is raised where it is found and
    reported by ``main``: status 2, one ``ERROR minicar.cli:`` line, no
    traceback, and no log or table read."""
    logs, empty, out = _unreadable_logs(tmp_path), tmp_path / "empty", tmp_path / "fit" / "p.json"
    empty.mkdir()
    fit = ["fit", "--logs", str(logs), "--out", str(out)]
    argv, error = {
        "fit --out": (["fit", "--logs", str(logs), "--out", str(tmp_path)],
                      f"--out {tmp_path} names a directory, not the parameter file"),
        "missing logs": (["fit", "--logs", str(tmp_path / "none"), "--out", str(out)],
                         f"logs directory {tmp_path / 'none'} does not exist"),
        "empty logs": (["fit", "--logs", str(empty), "--out", str(out)],
                       f"no tagged logs found under {empty}"),
        "stages": ([*fit, "--stages", "bogus"], "unknown stages requested: ['bogus']"),
        "geometry": ([*fit, "--width", "-0.1"], "--width -0.1: width must be finite and > 0"),
        "validate --out": (["validate", "--params", str(params_file), "--log", "log.csv",
                            "--model", "kinematic", "--out", f"{tmp_path}/"],
                           f"--out {tmp_path}/ names a directory, not the report file"),
    }[case]
    proc = _python("-c", _UNREAD, *argv)
    assert proc.returncode == 2, proc.stderr
    (line,) = [line for line in proc.stderr.splitlines() if line.startswith("ERROR ")]
    assert line.startswith(f"ERROR minicar.cli: {error}")
    assert "Traceback" not in proc.stderr and proc.stdout == "" and not out.parent.exists()


@pytest.mark.parametrize("value, rule", [
    ("nan", "field 'dt' must be a finite number, got nan"),
    ("-1", "field 'dt' must lie in (0, 0.05] s"),
    ("0", "field 'dt' must lie in (0, 0.05] s"),
    ("inf", "field 'dt' must be a finite number, got inf"),
    ("1e-9", "duration / dt must give 1 to 999999 steps, got 1e+10"),
])
def test_generate_names_the_dt_it_refuses(tmp_path, params_file, caplog, value, rule):
    """A ``--dt`` that breaks the scenarios' rule exits 2 with one error
    naming the option and its value before the rule, and writes nothing."""
    noise, out = tmp_path / "noise.json", tmp_path / "gen"
    noise.write_text("{}")
    assert main(["generate", "--params", str(params_file), "--noise", str(noise),
                 "--seed", "1", "--dt", value, "--out", str(out)]) == 2
    assert _one_error(caplog) == f"--dt {float(value)}: {rule}"
    assert not out.exists()


def test_fit_names_an_empty_out(tmp_path, caplog, monkeypatch):
    """``fit --out ""`` exits 2 with one error that shows the empty value,
    and writes nothing in the current directory."""
    monkeypatch.chdir(tmp_path)
    logs = _unreadable_logs(tmp_path)
    assert main(["fit", "--logs", str(logs), "--out", ""]) == 2
    assert _one_error(caplog) == "--out '' names a directory, not the parameter file"
    assert sorted(tmp_path.iterdir()) == [logs]


def test_fit_on_empty_directory_fails(tmp_path, params_file):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["fit", "--logs", str(empty), "--out", str(tmp_path / "p.json")]) != 0


def test_fit_missing_stage_with_explicit_request_fails(tmp_path, params_file):
    _steer_logs(tmp_path)  # only steer logs cannot satisfy --stages friction
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
            log = synthesize_log(scen, ref, NoiseSpec(v_enc=0.01, omega_imu=0.01), seed)
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


@pytest.mark.parametrize("text", ["{bad", "[0.02]", '{"v_enc": "loud"}', '{"v_enc": NaN}',
                                  '{"v_enc": true}', '{"v_encoder": 0.02}'])
def test_generate_rejects_malformed_noise_json(tmp_path, params_file, caplog, text):
    noise = tmp_path / "bad.json"
    noise.write_text(text)
    code = main(["generate", "--params", str(params_file), "--noise", str(noise),
                 "--seed", "1", "--out", str(tmp_path / "g")])
    assert code == 2
    assert str(noise) in caplog.text
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_generate_rejects_a_seed_that_is_no_non_negative_integer(tmp_path, params_file,
                                                                  capsys, seed):
    noise = tmp_path / "noise.json"
    noise.write_text("{}")
    out = tmp_path / "g"
    with pytest.raises(SystemExit) as stop:
        main(["generate", "--params", str(params_file), "--noise", str(noise),
              "--seed", seed, "--out", str(out)])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "--seed" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["params", "scenario"])
def test_simulate_names_the_faulty_document(tmp_path, params_file, caplog, bad):
    files = {"params": params_file, "scenario": write_scenario(tmp_path)}
    wrong = tmp_path / "bad.json"
    if bad == "params":
        doc = json.loads(params_file.read_text())
        doc["motor"]["g"] = "loud"
    else:
        doc = {**json.loads(files["scenario"].read_text()), "dt": -1.0}
    wrong.write_text(json.dumps(doc))
    files[bad] = wrong
    code = main(["simulate", "--params", str(files["params"]),
                 "--scenario", str(files["scenario"]), "--out", str(tmp_path / "sim")])
    assert code == 2
    good = files["scenario" if bad == "params" else "params"]
    assert f"{wrong}: " in caplog.text and str(good) not in caplog.text


def test_fit_defaults_to_the_reference_geometry():
    args = build_parser().parse_args(["fit", "--logs", "logs", "--out", "p.json"])
    geometry = reference_params().geometry
    assert (args.mass, args.wheelbase, args.width) == (geometry.m, geometry.l, geometry.w)
    assert Geometry.rectangle(args.mass, args.wheelbase, args.width, args.lf) == geometry


def test_fit_rejects_malformed_manifest(tmp_path, caplog):
    logs_dir = tmp_path / "logs"
    logs_dir.mkdir()
    (logs_dir / "manifest.json").write_text("{bad")
    code = main(["fit", "--logs", str(logs_dir), "--out", str(tmp_path / "p.json")])
    assert code == 2
    assert "manifest.json" in caplog.text


@pytest.mark.parametrize("doc, entry", [
    ({"logs": 5}, "'logs'"),
    ({"logs": [3]}, "logs[0]"),
    ({"logs": [{"tag": "coast"}]}, "logs[0]"),
    ({"logs": [{"tag": ["coast"], "file": "a.csv"}]}, "logs[0]"),
    ({"logs": [{"tag": "drift", "file": "a.csv"}]}, "logs[0]"),
    ({"schema_version": 1, "logs": [], "bogus": 1}, "unknown field 'bogus'"),
    ({"schema_version": 7, "logs": []}, "schema_version 7"),
    ({"schema_version": True, "logs": []}, "schema_version True"),
    ({"logs": [{"tag": "coast", "file": "a.csv", "size": 3}]}, "logs[0]: unknown field 'size'"),
])
def test_fit_rejects_malformed_manifest_entries(tmp_path, caplog, doc, entry):
    logs_dir = tmp_path / "logs"
    logs_dir.mkdir()
    (logs_dir / "manifest.json").write_text(json.dumps(doc))
    code = main(["fit", "--logs", str(logs_dir), "--out", str(tmp_path / "p.json")])
    assert code == 2
    assert entry in caplog.text
    assert str(logs_dir / "manifest.json") in caplog.text


def _manifest_defaults(out_dir: Path) -> dict:
    return json.loads((out_dir / "run_manifest.json").read_text())["defaults"]


def _fit_defaults(tmp_path) -> dict:
    """The ``defaults`` block of a steering-map fit's run manifest."""
    _steer_logs(tmp_path)
    out = tmp_path / "fit" / "p.json"
    assert main(["fit", "--logs", str(tmp_path / "logs"), "--out", str(out),
                 "--stages", "steering"]) == 0
    return _manifest_defaults(out.parent)


def test_run_manifest_records_both_smoothing_windows(tmp_path):
    from minicar import datasets

    defaults = _fit_defaults(tmp_path)
    assert defaults["smooth_window"] == datasets.SMOOTH_WINDOW == 5
    assert defaults["force_window"] == datasets.FORCE_WINDOW == 21


def test_run_manifest_records_the_package_version(tmp_path, params_file):
    scenario = write_scenario(tmp_path, duration=0.5)
    out = tmp_path / "sim"
    assert main(["simulate", "--params", str(params_file), "--scenario", str(scenario),
                 "--out", str(out)]) == 0
    versions = json.loads((out / "run_manifest.json").read_text())["versions"]
    assert versions["minicar"] == minicar.__version__


def test_run_manifest_records_the_cpu_path_numpy_took(tmp_path, params_file):
    """``versions`` records numpy's SIMD baseline and the extensions it
    found, which NPY_DISABLE_CPU_FEATURES turns off, and the C library."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    found = simd.get("found", [])
    if not found:
        pytest.skip("numpy finds no SIMD extension beyond its baseline on this CPU")
    scenario = write_scenario(tmp_path, duration=0.5)
    for out, disabled in (("sim", None), ("baseline_only", " ".join(found))):
        env = {"NPY_DISABLE_CPU_FEATURES": disabled} if disabled else {}
        proc = _run_module("simulate", "--params", str(params_file), "--scenario", str(scenario),
                           "--out", str(tmp_path / out), **env)
        assert proc.returncode == 0, proc.stderr
    sim, baseline_only = (
        json.loads((tmp_path / out / "run_manifest.json").read_text())["versions"]
        for out in ("sim", "baseline_only"))
    assert sim["numpy_simd"] == {"baseline": simd["baseline"], "found": found}
    assert baseline_only["numpy_simd"] == {"baseline": simd["baseline"], "found": []}
    assert sim["libc"] == baseline_only["libc"] == list(platform.libc_ver())


def test_run_manifest_records_every_scalar_default(tmp_path, params_file):
    """``fit`` records the ten thresholds of its path; ``simulate`` and
    ``generate`` record the one they apply, the divergence limit."""
    from minicar import datasets, delay, pipeline, simulator

    defaults = _fit_defaults(tmp_path)
    assert list(defaults) == ["v_min", "smooth_window", "force_window", "long_delay",
                              "delay_max_lag", "steady_window_s", "steady_rel_tol",
                              "steady_omega_floor", "transition_guard_s", "divergence_limit"]
    assert defaults["v_min"] == datasets.V_MIN
    assert defaults["long_delay"] == pipeline.DEFAULT_LONG_DELAY
    assert defaults["delay_max_lag"] == delay.MAX_LAG_S
    assert defaults["divergence_limit"] == simulator.DIVERGENCE_LIMIT
    assert defaults["steady_window_s"] == datasets.STEADY_WINDOW_S
    assert defaults["steady_rel_tol"] == datasets.STEADY_REL_TOL
    assert defaults["steady_omega_floor"] == datasets.STEADY_OMEGA_FLOOR
    assert defaults["transition_guard_s"] == datasets.TRANSITION_GUARD_S

    scenario = write_scenario(tmp_path, duration=0.5)
    assert main(["simulate", "--params", str(params_file), "--scenario", str(scenario),
                 "--out", str(tmp_path / "sim")]) == 0
    noise = tmp_path / "noise.json"
    noise.write_text("{}")
    assert main(["generate", "--params", str(params_file), "--noise", str(noise),
                 "--seed", "3", "--dt", "0.05", "--out", str(tmp_path / "gen")]) == 0
    for out in ("sim", "gen"):
        assert _manifest_defaults(tmp_path / out) == {"divergence_limit": 1e6}


def test_fit_report_records_convergence(tmp_path):
    _steer_logs(tmp_path)
    out = tmp_path / "fit" / "p.json"
    assert main(["fit", "--logs", str(tmp_path / "logs"), "--out", str(out),
                 "--stages", "steering"]) == 0
    stages = {s["name"]: s for s in json.loads((out.parent / "report.json").read_text())["stages"]}
    assert isinstance(stages["steering"]["converged"], bool)
    assert stages["steering"]["iterations"] > 0
    # every evaluation of the curve and its Jacobian, rejected trials included
    assert stages["steering"]["evaluations"] >= stages["steering"]["iterations"] + 1
    assert all(s["converged"] is None for s in stages.values() if s["status"] == "skipped")
    assert all(s["evaluations"] is None for s in stages.values() if s["status"] == "skipped")
    diagnostics = stages["steering"]["diagnostics"]
    assert set(diagnostics) == {"grad_norm", "cond", "rel_std_err", "active_bounds"}
    assert list(diagnostics["rel_std_err"]) == ["a_t", "b_t", "c_t", "d_t", "e_t"]
    # two segments cannot pin five parameters: JᵀJ is singular, σ² undefined
    assert diagnostics["cond"] is None
    assert all(v is None for v in diagnostics["rel_std_err"].values())
    assert all(s["diagnostics"] is None for s in stages.values() if s["status"] == "skipped")


def test_fit_without_the_kinematic_stages_writes_and_claims_no_parameter_file(
        tmp_path, capsys, caplog):
    """A run whose requested stages all fit but that lacks friction or
    motor writes no params.json, says so, names the stages it lacks and
    exits 0."""
    _steer_logs(tmp_path)
    out = tmp_path / "fit" / "p.json"
    assert main(["fit", "--logs", str(tmp_path / "logs"), "--out", str(out),
                 "--stages", "steering"]) == 0
    assert not out.exists()
    assert "wrote" not in capsys.readouterr().out
    assert "no parameter file written: friction, motor not fitted" in caplog.text


def test_fit_without_the_delay_stage_warns_that_steer_delay_was_not_measured(
        tmp_path, params_file, caplog):
    """params.json still holds steer_delay 0.0, and the run still exits 0."""
    noise = tmp_path / "noise.json"
    noise.write_text("{}")
    logs_dir = tmp_path / "g"
    assert main(["generate", "--params", str(params_file), "--noise", str(noise),
                 "--seed", "3", "--dt", "0.05", "--out", str(logs_dir)]) == 0
    out = tmp_path / "fit" / "p.json"
    assert main(["fit", "--logs", str(logs_dir), "--out", str(out),
                 "--stages", "friction,motor,steering"]) == 0
    assert json.loads(out.read_text())["delays"]["steer_delay"] == 0.0
    assert f"{out}: steer_delay is 0.0, no stage measured the steering delay" in caplog.text


def test_fit_parses_only_the_logs_its_stages_read(tmp_path, params_file, monkeypatch):
    """``--stages friction`` parses the 16 coast and step logs of the
    32-log battery and lists them, beside the manifest, as the run's
    inputs; a malformed log of a tag it does not read cannot fail it."""
    noise = tmp_path / "noise.json"
    noise.write_text("{}")
    logs_dir = tmp_path / "g"
    assert main(["generate", "--params", str(params_file), "--noise", str(noise),
                 "--seed", "3", "--dt", "0.05", "--out", str(logs_dir)]) == 0
    entries = json.loads((logs_dir / "manifest.json").read_text())["logs"]
    friction = [logs_dir / e["file"] for e in entries if e["tag"] in ("coast", "step")]
    assert (len(entries), len(friction)) == (32, 16)
    loaded, load_log = [], cli.load_log
    monkeypatch.setattr(cli, "load_log", lambda path: loaded.append(path) or load_log(path))
    out = tmp_path / "fit" / "p.json"
    args = ["fit", "--logs", str(logs_dir), "--out", str(out), "--stages", "friction"]
    assert main(args) == 0
    assert loaded == friction
    inputs = json.loads((out.parent / "run_manifest.json").read_text())["inputs"]
    assert list(inputs) == [str(p) for p in [logs_dir / "manifest.json", *friction]]
    report = (out.parent / "report.json").read_bytes()
    (logs_dir / "sine_0.50Hz.csv").write_text("not,a,log\n")
    assert main(args) == 0
    assert (out.parent / "report.json").read_bytes() == report


def _fit_with_short_logs(tmp_path, params_file, stages, short_logs):
    """The parameter file of a fit of ``stages`` on a --dt 0.05 battery,
    without and with ``short_logs(logs_dir)``'s (file, tag, log) triples
    added to its manifest."""
    from minicar.logs import save_log

    noise = tmp_path / "noise.json"
    noise.write_text("{}")
    logs_dir = tmp_path / "g"
    assert main(["generate", "--params", str(params_file), "--noise", str(noise),
                 "--seed", "3", "--dt", "0.05", "--out", str(logs_dir)]) == 0

    def fit(name):
        out = tmp_path / name / "p.json"
        assert main(["fit", "--logs", str(logs_dir), "--out", str(out),
                     "--stages", stages]) == 0
        return out.read_bytes()

    alone = fit("alone")
    manifest = json.loads((logs_dir / "manifest.json").read_text())
    for file, tag, log in short_logs(logs_dir):
        save_log(log, logs_dir / file)
        manifest["logs"].append({"file": file, "tag": tag})
    (logs_dir / "manifest.json").write_text(json.dumps(manifest))
    return alone, fit("with_short")


def test_fit_skips_a_log_too_short_for_its_stage(tmp_path, params_file, caplog):
    """A 10-row coasting log is shorter than the force builders' window:
    it adds no rows, and the fit writes the parameter file it writes
    without it."""
    from minicar.logs import RawLog

    n = 10
    short = RawLog(t=np.arange(n) * 0.01, tau=np.zeros(n), s=np.zeros(n),
                   v_enc=np.full(n, 0.5), omega_imu=np.zeros(n))
    alone, with_short = _fit_with_short_logs(tmp_path, params_file, "friction,motor,steering",
                                             lambda logs_dir: [("short.csv", "coast", short)])
    assert with_short == alone
    assert "failed" not in caplog.text


def test_fit_skips_a_sine_log_too_short_for_the_delay_stage(tmp_path, params_file, caplog):
    """A 4-row and an 8-row head of the battery's sine log give no
    steering delay: the delay stage skips both, naming each, and the fit
    writes the parameter file it writes without them."""
    from minicar.logs import RawLog, load_log

    def heads(logs_dir):
        sine = load_log(logs_dir / "sine_0.50Hz.csv")
        return [(f"sine_head{n}.csv", "sine",
                 RawLog(sine.t[:n], sine.tau[:n], sine.s[:n], sine.v_enc[:n],
                        sine.omega_imu[:n]))
                for n in (4, 8)]

    caplog.set_level("INFO", logger="minicar.pipeline")
    alone, with_short = _fit_with_short_logs(tmp_path, params_file,
                                             "friction,motor,steering,delay", heads)
    assert with_short == alone
    assert json.loads(alone)["delays"]["steer_delay"] > 0
    assert "failed" not in caplog.text
    assert "sine_head4" in caplog.text and "sine_head8" in caplog.text


def test_generate_records_steps_and_time_per_scenario(tmp_path, params_file):
    """run_manifest.json carries each scenario's steps and wall time;
    the digested outputs (manifest.json and the logs) carry no timing."""
    from minicar.scenarios import scenario_library

    noise = tmp_path / "noise.json"
    noise.write_text("{}")
    out = tmp_path / "g"
    assert main(["generate", "--params", str(params_file), "--noise", str(noise),
                 "--seed", "3", "--dt", "0.05", "--out", str(out)]) == 0
    library = [s for battery in scenario_library(dt=0.05).values() for s in battery]
    runs = json.loads((out / "run_manifest.json").read_text())["scenarios"]
    assert [run["name"] for run in runs] == [s.name for s in library]
    for run, scenario in zip(runs, library):
        assert run["steps"] == scenario.times.size - 1
        assert run["wall_s"] > 0
    assert "wall_s" not in (out / "manifest.json").read_text()
    assert [e["file"] for e in json.loads((out / "manifest.json").read_text())["logs"]] == [
        f"{s.name}.csv" for s in library]


def _python(*argv, **env) -> subprocess.CompletedProcess:
    """``python *argv`` in a fresh interpreter that imports this
    checkout's package, with ``env`` added to the environment."""
    src = str(Path(minicar.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=120)


def _run_module(*args, **env) -> subprocess.CompletedProcess:
    """``python -m minicar.cli *args`` in a fresh interpreter."""
    return _python("-m", "minicar.cli", *args, **env)


def test_run_as_a_module_the_cli_logs_under_minicar_cli(tmp_path):
    """Run as ``python -m minicar.cli``, the module is ``__main__``; its
    records still go to ``minicar.cli``, inside the ``minicar`` logger
    whose level -v sets."""
    missing = tmp_path / "missing"
    proc = _run_module("fit", "--logs", str(missing), "--out", str(tmp_path / "p.json"))
    assert proc.returncode == 2
    assert f"ERROR minicar.cli: logs directory {missing} does not exist" in proc.stderr


_LOADED = """
import json, sys
from minicar.cli import main

argv, names = json.loads(sys.argv[1])
seen = [[name for name in names if name in sys.modules]]
assert main(argv) == 0
seen.append([name for name in names if name in sys.modules])
print(json.dumps(seen))
"""

# What no command loads: the process pool and numpy.ma, which np.median
# imports for its NaN check.
_NEVER = ["multiprocessing", "concurrent.futures.process", "numpy.ma"]
_FIT_OR_VALIDATE_ONLY = [f"minicar.{name}" for name in
                         ("fitting", "pipeline", "datasets", "preprocess", "validation")]

# What each command leaves unloaded: the above, hashlib, which only the
# run manifest hashes with, and the minicar modules the command does not run.
_UNLOADED = {
    "fit": [*_NEVER, "minicar.validation", "minicar.scenarios"],
    "generate": [*_NEVER, *_FIT_OR_VALIDATE_ONLY, "minicar.svgplot"],
    "simulate": [*_NEVER, *_FIT_OR_VALIDATE_ONLY],
    "validate": [*_NEVER, "hashlib", "minicar.fitting", "minicar.pipeline", "minicar.datasets",
                 "minicar.svgplot", "minicar.scenarios"],
}


@pytest.mark.parametrize("command", sorted(_UNLOADED))
def test_only_the_commands_that_need_them_load_the_pool_and_hashlib(tmp_path, params_file,
                                                                    command):
    """In a fresh interpreter, importing the CLI loads neither the
    process pool, nor numpy.ma, nor hashlib, nor a minicar module that
    some command does not run, and each command loads none of those it
    does not run."""
    scenario = write_scenario(tmp_path)
    noise = tmp_path / "noise.json"
    noise.write_text("{}")
    generate = ["generate", "--params", str(params_file), "--noise", str(noise),
                "--seed", "3", "--out", str(tmp_path / "gen")]
    if command == "fit":
        assert main(generate) == 0
    argv = {
        "fit": ["fit", "--logs", str(tmp_path / "gen"), "--out", str(tmp_path / "fit" / "p.json")],
        "generate": [*generate, "--dt", "0.05"],
        "simulate": ["simulate", "--params", str(params_file), "--scenario", str(scenario),
                     "--out", str(tmp_path / "sim")],
        "validate": ["validate", "--params", str(params_file),
                     "--log", str(_straight_log(tmp_path)), "--model", "kinematic"],
    }[command]
    names = sorted({name for unloaded in _UNLOADED.values() for name in unloaded})
    src = str(Path(minicar.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, json.dumps([argv, names])],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported, ran = json.loads(proc.stdout.splitlines()[-1])
    assert imported == []
    assert sorted(set(ran) & set(_UNLOADED[command])) == []


@pytest.mark.parametrize("command", ["simulate", "generate"])
def test_diverging_run_exits_2_naming_the_scenario(tmp_path, params_file, command):
    """A run whose state leaves the sane envelope fails cleanly from the
    command line: status 2, the scenario named, no traceback."""
    from minicar.scenarios import scenario_library

    params = _wild_params(tmp_path, params_file)
    if command == "simulate":
        args, name = ["--scenario", str(write_scenario(tmp_path))], "cli_step"
    else:
        noise = tmp_path / "noise.json"
        noise.write_text("{}")
        args = ["--noise", str(noise), "--seed", "1"]
        name = next(iter(scenario_library().values()))[0].name
    proc = _run_module(command, "--params", str(params), *args, "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert f"scenario {name!r}" in proc.stderr
    assert "sane envelope" in proc.stderr
    assert "Traceback" not in proc.stderr


def _assert_no_child_left() -> None:
    """This process has no child left, running or a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("slip", [{}, {"normalized_slip": True}])
def test_generate_writes_the_same_bytes_on_any_number_of_workers(tmp_path, params_file,
                                                                monkeypatch, slip):
    """The logs and manifest.json are the same with a worker per CPU, with
    one worker and with no worker at all (the in-process path), in either
    slip convention of the parameter file."""
    params_file.write_text(json.dumps({**json.loads(params_file.read_text()), **slip}))
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"v_enc": 0.02, "omega_imu": 0.02, "mocap_xy": 0.001,
                                 "mocap_eta": 0.002}))
    forks, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks[-1] += 1
        return pid

    def outputs(name):
        forks.append(0)
        out = tmp_path / name
        assert main(["generate", "--params", str(params_file), "--noise", str(noise),
                     "--seed", "5", "--dt", "0.05", "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir() if p.name != "run_manifest.json")
        assert len(files) == 33
        return {f: (out / f).read_bytes() for f in files}

    monkeypatch.setattr(os, "fork", counted_fork)
    every_cpu = outputs("every_cpu")
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert outputs("one_cpu") == every_cpu
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        assert outputs("in_process") == every_cpu
    assert forks == [min(len(os.sched_getaffinity(0)), 32), 1, 0]


def test_generate_leaves_no_worker_behind(tmp_path, params_file, caplog):
    """After a run, whether it succeeds or fails, no worker process is left,
    not even a zombie; a failure names the first failing scenario in
    library order and writes no manifest.json."""
    from minicar.scenarios import scenario_library

    noise = tmp_path / "noise.json"
    noise.write_text("{}")
    args = ["generate", "--noise", str(noise), "--seed", "1", "--dt", "0.05", "--out"]
    assert main([*args, str(tmp_path / "ok"), "--params", str(params_file)]) == 0
    _assert_no_child_left()

    out = tmp_path / "wild"
    caplog.clear()
    assert main([*args, str(out), "--params", str(_wild_params(tmp_path, params_file))]) == 2
    _assert_no_child_left()
    library = [s.name for battery in scenario_library(dt=0.05).values() for s in battery]
    assert f"scenario {library[0]!r}" in caplog.text
    assert not any(f"scenario {name!r}" in caplog.text for name in library[1:])
    assert not (out / "manifest.json").exists()


def _generate_dying_on(monkeypatch, name, death):
    """``cli._generate_one``, patched to call ``death`` on scenario ``name``;
    pickled by reference, under the name it replaces, as the original is."""
    one = cli._generate_one

    def dying(tag, scenario, *args):
        if scenario.name == name:
            death()
        return one(tag, scenario, *args)

    dying.__module__, dying.__qualname__ = one.__module__, one.__qualname__
    monkeypatch.setattr(cli, "_generate_one", dying)


def _interrupt():
    raise KeyboardInterrupt


@pytest.mark.parametrize("death, status", [(lambda: os._exit(9), 9), (_interrupt, 1)],
                         ids=["exit_9", "keyboard_interrupt"])
def test_a_dead_worker_exits_2_naming_its_status_and_the_lost_scenarios(
        tmp_path, params_file, monkeypatch, caplog, death, status):
    """A worker that dies, or whose job raises KeyboardInterrupt, fails
    the run with status 2 and no traceback: the error names the worker's
    exit status and the scenarios left without a result, the other
    workers are reaped and no manifest.json is written."""
    noise = tmp_path / "noise.json"
    noise.write_text("{}")
    _generate_dying_on(monkeypatch, "circle_-0.45", death)
    out = tmp_path / "out"
    assert main(["generate", "--params", str(params_file), "--noise", str(noise),
                 "--seed", "1", "--dt", "0.05", "--out", str(out)]) == 2
    _assert_no_child_left()
    assert f"a generate worker exited with status {status}; no result for " in caplog.text
    assert "circle_-0.45" in caplog.text
    assert "Traceback" not in caplog.text
    assert not (out / "manifest.json").exists()


def test_a_dead_worker_loses_only_the_scenario_it_died_on(tmp_path, params_file, monkeypatch,
                                                           caplog):
    """A worker sends each scenario's result as soon as it is done, so one
    of two workers that dies on coast_0.25, a late job, leaves that
    scenario alone without a result: not those it finished before it."""
    noise = tmp_path / "noise.json"
    noise.write_text("{}")
    _generate_dying_on(monkeypatch, "coast_0.25", lambda: os._exit(9))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "out"
    assert main(["generate", "--params", str(params_file), "--noise", str(noise),
                 "--seed", "1", "--dt", "0.05", "--out", str(out)]) == 2
    _assert_no_child_left()
    assert _one_error(caplog) == "a generate worker exited with status 9; no result for coast_0.25"
    assert not (out / "manifest.json").exists()


def test_a_sigint_while_generate_forks_is_raised_after_the_last_fork(tmp_path, params_file):
    """In a fresh interpreter, a SIGINT sent from the first fork's
    after-in-parent hook, where Python would drop its KeyboardInterrupt,
    ends the command by KeyboardInterrupt: every worker is reaped and no
    manifest.json is written."""
    noise = tmp_path / "noise.json"
    noise.write_text("{}")
    script = """
import os, signal, sys
from minicar import cli

def interrupt(sent=[]):
    if not sent:
        sent.append(True)
        os.kill(os.getpid(), signal.SIGINT)

os.register_at_fork(after_in_parent=interrupt)
try:
    cli.main(sys.argv[1:])
except KeyboardInterrupt:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("interrupted, no worker left")
"""
    out = tmp_path / "out"
    proc = _python("-c", script, "generate", "--params", str(params_file), "--noise",
                   str(noise), "--seed", "1", "--dt", "0.05", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["interrupted, no worker left"]
    assert not (out / "manifest.json").exists()


def test_an_interrupted_generate_leaves_no_worker_behind(tmp_path, params_file, monkeypatch):
    """KeyboardInterrupt in the command, while a worker is still busy,
    kills and reaps every worker before it leaves, without waiting for
    the busy one."""
    import signal
    import time

    noise = tmp_path / "noise.json"
    noise.write_text("{}")
    parent = os.getpid()

    def interrupt_then_hang():
        time.sleep(0.5)  # long after the last fork: a signal during a fork can be lost
        os.kill(parent, signal.SIGINT)
        time.sleep(60)

    _generate_dying_on(monkeypatch, "circle_-0.45", interrupt_then_hang)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        main(["generate", "--params", str(params_file), "--noise", str(noise),
              "--seed", "1", "--dt", "0.05", "--out", str(tmp_path / "out")])
    assert time.perf_counter() - start < 30
    _assert_no_child_left()


def test_a_generate_worker_starts_without_numpy_ma(tmp_path, params_file):
    """In a fresh interpreter, no forked worker of generate imports
    numpy.ma: each scenario's run record says whether it was loaded."""
    noise = tmp_path / "noise.json"
    noise.write_text("{}")
    script = """
import json, sys
from minicar import cli

one = cli._generate_one

def recording(*job):
    entry, run = one(*job)
    return entry, {**run, "numpy.ma": "numpy.ma" in sys.modules}

recording.__module__, recording.__qualname__ = one.__module__, one.__qualname__
cli._generate_one = recording
assert cli.main(sys.argv[1:]) == 0
"""
    out = tmp_path / "out"
    proc = _python("-c", script, "generate", "--params", str(params_file), "--noise",
                   str(noise), "--seed", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    runs = json.loads((out / "run_manifest.json").read_text())["scenarios"]
    assert len(runs) == 32 and not any(run["numpy.ma"] for run in runs)


def test_the_job_list_is_written_whole_when_it_outgrows_a_pipe(monkeypatch):
    """More job numbers than a pipe buffer holds are written before the
    first fork without blocking, and each job runs once, in job order."""
    from types import SimpleNamespace

    monkeypatch.setattr(cli, "_generate_one", lambda i, scenario: (i, os.getpid()))
    jobs = [(i, SimpleNamespace(times=np.zeros(i % 7), name=f"s{i}")) for i in range(20_000)]
    done = cli._generate_all(jobs)
    assert [i for i, _ in done] == list(range(20_000))
    assert os.getpid() not in {pid for _, pid in done}
    _assert_no_child_left()


def test_simulate_escapes_the_scenario_name_in_its_plots(tmp_path, params_file):
    """A scenario name with ``<`` and ``&`` reaches both plots as text:
    each parses as XML and reads the name back."""
    scenario = write_scenario(tmp_path, name="a<b & c")
    assert main(["simulate", "--params", str(params_file), "--scenario", str(scenario),
                 "--out", str(tmp_path / "sim")]) == 0
    texts = {name: [text.text for text in ElementTree.parse(tmp_path / "sim" / name).iter(
        "{http://www.w3.org/2000/svg}text")] for name in ("path.svg", "channels.svg")}
    assert "a<b & c" in texts["path.svg"]
    assert "Channels: a<b & c" in texts["channels.svg"]


@pytest.fixture(scope="module")
def written_plots(tmp_path_factory):
    """Each plot that a battery ``fit`` and a dynamic ``simulate`` write,
    by file name: its path and the series it was drawn from."""
    tmp = tmp_path_factory.mktemp("plots")
    params, noise = tmp / "params.json", tmp / "noise.json"
    save_params(reference_params(), params)
    noise.write_text(json.dumps({"v_enc": 0.02, "omega_imu": 0.02, "mocap_xy": 0.001,
                                 "mocap_eta": 0.002}))
    scenario = write_scenario(tmp, model="dynamic",
                              steering={"type": "piecewise", "times": [0.0], "values": [0.4]})
    drawn, save_plot = {}, svgplot.save_plot

    def recording(path, series, *args, **kwargs):
        drawn[Path(path).name] = (Path(path), series)
        save_plot(path, series, *args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(svgplot, "save_plot", recording)
        assert main(["generate", "--params", str(params), "--noise", str(noise), "--seed", "1",
                     "--out", str(tmp / "logs")]) == 0
        assert main(["fit", "--logs", str(tmp / "logs"), "--out", str(tmp / "fit" / "p.json")]) == 0
        assert main(["simulate", "--params", str(params), "--scenario", str(scenario),
                     "--out", str(tmp / "sim")]) == 0
    return drawn


@pytest.mark.parametrize("name", ["fit_friction.svg", "fit_motor.svg", "fit_steering.svg",
                                  "fit_tire_front.svg", "fit_tire_rear.svg", "path.svg",
                                  "channels.svg"])
def test_each_written_plot_draws_every_finite_point(written_plots, name):
    """The file parses as XML and holds one circle per finite row of each
    point series (a fit's dataset) and one polyline, with one vertex per
    finite sample, per line series."""
    path, series = written_plots[name]
    root = ElementTree.parse(path).getroot()
    finite = [(s.kind, int(np.sum(np.isfinite(s.x) & np.isfinite(s.y)))) for s in series]
    assert len(root.findall(".//{*}circle")) == sum(n for kind, n in finite if kind == "points")
    assert [len(line.get("points").split()) for line in root.findall(".//{*}polyline")] == [
        n for kind, n in finite if kind == "line"]
