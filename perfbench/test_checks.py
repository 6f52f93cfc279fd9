"""The benchmark's checks must pass right outputs and reject wrong ones.

Runs in seconds and runs no workload:

    python3 -m pytest perfbench/test_checks.py -q
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
from minicar import validation  # noqa: E402
from minicar.params import params_from_dict  # noqa: E402
from minicar.scenarios import coast_down_battery, mocap_circular_ramp  # noqa: E402
from minicar.simulator import simulate, trajectory_to_csv  # noqa: E402

NAME = "coast_0.40"
REF = checks.REFERENCE
ALL_FITTED = {"stages": [{"name": n, "status": "fitted"} for n in
                         ("friction", "motor", "steering", "delay", "tire", "tire_rear")]}


@pytest.fixture(scope="module")
def v_ref():
    return checks.reference_speed(checks.commanded_throttle(NAME))


def _noisy(v, sigma, seed=3):
    return v + np.random.default_rng(seed).normal(0.0, sigma, v.size)


def _perturbed(group, key, factor):
    doc = copy.deepcopy(REF)
    doc[group][key] *= factor
    return doc


# --- generate-battery ------------------------------------------------------


def test_reference_speed_matches_the_simulator_it_checks(v_ref):
    scenario = next(s for s in coast_down_battery() if s.name == NAME)
    traj = simulate(scenario, params_from_dict(REF))
    assert np.max(np.abs(traj.states[:, 3] - v_ref)) < 1e-5
    assert np.array_equal(traj.commanded_tau, checks.commanded_throttle(NAME))


def test_speed_check_passes_reference_noise(v_ref):
    tau = checks.commanded_throttle(NAME)
    assert checks.speed_noise_problems(NAME, tau, _noisy(v_ref, 0.02), v_ref) == []


def test_speed_check_rejects_doubled_noise(v_ref):
    tau = checks.commanded_throttle(NAME)
    assert checks.speed_noise_problems(NAME, tau, _noisy(v_ref, 0.04), v_ref)


def test_speed_check_rejects_perturbed_parameters(v_ref):
    tau = checks.commanded_throttle(NAME)
    v_wrong = checks.reference_speed(tau, _perturbed("motor", "d", 0.95))
    assert checks.speed_noise_problems(NAME, tau, _noisy(v_wrong, 0.02), v_ref)


def test_speed_check_rejects_one_sample_delay_shift(v_ref):
    tau = checks.commanded_throttle(NAME)
    shifted = np.concatenate([tau[:1], tau[:-1]])
    assert checks.speed_noise_problems(NAME, shifted, _noisy(v_ref, 0.02), v_ref)


def test_battery_check_rejects_short_log_and_wrong_tag():
    manifest = {"logs": [{"file": f"{n}.csv", "tag": tag}
                         for n, (tag, _, _) in checks.BATTERY.items()]}
    tables = {n: (["c"] * cols, np.zeros((checks.rows_of(n), cols)))
              for n, (_, _, cols) in checks.BATTERY.items()}
    assert checks.battery_problems(manifest, tables) == []
    short = dict(tables, **{NAME: (tables[NAME][0], tables[NAME][1][:-1])})
    assert checks.battery_problems(manifest, short)
    manifest["logs"][0]["tag"] = "step"
    assert checks.battery_problems(manifest, tables)


# --- fit-battery -------------------------------------------------------------


def test_fit_check_passes_the_reference():
    assert checks.fit_problems(REF, ALL_FITTED) == []


@pytest.mark.parametrize("group,key,factor", [
    ("friction", "a", 1.12),
    ("friction", "b", 0.85),
    ("motor", "g", 1.15),
    ("steering", "b_t", 1.2),
    ("delays", "steer_delay", 1.0 + 0.02 / 0.15),
    ("tire", "B", 2.0),
    ("tire", "C_r", 1.15),
])
def test_fit_check_rejects_perturbed_parameters(group, key, factor):
    assert checks.fit_problems(_perturbed(group, key, factor), ALL_FITTED)


def test_fit_check_rejects_a_stage_that_did_not_fit():
    report = copy.deepcopy(ALL_FITTED)
    report["stages"][4]["status"] = "failed"
    assert checks.fit_problems(REF, report)


# --- simulate-validate ---------------------------------------------------------


def _validate(tmp_path, text, model):
    path = tmp_path / "log.csv"
    path.write_text(text)
    return validation.one_step_rms(validation.read_table(path), params_from_dict(REF), model)


def test_export_check_rejects_one_sample_delay_shift(tmp_path):
    params = params_from_dict(REF)
    traj = simulate(mocap_circular_ramp(0.3, duration=3.0, ramp_steps=3), params)
    text = trajectory_to_csv(traj, params)
    assert checks.export_problems("c", _validate(tmp_path, text, "dynamic")) == []
    header, *rows = [line.split(",") for line in text.splitlines()]
    col = header.index("tau_applied")
    values = [r[col] for r in rows]
    for r, v in zip(rows, values[:1] + values[:-1]):
        r[col] = v
    shifted = "\n".join(",".join(r) for r in [header, *rows]) + "\n"
    assert checks.export_problems("c", _validate(tmp_path, shifted, "dynamic"))


@pytest.mark.parametrize("sigma,ok", [(0.02, True), (0.04, False)])
def test_noisy_log_check(tmp_path, v_ref, sigma, ok):
    tau = checks.commanded_throttle(NAME)
    text = checks.format_csv(
        ["t", "tau", "s", "v_enc", "omega_imu"],
        [np.arange(v_ref.size) * checks.DT, tau, np.zeros_like(v_ref),
         _noisy(v_ref, sigma), np.zeros_like(v_ref)])
    problems = checks.noisy_log_problems(NAME, _validate(tmp_path, text, "kinematic"))
    assert (problems == []) is ok
