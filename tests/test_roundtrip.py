"""Zero-noise identifiability: every sub-model fit recovers its own
generating curve to better than 1e-6 RMS over the sampled range, and
the whole loop (``generate`` at zero noise, then ``fit``) returns each
identifiable parameter within a bound set just above its error today,
and returns it alike at every SIMD level numpy may take. Under
normalized slip the loop does not close yet (a strict xfail).

Initial guesses follow the plot-reading practice the pipeline
documents: order-of-magnitude values a person would read off the
synthesized data. The front-tire family in particular has long, nearly
flat parameter valleys, and a deliberately bad initial guess parks
first-order optimizers on a shelf well above this test's bar.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import minicar
from minicar import fitting, models
from minicar.cli import main
from minicar.datasets import Dataset
from minicar.params import load_params, save_params


def _curve_rms(curve, params, data):
    return float(np.sqrt(np.mean((curve(*data.inputs, params) - data.label) ** 2)))


def test_friction_zero_noise_round_trip(ref):
    v = np.linspace(0.05, 3.0, 200)
    data = Dataset((v,), models.friction_force(v, ref.friction))
    _, result = fitting.fit_friction(data)
    assert _curve_rms(models.friction_force, result.params, data) < 1e-6


def test_motor_zero_noise_round_trip(ref):
    taus, vs = np.meshgrid(np.arange(0.16, 0.41, 0.04), np.linspace(0, 3, 60))
    tau, v = taus.ravel(), vs.ravel()
    data = Dataset((tau, v), models.motor_force(tau, v, ref.motor))
    _, result = fitting.fit_motor(data)
    assert _curve_rms(models.motor_force, result.params, data) < 1e-6


def test_steering_zero_noise_round_trip(ref):
    s = np.linspace(-1, 1, 41)
    data = Dataset((s,), models.steering_angle(s, ref.steering))
    _, result = fitting.fit_steering(data)
    assert _curve_rms(models.steering_angle, result.params, data) < 1e-6


def test_front_tire_zero_noise_round_trip(ref):
    alpha = np.linspace(-0.5, 0.5, 200)
    data = Dataset((alpha,), models.pacejka_lateral(alpha, ref.tire))
    config = replace(fitting.default_config("front_tire"),
                     initial=np.array([3.0, 0.8, 0.35, -2.0]))  # read off the plotted curve
    result = fitting.lm_fit(fitting._stage_residuals("front_tire", data), config)
    assert _curve_rms(models.pacejka_lateral, result.params, data) < 1e-6


def test_rear_tire_zero_noise_round_trip(ref):
    alpha = np.linspace(-0.5, 0.5, 200)
    data = Dataset((alpha,), models.rear_lateral(alpha, ref.tire.C_r))
    c_r, result = fitting.fit_rear_tire(data)
    assert _curve_rms(models.rear_lateral, result.params, data) < 1e-6
    assert c_r == pytest.approx(ref.tire.C_r, rel=1e-6)


# Relative error in percent of each parameter after the zero-noise loop:
# (today's error, the margin its bound adds). The force labels' 21-sample
# window biases friction and motor, and the twice-differentiated pose
# biases the tires; a change that removes a bias tightens its bound.
LOOP_ERRORS = {
    ("friction", "a"): (+0.0712, 0.004),
    ("friction", "b"): (-1.3026, 0.02),
    ("friction", "c"): (-0.3501, 0.01),
    ("motor", "d"): (+0.1343, 0.006),
    ("motor", "e"): (+0.1945, 0.006),
    ("motor", "g"): (-0.1466, 0.006),
    ("tire", "C_r"): (-0.4712, 0.01),
}
BCD_ERROR = (-3.1351, 0.05)  # B*C*D, the front tire's one pinned combination


def _zero_noise_loop(tmp_path, truth, *fit_options, env=None):
    """``generate`` from ``truth`` with every noise level 0, then ``fit``
    with ``fit_options``: the fitted parameters. The loop runs in this
    process, or with ``env`` in a fresh interpreter whose environment
    adds ``env``."""
    tmp_path.mkdir(exist_ok=True)
    truth_file, noise = tmp_path / "truth.json", tmp_path / "noise.json"
    save_params(truth, truth_file)
    noise.write_text(json.dumps(dict.fromkeys(("v_enc", "omega_imu", "mocap_xy", "mocap_eta"), 0)))
    logs, fitted = tmp_path / "logs", tmp_path / "fit" / "params.json"
    commands = [["generate", "--params", str(truth_file), "--noise", str(noise), "--seed", "1",
                 "--out", str(logs)],
                ["fit", "--logs", str(logs), "--out", str(fitted), *fit_options]]
    if env is None:
        for argv in commands:
            assert main(argv) == 0
    else:
        src = str(Path(minicar.__file__).resolve().parents[1])
        env = {**os.environ, **env,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", _LOOP, json.dumps(commands)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
    return load_params(fitted)


_LOOP = """
import json, sys
from minicar.cli import main

for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0
"""


def _assert_within_todays_bounds(fit, truth):
    for name in ("a_t", "b_t", "c_t", "d_t", "e_t"):  # 2.5e-14 relative today
        assert getattr(fit.steering, name) == pytest.approx(getattr(truth.steering, name),
                                                            rel=1e-13, abs=0), name
    assert abs(fit.delays.steer_delay - 0.15) <= 1e-12  # 3.2e-15 s today

    def percent(value, true):
        return 100.0 * (value - true) / abs(true)

    for (group, name), (today, margin) in LOOP_ERRORS.items():
        error = percent(getattr(getattr(fit, group), name), getattr(getattr(truth, group), name))
        assert abs(error) <= abs(today) + margin, (group, name, error)
    error = percent(_bcd(fit), _bcd(truth))
    assert abs(error) <= abs(BCD_ERROR[0]) + BCD_ERROR[1], ("B*C*D", error)


def _bcd(params) -> float:
    return params.tire.B * params.tire.C * params.tire.D


def test_the_zero_noise_loop_returns_the_truth_within_todays_bounds(tmp_path, ref):
    """``generate`` with every noise level 0, then ``fit``: the outputs
    do not depend on the seed. D, C, B and E are not identifiable from
    the battery and are not asserted."""
    _assert_within_todays_bounds(_zero_noise_loop(tmp_path, ref), ref)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 21: under normalized slip the rolling "
                   "switch at BLEND_SPEED makes the tire labels jump, so C_r and B*C*D miss")
def test_the_zero_noise_loop_under_normalized_slip_returns_the_truth_within_todays_bounds(
        tmp_path, ref):
    """The same loop, generated and fitted under normalized slip, within
    the raw loop's bounds."""
    truth = replace(ref, normalized_slip=True)
    _assert_within_todays_bounds(_zero_noise_loop(tmp_path, truth, "--normalized-slip"), truth)


# Relative difference allowed between the loop at numpy's best SIMD level
# and at its baseline alone (largest measured: steering 4.3e-15, C_r
# 1.3e-14, B*C*D 5.7e-13).
SIMD_RELATIVE = 1e-12
SIMD_BCD_RELATIVE = 1e-10
IDENTIFIABLE = [*(("friction", n) for n in "abc"), *(("motor", n) for n in "deg"),
                *(("steering", n) for n in ("a_t", "b_t", "c_t", "d_t", "e_t")),
                ("delays", "steer_delay"), ("tire", "C_r")]


def test_the_zero_noise_loop_does_not_hinge_on_numpys_simd_level(tmp_path, ref):
    """The loop with every SIMD extension numpy found, in this process,
    and with none (NPY_DISABLE_CPU_FEATURES), in a fresh interpreter,
    fits the same identifiable parameters within SIMD_RELATIVE, and
    B*C*D within SIMD_BCD_RELATIVE. D, C, B and E are not asserted."""
    found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    if not found:
        pytest.skip("numpy finds no SIMD extension beyond its baseline on this CPU")
    best = _zero_noise_loop(tmp_path / "best", ref)
    baseline = _zero_noise_loop(tmp_path / "baseline", ref,
                                env={"NPY_DISABLE_CPU_FEATURES": " ".join(found)})
    for group, name in IDENTIFIABLE:
        value, other = (getattr(getattr(fit, group), name) for fit in (best, baseline))
        assert value == pytest.approx(other, rel=SIMD_RELATIVE, abs=0), (group, name)
    assert _bcd(best) == pytest.approx(_bcd(baseline), rel=SIMD_BCD_RELATIVE, abs=0)
