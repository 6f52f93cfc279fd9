"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS line with the measured numbers; a failing
criterion fails its test. Synthetic data is generated from the
reference parameter set with fixed seeds, and the fits must recover
the generating curves within the stated budgets.
"""

import filecmp
import json
import math
import time
from dataclasses import replace

import numpy as np
from conftest import finite_difference_gradient
from scipy.optimize import brentq

from minicar import models
from minicar.cli import main
from minicar.datasets import (
    Dataset,
    build_friction_dataset,
    build_motor_dataset,
    build_steering_dataset,
    build_tire_dataset,
)
from minicar.fitting import (
    _stage_residuals,
    default_config,
    fit_friction,
    fit_front_tire,
    fit_motor,
    fit_rear_tire,
    fit_steering,
)
from minicar.integrators import rk4_step
from minicar.params import TireParams, rectangle_inertia, reference_params, save_params
from minicar.pipeline import measure_steer_delay
from minicar.scenarios import (
    Scenario,
    coast_down_battery,
    constant,
    constant_steering_battery,
    mocap_circular_battery,
    sinusoidal_steering,
    step_throttle_battery,
)
from minicar.simulator import NoiseSpec, simulate, synthesize_log

REF = reference_params()


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _synthesize(battery, base_seed, **noise):
    seeds = np.random.SeedSequence(base_seed).spawn(len(battery))
    return [
        synthesize_log(s, REF, NoiseSpec(**noise), int(seeds[i].generate_state(1)[0]))
        for i, s in enumerate(battery)
    ]


def test_criterion_1_friction_motor_round_trip():
    """Step + coast battery at 100 Hz, encoder noise 0.02 m/s: curves
    within 2% RMS of range over v in [0,4]; parameters within 10%."""
    start = time.time()
    battery = coast_down_battery() + step_throttle_battery()
    logs = _synthesize(battery, 20240811, v_enc=0.02)
    step_logs = [log for log in logs if log.name.startswith("step")]

    friction, _ = fit_friction(build_friction_dataset(logs, REF.geometry.m))
    motor, _ = fit_motor(build_motor_dataset(step_logs, REF.geometry.m, friction))
    elapsed = time.time() - start

    v = np.linspace(0.0, 4.0, 401)
    f_true = models.friction_force(v, REF.friction)
    f_fit = models.friction_force(v, friction)
    friction_rms = float(np.sqrt(np.mean((f_fit - f_true) ** 2)))
    friction_range = float(f_true.max() - f_true.min())

    taus, vs = np.meshgrid(np.arange(0.15, 0.401, 0.05), v)
    m_true = models.motor_force(taus, vs, REF.motor)
    m_fit = models.motor_force(taus, vs, motor)
    motor_rms = float(np.sqrt(np.mean((m_fit - m_true) ** 2)))
    motor_range = float(m_true.max() - m_true.min())

    rel = {
        "a": abs(friction.a - 1.72) / 1.72,
        "b": abs(friction.b - 13.32) / 13.32,
        "c": abs(friction.c - 0.29) / 0.29,
        "d": abs(motor.d - 28.88) / 28.88,
        "e": abs(motor.e - 5.99) / 5.99,
        "g": abs(motor.g - (-0.15)) / 0.15,
    }
    worst = max(rel, key=rel.get)
    ok = (
        friction_rms < 0.02 * friction_range
        and motor_rms < 0.02 * motor_range
        and all(v < 0.10 for v in rel.values())
        and elapsed < 60.0
    )
    _report(
        1, ok,
        f"friction curve {friction_rms / friction_range:.2%} of range, "
        f"motor {motor_rms / motor_range:.2%}, worst param {worst}={rel[worst]:.2%}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_steering_map_round_trip():
    """Constant-steering battery: fitted map within 0.01 rad RMS."""
    logs = _synthesize(constant_steering_battery(), 777, v_enc=0.02, omega_imu=0.02)
    steering, _ = fit_steering(build_steering_dataset(logs, REF.geometry.l))
    s = np.linspace(-1.0, 1.0, 201)
    err = models.steering_angle(s, steering) - models.steering_angle(s, REF.steering)
    rms = float(np.sqrt(np.mean(err**2)))
    _report(2, rms < 0.01, f"steering map RMS {rms:.2e} rad (budget 1e-2)")


def test_criterion_3_delay_recovery():
    """0.15 s steering delay recovered to one sample at 100 Hz."""
    log = _synthesize([sinusoidal_steering()], 5, v_enc=0.02, omega_imu=0.02)[0]
    estimate = measure_steer_delay(log, REF.steering, REF.geometry.l)
    err = abs(estimate - 0.15)
    _report(3, err <= 0.01 + 1e-12, f"steer delay {estimate:.3f} s (true 0.150, off {err:.3f})")


def test_criterion_4_tire_round_trip():
    """Circular mocap battery: front curve within 3% of D over the
    observed slip range, rear coefficient within 10%."""
    logs = _synthesize(mocap_circular_battery(), 31415, mocap_xy=0.001, mocap_eta=0.002)
    front, rear = build_tire_dataset(logs, REF)
    coeffs, _ = fit_front_tire(front)
    c_r, _ = fit_rear_tire(rear)
    fitted = TireParams(
        D=float(coeffs[0]), C=float(coeffs[1]), B=float(coeffs[2]), E=float(coeffs[3]),
        C_r=max(c_r, 1e-3),
    )
    grid = np.linspace(float(front.inputs[0].min()), float(front.inputs[0].max()), 301)
    err = models.pacejka_lateral(grid, fitted) - models.pacejka_lateral(grid, REF.tire)
    rms = float(np.sqrt(np.mean(err**2)))
    c_r_err = abs(c_r - 0.39) / 0.39
    ok = rms < 0.03 * REF.tire.D and c_r_err < 0.10
    _report(
        4, ok,
        f"front curve RMS {rms / REF.tire.D:.2%} of D over alpha in "
        f"[{grid[0]:.2f},{grid[-1]:.2f}], C_r off {c_r_err:.2%}",
    )


def test_criterion_5_gradient_suite():
    """The loss gradient 2·Jᵀr from the residual vector r and Jacobian J
    that lm_fit minimizes matches central differences of ‖r‖² to 1e-5 at
    10 random interior points for every sub-model."""
    rng = np.random.default_rng(2024)
    cases = {
        "friction": (
            (np.linspace(0.05, 3, 40),),
            lambda v: models.friction_force(v, REF.friction),
            np.array([1.72, 13.32, 0.29]),
        ),
        "motor": (
            (rng.uniform(0.2, 0.4, 40), rng.uniform(0, 3, 40)),
            lambda tau, v: models.motor_force(tau, v, REF.motor),
            np.array([28.88, 5.99, -0.15]),
        ),
        "steering": (
            (np.linspace(-1, 1, 40),),
            lambda s: models.steering_angle(s, REF.steering),
            np.array([1.64, 0.33, 0.02, 1.66, 0.38]),
        ),
        "front_tire": (
            (np.linspace(-0.6, 0.6, 40),),
            lambda alpha: models.pacejka_lateral(alpha, REF.tire),
            np.array([2.98, 0.69, 0.29, -3.07]),
        ),
        "rear_tire": (
            (np.linspace(-0.6, 0.6, 40),),
            lambda alpha: models.rear_lateral(alpha, REF.tire.C_r),
            np.array([0.39]),
        ),
    }
    worst = 0.0
    for name, (inputs, truth, p_ref) in cases.items():
        data = Dataset(inputs, truth(*inputs))
        residuals = _stage_residuals(name, data)
        cfg = default_config(name)

        def loss(q):
            r = residuals(q)[0]
            return float(r @ r)

        for _ in range(10):
            p = np.clip(
                p_ref * rng.uniform(0.6, 1.4, p_ref.size)
                + rng.uniform(-0.05, 0.05, p_ref.size),
                cfg.lower, cfg.upper,
            )
            r, jac = residuals(p)
            grad = 2.0 * jac.T @ r
            grad_fd = finite_difference_gradient(loss, p)
            rel = np.linalg.norm(grad - grad_fd) / max(
                np.linalg.norm(grad), np.linalg.norm(grad_fd), 1e-300
            )
            worst = max(worst, rel)
    _report(5, worst < 1e-5, f"worst gradient relative error {worst:.2e} (budget 1e-5)")


def test_criterion_6_integrator_order_and_closure():
    """RK4 convergence order in [3.8, 4.2]; kinematic circle closes to
    under 1e-6 of its radius."""
    errors = []
    for dt in (0.01, 0.005, 0.0025):
        y = [1.0]
        for _ in range(int(round(1.0 / dt))):
            y = rk4_step(lambda s: [-v for v in s], y, dt)
        errors.append(abs(y[0] - math.exp(-1)))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]

    geom = REF.geometry
    delta, speed = 0.3, 1.0
    radius = geom.l / math.tan(delta)
    period = 2 * math.pi * radius / speed
    n = int(round(period / 0.005))
    state = np.array([0.0, 0.0, 0.0, speed])
    for _ in range(n):
        state = rk4_step(
            lambda s: models.kinematic_rhs(s, 0.0, math.tan(delta), lambda g, v: 0.0, geom), state,
            period / n)
    closure = math.hypot(state[0], state[1])

    ok = all(3.8 <= o <= 4.2 for o in orders) and closure < 1e-6 * radius
    _report(
        6, ok,
        f"orders {orders[0]:.2f}/{orders[1]:.2f}, closure {closure:.2e} m "
        f"(budget {1e-6 * radius:.2e})",
    )


def test_criterion_7_low_speed_model_consistency():
    """Matched kinematic and dynamic runs at v <= 0.5 m/s, delta = 0.2
    rad, 5 s: final positions differ by under 5% of path length.

    Run in the normalized-slip configuration, whose low-speed blend
    exists precisely to keep the dynamic model kinematically consistent
    in this regime; the raw-velocity slip form does not converge to
    kinematic behavior at low speed (its slip angles do not scale with
    speed) and is exercised by the steady-cornering test instead.
    """
    s_star = brentq(
        lambda s: float(models.steering_angle(s, REF.steering)) - 0.2, -1.0, 1.0
    )
    v0 = 0.5
    kin = simulate(
        Scenario(
            name="kin", duration=5.0, dt=0.01, model="kinematic",
            throttle=constant(0.0), steering=constant(s_star),
            initial_state=(0, 0, 0, v0),
        ),
        REF,
    )
    omega0 = v0 * math.tan(0.2) / REF.geometry.l
    dyn = simulate(
        Scenario(
            name="dyn", duration=5.0, dt=0.01, model="dynamic",
            throttle=constant(0.0), steering=constant(s_star),
            initial_state=(0, 0, 0, v0, omega0 * REF.geometry.l_r, omega0),
        ),
        replace(REF, normalized_slip=True),
    )
    assert np.max(kin.states[:, 3]) <= v0 + 1e-9  # envelope: v never exceeds 0.5
    path = float(np.sum(np.linalg.norm(np.diff(kin.states[:, :2], axis=0), axis=1)))
    gap = float(np.linalg.norm(kin.states[-1, :2] - dyn.states[-1, :2]))
    _report(
        7, gap < 0.05 * path,
        f"final gap {gap:.4f} m = {gap / path:.2%} of {path:.3f} m path (budget 5%)",
    )


def test_criterion_8_inertia_consistency():
    """rectangle_inertia reproduces the reference yaw inertia at the
    back-derived wheelbase."""
    l = math.sqrt(12 * 0.006513 / 1.67 - 0.1**2)
    i_z = rectangle_inertia(1.67, l, 0.1)
    ok = abs(l - 0.192) < 5e-4 and abs(i_z - 0.006513) / 0.006513 < 1e-9
    _report(8, ok, f"l = {l:.4f} m, I_z = {i_z:.6f} kg*m^2 (target 0.006513)")


def test_criterion_9_determinism(tmp_path):
    """generate twice with one seed: byte-identical CSVs; fit on them:
    identical parameter JSON."""
    params_path = tmp_path / "ref.json"
    save_params(REF, params_path)
    noise_path = tmp_path / "noise.json"
    noise_path.write_text(json.dumps(
        {"v_enc": 0.02, "omega_imu": 0.02, "mocap_xy": 0.001, "mocap_eta": 0.002}
    ))

    outs = []
    for run in ("g1", "g2"):
        out = tmp_path / run
        assert main(["generate", "--params", str(params_path), "--noise", str(noise_path),
                     "--seed", "20240811", "--out", str(out)]) == 0
        outs.append(out)
    csvs = sorted(p.name for p in outs[0].glob("*.csv"))
    assert csvs
    identical = all(
        filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False) for name in csvs
    )

    fits = []
    for run in ("f1", "f2"):
        out = tmp_path / run / "params.json"
        assert main(["fit", "--logs", str(outs[0]), "--out", str(out)]) == 0
        fits.append(out.read_bytes())
    ok = identical and fits[0] == fits[1]
    _report(
        9, ok,
        f"{len(csvs)} log files byte-identical: {identical}; "
        f"fitted parameter JSON identical: {fits[0] == fits[1]}",
    )
