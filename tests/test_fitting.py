from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import finite_difference_gradient
from scipy.optimize import least_squares

from minicar import models
from minicar.datasets import Dataset
from minicar import fitting
from minicar.errors import ConfigError, FitDivergedError
from minicar.fitting import FitConfig, default_config, lm_fit


def scalar_config(x0=0.0, lo=-10.0, hi=10.0):
    return FitConfig(initial=np.array([x0]), lower=np.array([lo]), upper=np.array([hi]))


def linear_residuals(target):
    def residuals(p):
        return p - target, np.eye(p.size)

    return residuals


def test_lm_solves_a_linear_problem_in_a_few_steps():
    result = lm_fit(linear_residuals(3.0), scalar_config())
    assert result.params[0] == pytest.approx(3.0, abs=1e-12)
    assert result.converged and result.iterations < 10


@pytest.mark.parametrize("x0", [0.5, 1.0])
def test_lm_stops_on_an_active_bound(x0):
    result = lm_fit(linear_residuals(3.0), scalar_config(x0=x0, lo=0.0, hi=1.0))
    assert result.params[0] == 1.0
    assert result.converged


@given(
    target=st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=2),
    lo=st.lists(st.floats(-2, 0, allow_nan=False), min_size=2, max_size=2),
    width=st.lists(st.floats(0.5, 3, allow_nan=False), min_size=2, max_size=2),
)
@settings(max_examples=50)
def test_lm_never_leaves_bounds(target, lo, width):
    """Every trial point LM evaluates lies in the box, and it lands on
    the box projection of a nonlinear problem's optimum."""
    lo, target = np.array(lo), np.array(target)
    hi = lo + np.array(width)
    seen = []

    def residuals(p):  # separable, minimum at target; the third row is quadratic
        seen.append(p.copy())
        r = np.array([p[0] - target[0], p[1] - target[1], 0.1 * (p[0] - target[0]) ** 2])
        jac = np.array([[1.0, 0.0], [0.0, 1.0], [0.2 * (p[0] - target[0]), 0.0]])
        return r, jac

    config = FitConfig(initial=np.clip(np.zeros(2), lo, hi), lower=lo, upper=hi)
    result = lm_fit(residuals, config)
    seen = np.array(seen)
    assert np.all(seen >= lo) and np.all(seen <= hi)
    np.testing.assert_allclose(result.params, np.clip(target, lo, hi), atol=1e-6)


def test_lm_raises_on_non_finite_start():
    with pytest.raises(FitDivergedError) as err:
        lm_fit(lambda p: (np.array([np.inf]), np.ones((1, 1))), scalar_config())
    assert err.value.iteration == 0


def test_lm_raises_on_non_finite_jacobian():
    with pytest.raises(FitDivergedError):
        lm_fit(lambda p: (p - 1.0, np.full((1, 1), np.nan)), scalar_config())


def test_lm_rejects_steps_into_non_finite_losses():
    """A trial whose loss is NaN counts as rejected; LM shortens its step
    and still reaches the optimum next to the bad region."""
    def residuals(p):
        r = np.array([np.nan if p[0] > 2.0 else p[0] - 3.0])
        return r, np.ones((1, 1))

    result = lm_fit(residuals, scalar_config())
    assert 1.9 < result.params[0] <= 2.0
    assert result.evaluations > result.iterations + 1


def test_lm_reports_an_exhausted_budget_as_not_converged(ref, rng, monkeypatch):
    data = _noisy_dataset("front_tire", ref, rng, 401)
    monkeypatch.setattr(fitting, "_LM_MAX_STEPS", 2)
    result = lm_fit(fitting._stage_residuals("front_tire", data), default_config("front_tire"))
    assert not result.converged
    assert result.iterations == 2


@pytest.mark.parametrize("name", ["friction", "motor", "steering", "front_tire", "rear_tire"])
def test_lm_result_invariants(name, ref, rng):
    data = _noisy_dataset(name, ref, rng, 401)
    value, result = FIT[name](data)
    again, same = fitting.fit_curve(name, data)  # fitting.fit_<name> is this call
    assert np.array_equal(np.asarray(again), np.asarray(value)) and type(again) is type(value)
    assert all(np.array_equal(getattr(same, f), getattr(result, f)) for f in
               ("params", "loss", "trace", "iterations", "converged", "evaluations"))
    assert same.diagnostics == result.diagnostics
    assert result.trace[-1] == result.loss
    assert result.iterations == len(result.trace) - 1
    assert np.all(np.diff(result.trace) < 0)  # only steps that lower the loss count
    assert result.evaluations >= result.iterations + 1
    assert result.converged


@pytest.mark.parametrize("name", ["friction", "motor", "steering", "front_tire", "rear_tire"])
def test_lm_matches_scipy_trust_region_reflective(name, ref, rng):
    """On a noisy dataset per stage, LM's loss is within 1e-7 relative of
    scipy's bounded trust-region least squares from the same start."""
    data = _noisy_dataset(name, ref, rng, 401)
    cfg = default_config(name)
    curve, value_and_jacobian = CURVES[name]

    def fun(p):
        return curve(*data.inputs, p) - data.label

    oracle = least_squares(fun, cfg.initial, jac=lambda p: value_and_jacobian(*data.inputs, p)[1],
                           bounds=(cfg.lower, cfg.upper),
                           method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    oracle_loss = float(np.sum(oracle.fun ** 2))
    result = FIT[name](data)[1]
    assert result.loss <= oracle_loss * (1 + 1e-7)


def test_fit_config_validation():
    with pytest.raises(ConfigError):
        FitConfig(initial=np.zeros(2), lower=np.zeros(2), upper=np.ones(3))
    with pytest.raises(ConfigError):
        FitConfig(initial=np.array([5.0]), lower=np.array([0.0]), upper=np.array([1.0]))
    with pytest.raises(ConfigError):
        FitConfig(initial=np.array([0.5]), lower=np.array([1.0]), upper=np.array([0.0]))


def _submodel_cases(ref, rng, rows=40):
    return {
        "friction": (
            (np.linspace(0.05, 3, rows),),
            lambda v: models.friction_force(v, ref.friction),
            np.array([ref.friction.a, ref.friction.b, ref.friction.c]),
        ),
        "motor": (
            (rng.uniform(0.2, 0.4, rows), rng.uniform(0, 3, rows)),
            lambda tau, v: models.motor_force(tau, v, ref.motor),
            np.array([ref.motor.d, ref.motor.e, ref.motor.g]),
        ),
        "steering": (
            (np.linspace(-1, 1, rows),),
            lambda s: models.steering_angle(s, ref.steering),
            np.array([ref.steering.a_t, ref.steering.b_t, ref.steering.c_t,
                      ref.steering.d_t, ref.steering.e_t]),
        ),
        "front_tire": (
            (np.linspace(-0.6, 0.6, rows),),
            lambda alpha: models.pacejka_lateral(alpha, ref.tire),
            np.array([ref.tire.D, ref.tire.C, ref.tire.B, ref.tire.E]),
        ),
        "rear_tire": (
            (np.linspace(-0.6, 0.6, rows),),
            lambda alpha: models.rear_lateral(alpha, ref.tire.C_r),
            np.array([ref.tire.C_r]),
        ),
    }


FIT = {
    "friction": fitting.fit_friction,
    "motor": fitting.fit_motor,
    "steering": fitting.fit_steering,
    "front_tire": fitting.fit_front_tire,
    "rear_tire": fitting.fit_rear_tire,
}

def _side_by_side(curve, jacobian):
    return curve, lambda *args: (curve(*args), jacobian(*args))


# Each stage's curve and its value-and-Jacobian function.
CURVES = {
    "friction": _side_by_side(models.friction_force, models.friction_force_jacobian),
    "motor": _side_by_side(models.motor_force, models.motor_force_jacobian),
    "steering": _side_by_side(models.steering_angle, models.steering_angle_jacobian),
    "front_tire": (models.pacejka_lateral, models.pacejka_lateral_and_jacobian),
    "rear_tire": _side_by_side(models.rear_lateral, models.rear_lateral_jacobian),
}


def _noisy_dataset(name, ref, rng, rows):
    """The stage's inputs over its realistic range, with noisy labels, and
    a row count that is no multiple of a SIMD width."""
    inputs, truth, _ = _submodel_cases(ref, rng, rows)[name]
    return Dataset(inputs, truth(*inputs) + rng.normal(0.0, 0.05, rows))


@pytest.mark.parametrize("name", CURVES)
def test_objective_gradient_does_not_alias_its_buffers(name, ref, rng):
    """The residuals and Jacobian a stage's evaluator returned stay as
    they were after the next call."""
    evaluate = fitting._stage_residuals(name, _noisy_dataset(name, ref, rng, 101))
    cfg = default_config(name)
    first = evaluate(cfg.lower + 0.25 * (cfg.upper - cfg.lower))
    kept = [a.copy() for a in first]
    second = evaluate(cfg.lower + 0.75 * (cfg.upper - cfg.lower))
    assert not np.array_equal(first[0], second[0])
    assert all(np.array_equal(a, b) for a, b in zip(first, kept))


@pytest.mark.parametrize("name", CURVES)
def test_analytic_gradient_matches_finite_differences(name, ref, rng):
    """Loss gradients 2·Jᵀr, and the Jacobian of the curve's models
    value-and-Jacobian function row by row, agree with central
    differences at 10 random interior points around the realistic
    parameter region; that function's value is the curve's, bit for bit."""
    columns, truth, p_ref = _submodel_cases(ref, rng)[name]
    curve, value_and_jacobian = CURVES[name]
    data = Dataset(columns, truth(*columns))
    evaluate = fitting._stage_residuals(name, data)
    cfg = default_config(name)
    for _ in range(10):
        scale = rng.uniform(0.6, 1.4, p_ref.size)
        p = np.clip(p_ref * scale + rng.uniform(-0.05, 0.05, p_ref.size),
                    cfg.lower, cfg.upper)
        r, jac = evaluate(p)
        grad = 2.0 * jac.T @ r
        grad_fd = finite_difference_gradient(lambda q: float(np.sum(evaluate(q)[0] ** 2)), p)
        rel = np.linalg.norm(grad - grad_fd) / max(
            np.linalg.norm(grad), np.linalg.norm(grad_fd), 1e-300
        )
        assert rel < 1e-5
        value, jac = value_and_jacobian(*columns, p)
        assert np.array_equal(value, curve(*columns, p))
        assert jac.shape == (len(data), p_ref.size) and jac.flags.c_contiguous
        for row in (0, len(data) // 2, len(data) - 1):
            jac_fd = finite_difference_gradient(lambda q: curve(*columns, q)[row], p)
            np.testing.assert_allclose(jac[row], jac_fd, rtol=1e-5,
                                       atol=1e-7 * max(np.abs(jac_fd).max(), 1.0))


def test_default_config_rejects_unknown_submodel():
    with pytest.raises(ConfigError):
        default_config("downforce")


@pytest.mark.parametrize("overrides", [
    {"upper": np.array([20.0, 100.0])},  # one bound short
    {"initial": np.array([1.0, 10.0])},  # one value short
    {"lower": np.array([1e-3, 200.0, 0.0])},  # above the upper b
    {"initial": np.array([50.0, 10.0, 0.1])},  # outside the friction box
])
def test_default_config_validates_overrides(overrides):
    with pytest.raises(ConfigError):
        replace(default_config("friction"), **overrides)


def test_fit_wrappers_return_valid_params(ref, rng):
    v = np.linspace(0.05, 3, 60)
    data = Dataset((v,), models.friction_force(v, ref.friction))
    params, result = fitting.fit_friction(data)
    assert params.a > 0 and params.b > 0 and params.c >= 0
    assert result.converged


def test_diagnostics_of_a_well_posed_friction_fit(ref, rng):
    v = np.linspace(0.05, 3, 400)
    data = Dataset((v,), models.friction_force(v, ref.friction) + rng.normal(0, 0.01, v.shape))
    diag = fitting.fit_diagnostics("friction", data, np.array(list(ref.friction)),
                                   default_config("friction"))
    assert diag["grad_norm"] > 0
    assert diag["cond"] is not None and diag["cond"] < 1e6
    assert list(diag["rel_std_err"]) == ["a", "b", "c"]
    assert all(0 < r < 0.05 for r in diag["rel_std_err"].values())
    assert diag["active_bounds"] == []


def test_diagnostics_flag_a_tire_slip_range_that_pins_only_the_slope(rng):
    """Over a tiny slip range the magic formula is a straight line of
    slope B*C*D, so D, C and B trade off and JᵀJ is near singular; a
    range that reaches saturation (B*alpha up to 3) pins the peak D."""
    p = np.array([1.0, 1.5, 5.0, 0.5])

    def diagnostics(reach):
        alpha = np.linspace(-reach, reach, 400)
        data = Dataset((alpha,), models.pacejka_lateral(alpha, p) + rng.normal(0, 0.01, alpha.shape))
        return fitting.fit_diagnostics("front_tire", data, p, default_config("front_tire"))

    wide, narrow = diagnostics(0.6), diagnostics(0.01)
    assert wide["rel_std_err"]["D"] < 0.01
    assert narrow["cond"] is None or narrow["cond"] > 1e6 * wide["cond"]
    assert narrow["rel_std_err"]["D"] is None or narrow["rel_std_err"]["D"] > 1e3


def test_diagnostics_list_a_parameter_whose_optimum_lies_outside_the_box():
    alpha = np.linspace(-0.6, 0.6, 50)
    data = Dataset((alpha,), 3.0 * alpha)
    cfg = replace(default_config("rear_tire"), upper=np.array([2.0]))
    result = lm_fit(fitting._stage_residuals("rear_tire", data), cfg)
    assert result.params[0] == 2.0
    assert fitting.fit_diagnostics("rear_tire", data, result.params, cfg)["active_bounds"] == ["C_r"]
