import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import finite_difference_gradient
from scipy.optimize import least_squares

from minicar import models
from minicar.datasets import Dataset
from minicar import fitting
from minicar.errors import ConfigError, DataError, FitDivergedError
from minicar.fitting import (
    FitConfig,
    adam_fit,
    default_config,
    lm_fit,
    submodel_objective,
)


def scalar_config(x0=0.0, lo=-10.0, hi=10.0, **kw):
    return FitConfig(initial=np.array([x0]), lower=np.array([lo]), upper=np.array([hi]), **kw)


def quadratic(target):
    def objective(p):
        return float(np.sum((p - target) ** 2)), 2.0 * (p - target)

    return objective


def test_adam_converges_on_scalar_quadratic():
    result = adam_fit(quadratic(3.0), scalar_config())
    assert result.params[0] == pytest.approx(3.0, abs=1e-4)
    assert result.loss < 1e-8


def test_adam_respects_active_bound():
    result = adam_fit(quadratic(3.0), scalar_config(x0=0.5, lo=0.0, hi=1.0))
    assert result.params[0] == pytest.approx(1.0, abs=1e-12)


def test_adam_never_leaves_bounds():
    trace_params = []

    def spying(p):
        trace_params.append(p.copy())
        return quadratic(3.0)(p)

    adam_fit(spying, scalar_config(x0=0.5, lo=0.0, hi=1.0))
    arr = np.array(trace_params)
    assert np.all(arr >= -1e-15) and np.all(arr <= 1.0 + 1e-15)


def test_adam_raises_on_non_finite_loss():
    def bad(p):
        if p[0] > 0.5:
            return np.inf, np.zeros_like(p)
        return float((p[0] - 3.0) ** 2), 2 * (p - 3.0)

    with pytest.raises(FitDivergedError) as err:
        adam_fit(bad, scalar_config(x0=0.49, lo=-1, hi=1))
    assert err.value.iteration >= 0


def test_adam_loss_non_increasing_windows_on_quadratic():
    """Over any 50-iteration window of a convex quadratic the loss
    must not increase end to end."""
    target = np.array([2.0, -1.0, 0.5])
    cfg = FitConfig(
        initial=np.zeros(3), lower=np.full(3, -5.0), upper=np.full(3, 5.0)
    )
    result = adam_fit(quadratic(target), cfg)
    trace = result.trace
    for start in range(0, len(trace) - 50, 50):
        assert trace[start + 50] <= trace[start] + 1e-12


def test_fit_result_invariants():
    cfg = scalar_config()
    result = adam_fit(quadratic(1.0), cfg)
    assert len(result.trace) >= 1
    assert result.trace[-1] == result.loss
    assert result.iterations == len(result.trace) - 1
    assert np.all(result.params >= cfg.lower) and np.all(result.params <= cfg.upper)


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


def test_lm_reports_an_exhausted_budget_as_not_converged(ref, rng):
    data = _noisy_dataset("front_tire", ref, rng, 401)
    result = lm_fit(fitting._stage_residuals("front_tire", data),
                    default_config("front_tire", max_iterations=2))
    assert not result.converged
    assert result.iterations == 2


@pytest.mark.parametrize("name", ["friction", "motor", "steering", "front_tire", "rear_tire"])
def test_lm_result_invariants(name, ref, rng):
    result = FIT[name](_noisy_dataset(name, ref, rng, 401))[1]
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
    curve, jacobian = CURVES[name]
    columns = data.X.T

    def fun(p):
        return curve(*columns, p) - data.Y[:, 0]

    oracle = least_squares(fun, cfg.initial, jac=lambda p: jacobian(*columns, p),
                           bounds=(cfg.lower, cfg.upper),
                           method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    oracle_loss = float(np.sum(oracle.fun ** 2))
    result = FIT[name](data)[1]
    assert result.loss <= oracle_loss * (1 + 1e-7)


def test_fit_config_validation():
    with pytest.raises(ConfigError):
        scalar_config(learning_rate=0.0)
    with pytest.raises(ConfigError):
        scalar_config(beta1=1.0)
    with pytest.raises(ConfigError):
        FitConfig(initial=np.array([5.0]), lower=np.array([0.0]), upper=np.array([1.0]))
    with pytest.raises(ConfigError):
        FitConfig(initial=np.array([0.5]), lower=np.array([1.0]), upper=np.array([0.0]))


def test_learning_rate_schedule_shape():
    cfg = scalar_config(max_iterations=1000)
    lr = [cfg.learning_rate_at(k) for k in range(1, 1001)]
    assert lr[0] == cfg.learning_rate
    assert lr[-1] == pytest.approx(cfg.final_learning_rate, rel=0.05)
    assert all(b <= a + 1e-15 for a, b in zip(lr, lr[1:]))  # non-increasing


def _submodel_cases(ref, rng, rows=40):
    return {
        "friction": (
            np.linspace(0.05, 3, rows)[:, None],
            lambda X: models.friction_force(X[:, 0:1], ref.friction),
            np.array([ref.friction.a, ref.friction.b, ref.friction.c]),
        ),
        "motor": (
            np.column_stack([rng.uniform(0.2, 0.4, rows), rng.uniform(0, 3, rows)]),
            lambda X: models.motor_force(X[:, 0:1], X[:, 1:2], ref.motor),
            np.array([ref.motor.d, ref.motor.e, ref.motor.g]),
        ),
        "steering": (
            np.linspace(-1, 1, rows)[:, None],
            lambda X: models.steering_angle(X[:, 0:1], ref.steering),
            np.array([ref.steering.a_t, ref.steering.b_t, ref.steering.c_t,
                      ref.steering.d_t, ref.steering.e_t]),
        ),
        "front_tire": (
            np.linspace(-0.6, 0.6, rows)[:, None],
            lambda X: models.pacejka_lateral(X[:, 0:1], ref.tire),
            np.array([ref.tire.D, ref.tire.C, ref.tire.B, ref.tire.E]),
        ),
        "rear_tire": (
            np.linspace(-0.6, 0.6, rows)[:, None],
            lambda X: models.rear_lateral(X[:, 0:1], ref.tire.C_r),
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

CURVES = {
    "friction": (models.friction_force, models.friction_force_jacobian),
    "motor": (models.motor_force, models.motor_force_jacobian),
    "steering": (models.steering_angle, models.steering_angle_jacobian),
    "front_tire": (models.pacejka_lateral, models.pacejka_lateral_jacobian),
    "rear_tire": (models.rear_lateral, models.rear_lateral_jacobian),
}


def _noisy_dataset(name, ref, rng, rows):
    """The stage's inputs over its realistic range, with noisy labels, and
    a row count that is no multiple of a SIMD width."""
    X, truth, _ = _submodel_cases(ref, rng, rows)[name]
    Y = truth(X) + rng.normal(0.0, 0.05, (rows, 1))
    return Dataset(X=X, Y=Y, x_names=tuple(f"x{i}" for i in range(X.shape[1])), y_names=("y",))


@pytest.mark.parametrize("name", CURVES)
def test_objective_gradient_does_not_alias_its_buffers(name, ref, rng):
    """A gradient the objective returned stays as it was after the next call."""
    objective = submodel_objective(name, _noisy_dataset(name, ref, rng, 101))
    cfg = default_config(name)
    _, first = objective(cfg.lower + 0.25 * (cfg.upper - cfg.lower))
    kept = first.copy()
    _, second = objective(cfg.lower + 0.75 * (cfg.upper - cfg.lower))
    assert not np.array_equal(first, second)
    assert np.array_equal(first, kept)


def test_objective_rejects_several_label_columns():
    data = Dataset(X=np.ones((4, 1)), Y=np.ones((4, 2)), x_names=("v",), y_names=("a", "b"))
    with pytest.raises(DataError):
        submodel_objective("friction", data)


@pytest.mark.parametrize("name", CURVES)
def test_analytic_gradient_matches_finite_differences(name, ref, rng):
    """Loss gradients, and the curve's models Jacobian row by row, agree
    with central differences at 10 random interior points around the
    realistic parameter region."""
    X, truth, p_ref = _submodel_cases(ref, rng)[name]
    curve, jacobian = CURVES[name]
    columns = X.T
    data = Dataset(
        X=X, Y=truth(X), x_names=tuple(f"x{i}" for i in range(X.shape[1])), y_names=("y",)
    )
    objective = submodel_objective(name, data)
    cfg = default_config(name)
    for _ in range(10):
        scale = rng.uniform(0.6, 1.4, p_ref.size)
        p = np.clip(p_ref * scale + rng.uniform(-0.05, 0.05, p_ref.size),
                    cfg.lower, cfg.upper)
        _, grad = objective(p)
        grad_fd = finite_difference_gradient(lambda q: objective(q)[0], p)
        rel = np.linalg.norm(grad - grad_fd) / max(
            np.linalg.norm(grad), np.linalg.norm(grad_fd), 1e-300
        )
        assert rel < 1e-5
        jac = jacobian(*columns, p)
        assert jac.shape == (X.shape[0], p_ref.size) and jac.flags.c_contiguous
        for row in (0, X.shape[0] // 2, X.shape[0] - 1):
            jac_fd = finite_difference_gradient(lambda q: curve(*columns, q)[row], p)
            np.testing.assert_allclose(jac[row], jac_fd, rtol=1e-5,
                                       atol=1e-7 * max(np.abs(jac_fd).max(), 1.0))


def test_default_config_rejects_unknown_submodel():
    with pytest.raises(ConfigError):
        default_config("downforce")


@pytest.mark.parametrize("overrides", [
    {"learning_rate": -1.0},
    {"max_iterations": 0},
    {"beta1": 1.0},
    {"initial": np.array([50.0, 10.0, 0.1])},  # outside the friction box
    {"not_a_field": 1},
])
def test_default_config_validates_overrides(overrides):
    with pytest.raises(ConfigError):
        default_config("friction", **overrides)


def test_fit_wrappers_return_valid_params(ref, rng):
    X = np.linspace(0.05, 3, 60)[:, None]
    data = Dataset(
        X=X, Y=models.friction_force(X[:, 0:1], ref.friction), x_names=("v",), y_names=("F",)
    )
    params, result = fitting.fit_friction(data)
    assert params.a > 0 and params.b > 0 and params.c >= 0
    assert result.converged


def test_diagnostics_of_a_well_posed_friction_fit(ref, rng):
    v = np.linspace(0.05, 3, 400)[:, None]
    data = Dataset(X=v, Y=models.friction_force(v, ref.friction) + rng.normal(0, 0.01, v.shape),
                   x_names=("v",), y_names=("F",))
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
        alpha = np.linspace(-reach, reach, 400)[:, None]
        data = Dataset(X=alpha, Y=models.pacejka_lateral(alpha, p) + rng.normal(0, 0.01, alpha.shape),
                       x_names=("alpha",), y_names=("F",))
        return fitting.fit_diagnostics("front_tire", data, p, default_config("front_tire"))

    wide, narrow = diagnostics(0.6), diagnostics(0.01)
    assert wide["rel_std_err"]["D"] < 0.01
    assert narrow["cond"] is None or narrow["cond"] > 1e6 * wide["cond"]
    assert narrow["rel_std_err"]["D"] is None or narrow["rel_std_err"]["D"] > 1e3


def test_diagnostics_list_a_parameter_whose_optimum_lies_outside_the_box():
    alpha = np.linspace(-0.6, 0.6, 50)[:, None]
    data = Dataset(X=alpha, Y=3.0 * alpha, x_names=("alpha",), y_names=("F",))
    cfg = default_config("rear_tire", upper=np.array([2.0]))
    result = lm_fit(fitting._stage_residuals("rear_tire", data), cfg)
    assert result.params[0] == 2.0
    assert fitting.fit_diagnostics("rear_tire", data, result.params, cfg)["active_bounds"] == ["C_r"]
