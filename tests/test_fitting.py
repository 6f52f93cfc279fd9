import numpy as np
import pytest

from minicar import models
from minicar.datasets import Dataset
from minicar import fitting
from minicar.errors import ConfigError, FitDivergedError
from minicar.fitting import (
    FitConfig,
    adam_fit,
    default_config,
    finite_difference_gradient,
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


def _submodel_cases(ref, rng):
    return {
        "friction": (
            np.linspace(0.05, 3, 40)[:, None],
            lambda X: models.friction_force(X[:, 0:1], ref.friction),
            np.array([ref.friction.a, ref.friction.b, ref.friction.c]),
        ),
        "motor": (
            np.column_stack([rng.uniform(0.2, 0.4, 40), rng.uniform(0, 3, 40)]),
            lambda X: models.motor_force(X[:, 0:1], X[:, 1:2], ref.motor),
            np.array([ref.motor.d, ref.motor.e, ref.motor.g]),
        ),
        "steering": (
            np.linspace(-1, 1, 40)[:, None],
            lambda X: models.steering_angle(X[:, 0:1], ref.steering),
            np.array([ref.steering.a_t, ref.steering.b_t, ref.steering.c_t,
                      ref.steering.d_t, ref.steering.e_t]),
        ),
        "front_tire": (
            np.linspace(-0.6, 0.6, 40)[:, None],
            lambda X: models.pacejka_lateral(X[:, 0:1], ref.tire),
            np.array([ref.tire.D, ref.tire.C, ref.tire.B, ref.tire.E]),
        ),
        "rear_tire": (
            np.linspace(-0.6, 0.6, 40)[:, None],
            lambda X: models.rear_lateral(X[:, 0:1], ref.tire.C_r),
            np.array([ref.tire.C_r]),
        ),
    }


CURVES = {
    "friction": (models.friction_force, models.friction_force_jacobian),
    "motor": (models.motor_force, models.motor_force_jacobian),
    "steering": (models.steering_angle, models.steering_angle_jacobian),
    "front_tire": (models.pacejka_lateral, models.pacejka_lateral_jacobian),
    "rear_tire": (models.rear_lateral, models.rear_lateral_jacobian),
}


@pytest.mark.parametrize("name", CURVES)
def test_analytic_gradient_matches_finite_differences(name, ref, rng):
    """Loss gradients, and the curve's models Jacobian row by row, agree
    with central differences at 10 random interior points around the
    realistic parameter region."""
    X, truth, p_ref = _submodel_cases(ref, rng)[name]
    curve, jacobian = CURVES[name]
    columns = [X[:, j:j + 1] for j in range(X.shape[1])]
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
        jac = jacobian(*columns, p)[:, 0, :]
        for row in (0, X.shape[0] // 2, X.shape[0] - 1):
            jac_fd = finite_difference_gradient(lambda q: curve(*columns, q)[row, 0], p)
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
