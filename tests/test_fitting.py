import numpy as np
import pytest

from minicar import models
from minicar.datasets import Dataset
from minicar import fitting
from minicar.errors import ConfigError, DataError, FitDivergedError
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


CURVES = {
    "friction": (models.friction_force, models.friction_force_and_jacobian),
    "motor": (models.motor_force, models.motor_force_and_jacobian),
    "steering": (models.steering_angle, models.steering_angle_and_jacobian),
    "front_tire": (models.pacejka_lateral, models.pacejka_lateral_and_jacobian),
    "rear_tire": (models.rear_lateral, models.rear_lateral_and_jacobian),
}


# --- reference: each Jacobian written out on its own, stacked on a new
# last axis; the fused objective must reproduce it bit for bit ----------

def _friction_jacobian(v, p):
    a, b, c = p
    th = np.tanh(b * v)
    return np.stack([-th, -a * v * (1 - th * th), -v], axis=-1)


def _motor_jacobian(tau, v, p):
    d, e, g = p
    k = models.THROTTLE_SHARPNESS
    x = tau + g
    gate = np.tanh(k * x)
    soft = x * 0.5 * (gate + 1.0)
    dsoft_dg = 0.5 * (gate + 1.0) + x * 0.5 * k * (1 - gate * gate)
    return np.stack([soft, -v * soft, (d - v * e) * dsoft_dg], axis=-1)


def _steering_jacobian(s, p):
    a_t, b_t, c_t, d_t, e_t = p
    k = models.STEER_BLEND_SHARPNESS
    x = s + c_t
    gate = np.tanh(k * x)
    w = 0.5 * (gate + 1.0)
    tb, te = np.tanh(b_t * x), np.tanh(e_t * x)
    sech_b, sech_e = 1 - tb * tb, 1 - te * te
    dw_dc = 0.5 * k * (1 - gate * gate)
    d_c = (
        w * a_t * b_t * sech_b
        + (1 - w) * d_t * e_t * sech_e
        + dw_dc * (a_t * tb - d_t * te)
    )
    return np.stack(
        [w * tb, w * a_t * x * sech_b, d_c, (1 - w) * te, (1 - w) * d_t * x * sech_e],
        axis=-1,
    )


def _pacejka_jacobian(alpha, p):
    D, C, B, E = p
    ba = B * alpha
    atan_ba = np.arctan(ba)
    u = ba - E * (ba - atan_ba)
    atan_u = np.arctan(u)
    outer = np.cos(C * atan_u)
    du = D * outer * C / (1 + u * u)
    du_dB = alpha * (1 - E * (1 - 1 / (1 + ba * ba)))
    return np.stack(
        [np.sin(C * atan_u), D * outer * atan_u, du * du_dB, du * -(ba - atan_ba)],
        axis=-1,
    )


def _rear_jacobian(alpha, c_r):
    return alpha[..., None]


REFERENCE = {
    "friction": (models.friction_force, _friction_jacobian),
    "motor": (models.motor_force, _motor_jacobian),
    "steering": (models.steering_angle, _steering_jacobian),
    "front_tire": (models.pacejka_lateral, _pacejka_jacobian),
    "rear_tire": (models.rear_lateral, _rear_jacobian),
}


def _reference_objective(name, data):
    curve, jacobian = REFERENCE[name]
    columns = [data.X[:, j:j + 1] for j in range(data.X.shape[1])]

    def objective(p):
        residual = curve(*columns, p) - data.Y  # (N, 1)
        loss = float(np.sum(residual * residual))
        grad = 2.0 * np.einsum("ij,ijk->k", residual, jacobian(*columns, p))  # (N, 1, n_p)
        return loss, grad

    return objective


def _noisy_dataset(name, ref, rng, rows):
    """The stage's inputs over its realistic range, with noisy labels, and
    a row count that is no multiple of a SIMD width."""
    X, truth, _ = _submodel_cases(ref, rng, rows)[name]
    Y = truth(X) + rng.normal(0.0, 0.05, (rows, 1))
    return Dataset(X=X, Y=Y, x_names=tuple(f"x{i}" for i in range(X.shape[1])), y_names=("y",))


@pytest.mark.parametrize("name", CURVES)
def test_fused_objective_is_bit_identical_to_reference(name, ref, rng):
    """Loss and gradient of the one-pass objective equal those of the plain
    curve plus the stacked per-column Jacobian, bit for bit, at 25 random
    parameter vectors drawn from the stage's whole box."""
    cfg = default_config(name)
    for rows in (11, 1001, 11602):
        data = _noisy_dataset(name, ref, rng, rows)
        fused, reference = submodel_objective(name, data), _reference_objective(name, data)
        for _ in range(25):
            p = rng.uniform(cfg.lower, cfg.upper)
            loss, grad = fused(p)
            ref_loss, ref_grad = reference(p)
            assert loss == ref_loss
            assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("name", CURVES)
def test_fused_value_is_the_plain_curve(name, ref, rng):
    """The value a value-and-Jacobian function returns is its curve's, bit for bit."""
    curve, value_and_jacobian = CURVES[name]
    X = _submodel_cases(ref, rng, 1001)[name][0]
    columns = [np.ascontiguousarray(X[:, j]) for j in range(X.shape[1])]
    cfg = default_config(name)
    jac = np.empty((X.shape[0], cfg.initial.size))
    work = np.empty((models.JACOBIAN_WORK_ROWS, X.shape[0]))
    for _ in range(5):
        p = rng.uniform(cfg.lower, cfg.upper)
        assert np.array_equal(value_and_jacobian(*columns, p, jac, work), curve(*columns, p))


@pytest.mark.parametrize("name", CURVES)
def test_objective_gradient_does_not_alias_its_buffers(name, ref, rng):
    """The objective reuses its buffers, but a gradient it returned stays
    as it was after the next call."""
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
    curve, value_and_jacobian = CURVES[name]
    columns = [np.ascontiguousarray(X[:, j]) for j in range(X.shape[1])]
    jac = np.empty((X.shape[0], p_ref.size))
    work = np.empty((models.JACOBIAN_WORK_ROWS, X.shape[0]))
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
        value_and_jacobian(*columns, p, jac, work)
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
    c_r, result = fitting.fit_rear_tire(data, default_config("rear_tire", upper=np.array([2.0])))
    assert c_r == 2.0
    assert result.diagnostics["active_bounds"] == ["C_r"]
