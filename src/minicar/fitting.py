"""Bounded Adam least-squares fitting for every sub-model curve.

Each stage fits one curve of ``models`` to a Dataset: the columns of X
are the curve's inputs in argument order, the fit vector holds its
parameters in field order, and ``models.<curve>_and_jacobian`` gives
the squared-error loss an analytic gradient. No curve formula lives
here. The objective built for a dataset holds its columns as
contiguous 1-D arrays and owns, for its whole life, one
``(N, n_p)`` Jacobian buffer, the curve's scratch rows and a residual
row; each call overwrites them, evaluates the curve and its Jacobian
in one pass and returns a fresh gradient array.
The optimizer is Adam with bias correction plus two practical
additions: parameters are clamped to their box bounds after every
step, and the learning rate follows a fixed four-phase schedule
(explore at the base rate, drop, crawl at a tenth of it, then anneal
geometrically to a tiny floor). Constant-rate Adam orbits the optimum
at a radius set by the rate; the crawl phase walks the long shallow
valleys these curve families produce, and the anneal settles the
iterate well below the round-trip accuracy the tests demand.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from . import models
from .datasets import Dataset
from .errors import ConfigError, DataError, FitDivergedError
from .params import FrictionParams, MotorParams, SteeringParams, TireParams


# Learning-rate schedule shape: fractions of the budget spent at the
# base rate, dropping to the crawl rate, and crawling; the remainder
# anneals to final_learning_rate.
_PHASE_CONST = 0.2
_PHASE_DROP = 0.1
_PHASE_CRAWL = 0.45
_CRAWL_FACTOR = 0.1


@dataclass
class FitConfig:
    initial: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    max_iterations: int = 20000
    tolerance: float = 1e-10  # relative loss-delta considered "no movement"
    patience: int = 50  # consecutive no-movement iterations before stopping
    eps: float = 1e-8
    final_learning_rate: float = 1e-9

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if self.learning_rate <= 0:
            raise ConfigError("learning rate must be > 0")
        if not 0 < self.final_learning_rate <= self.learning_rate:
            raise ConfigError("final learning rate must lie in (0, learning_rate]")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ConfigError("decay rates must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ConfigError("iteration budget must be >= 1")
        if not (self.initial.shape == self.lower.shape == self.upper.shape):
            raise ConfigError("initial, lower and upper must have equal shape")
        if np.any(self.lower > self.upper):
            raise ConfigError("lower bounds exceed upper bounds")
        if np.any(self.initial < self.lower) or np.any(self.initial > self.upper):
            raise ConfigError("initial parameters must lie within bounds")

    def learning_rate_at(self, k: int) -> float:
        """Scheduled rate at iteration k (1-based)."""
        n = self.max_iterations
        k1 = int(n * _PHASE_CONST)
        k2 = int(n * (_PHASE_CONST + _PHASE_DROP))
        k3 = int(n * (_PHASE_CONST + _PHASE_DROP + _PHASE_CRAWL))
        crawl = self.learning_rate * _CRAWL_FACTOR
        if k <= k1:
            return self.learning_rate
        if k <= k2:
            ratio = (crawl / self.learning_rate) ** (1.0 / max(k2 - k1, 1))
            return self.learning_rate * ratio ** (k - k1)
        if k <= k3:
            return crawl
        ratio = (self.final_learning_rate / crawl) ** (1.0 / max(n - k3, 1))
        return crawl * ratio ** (k - k3)


@dataclass(frozen=True)
class FitResult:
    params: np.ndarray
    loss: float
    trace: np.ndarray  # loss per iteration, trace[-1] == loss
    iterations: int
    converged: bool
    diagnostics: dict | None = None  # fit_diagnostics at params, set by the fit_* stages


def adam_fit(objective: Callable, config: FitConfig) -> FitResult:
    """Minimize ``objective(p) -> (loss, grad)`` inside a parameter box.

    Adaptive-moment steps with bias correction; iterates are clamped to
    the box after every update. Stops early once the loss has stopped
    moving (delta below tolerance) for ``patience`` consecutive
    iterations, otherwise runs the full scheduled budget.
    """
    p = config.initial.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    trace = []
    still = 0
    converged = False

    loss, grad = objective(p)
    for k in range(1, config.max_iterations + 1):
        if not (np.isfinite(loss) and np.all(np.isfinite(grad))):
            raise FitDivergedError("non-finite loss or gradient", iteration=k - 1)
        trace.append(loss)

        m = config.beta1 * m + (1 - config.beta1) * grad
        v = config.beta2 * v + (1 - config.beta2) * grad * grad
        m_hat = m / (1 - config.beta1**k)
        v_hat = v / (1 - config.beta2**k)
        p = p - config.learning_rate_at(k) * m_hat / (np.sqrt(v_hat) + config.eps)
        p = np.clip(p, config.lower, config.upper)

        new_loss, grad = objective(p)
        if not np.isfinite(new_loss):
            raise FitDivergedError("non-finite loss", iteration=k)

        moved = abs(new_loss - loss) >= config.tolerance * max(loss, 1e-300)
        still = 0 if moved else still + 1
        loss = new_loss
        if still >= config.patience:
            trace.append(loss)
            converged = True
            break
    else:
        trace.append(loss)

    return FitResult(
        params=p,
        loss=float(loss),
        trace=np.asarray(trace),
        iterations=len(trace) - 1,
        converged=converged,
    )


def _columns(data: Dataset) -> tuple[list[np.ndarray], np.ndarray]:
    """The inputs and the single label column of ``data`` as contiguous 1-D arrays."""
    if data.Y.shape[1] != 1:
        raise DataError(f"a least-squares stage fits one output column, got {data.Y.shape[1]}")
    columns = [np.ascontiguousarray(data.X[:, j]) for j in range(data.X.shape[1])]
    return columns, np.ascontiguousarray(data.Y[:, 0])


def least_squares_objective(value_and_jacobian: Callable, data: Dataset,
                            n_params: int) -> Callable:
    """Wrap a ``models.<curve>_and_jacobian`` into ``objective(p) -> (loss, grad)``.

    The curve reads each column of ``data.X`` as one input argument and
    is fitted to the single column of ``data.Y``. The buffers are
    allocated here, once, and reused by every call.
    """
    columns, y = _columns(data)
    jac = np.empty((y.size, n_params))
    work = np.empty((models.JACOBIAN_WORK_ROWS, y.size))
    residual = np.empty(y.size)

    def objective(p):
        p = np.asarray(p, dtype=float)
        np.subtract(value_and_jacobian(*columns, p, jac, work), y, out=residual)
        loss = float(np.sum(np.multiply(residual, residual, out=work[0])))
        grad = 2.0 * np.einsum("i,ik->k", residual, jac)
        return loss, grad

    return objective


def finite_difference_gradient(fn: Callable, p, step: float = 1e-6) -> np.ndarray:
    """Central finite differences with per-parameter relative steps."""
    p = np.asarray(p, dtype=float)
    grad = np.empty_like(p)
    for i in range(p.size):
        h = step * max(1.0, abs(p[i]))
        hi, lo = p.copy(), p.copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (fn(hi) - fn(lo)) / (2 * h)
    return grad


# --- stages: the curve each one fits and its default setup -------------

_SUBMODELS = {
    "friction": models.friction_force_and_jacobian,
    "motor": models.motor_force_and_jacobian,
    "steering": models.steering_angle_and_jacobian,
    "front_tire": models.pacejka_lateral_and_jacobian,
    "rear_tire": models.rear_lateral_and_jacobian,
}


def _field_names(group) -> tuple[str, ...]:
    return tuple(f.name for f in fields(group))


# each stage's parameter names, in fit-vector order
_PARAM_NAMES = {
    "friction": _field_names(FrictionParams),
    "motor": _field_names(MotorParams),
    "steering": _field_names(SteeringParams),
    "front_tire": _field_names(TireParams)[:4],
    "rear_tire": _field_names(TireParams)[4:],
}

_DEFAULTS = {
    # initial guess, lower, upper, iteration budget. Guesses are
    # order-of-magnitude values a practitioner would read off a plot of
    # the data; everything is overridable via FitConfig. The two
    # blended-sigmoid families crawl along shallow coupled valleys and
    # get longer budgets (their datasets are small, so this is cheap).
    "friction": ((1.0, 10.0, 0.1), (1e-3, 1e-3, 0.0), (20.0, 100.0, 10.0), 20000),
    "motor": ((20.0, 5.0, -0.1), (1e-3, 1e-3, -0.99), (100.0, 100.0, 0.0), 20000),
    "steering": (
        (1.0, 1.0, 0.0, 1.0, 1.0),
        (1e-3, 1e-3, -0.9, 1e-3, 1e-3),
        (3.0, 5.0, 0.9, 3.0, 5.0),
        40000,
    ),
    "front_tire": ((3.0, 1.0, 1.0, 0.0), (1e-3, 0.05, 1e-3, -10.0), (20.0, 2.0, 20.0, 0.99), 30000),
    "rear_tire": ((1.0,), (1e-3,), (100.0,), 20000),
}


def default_config(sub_model: str, **overrides) -> FitConfig:
    """The stage's default setup with ``overrides`` applied, all validated."""
    if sub_model not in _DEFAULTS:
        raise ConfigError(f"unknown sub-model {sub_model!r}")
    unknown = set(overrides) - {f.name for f in fields(FitConfig)}
    if unknown:
        raise ConfigError(f"unknown FitConfig field {sorted(unknown)[0]!r}")
    init, lo, hi, budget = _DEFAULTS[sub_model]
    cfg = FitConfig(
        initial=np.array(init), lower=np.array(lo), upper=np.array(hi),
        max_iterations=budget,
    )
    return replace(cfg, **overrides)


def submodel_objective(sub_model: str, data: Dataset) -> Callable:
    return least_squares_objective(_SUBMODELS[sub_model], data, len(_PARAM_NAMES[sub_model]))


def _finite_or_none(x: float) -> float | None:
    return float(x) if np.isfinite(x) else None


def fit_diagnostics(sub_model: str, data: Dataset, params, config: FitConfig) -> dict:
    """How far a stage's fitted parameters can be trusted, from one more
    value-and-Jacobian evaluation at ``params``.

    Returns JSON-ready values: ``grad_norm``, the Euclidean norm of the
    loss gradient; ``cond``, the condition number of JᵀJ; ``rel_std_err``,
    per parameter name sqrt(diag(σ²(JᵀJ)⁻¹)) / |p| with σ² = loss / (N − n_p);
    and ``active_bounds``, the names of the parameters sitting on a box
    bound. A value that is infinite or undefined (singular JᵀJ, a zero
    parameter, N ≤ n_p) is None.
    """
    params = np.asarray(params, dtype=float)
    names = _PARAM_NAMES[sub_model]
    columns, y = _columns(data)
    jac = np.empty((y.size, params.size))
    work = np.empty((models.JACOBIAN_WORK_ROWS, y.size))
    residual = _SUBMODELS[sub_model](*columns, params, jac, work) - y
    grad = 2.0 * np.einsum("i,ik->k", residual, jac)
    # JᵀJ = V diag(s²) Vᵀ from the SVD of J, which keeps the small
    # singular values that forming JᵀJ would square away. With fewer
    # rows than parameters JᵀJ is singular.
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    dof = y.size - params.size
    sigma2 = float(np.sum(residual * residual)) / dof if dof > 0 else np.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = (s[0] / s[-1]) ** 2 if dof >= 0 else np.inf
        inverse_diag = np.sum((vt / s[:, None]) ** 2, axis=0)  # diag((JᵀJ)⁻¹)
        rel_std_err = np.sqrt(sigma2 * inverse_diag) / np.abs(params)
    on_bound = (params <= config.lower) | (params >= config.upper)
    return {
        "grad_norm": float(np.linalg.norm(grad)),
        "cond": _finite_or_none(cond),
        "rel_std_err": {n: _finite_or_none(r) for n, r in zip(names, rel_std_err)},
        "active_bounds": [n for n, bound in zip(names, on_bound) if bound],
    }


def _fit(sub_model: str, data: Dataset, config: FitConfig | None, convert: Callable):
    config = config or default_config(sub_model)
    result = adam_fit(submodel_objective(sub_model, data), config)
    result = replace(result, diagnostics=fit_diagnostics(sub_model, data, result.params, config))
    return convert(result.params), result


def fit_friction(data: Dataset, config: FitConfig | None = None):
    return _fit("friction", data, config, lambda p: FrictionParams(*map(float, p)))


def fit_motor(data: Dataset, config: FitConfig | None = None):
    return _fit("motor", data, config, lambda p: MotorParams(*map(float, p)))


def fit_steering(data: Dataset, config: FitConfig | None = None):
    return _fit("steering", data, config, lambda p: SteeringParams(*map(float, p)))


def fit_front_tire(data: Dataset, config: FitConfig | None = None):
    """Returns the magic-formula coefficients; C_r is fitted separately."""
    return _fit("front_tire", data, config, lambda p: p)


def fit_rear_tire(data: Dataset, config: FitConfig | None = None):
    return _fit("rear_tire", data, config, lambda p: float(p[0]))
