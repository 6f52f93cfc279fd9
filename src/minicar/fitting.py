"""Bounded least-squares fitting for every sub-model curve.

Each stage fits one curve of ``models`` to a Dataset: the columns of X
are the curve's inputs in argument order, the fit vector holds its
parameters in field order, the residual vector is r = curve(X; p) − y
and ``models.<curve>_jacobian`` gives its analytic Jacobian J. No
curve formula lives here. The stage fits, the diagnostics and the
loss-and-gradient objective all evaluate r and J the same way.

Every stage is solved by ``lm_fit``, a box-projected
Levenberg–Marquardt method (Marquardt 1963; Moré 1978): each step
solves (JᵀJ + λ·diag(JᵀJ)) δ = −Jᵀr for the parameters not held on a
bound and clips p + δ to the box; a trial that does not lower the loss
is rejected and λ grows, and an accepted one shrinks λ by Nielsen's
(1999) gain-ratio rule. These
curves are small, smooth least-squares problems, so a handful to a
few hundred steps reach the optimum that first-order methods need
tens of thousands of steps to approach.

``adam_fit``, bias-corrected Adam with box clamping and a four-phase
learning-rate schedule, remains as a library function for objectives
that give only a loss and a gradient; no stage uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

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

# Levenberg–Marquardt damping λ: its first value; the floor that keeps
# λ·diag(JᵀJ) above rounding, so the damped system stays regular when
# JᵀJ is singular (a long run of good steps would otherwise take λ
# below 1e-16); and the ceiling at which a point no trial step can
# improve counts as converged.
_LM_LAMBDA_START = 1e-3
_LM_LAMBDA_FLOOR = 1e-15
_LM_LAMBDA_CEILING = 1e12


@dataclass
class FitConfig:
    """Start, box and budget of one fit. ``lm_fit`` reads ``initial``,
    ``lower``, ``upper``, ``max_iterations`` and ``tolerance``; the
    remaining fields configure ``adam_fit`` only."""

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
    trace: np.ndarray  # loss at the start and after each iteration, trace[-1] == loss
    iterations: int
    converged: bool
    evaluations: int  # objective or residual evaluations, rejected trials included
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
        evaluations=len(trace),
    )


def _sum_squares(residual: np.ndarray) -> float:
    return float(np.sum(residual * residual))


def lm_fit(residuals: Callable, config: FitConfig) -> FitResult:
    """Minimize ``‖r(p)‖²`` inside a parameter box, where
    ``residuals(p) -> (r, J)`` gives the residual vector and its
    ``(N, n_p)`` Jacobian.

    Each step solves (JᵀJ + λ·diag(JᵀJ)) δ = −Jᵀr and clips p + δ to
    ``[lower, upper]``; a parameter on a bound that the gradient pushes
    outward keeps δ = 0 and drops out of the system. A trial whose loss
    is not lower, or not finite, is rejected and λ grows; an accepted
    one shrinks λ by the gain ratio of actual to predicted reduction
    (Nielsen 1999). Converged when an accepted step lowers the loss by
    less than ``config.tolerance`` relative, or when no λ below a fixed
    ceiling lowers it; not converged when ``config.max_iterations``
    steps ran.
    Raises FitDivergedError for a non-finite start or Jacobian.
    """
    p = config.initial.copy()
    r, jac = residuals(p)
    loss = _sum_squares(r)
    if not np.isfinite(loss):
        raise FitDivergedError("non-finite starting loss", iteration=0)
    trace = [loss]
    evaluations = 1
    lam, grow = _LM_LAMBDA_START, 2.0
    converged = False

    while len(trace) <= config.max_iterations:
        jtj = jac.T @ jac
        g = jac.T @ r
        if not (np.all(np.isfinite(jtj)) and np.all(np.isfinite(g))):
            raise FitDivergedError("non-finite Jacobian", iteration=len(trace) - 1)
        # A parameter on a bound that the gradient pushes outward stays
        # there for this step, so that the free ones take the full
        # step of their own subsystem rather than a clipped share of a
        # joint one. A parameter the curve does not depend on here gets
        # unit scale, as in MINPACK, so the damped system stays regular.
        free = ~(((p <= config.lower) & (g > 0)) | ((p >= config.upper) & (g < 0)))
        jtj_free, g_free = jtj[np.ix_(free, free)], g[free]
        scale = np.diag(jtj_free).copy()
        scale[scale == 0.0] = 1.0
        delta = np.zeros_like(p)
        while lam <= _LM_LAMBDA_CEILING:
            delta[free] = np.linalg.solve(jtj_free + np.diag(lam * scale), -g_free)
            trial = np.clip(p + delta, config.lower, config.upper)
            r, jac = residuals(trial)
            evaluations += 1
            new_loss = _sum_squares(r)
            if new_loss < loss:  # False for NaN
                break
            lam *= grow
            grow *= 2.0
        else:  # no damping below the ceiling lowers the loss
            converged = True
            break
        step = trial - p
        predicted = -(2.0 * step @ g + step @ jtj @ step)
        rho = (loss - new_loss) / predicted if predicted > 0 else 1.0
        lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), _LM_LAMBDA_FLOOR)
        grow = 2.0
        converged = loss - new_loss < config.tolerance * loss
        p, loss = trial, new_loss
        trace.append(loss)
        if converged:
            break

    return FitResult(
        params=p,
        loss=loss,
        trace=np.asarray(trace),
        iterations=len(trace) - 1,
        converged=converged,
        evaluations=evaluations,
    )


def _residuals(curve: Callable, jacobian: Callable, data: Dataset) -> Callable:
    """``evaluate(p) -> (residual, jac)`` for one curve on ``data``.

    The curve reads each column of ``data.X`` as one input argument;
    the residual is its value minus the single column of ``data.Y``,
    and ``jac`` its ``(N, n_p)`` parameter Jacobian.
    """
    if data.Y.shape[1] != 1:
        raise DataError(f"a least-squares stage fits one output column, got {data.Y.shape[1]}")
    columns, y = data.X.T, data.Y[:, 0]

    def evaluate(p):
        p = np.asarray(p, dtype=float)
        return curve(*columns, p) - y, jacobian(*columns, p)

    return evaluate


# --- stages: the curve each one fits and its default setup -------------


def _field_names(group) -> tuple[str, ...]:
    return tuple(f.name for f in fields(group))


class _Stage(NamedTuple):
    curve: Callable  # models.<curve>
    jacobian: Callable  # models.<curve>_jacobian
    names: tuple[str, ...]  # parameter names in fit-vector order
    initial: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    budget: int  # iteration budget


# Guesses are order-of-magnitude values a practitioner would read off a
# plot of the data; default_config overrides any of them. The two
# blended-sigmoid families crawl along shallow coupled valleys and get
# longer budgets (their datasets are small, so this is cheap).
_STAGES = {
    "friction": _Stage(models.friction_force, models.friction_force_jacobian,
                       _field_names(FrictionParams),
                       (1.0, 10.0, 0.1), (1e-3, 1e-3, 0.0), (20.0, 100.0, 10.0), 20000),
    "motor": _Stage(models.motor_force, models.motor_force_jacobian, _field_names(MotorParams),
                    (20.0, 5.0, -0.1), (1e-3, 1e-3, -0.99), (100.0, 100.0, 0.0), 20000),
    "steering": _Stage(models.steering_angle, models.steering_angle_jacobian,
                       _field_names(SteeringParams),
                       (1.0, 1.0, 0.0, 1.0, 1.0), (1e-3, 1e-3, -0.9, 1e-3, 1e-3),
                       (3.0, 5.0, 0.9, 3.0, 5.0), 40000),
    "front_tire": _Stage(models.pacejka_lateral, models.pacejka_lateral_jacobian,
                         _field_names(TireParams)[:4],
                         (3.0, 1.0, 1.0, 0.0), (1e-3, 0.05, 1e-3, -10.0),
                         (20.0, 2.0, 20.0, 0.99), 30000),
    "rear_tire": _Stage(models.rear_lateral, models.rear_lateral_jacobian,
                        _field_names(TireParams)[4:], (1.0,), (1e-3,), (100.0,), 20000),
}


def default_config(sub_model: str, **overrides) -> FitConfig:
    """The stage's default setup with ``overrides`` applied, all validated."""
    if sub_model not in _STAGES:
        raise ConfigError(f"unknown sub-model {sub_model!r}")
    unknown = set(overrides) - {f.name for f in fields(FitConfig)}
    if unknown:
        raise ConfigError(f"unknown FitConfig field {sorted(unknown)[0]!r}")
    stage = _STAGES[sub_model]
    return FitConfig(**{"initial": stage.initial, "lower": stage.lower, "upper": stage.upper,
                        "max_iterations": stage.budget, **overrides})


def _stage_residuals(sub_model: str, data: Dataset) -> Callable:
    stage = _STAGES[sub_model]
    return _residuals(stage.curve, stage.jacobian, data)


def submodel_objective(sub_model: str, data: Dataset) -> Callable:
    """``objective(p) -> (loss, grad)`` for ``adam_fit``: the stage's
    squared-error loss against ``data`` and its gradient 2·Jᵀr."""
    evaluate = _stage_residuals(sub_model, data)

    def objective(p):
        residual, jac = evaluate(p)
        return _sum_squares(residual), 2.0 * np.einsum("i,ik->k", residual, jac)

    return objective


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
    names = _STAGES[sub_model].names
    residual, jac = _stage_residuals(sub_model, data)(params)
    grad = 2.0 * np.einsum("i,ik->k", residual, jac)
    # JᵀJ = V diag(s²) Vᵀ from the SVD of J, which keeps the small
    # singular values that forming JᵀJ would square away. With fewer
    # rows than parameters JᵀJ is singular.
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    dof = residual.size - params.size
    sigma2 = _sum_squares(residual) / dof if dof > 0 else np.nan
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


def _fit(sub_model: str, data: Dataset, convert: Callable):
    config = default_config(sub_model)
    result = lm_fit(_stage_residuals(sub_model, data), config)
    result = replace(result, diagnostics=fit_diagnostics(sub_model, data, result.params, config))
    return convert(result.params), result


def fit_friction(data: Dataset):
    return _fit("friction", data, lambda p: FrictionParams(*p))


def fit_motor(data: Dataset):
    return _fit("motor", data, lambda p: MotorParams(*p))


def fit_steering(data: Dataset):
    return _fit("steering", data, lambda p: SteeringParams(*p))


def fit_front_tire(data: Dataset):
    """Returns the magic-formula coefficients; C_r is fitted separately."""
    return _fit("front_tire", data, lambda p: p)


def fit_rear_tire(data: Dataset):
    return _fit("rear_tire", data, lambda p: float(p[0]))
