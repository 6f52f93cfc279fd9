"""Bounded least-squares fitting for every sub-model curve.

Each stage fits one curve of ``models`` to a Dataset, whose inputs are
the curve's arguments in order: the fit vector holds its parameters in
field order, r = curve(inputs; p) − label is the residual vector and
its analytic Jacobian J comes with the value from one function:
``models.pacejka_lateral_and_jacobian``, or ``models.<curve>`` and
``models.<curve>_jacobian`` side by side. No curve formula lives here.
The stage fits and the diagnostics evaluate r and J the same way.

Every stage is solved by ``lm_fit``, a box-projected
Levenberg–Marquardt method (Marquardt 1963; Moré 1978): each step
solves (JᵀJ + λ·diag(JᵀJ)) δ = −Jᵀr for the parameters not held on a
bound and clips p + δ to the box; a trial that does not lower the loss
is rejected and λ grows, and an accepted one shrinks λ by Nielsen's
(1999) gain-ratio rule. These curves are small, smooth least-squares
problems, so a handful to a few hundred steps reach the optimum.
``FitConfig`` holds the start and the box; the step cap and the stop
are this module's constants.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import models
from .datasets import Dataset
from .errors import ConfigError, FitDivergedError
from .params import FrictionParams, MotorParams, SteeringParams, TireParams


# Levenberg–Marquardt damping λ: its first value; the floor that keeps
# λ·diag(JᵀJ) above rounding, so the damped system stays regular when
# JᵀJ is singular (a long run of good steps would otherwise take λ
# below 1e-16); and the ceiling at which a point no trial step can
# improve counts as converged.
_LM_LAMBDA_START = 1e-3
_LM_LAMBDA_FLOOR = 1e-15
_LM_LAMBDA_CEILING = 1e12
# Accepted steps before a fit stops unconverged, and the relative loss
# decrease below which an accepted step converges.
_LM_MAX_STEPS = 20000
_LM_TOLERANCE = 1e-10


@dataclass
class FitConfig:
    """Start and box of one ``lm_fit``."""

    initial: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if not (self.initial.shape == self.lower.shape == self.upper.shape):
            raise ConfigError("initial, lower and upper must have equal shape")
        if np.any(self.lower > self.upper):
            raise ConfigError("lower bounds exceed upper bounds")
        if np.any(self.initial < self.lower) or np.any(self.initial > self.upper):
            raise ConfigError("initial parameters must lie within bounds")


@dataclass(frozen=True)
class FitResult:
    params: np.ndarray
    loss: float
    trace: np.ndarray  # loss at the start and after each iteration, trace[-1] == loss
    iterations: int
    converged: bool
    evaluations: int  # residual evaluations, rejected trials included
    diagnostics: dict | None = None  # fit_diagnostics at params, set by the fit_* stages


# perfbench/tracing.py looks both names up and calls neither; they go
# with the benchmark's next change.
adam_fit = submodel_objective = None


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
    less than ``_LM_TOLERANCE`` relative, or when no λ below a fixed
    ceiling lowers it; not converged when ``_LM_MAX_STEPS`` steps ran.
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

    while len(trace) <= _LM_MAX_STEPS:
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
        converged = loss - new_loss < _LM_TOLERANCE * loss
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


# --- stages: the curve each one fits and its default setup -------------


def _field_names(group) -> tuple[str, ...]:
    return tuple(f.name for f in fields(group))


def _side_by_side(curve: Callable, jacobian: Callable) -> tuple[Callable, Callable]:
    return curve, lambda *args: (curve(*args), jacobian(*args))


class _Stage(NamedTuple):
    curve: Callable  # models.<curve>
    evaluate: Callable  # (*inputs, p) -> (curve value, (N, n_p) Jacobian)
    names: tuple[str, ...]  # parameter names in fit-vector order
    initial: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]


# Guesses are order-of-magnitude values a practitioner would read off a
# plot of the data.
_STAGES = {
    "friction": _Stage(*_side_by_side(models.friction_force, models.friction_force_jacobian),
                       _field_names(FrictionParams),
                       (1.0, 10.0, 0.1), (1e-3, 1e-3, 0.0), (20.0, 100.0, 10.0)),
    "motor": _Stage(*_side_by_side(models.motor_force, models.motor_force_jacobian),
                    _field_names(MotorParams),
                    (20.0, 5.0, -0.1), (1e-3, 1e-3, -0.99), (100.0, 100.0, 0.0)),
    "steering": _Stage(*_side_by_side(models.steering_angle, models.steering_angle_jacobian),
                       _field_names(SteeringParams),
                       (1.0, 1.0, 0.0, 1.0, 1.0), (1e-3, 1e-3, -0.9, 1e-3, 1e-3),
                       (3.0, 5.0, 0.9, 3.0, 5.0)),
    "front_tire": _Stage(models.pacejka_lateral, models.pacejka_lateral_and_jacobian,
                         _field_names(TireParams)[:4],
                         (3.0, 1.0, 1.0, 0.0), (1e-3, 0.05, 1e-3, -10.0),
                         (20.0, 2.0, 20.0, 0.99)),
    "rear_tire": _Stage(*_side_by_side(models.rear_lateral, models.rear_lateral_jacobian),
                        _field_names(TireParams)[4:], (1.0,), (1e-3,), (100.0,)),
}


def default_config(sub_model: str) -> FitConfig:
    """The stage's start and box."""
    if sub_model not in _STAGES:
        raise ConfigError(f"unknown sub-model {sub_model!r}")
    stage = _STAGES[sub_model]
    return FitConfig(stage.initial, stage.lower, stage.upper)


def _stage_residuals(sub_model: str, data: Dataset) -> Callable:
    """``evaluate(p) -> (r, J)`` for the stage's curve on ``data``: the
    curve's value on ``data.inputs`` minus ``data.label``, and its
    ``(N, n_p)`` parameter Jacobian."""
    stage = _STAGES[sub_model]

    def evaluate(p):
        value, jac = stage.evaluate(*data.inputs, np.asarray(p, dtype=float))
        return value - data.label, jac

    return evaluate


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
        "grad_norm": _finite_or_none(np.linalg.norm(grad)),
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
