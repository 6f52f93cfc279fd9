"""Bounded Adam least-squares fitting for every sub-model curve.

Each stage fits one curve of ``models`` to a Dataset: the columns of X
are the curve's inputs in argument order, the fit vector holds its
parameters in field order, and ``models.<curve>_jacobian`` gives the
squared-error loss an analytic gradient. No curve formula lives here.
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
from .errors import ConfigError, FitDivergedError
from .params import FrictionParams, MotorParams, SteeringParams


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


def least_squares_objective(curve: Callable, jacobian: Callable, data: Dataset) -> Callable:
    """Wrap a curve and its Jacobian into an ``objective(p) -> (loss, grad)``.

    The curve reads each column of ``data.X`` as one input argument.
    """

    columns = [data.X[:, j:j + 1] for j in range(data.X.shape[1])]
    Y = data.Y

    def objective(p):
        p = np.asarray(p, dtype=float)
        residual = curve(*columns, p) - Y  # (N, n)
        loss = float(np.sum(residual * residual))
        jac = jacobian(*columns, p)  # (N, n, n_p)
        grad = 2.0 * np.einsum("ij,ijk->k", residual, jac)
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
    "friction": (models.friction_force, models.friction_force_jacobian),
    "motor": (models.motor_force, models.motor_force_jacobian),
    "steering": (models.steering_angle, models.steering_angle_jacobian),
    "front_tire": (models.pacejka_lateral, models.pacejka_lateral_jacobian),
    "rear_tire": (models.rear_lateral, models.rear_lateral_jacobian),
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
    curve, jacobian = _SUBMODELS[sub_model]
    return least_squares_objective(curve, jacobian, data)


def _fit(sub_model: str, data: Dataset, config: FitConfig | None, convert: Callable):
    result = adam_fit(submodel_objective(sub_model, data), config or default_config(sub_model))
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
