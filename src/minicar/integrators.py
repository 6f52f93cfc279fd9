"""Fixed-step ODE integration.

``rk4_step`` advances a whole state by one classical Runge-Kutta step.
A component whose derivative depends on nothing but itself and an input
held over each step can instead be integrated on its own
(``rk4_scalar_stages``), as can three of them (``rk4_tuple_stages``,
whose law refuses a step by raising); both stop after the first state
beyond a limit and before a refused step. A component whose stage
derivatives are then known for every step needs no step loop at all:
``rk4_stage_points`` gives its value at each stage and
``rk4_accumulate`` its series. All of them combine the
stages exactly as ``rk4_step`` does, with the same weights and the same order
of operations, so the states they give are bit for bit those of
repeated ``rk4_step`` calls.
"""

from __future__ import annotations

from array import array

import numpy as np

from .errors import ConfigError, DataError, IntegrationError


def non_finite_state() -> IntegrationError:
    """The error for a step that ends non-finite, placed by ``MinicarError.at``."""
    return IntegrationError("non-finite derivative or state")


def rk4_step(rhs, state, dt: float) -> list:
    """One classical 4th-order Runge-Kutta step of ``dt`` seconds.

    A state is a sequence of components, each an array of independent
    rows, and ``rhs`` maps a state to the sequence of its derivative
    components; the step returns the next state as a list. ``rhs`` sees
    only the state; inputs are held constant over the step (zero-order
    hold), matching discrete command transmission on the robot.

    The returned state is finite, or the step raises IntegrationError.
    Every stage derivative enters the update with the weight dt/6 > 0,
    so a non-finite derivative anywhere in the step shows up there, as
    does a non-finite input state.
    """
    if dt <= 0:
        raise IntegrationError(f"dt must be positive, got {dt}")
    half = 0.5 * dt
    k1 = rhs(state)
    k2 = rhs([y + half * k for y, k in zip(state, k1)])
    k3 = rhs([y + half * k for y, k in zip(state, k2)])
    k4 = rhs([y + dt * k for y, k in zip(state, k3)])
    sixth = dt / 6.0
    out = [y + sixth * (a + 2.0 * b + 2.0 * c + d)
           for y, a, b, c, d in zip(state, k1, k2, k3, k4)]
    if not all(np.isfinite(y).all() for y in out):
        raise non_finite_state()
    return out


def rk4_scalar_stages(rate, y: float, inputs, dt: float, limit: float) -> tuple[array, float]:
    """RK4 steps of a scalar ODE ``dy/dt = rate(u, y)`` on Python floats,
    one step per input ``u`` of ``inputs``, each held over its step.

    Returns the four stage values ``y`` took in each step (the values
    ``rate`` was called at), flat in an ``array("d")`` that holds no
    float objects, and the value after the last step. Stops after the
    first step whose result lies outside [-limit, limit], as a
    non-finite one does for a finite ``limit``; the caller tells the
    two apart, and ends ``inputs`` before a step it refuses.
    """
    half, sixth = 0.5 * dt, dt / 6.0
    stages = array("d")
    for u in inputs:
        a = rate(u, y)
        y2 = y + half * a
        b = rate(u, y2)
        y3 = y + half * b
        c = rate(u, y3)
        y4 = y + dt * c
        d = rate(u, y4)
        stages.extend((y, y2, y3, y4))
        y = y + sixth * (a + 2.0 * b + 2.0 * c + d)
        if not -limit <= y <= limit:
            break
    return stages, y


def rk4_tuple_stages(law, y: tuple, inputs, dt: float,
                     limit: float) -> tuple[array, tuple, Exception | None]:
    """``rk4_scalar_stages`` for a state ``y`` of three floats. ``law(u, y)``
    gives the step from ``y`` under ``u`` its right-hand side ``rhs(u, s)``,
    the three derivatives at a state ``s``, and a function that settles the
    state the step ends in, or None. Stages are flat in step, stage and
    component order. The law, or the right-hand side in any stage, refuses
    the step by raising ConfigError or DataError: the run then ends before
    that step, and the refusal comes back third, else None."""
    half, sixth = 0.5 * dt, dt / 6.0
    stages = array("d")
    p, q, r = y
    for u in inputs:
        try:
            rhs, settle = law(u, y)
            a = rhs(u, y)
            y2 = (p + half * a[0], q + half * a[1], r + half * a[2])
            b = rhs(u, y2)
            y3 = (p + half * b[0], q + half * b[1], r + half * b[2])
            c = rhs(u, y3)
            y4 = (p + dt * c[0], q + dt * c[1], r + dt * c[2])
            d = rhs(u, y4)
        except (ConfigError, DataError) as refusal:
            return stages, y, refusal
        stages.extend((p, q, r, *y2, *y3, *y4))
        y = (p + sixth * (a[0] + 2.0 * b[0] + 2.0 * c[0] + d[0]),
             q + sixth * (a[1] + 2.0 * b[1] + 2.0 * c[1] + d[1]),
             r + sixth * (a[2] + 2.0 * b[2] + 2.0 * c[2] + d[2]))
        if settle is not None:
            y = settle(y)
        p, q, r = y
        if not (-limit <= p <= limit and -limit <= q <= limit and -limit <= r <= limit):
            break
    return stages, y, None


def rk4_stage_points(series: np.ndarray, k: np.ndarray, dt: float) -> np.ndarray:
    """The four stage values of one state component in each of n steps.

    ``series`` holds the component at the n + 1 step boundaries and
    ``k`` its (4, n) stage derivatives; row j of the result is the
    value the component takes in stage j + 1.
    """
    y, half = series[:-1], 0.5 * dt
    return np.stack((y, y + half * k[0], y + half * k[1], y + dt * k[2]))


def rk4_accumulate(y0: float, k: np.ndarray, dt: float) -> np.ndarray:
    """The n + 1 values of one state component from ``y0`` over n steps
    whose (4, n) stage derivatives ``k`` are known.

    ``np.add.accumulate`` adds the step increments strictly in
    sequence, so each value is what the float recurrence
    ``y = y + dt/6 * (k1 + 2 k2 + 2 k3 + k4)`` gives.
    """
    out = np.empty(k.shape[1] + 1)
    out[0] = y0
    a, b, c, d = k
    np.multiply(dt / 6.0, a + 2.0 * b + 2.0 * c + d, out=out[1:])
    return np.add.accumulate(out, out=out)
