"""Fixed-step ODE integration."""

from __future__ import annotations

from math import isfinite

import numpy as np

from .errors import IntegrationError


def _all_finite(state) -> bool:
    """Whether every component of ``state``, floats or arrays of rows,
    is finite."""
    if state[0].__class__ is float:
        return all(map(isfinite, state))
    return all(bool(np.isfinite(y).all()) for y in state)


def rk4_step(rhs, state, dt: float, t: float = 0.0) -> list:
    """One classical 4th-order Runge-Kutta step of ``dt`` seconds.

    A state is a sequence of components, each a float or an array of
    independent rows, and ``rhs`` maps a state to the sequence of its
    derivative components; the step returns the next state as a list.
    ``rhs`` sees only the state; inputs are held constant over the step
    (zero-order hold), matching discrete command transmission on the
    robot. ``t`` is used for diagnostics only.

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
    if not _all_finite(out):
        raise IntegrationError(f"non-finite derivative or state at t={t:.6f} s")
    return out
