"""Fixed-step ODE integration."""

from __future__ import annotations

import numpy as np

from .errors import IntegrationError


def rk4_step(rhs, state, dt: float, t: float = 0.0) -> list:
    """One classical 4th-order Runge-Kutta step of ``dt`` seconds.

    A state is a sequence of components, each a float or an array of
    independent rows, and ``rhs`` maps a state to the sequence of its
    derivative components; the step returns the next state as a list.
    ``rhs`` sees only the state; inputs are held constant over the step
    (zero-order hold), matching discrete command transmission on the
    robot. ``t`` is used for diagnostics only.
    """
    if dt <= 0:
        raise IntegrationError(f"dt must be positive, got {dt}")
    half = 0.5 * dt
    k1 = rhs(state)
    k2 = rhs([y + half * k for y, k in zip(state, k1)])
    k3 = rhs([y + half * k for y, k in zip(state, k2)])
    k4 = rhs([y + dt * k for y, k in zip(state, k3)])
    # 0 * k is 0 where k is finite and NaN where it is not
    probe = sum(0.0 * k for stage in (k1, k2, k3, k4) for k in stage)
    finite = probe == 0.0 if probe.__class__ is float else bool(np.all(probe == 0.0))
    if not finite:
        raise IntegrationError(f"non-finite derivative at t={t:.6f} s")
    sixth = dt / 6.0
    return [y + sixth * (a + 2.0 * b + 2.0 * c + d)
            for y, a, b, c, d in zip(state, k1, k2, k3, k4)]
