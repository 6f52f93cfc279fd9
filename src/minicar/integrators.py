"""Fixed-step ODE integration."""

from __future__ import annotations

import numpy as np

from .errors import IntegrationError


def rk4_step(rhs, state, dt: float, t: float = 0.0) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of ``dt`` seconds.

    ``rhs`` sees only the state; inputs are held constant over the step
    (zero-order hold), matching discrete command transmission on the
    robot. ``t`` is used for diagnostics only. A batch of states, shape
    ``(B, n)``, advances row by row in one call; when a derivative is
    non-finite, the error's ``rows`` lists the rows where it was.
    """
    if dt <= 0:
        raise IntegrationError(f"dt must be positive, got {dt}")
    y = np.asarray(state, dtype=float)
    k1 = np.asarray(rhs(y))
    k2 = np.asarray(rhs(y + 0.5 * dt * k1))
    k3 = np.asarray(rhs(y + 0.5 * dt * k2))
    k4 = np.asarray(rhs(y + dt * k3))
    if not (
        np.all(np.isfinite(k1))
        and np.all(np.isfinite(k2))
        and np.all(np.isfinite(k3))
        and np.all(np.isfinite(k4))
    ):
        finite = np.isfinite(k1) & np.isfinite(k2) & np.isfinite(k3) & np.isfinite(k4)
        rows = tuple(np.flatnonzero(~finite.all(axis=-1)).tolist()) if finite.ndim > 1 else ()
        raise IntegrationError(f"non-finite derivative at t={t:.6f} s", rows=rows)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
