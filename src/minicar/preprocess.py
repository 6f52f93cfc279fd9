"""Signal conditioning used before numerical differentiation."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError
from .models import body_frame_velocity

# Moving-average width applied to encoder speed, yaw rate and pose
# tracks before differentiation.
SMOOTH_WINDOW = 5


def _window_sums(series: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum and row count of each row's window of ``half`` rows per side,
    clipped at the ends, by one cumulative sum."""
    csum = np.concatenate(([0], np.cumsum(series)))
    idx = np.arange(series.size)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, series.size)
    return csum[hi] - csum[lo], hi - lo


def smooth(series, window: int) -> np.ndarray:
    """Moving average with shrinking windows at the edges.

    Keeps the length and leaves constant series untouched. ``window``
    must be odd so the average stays centered.
    """
    series = np.asarray(series, dtype=float)
    n = series.size
    if window < 1 or window % 2 == 0:
        raise ConfigError(f"smoothing window must be a positive odd count, got {window}")
    if window > n:
        raise ConfigError(f"smoothing window {window} exceeds series length {n}")
    if window == 1:
        return series.copy()
    total, count = _window_sums(series, window // 2)
    return total / count


def differentiate(series, t) -> np.ndarray:
    """Numerical time derivative: central in the interior, one-sided at the ends."""
    series = np.asarray(series, dtype=float)
    t = np.asarray(t, dtype=float)
    if series.size != t.size:
        raise ConfigError("series and t must have equal length")
    if series.size < 3:
        raise DataError("need at least 3 samples to differentiate")
    if np.any(np.diff(t) <= 0):
        raise DataError("time must be strictly increasing")
    out = np.empty_like(series)
    out[1:-1] = (series[2:] - series[:-2]) / (t[2:] - t[:-2])
    out[0] = (series[1] - series[0]) / (t[1] - t[0])
    out[-1] = (series[-1] - series[-2]) / (t[-1] - t[-2])
    return out


def pose_velocities(t, x, y, eta) -> tuple:
    """``(eta, vx, vy, v_x, v_y)`` of a pose track: the heading smoothed
    over SMOOTH_WINDOW, the derivative of the smoothed position and that
    velocity rotated into the body frame by the smoothed heading."""
    x, y, eta = (smooth(track, SMOOTH_WINDOW) for track in (x, y, eta))
    vx, vy = differentiate(x, t), differentiate(y, t)
    return (eta, vx, vy, *body_frame_velocity(vx, vy, eta))


def erode_mask(mask, guard: int) -> np.ndarray:
    """Shrink the True regions of a boolean mask by ``guard`` samples per side.

    Used to keep differentiation stencils from straddling command
    transitions: a row survives only if no row of its window of
    ``guard`` rows per side, clipped at the ends, is False.
    """
    mask = np.asarray(mask, dtype=bool)
    if guard < 0:
        raise ConfigError("guard must be non-negative")
    return _window_sums(~mask, guard)[0] == 0


def rolling_stats(series, window: int):
    """Centered rolling mean and standard deviation (edges use shrunk windows)."""
    series = np.asarray(series, dtype=float)
    mean = smooth(series, window)
    sq_mean = smooth(series * series, window)
    var = np.maximum(sq_mean - mean * mean, 0.0)
    return mean, np.sqrt(var)


def _local_cubic_kernels(window: int, size: int):
    # least-squares cubic over a symmetric window of a series of ``size``;
    # row 0 of the pseudo-inverse evaluates the fit at the center, row 1 its slope
    if window < 5 or window % 2 == 0:
        raise ConfigError(f"local polynomial window must be odd and >= 5, got {window}")
    if window > size:
        raise ConfigError(f"window {window} exceeds series length {size}")
    half = window // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    design = np.vander(offsets, 4, increasing=True)
    pinv = np.linalg.pinv(design)
    return pinv[0], pinv[1]


def local_poly_value(series, window: int) -> np.ndarray:
    """Cubic local-polynomial (Savitzky-Golay) smoothing.

    Unlike the plain moving average this is exact on cubics, so it does
    not flatten curved stretches of signal. Needs window >= 5 (odd) and
    a uniform sample grid; the window//2 samples at each edge are not
    trustworthy and callers are expected to trim them.
    """
    series = np.asarray(series, dtype=float)
    value_kernel, _ = _local_cubic_kernels(window, series.size)
    return np.convolve(series, value_kernel[::-1], mode="same")


def local_poly_derivative(series, dt: float, window: int) -> np.ndarray:
    """First derivative from a cubic local-polynomial fit.

    Central differences of a moving-averaged signal carry a bias that
    grows with window size times signal curvature; the cubic fit is
    exact through third-order terms and keeps sharp bends unbiased
    while still averaging noise over the window. Same edge caveat as
    local_poly_value.
    """
    series = np.asarray(series, dtype=float)
    if dt <= 0:
        raise ConfigError("dt must be positive")
    _, slope_kernel = _local_cubic_kernels(window, series.size)
    return np.convolve(series, slope_kernel[::-1], mode="same") / dt
