"""Actuation delay: applying it as a shift and estimating it by cross
correlation."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError

# Physical actuation delays are non-negative and well under half a
# second on servo-class hardware, so the search stops there.
MAX_LAG_S = 0.5


def delay_shift(series, delay: float, dt: float) -> np.ndarray:
    """``series`` as the actuator sees it ``delay`` seconds late.

    The delay is rounded to whole samples and the first sample fills
    the gap, as if the command had been held before the log began. The
    result always has the length of ``series``.
    """
    if delay < 0 or dt <= 0:
        raise ConfigError("delay must be >= 0 and dt > 0")
    series = np.asarray(series, dtype=float)
    n = series.size
    k = min(int(round(delay / dt)), n)
    out = np.empty_like(series)
    out[:k] = series[:1]
    out[k:] = series[: n - k]
    return out


def estimate_delay_xcorr(command, measured, dt: float) -> float:
    """Delay (in seconds) of ``measured`` behind ``command``.

    Returns the non-negative lag that maximizes the normalized cross
    correlation between the demeaned series. Restricting the search to
    lags in [0, MAX_LAG_S] avoids picking an aliased peak one period away
    when the excitation is periodic.
    """
    command = np.asarray(command, dtype=float)
    measured = np.asarray(measured, dtype=float)
    if command.shape != measured.shape:
        raise DataError("command and measured series must have equal length")
    n = command.size
    if n < 10:
        raise DataError(f"need at least 10 samples to estimate a delay, got {n}")
    if dt <= 0:
        raise DataError("dt must be positive")

    c = command - command.mean()
    m = measured - measured.mean()
    c_norm = float(np.sqrt(np.dot(c, c)))
    m_norm = float(np.sqrt(np.dot(m, m)))
    if c_norm == 0.0 or m_norm == 0.0:
        raise DataError("correlation undefined for a zero-variance series")

    max_shift = min(n - 2, int(round(MAX_LAG_S / dt)))
    scores = np.empty(max_shift + 1)
    for k in range(max_shift + 1):
        scores[k] = np.dot(c[: n - k], m[k:]) / (c_norm * m_norm)
    return int(np.argmax(scores)) * dt
