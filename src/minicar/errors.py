"""Exception types shared across the package. Each is rebuilt from its message
alone, so Python's own pickling carries it, attributes and all, between processes."""

from __future__ import annotations


class MinicarError(Exception):
    """Base class for all package-specific errors; carries the offending
    1-based row of the input when known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"{message} (row {row})")
        self.row = row

    def at(self, t: float, row: int | None = None) -> MinicarError:
        """This error of one step placed at its time ``t`` and, in a log, 1-based ``row``."""
        return type(self)(f"{self} at t={t:.6f} s", row=row)


class ParseError(MinicarError):
    """Malformed input file."""


class DataError(MinicarError):
    """A builder or estimator could not extract usable rows from its input."""


class ConfigError(MinicarError):
    """Invalid configuration value."""


class FitDivergedError(MinicarError):
    """A fit started at a non-finite loss or met a non-finite Jacobian."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message if iteration is None else f"{message} (iteration {iteration})")
        self.iteration = iteration


class IntegrationError(MinicarError):
    """The integrator was handed a non-finite state or derivative."""


class SimulationDiverged(MinicarError):
    """A simulation left the sane-state envelope.

    The partially completed trajectory is attached so callers can inspect
    what happened up to the failure time.
    """

    def __init__(self, message: str, t: float | None = None, trajectory=None):
        super().__init__(message if t is None else f"{message} (t={t:.4f} s)")
        self.t = t
        self.trajectory = trajectory
