"""Exception types shared across the package."""

from __future__ import annotations

import copyreg


class MinicarError(Exception):
    """Base class for all package-specific errors; carries the offending
    1-based row of the input when known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"{message} (row {row})")
        self.row = row

    def __reduce__(self):
        # Unpickling rebuilds the error from its class, args and attributes,
        # without __init__, whose parameters differ between subclasses.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ParseError(MinicarError):
    """Malformed input file."""


class DataError(MinicarError):
    """A builder or estimator could not extract usable rows from its input."""


class ConfigError(MinicarError):
    """Invalid configuration value."""


class FitDivergedError(MinicarError):
    """A fit started at a non-finite loss or met a non-finite Jacobian."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


class IntegrationError(MinicarError):
    """The integrator was handed a non-finite state or derivative."""


class SimulationDiverged(MinicarError):
    """A simulation left the sane-state envelope.

    The partially completed trajectory is attached so callers can inspect
    what happened up to the failure time.
    """

    def __init__(self, message: str, t: float, trajectory=None):
        super().__init__(f"{message} (t={t:.4f} s)")
        self.t = t
        self.trajectory = trajectory
