"""One-step-ahead prediction error of a fitted model against a log.

Reads any CSV in the RawLog dialect (``read_table``, re-exported from
``logs``), trajectory exports included, in the raw log's one column
vocabulary: speed is ``v_enc`` and yaw rate ``omega_imu``, which an
export writes bit for bit equal to its state columns. The pose is one
whole triple, the export's ``x, y, eta`` or else the motion-capture
``x_t, y_t, eta_t``. Without a ``v_y`` column the dynamic model's
lateral velocity is reconstructed from the pose by the tire dataset's
rule (``preprocess.pose_velocities``), which bounds the achievable
accuracy; exact checks should use trajectory exports. The applied
inputs are ``tau_applied`` and ``s_applied`` together, or else ``tau``
and ``s`` shifted by the parameters' delays.

Every row is predicted at once by the simulator's own step law
(``simulator.held_inputs`` and ``simulator.stepper``) on column arrays,
in the slip-angle convention of the parameters.
"""

from __future__ import annotations

import logging

import numpy as np

from . import models
from .delay import delay_shift
from .errors import ConfigError, DataError, IntegrationError
from .integrators import rk4_step  # unused; perfbench/tracing.py patches it by name
from .logs import APPLIED_COLUMNS, MOCAP_COLUMNS, command_out_of_range, grid_step, read_table
from .params import VehicleParams
from .preprocess import SMOOTH_WINDOW, pose_velocities
from .preprocess import differentiate, smooth  # unused, like rk4_step
from .simulator import held_inputs, stepper

logger = logging.getLogger(__name__)

POSE_COLUMNS = (models.STATE_NAMES["kinematic"][:3], MOCAP_COLUMNS)


def _applied_inputs(table: dict, params: VehicleParams, dt: float):
    for name in ("tau", "s", *APPLIED_COLUMNS):
        if name in table and (bad := command_out_of_range(table[name])) is not None:
            raise DataError(f"{name} must lie in [-1, 1]", row=bad + 1)
    if all(name in table for name in APPLIED_COLUMNS):
        return tuple(table[name] for name in APPLIED_COLUMNS)
    for have, missing in (APPLIED_COLUMNS, APPLIED_COLUMNS[::-1]):
        if have in table:
            raise DataError(f"log has {have} but no {missing} column; a log without the pair "
                            "needs a tau column and an s column")
    for name, article in (("tau", "a"), ("s", "an")):
        if name not in table:
            raise DataError(f"log needs {article} {name} column "
                            f"(or {' and '.join(APPLIED_COLUMNS)})")
    # reconstruct what the actuators saw by shifting the commands
    return (delay_shift(table["tau"], params.delays.long_delay, dt),
            delay_shift(table["s"], params.delays.steer_delay, dt))


def _dt_of(table: dict) -> float:
    t = table.get("t")
    if t is None or t.size < 2:
        raise DataError("log needs a time column with at least two rows")
    return grid_step(t, DataError)


def _logged_states(table: dict, model: str) -> tuple[list, tuple[str, ...]]:
    """The model's states, one column each, and the names of those that
    were logged rather than filled in."""
    for name, article in (("v_enc", "a"), ("omega_imu", "an"))[:1 if model == "kinematic" else 2]:
        if name not in table:
            raise DataError(f"{model} validation needs {article} {name} column")
    speed = table["v_enc"]
    pose = next(([table[name] for name in names] for names in POSE_COLUMNS
                 if all(name in table for name in names)), None)
    if model == "kinematic":
        if pose is None:  # without pose the speed channel is still self-contained
            return [*[np.zeros_like(speed)] * 3, speed], ("v",)
        return [*pose, speed], models.STATE_NAMES[model]
    if pose is None:
        raise DataError("dynamic validation needs an x, y, eta or x_t, y_t, eta_t pose")
    v_y = table.get("v_y")
    if v_y is None:
        if speed.size < SMOOTH_WINDOW:
            raise DataError(f"reconstructing v_y from the pose needs at least {SMOOTH_WINDOW} "
                            f"rows, got {speed.size}")
        logger.warning("no v_y column; reconstructing it from pose by differentiation")
        *_, v_y = pose_velocities(table["t"], *pose)
    return [*pose, speed, v_y, table["omega_imu"]], models.STATE_NAMES[model]


@np.errstate(all="ignore")  # every prediction and RMS is checked to be finite
def one_step_rms(table: dict[str, np.ndarray], params: VehicleParams,
                 model: str) -> dict[str, float]:
    """Per-channel RMS of one-step-ahead predictions along a log whose
    commands lie in [-1, 1]. Rows are stepped as the simulator steps
    them, so an export validates to round-off against the parameters it
    was simulated with. The first failing row raises its step's error placed at its 1-based
    row and time (``MinicarError.at``): IntegrationError if non-finite, ConfigError at
    |delta| >= pi/2, DataError at normalized slip with v_x <= 0; a non-finite RMS DataError."""
    if model not in tuple(models.STATE_NAMES):  # not a dict lookup: the model may be a list
        raise ConfigError(f"unknown model kind {model!r}")
    dt = _dt_of(table)
    tau_app, s_app = _applied_inputs(table, params, dt)
    states, channels = _logged_states(table, model)

    step = stepper(model, params, dt)
    rows = [column[:-1] for column in states]
    inputs = held_inputs(tau_app[:-1], s_app[:-1], params)
    try:
        predicted = step(rows, inputs)
    except (IntegrationError, ConfigError, DataError):  # rows step alone: bisect for the first
        lo, hi = 0, rows[0].size  # the first failing row lies in [lo, hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                step([c[lo:mid] for c in rows], [a[lo:mid] for a in inputs])
                lo = mid
            except (IntegrationError, ConfigError, DataError):
                hi = mid
        try:
            step([c[lo:hi] for c in rows], [a[lo:hi] for a in inputs])
        except (IntegrationError, ConfigError, DataError) as exc:
            raise exc.at(table["t"][lo], row=lo + 1) from None
        raise

    rms = {name: float(np.sqrt(np.mean((y - column[1:]) ** 2))) for name, y, column
           in zip(models.STATE_NAMES[model], predicted, states) if name in channels}
    for name, value in rms.items():
        if not np.isfinite(value):
            raise DataError(f"one-step RMS of channel {name!r} is not finite")
    return rms
