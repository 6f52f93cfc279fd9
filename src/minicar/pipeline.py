"""Staged identification: friction -> motor -> steering -> delay -> tires.

Each stage consumes the results of the previous ones exactly as the
experiment design requires: motor labels subtract the fitted friction
curve, the steering delay is measured against the fitted static map,
and tire-force labelling needs the steering map and delay to recover
the road-wheel angle from logged commands.

Logs arrive tagged by experiment type:

* ``coast`` - launch then zero throttle, straight line
* ``step``  - throttle steps, straight line
* ``steer`` - constant steering at constant throttle
* ``sine``  - low-frequency sinusoidal steering
* ``mocap`` - circular ramps with pose tracking
"""

from __future__ import annotations

import logging
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from . import datasets as ds
from . import fitting, models
from .delay import estimate_delay_xcorr
from .errors import DataError, MinicarError
from .logs import RawLog
from .params import Delays, Geometry, TireParams, VehicleParams
from .preprocess import smooth

logger = logging.getLogger(__name__)

STAGES = ("friction", "motor", "steering", "delay", "tire")
EXPERIMENT_TAGS = ("coast", "step", "steer", "sine", "mocap")

# Longitudinal actuation delay is not identifiable from driving logs
# alone (it was measured on a bench); carried as a small default.
DEFAULT_LONG_DELAY = 0.01


@dataclass
class StageReport:
    name: str
    status: str  # "fitted" | "skipped" | "failed"
    detail: str = ""
    result: fitting.FitResult | None = None

    @property
    def fitted(self) -> bool:
        return self.status == "fitted"


@dataclass
class PipelineResult:
    params: VehicleParams | None
    stages: list[StageReport] = field(default_factory=list)
    datasets: dict[str, ds.Dataset] = field(default_factory=dict)
    steer_delay: float | None = None

    def stage(self, name: str) -> StageReport:
        for report in self.stages:
            if report.name == name:
                return report
        raise KeyError(name)


def measure_steer_delay(log: RawLog, steering, l: float) -> float:
    """Cross-correlate commanded vs kinematically observed steering angle."""
    v = smooth(log.v_enc, ds.SMOOTH_WINDOW)
    omega = smooth(log.omega_imu, ds.SMOOTH_WINDOW)
    moving = v > ds.V_MIN
    # longest contiguous stretch of valid speed keeps the series uniform
    best_start, best_len, start = 0, 0, None
    for i, ok in enumerate(moving):
        if ok and start is None:
            start = i
        if (not ok or i == len(moving) - 1) and start is not None:
            stop = i + 1 if ok else i
            if stop - start > best_len:
                best_start, best_len = start, stop - start
            start = None
    if best_len < 10:
        raise DataError("sinusoidal log has no usable stretch with v > v_min")
    run = slice(best_start, best_start + best_len)
    commanded = models.steering_angle(log.s[run], steering)
    measured = np.arctan(l * omega[run] / v[run])
    return estimate_delay_xcorr(commanded, measured, log.dt)


def fit_pipeline(
    logs: Mapping[str, Sequence[RawLog]],
    geometry: Geometry,
    *,
    normalized_slip: bool = False,
    stages: Sequence[str] = STAGES,
) -> PipelineResult:
    """Run the staged fits on a tagged log collection.

    ``normalized_slip`` selects the slip-angle convention of the tire
    labels (see ``models.slip_angles``).

    Stages without data are reported as skipped; stages whose
    prerequisites did not fit fail explicitly. ``result.params`` is
    populated once the three kinematic sub-models exist.
    """
    unknown = set(stages) - set(STAGES)
    if unknown:
        raise DataError(f"unknown stages requested: {sorted(unknown)}")
    if not any(logs.get(tag) for tag in EXPERIMENT_TAGS):
        raise DataError("no logs supplied")

    result = PipelineResult(params=None)
    friction = motor = steering = None
    tire = None
    steer_delay = None

    def run_stage(name: str, prerequisite_ok: bool, prerequisite_msg: str, tags: tuple,
                  action):
        if name not in stages:
            result.stages.append(StageReport(name, "skipped", "not requested"))
            return None
        data_logs = [log for tag in tags for log in logs.get(tag, ())]
        if not data_logs:
            msg = f"no logs tagged {' or '.join(tags)}"
            logger.warning("stage %s skipped: %s", name, msg)
            result.stages.append(StageReport(name, "skipped", msg))
            return None
        if not prerequisite_ok:
            logger.warning("stage %s failed: %s", name, prerequisite_msg)
            result.stages.append(StageReport(name, "failed", prerequisite_msg))
            return None
        try:
            return action(data_logs)
        except MinicarError as exc:
            logger.warning("stage %s failed: %s", name, exc)
            result.stages.append(StageReport(name, "failed", str(exc)))
            return None

    def friction_stage(data_logs):
        data = ds.build_friction_dataset(data_logs, geometry.m)
        params, fit = fitting.fit_friction(data)
        result.datasets["friction"] = data
        result.stages.append(StageReport("friction", "fitted", f"{len(data)} rows", fit))
        return params

    def motor_stage(data_logs):
        data = ds.build_motor_dataset(data_logs, geometry.m, friction)
        params, fit = fitting.fit_motor(data)
        result.datasets["motor"] = data
        result.stages.append(StageReport("motor", "fitted", f"{len(data)} rows", fit))
        return params

    def steering_stage(data_logs):
        data = ds.build_steering_dataset(data_logs, geometry.l)
        params, fit = fitting.fit_steering(data)
        result.datasets["steering"] = data
        result.stages.append(StageReport("steering", "fitted", f"{len(data)} segments", fit))
        return params

    def delay_stage(data_logs):
        estimates = [measure_steer_delay(log, steering, geometry.l) for log in data_logs]
        value = float(np.median(estimates))
        result.stages.append(
            StageReport("delay", "fitted", f"{value:.3f} s from {len(estimates)} log(s)")
        )
        return value

    def tire_stage(data_logs):
        interim = VehicleParams(
            friction=friction, motor=motor, steering=steering, geometry=geometry,
            delays=Delays(steer_delay=steer_delay or 0.0, long_delay=DEFAULT_LONG_DELAY),
        )
        front, rear = ds.build_tire_dataset(data_logs, interim, normalized=normalized_slip)
        front_coeffs, front_fit = fitting.fit_front_tire(front)
        c_r, rear_fit = fitting.fit_rear_tire(rear)
        result.datasets["tire_front"] = front
        result.datasets["tire_rear"] = rear
        result.stages.append(
            StageReport("tire", "fitted", f"{len(front)} rows", front_fit)
        )
        result.stages.append(
            StageReport("tire_rear", "fitted", f"{len(rear)} rows", rear_fit)
        )
        D, C, B, E = (float(v) for v in front_coeffs)
        return TireParams(D=D, C=C, B=B, E=E, C_r=c_r)

    friction = run_stage(
        "friction", True, "", ("coast", "step"), friction_stage
    )
    motor = run_stage(
        "motor", friction is not None, "requires a fitted friction curve",
        ("step",), motor_stage,
    )
    steering = run_stage("steering", True, "", ("steer",), steering_stage)
    steer_delay = run_stage(
        "delay", steering is not None, "requires a fitted steering map",
        ("sine",), delay_stage,
    )
    tire = run_stage(
        "tire", steering is not None, "requires a fitted steering map",
        ("mocap",), tire_stage,
    )

    result.steer_delay = steer_delay
    if friction is not None and motor is not None and steering is not None:
        result.params = VehicleParams(
            friction=friction,
            motor=motor,
            steering=steering,
            geometry=geometry,
            delays=Delays(steer_delay=steer_delay or 0.0, long_delay=DEFAULT_LONG_DELAY),
            tire=tire,
        )
    return result
