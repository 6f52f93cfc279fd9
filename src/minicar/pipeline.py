"""Staged identification: friction -> motor -> steering -> delay -> tires.

Each stage consumes the results of the previous ones exactly as the
experiment design requires: motor labels subtract the fitted friction
curve, the steering delay is measured against the fitted static map,
and tire-force labelling needs the steering map and delay to recover
the road-wheel angle from logged commands. ``PLAN`` is the one list of
the stages: each row names a stage, the experiment tags of its logs,
the earlier stages it requires with the failure detail when one of
them has no result, and its action. ``STAGES`` is its names in order
and ``EXPERIMENT_TAGS`` the tags it reads. ``CHAINS`` groups the stages
that ``requires`` links; ``fit_chain`` runs one chain, so chains can run
apart, and ``merge_chains`` joins their results as ``fit_pipeline`` does.

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

from . import datasets as ds
from . import fitting, models
from .delay import estimate_delay_xcorr
from .errors import DataError, MinicarError
from .logs import RawLog, median
from .params import Delays, Geometry, TireParams, VehicleParams
from .preprocess import smooth

logger = logging.getLogger(__name__)

# Longitudinal actuation delay is not identifiable from driving logs
# alone (it was measured on a bench); carried as a small default.
DEFAULT_LONG_DELAY = 0.01

# The stages whose results a VehicleParams cannot do without.
PARAMS_STAGES = ("friction", "motor", "steering")


@dataclass
class StageReport:
    """What became of one stage, or of one curve a stage fitted: the
    fit and the dataset it was fitted to, when there is one."""

    name: str
    status: str  # "fitted" | "skipped" | "failed"
    detail: str = ""
    result: fitting.FitResult | None = None
    data: ds.Dataset | None = None

    @property
    def fitted(self) -> bool:
        return self.status == "fitted"


@dataclass
class PipelineResult:
    params: VehicleParams | None
    stages: list[StageReport] = field(default_factory=list)
    steer_delay: float | None = None


def measure_steer_delay(log: RawLog, steering, l: float) -> float:
    """The delay of ``models.kinematic_steering_angle`` behind the commanded angle."""
    v = smooth(log.v_enc, ds.SMOOTH_WINDOW)
    omega = smooth(log.omega_imu, ds.SMOOTH_WINDOW)
    moving = v > ds.V_MIN
    # the first longest stretch of valid speed keeps the series uniform
    runs = [(a, b) for a, b in ds._constant_runs(moving) if moving[a]]
    start, stop = max(runs, key=lambda run: run[1] - run[0], default=(0, 0))
    if stop - start < ds.MIN_SEGMENT_ROWS:
        raise DataError("sinusoidal log has no usable stretch with v > v_min")
    commanded = models.steering_angle(log.s[start:stop], steering)
    measured = models.kinematic_steering_angle(omega[start:stop], v[start:stop], l)
    return estimate_delay_xcorr(commanded, measured, log.dt)


def _vehicle(values: Mapping[str, object], geometry: Geometry,
             normalized_slip: bool) -> VehicleParams:
    """The vehicle of the stage results so far; None where a stage has none."""
    return VehicleParams(
        friction=values.get("friction"), motor=values.get("motor"),
        steering=values.get("steering"), geometry=geometry,
        delays=Delays(steer_delay=values.get("delay") or 0.0, long_delay=DEFAULT_LONG_DELAY),
        tire=values.get("tire"), normalized_slip=normalized_slip,
    )


def _curve(name: str, data: ds.Dataset, fit, unit: str = "rows"):
    """``fit(data)``'s value and the fitted report ``name`` of it."""
    value, result = fit(data)
    return value, StageReport(name, "fitted", f"{len(data)} {unit}", result, data)


def _delay(logs, vehicle):
    """The median delay over the sinusoidal logs; a log too short to
    smooth, or with no usable stretch, is skipped as the builders do."""
    estimates = []
    for log in logs:
        name = log.name or "<log>"
        if len(log) < ds.SMOOTH_WINDOW:
            logger.info("delay: log %s skipped (shorter than %d rows)", name, ds.SMOOTH_WINDOW)
            continue
        try:
            estimates.append(measure_steer_delay(log, vehicle.steering, vehicle.geometry.l))
        except DataError as exc:
            logger.info("delay: log %s skipped (%s)", name, exc)
    if not estimates:
        raise DataError("no sinusoidal log has a usable stretch with v > v_min")
    value = median(estimates)
    return value, StageReport("delay", "fitted", f"{value:.3f} s from {len(estimates)} log(s)")


def _tire(logs, vehicle):
    front, rear = ds.build_tire_dataset(logs, vehicle)
    coeffs, front_report = _curve("tire", front, fitting.fit_front_tire)
    c_r, rear_report = _curve("tire_rear", rear, fitting.fit_rear_tire)
    return TireParams(*coeffs, C_r=c_r), front_report, rear_report


# (name, tags, requires, failure detail, action), in the order the stages
# run. ``action(logs, vehicle)`` gets the stage's logs and the vehicle of
# the results so far, in the fit's slip convention, and returns the
# stage's result and one fitted StageReport per curve it fits. It looks
# up every builder and fit through its module when it runs.
PLAN = (
    ("friction", ("coast", "step"), (), "", lambda logs, vehicle: _curve(
        "friction", ds.build_friction_dataset(logs, vehicle.geometry.m), fitting.fit_friction)),
    ("motor", ("step",), ("friction",), "requires a fitted friction curve",
     lambda logs, vehicle: _curve("motor", ds.build_motor_dataset(
         logs, vehicle.geometry.m, vehicle.friction), fitting.fit_motor)),
    ("steering", ("steer",), (), "", lambda logs, vehicle: _curve(
        "steering", ds.build_steering_dataset(logs, vehicle.geometry.l), fitting.fit_steering,
        "segments")),
    ("delay", ("sine",), ("steering",), "requires a fitted steering map", _delay),
    ("tire", ("mocap",), ("steering",), "requires a fitted steering map", _tire),
)
STAGES = tuple(row[0] for row in PLAN)
EXPERIMENT_TAGS = tuple(dict.fromkeys(tag for row in PLAN for tag in row[1]))


def _chains() -> tuple[tuple[str, ...], ...]:
    """The stages of PLAN in groups linked by ``requires``, each in PLAN
    order, ordered by their first stage. An action reads only the results
    of its own chain: the tire builder reads the delay, which requires the
    steering map that the tire stage requires too."""
    chains: list[set] = []
    for name, _, requires, *_ in PLAN:
        linked = [chain for chain in chains if not chain.isdisjoint(requires)]
        chains = [chain for chain in chains if chain not in linked] + [{name}.union(*linked)]
    return tuple(sorted((tuple(s for s in STAGES if s in chain) for chain in chains),
                        key=lambda chain: STAGES.index(chain[0])))


CHAINS = _chains()


def check_stages(stages: Sequence[str]) -> None:
    """DataError naming the names in ``stages`` that are not in STAGES."""
    unknown = set(stages) - set(STAGES)
    if unknown:
        raise DataError(f"unknown stages requested: {sorted(unknown)} "
                        f"(the stages are {', '.join(STAGES)})")


def fit_chain(chain: Sequence[str], logs: Mapping[str, Sequence[RawLog]], geometry: Geometry,
              *, normalized_slip: bool = False, stages: Sequence[str] = STAGES):
    """The stage reports of each stage of ``chain``, by name, and the
    results of those that have one, as ``fit_pipeline`` runs them."""
    reports: dict[str, list[StageReport]] = {}
    values: dict[str, object] = {}
    for name, tags, requires, missing, action in PLAN:
        if name not in chain:
            continue
        data_logs = [log for tag in tags for log in logs.get(tag, ())]
        if name not in stages:
            status, detail = "skipped", "not requested"
        elif not data_logs:
            status, detail = "skipped", f"no logs tagged {' or '.join(tags)}"
        elif any(earlier not in values for earlier in requires):
            status, detail = "failed", missing
        else:
            try:
                values[name], *reports[name] = action(data_logs,
                                                      _vehicle(values, geometry, normalized_slip))
            except MinicarError as exc:
                status, detail = "failed", str(exc)
            else:
                continue
        logger.debug("stage %s %s: %s", name, status, detail)
        reports[name] = [StageReport(name, status, detail)]
    return reports, values


def merge_chains(chains, geometry: Geometry, *, normalized_slip: bool = False) -> PipelineResult:
    """The PipelineResult of ``fit_chain``'s result on every chain of CHAINS."""
    reports: dict[str, list[StageReport]] = {}
    values: dict[str, object] = {}
    for chain_reports, chain_values in chains:
        reports.update(chain_reports)
        values.update(chain_values)
    result = PipelineResult(params=None, stages=[r for name in STAGES for r in reports[name]],
                            steer_delay=values.get("delay"))
    if all(name in values for name in PARAMS_STAGES):
        result.params = _vehicle(values, geometry, normalized_slip)
    return result


def fit_pipeline(
    logs: Mapping[str, Sequence[RawLog]],
    geometry: Geometry,
    *,
    normalized_slip: bool = False,
    stages: Sequence[str] = STAGES,
) -> PipelineResult:
    """Run the stages of PLAN in order on a tagged log collection.

    ``normalized_slip`` selects the slip-angle convention of the tire
    labels (see ``models.slip_angles``), which ``result.params`` records.

    A stage not in ``stages`` (its logs are not read) or without logs is
    reported as skipped; a stage whose prerequisites have no result, or
    whose action raises a MinicarError, fails, and a stage that fits
    more than one curve reports each of them only when all fitted.
    ``result.params`` is populated once every stage of PARAMS_STAGES has
    a result.
    """
    check_stages(stages)
    if not any(logs.get(tag) for tag in EXPERIMENT_TAGS):
        raise DataError("no logs supplied")
    return merge_chains([fit_chain(chain, logs, geometry, normalized_slip=normalized_slip,
                                   stages=stages) for chain in CHAINS],
                        geometry, normalized_slip=normalized_slip)
