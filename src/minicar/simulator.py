"""Scenario simulation with actuation delays and log synthesis.

Scenario inputs are open loop, so every command is sampled before
integration starts. Actuation delay is then a shift of the sampled
command series (``delay.delay_shift``), and the delayed steering
command is mapped to a road-wheel angle once per series. Both the
commanded and the applied input series are recorded.

The discrete-time step law is defined here once, for the simulator and
for one-step validation alike: ``held_inputs`` evaluates what stays
fixed over a step (zero-order hold), the throttle gate and the
road-wheel angle with its tan, cos and sin, and ``stepper`` advances
column arrays of rows one ``rk4_step`` under them, on each model's one
law (``models.kinematic_speed_law``, ``models.dynamic_body_law``).
Every state ``simulate`` returns is bit for bit what the laws' float
binding, with ``math``'s tanh, atan and sin, gives one ``rk4_step`` at
a time; ``stepper``'s step, with numpy's, agrees with it within
1e-14 * (1 + |state|).

Both models are integrated in two passes, since neither reads its pose
(x, y, eta) to evolve the rest of its state. Pass 1 steps only that
rest on the same laws on Python floats and records its four stage
values in every step (``rk4_scalar_stages`` for a kinematic speed,
``rk4_tuple_stages`` for a dynamic body state). It is the one place a
run stops: after the first value beyond DIVERGENCE_LIMIT or non-finite,
since no later state can count, and before the first step that would
roll at an angle ``models.steering_refused`` flags or whose normalized
slip angles the law refuses (the law raises, and ``rk4_tuple_stages``
returns the refusal). Pass 2 works on whole-series arrays: the yaw
rate of every stage, the heading as the running sum of each step's RK4
increment (``rk4_accumulate``), then the world-frame velocity at each
stage's heading (``rk4_stage_points``) and the position as its running
sum; ``np.add.accumulate`` adds strictly in sequence. Every one of these
helpers combines the stages in ``rk4_step``'s order, with its weights,
so pass 1 and pass 2 give what repeated ``rk4_step`` calls give, bit
for bit. The earliest offending step decides: within one state a
non-finite component (IntegrationError) beats one beyond
DIVERGENCE_LIMIT (SimulationDiverged), and a run that pass 1 cut short
with every state sane was refused its next step (ConfigError or
DataError, which ``MinicarError.at`` places at its time).

A dynamic scenario runs in the slip-angle convention of its parameters
(``VehicleParams.normalized_slip``). The default raw-velocity form is
regular at standstill and needs no special casing; the normalized form
is singular as v_x -> 0, so a step that starts below BLEND_SPEED rolls:
pass 1 steps only its speed, as the kinematic model does, and pins
(v_y, omega) to their rigid-rolling values after it, and pass 2 gives
it the kinematic yaw rate and velocity along the heading.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import models
from .delay import delay_shift
from .errors import ConfigError, DataError, IntegrationError, SimulationDiverged
from .logs import APPLIED_COLUMNS, REQUIRED_COLUMNS, MocapBlock, RawLog, format_table
from .params import FloatFields, VehicleParams, from_json, read_json_object

if TYPE_CHECKING:  # annotations only: validate and fit never load the scenario library
    from .scenarios import Scenario

# Any state component beyond this magnitude aborts the run: parameter
# sets that unstable are diagnosed faster by failing than by NaNs.
DIVERGENCE_LIMIT = 1e6

# v_x under which normalized-slip dynamics hand over to the kinematic
# model (the raw-velocity form never blends).
BLEND_SPEED = 0.3


def non_finite_state() -> IntegrationError:
    """The error for a step that ends non-finite, placed by ``MinicarError.at``."""
    return IntegrationError("non-finite derivative or state")


def rk4_step(rhs, state, dt: float) -> list:
    """One classical 4th-order Runge-Kutta step of ``dt`` seconds.

    A state is a sequence of components, each an array of independent
    rows, and ``rhs`` maps a state to the sequence of its derivative
    components; the step returns the next state as a list. ``rhs`` sees
    only the state; inputs are held constant over the step (zero-order
    hold), matching discrete command transmission on the robot.

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
    if not all(np.isfinite(y).all() for y in out):
        raise non_finite_state()
    return out


def rk4_scalar_stages(rate, y: float, inputs, dt: float, limit: float) -> tuple[array, float]:
    """RK4 steps of a scalar ODE ``dy/dt = rate(u, y)`` on Python floats,
    one step per input ``u`` of ``inputs``, each held over its step.

    Returns the four stage values ``y`` took in each step (the values
    ``rate`` was called at), flat in an ``array("d")`` that holds no
    float objects, and the value after the last step. Stops after the
    first step whose result lies outside [-limit, limit], as a
    non-finite one does for a finite ``limit``; the caller tells the
    two apart, and ends ``inputs`` before a step it refuses.
    """
    half, sixth = 0.5 * dt, dt / 6.0
    stages = array("d")
    for u in inputs:
        a = rate(u, y)
        y2 = y + half * a
        b = rate(u, y2)
        y3 = y + half * b
        c = rate(u, y3)
        y4 = y + dt * c
        d = rate(u, y4)
        stages.extend((y, y2, y3, y4))
        y = y + sixth * (a + 2.0 * b + 2.0 * c + d)
        if not -limit <= y <= limit:
            break
    return stages, y


def rk4_tuple_stages(law, y: tuple, inputs, dt: float,
                     limit: float) -> tuple[array, tuple, Exception | None]:
    """``rk4_scalar_stages`` for a state ``y`` of three floats. ``law(u, y)``
    gives the step from ``y`` under ``u`` its right-hand side ``rhs(u, s)``,
    the three derivatives at a state ``s``, and a function that settles the
    state the step ends in, or None. Stages are flat in step, stage and
    component order. The law, or the right-hand side in any stage, refuses
    the step by raising ConfigError or DataError: the run then ends before
    that step, and the refusal comes back third, else None."""
    half, sixth = 0.5 * dt, dt / 6.0
    stages = array("d")
    p, q, r = y
    for u in inputs:
        try:
            rhs, settle = law(u, y)
            a = rhs(u, y)
            y2 = (p + half * a[0], q + half * a[1], r + half * a[2])
            b = rhs(u, y2)
            y3 = (p + half * b[0], q + half * b[1], r + half * b[2])
            c = rhs(u, y3)
            y4 = (p + dt * c[0], q + dt * c[1], r + dt * c[2])
            d = rhs(u, y4)
        except (ConfigError, DataError) as refusal:
            return stages, y, refusal
        stages.extend((p, q, r, *y2, *y3, *y4))
        y = (p + sixth * (a[0] + 2.0 * b[0] + 2.0 * c[0] + d[0]),
             q + sixth * (a[1] + 2.0 * b[1] + 2.0 * c[1] + d[1]),
             r + sixth * (a[2] + 2.0 * b[2] + 2.0 * c[2] + d[2]))
        if settle is not None:
            y = settle(y)
        p, q, r = y
        if not (-limit <= p <= limit and -limit <= q <= limit and -limit <= r <= limit):
            break
    return stages, y, None


def rk4_stage_points(series: np.ndarray, k: np.ndarray, dt: float) -> np.ndarray:
    """The four stage values of one state component in each of n steps.

    ``series`` holds the component at the n + 1 step boundaries and
    ``k`` its (4, n) stage derivatives; row j of the result is the
    value the component takes in stage j + 1.
    """
    y, half = series[:-1], 0.5 * dt
    return np.stack((y, y + half * k[0], y + half * k[1], y + dt * k[2]))


def rk4_accumulate(y0: float, k: np.ndarray, dt: float) -> np.ndarray:
    """The n + 1 values of one state component from ``y0`` over n steps
    whose (4, n) stage derivatives ``k`` are known.

    ``np.add.accumulate`` adds the step increments strictly in
    sequence, so each value is what the float recurrence
    ``y = y + dt/6 * (k1 + 2 k2 + 2 k3 + k4)`` gives.
    """
    out = np.empty(k.shape[1] + 1)
    out[0] = y0
    a, b, c, d = k
    np.multiply(dt / 6.0, a + 2.0 * b + 2.0 * c + d, out=out[1:])
    return np.add.accumulate(out, out=out)


@dataclass(frozen=True)
class NoiseSpec(FloatFields):
    """Standard deviations of the additive Gaussian noise on each sensor
    channel, the fields of a noise file."""

    v_enc: float = 0.0
    omega_imu: float = 0.0
    mocap_xy: float = 0.0
    mocap_eta: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        for name, std in self.__dict__.items():
            if std < 0:
                raise ConfigError(f"field {name!r} must be >= 0")


def load_noise(path: str | Path) -> NoiseSpec:
    """The NoiseSpec of a noise file; ConfigError naming the file."""
    return from_json(NoiseSpec, read_json_object(path, "noise"), str(path))


@dataclass(frozen=True)
class Trajectory:
    """Simulated state and input history on a uniform grid."""

    model: str
    t: np.ndarray
    states: np.ndarray  # (N, 4) kinematic or (N, 6) dynamic
    commanded_tau: np.ndarray
    commanded_s: np.ndarray
    applied_tau: np.ndarray
    applied_s: np.ndarray

    def __post_init__(self):
        for a in (self.t, self.states, self.commanded_tau, self.commanded_s, self.applied_tau,
                  self.applied_s):
            a.setflags(write=False)

    def __len__(self) -> int:
        return int(self.t.size)


def simulate(scenario: Scenario, params: VehicleParams) -> Trajectory:
    """Integrate a scenario and record states plus both input series.

    A non-finite state raises IntegrationError, a state beyond DIVERGENCE_LIMIT
    SimulationDiverged carrying the trajectory up to the last sane state, a step that would
    roll at |delta| >= pi/2 ConfigError and one whose normalized slip angles meet v_x <= 0
    DataError, naming its time; the earliest offending step decides. Every error names the
    scenario.
    """
    dt, times = scenario.dt, scenario.times
    tau_cmd, s_cmd = scenario.sample_inputs()
    tau_app = delay_shift(tau_cmd, params.delays.long_delay, dt)
    s_app = delay_shift(s_cmd, params.delays.steer_delay, dt)

    inputs = held_inputs(tau_app[:-1], s_app[:-1], params)
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            if scenario.model == "kinematic":
                states = _kinematic_states(scenario, params, inputs)
            else:
                states = _dynamic_states(scenario, params, inputs)
    except (ConfigError, DataError, IntegrationError) as exc:
        raise type(exc)(f"{exc} in scenario {scenario.name!r}") from exc
    n = len(states)
    traj = Trajectory(model=scenario.model, t=times[:n].copy(), states=states,
                      commanded_tau=tau_cmd[:n].copy(), commanded_s=s_cmd[:n].copy(),
                      applied_tau=tau_app[:n].copy(), applied_s=s_app[:n].copy())
    if n < times.size:
        raise SimulationDiverged(f"state left the sane envelope in scenario {scenario.name!r}",
                                 t=float(times[n]), trajectory=traj)
    return traj


def _kinematic_states(scenario: Scenario, params: VehicleParams, inputs: tuple) -> np.ndarray:
    """A kinematic scenario's states up to the last sane one (``_sane_states``)."""
    gate, delta, tan_delta, _, _ = inputs
    geom = params.geometry
    rate = models.kinematic_speed_law(params)
    steps = int(np.argmax(np.append(models.steering_refused(delta), True)))  # up to a refused one
    stages, v_end = rk4_scalar_stages(rate, scenario.initial_state[3], gate[:steps].tolist(),
                                      scenario.dt, DIVERGENCE_LIMIT)
    v = np.ascontiguousarray(np.frombuffer(stages).reshape(-1, 4).T)  # (4, steps)
    yaw = models.kinematic_yaw_rate(v, tan_delta[:v.shape[1]], geom)
    return _sane_states(scenario, yaw, lambda eta: models.heading_velocity(v, eta), [v], (v_end,),
                        models.steering_refusal())


def _dynamic_states(scenario: Scenario, params: VehicleParams, inputs: tuple) -> np.ndarray:
    """A dynamic scenario's states up to the last sane one (``_sane_states``)."""
    geom, normalized = params.geometry, params.normalized_slip
    rates = models.dynamic_body_law(params)
    rate = models.kinematic_speed_law(params)
    speed_alone = lambda u, s: (rate(u[0], s[0]), 0.0, 0.0)  # a rolling step's rates

    def law(u, body):
        if not (normalized and body[0] < BLEND_SPEED):
            return rates, None
        if models.steering_refused(u[1]):
            raise models.steering_refusal()
        return speed_alone, lambda s: models.rolling_body(s[0], u[2], geom)  # then pinned

    stages, end, refused = rk4_tuple_stages(law, scenario.initial_state[3:],
                                            zip(*(c.tolist() for c in inputs)), scenario.dt,
                                            DIVERGENCE_LIMIT)
    body = np.ascontiguousarray(np.frombuffer(stages).reshape(-1, 4, 3).T)  # (3, 4, steps)
    rolls = (body[0, 0] < BLEND_SPEED) & normalized  # as ``law`` chose
    v_x, v_y, omega = body
    yaw = np.where(rolls, models.kinematic_yaw_rate(v_x, inputs[2][:rolls.size], geom), omega)

    def velocity(eta):
        return [np.where(rolls, kin, dyn) for kin, dyn in zip(
            models.heading_velocity(v_x, eta), models.world_velocity(v_x, v_y, eta))]

    return _sane_states(scenario, yaw, velocity, body, end, refused)


def _sane_states(scenario: Scenario, yaw: np.ndarray, velocity, body, end,
                 refusal: ConfigError | DataError | None) -> np.ndarray:
    """Pass 2 and the one stop rule: the states up to the last sane one
    from the (4, steps) stage yaw rates, ``velocity(stage headings)`` in
    the world frame, and the rest of the state as its stages and its
    value after the last step of pass 1. The earliest offending step
    decides: a non-finite state raises IntegrationError, and a run cut
    short with every state sane was refused its next step by ``refusal``,
    raised placed at that step's time."""
    x0, y0, eta0 = scenario.initial_state[:3]
    dt = scenario.dt
    eta = rk4_accumulate(eta0, yaw, dt)
    vel_x, vel_y = velocity(rk4_stage_points(eta, yaw, dt))
    states = np.column_stack((rk4_accumulate(x0, vel_x, dt), rk4_accumulate(y0, vel_y, dt), eta,
                              *(np.append(c[0], e) for c, e in zip(body, end))))
    finite = np.isfinite(states[1:]).all(axis=1)
    sane = finite & (np.abs(states[1:]) <= DIVERGENCE_LIMIT).all(axis=1)
    if sane.all():
        if len(states) < scenario.times.size:
            raise refusal.at(scenario.times[len(states) - 1])
        return states
    row = int(np.argmin(sane)) + 1  # the earliest offending state
    if not finite[row - 1]:
        raise non_finite_state().at(scenario.times[row - 1])
    return states[:row]


def held_inputs(tau_applied, s_applied, params: VehicleParams) -> tuple:
    """``(gate, delta, tan, cos, sin)``: the throttle gate and the
    road-wheel angle with its ``steering_terms``, which stay fixed over a
    step (zero-order hold)."""
    delta = models.steering_angle(s_applied, params.steering)
    return (models.smooth_positive_throttle(tau_applied, params.motor.g), delta,
            *models.steering_terms(delta))


def stepper(model: str, params: VehicleParams, dt: float):
    """The one step law: ``step(y, u)`` advances the state ``y``
    of ``model`` one ``rk4_step`` of ``dt`` under the ``held_inputs``
    ``u``, both column arrays of rows. A kinematic step raises
    ``models.steering_refusal()`` if any of its angles is refused. Under
    the parameters' normalized slip, a dynamic row that starts below
    BLEND_SPEED propagates the kinematic model instead and pins
    (v_y, omega) to their rigid-rolling values, and a dynamic step raises
    ``models.slip_refusal()`` if any of its slip angles is refused.
    """
    geom = params.geometry
    rate = models.kinematic_speed_law(params, rows=True)

    def kinematic(y, u):
        gate, delta, tan_d, _, _ = u
        if np.any(models.steering_refused(delta)):
            raise models.steering_refusal()
        return rk4_step(lambda s: models.kinematic_rhs(s, gate, tan_d, rate, geom), y, dt)

    if model == "kinematic":
        return kinematic
    rates = models.dynamic_body_law(params, rows=True)

    def dynamic(y, u):
        return rk4_step(lambda s: models.dynamic_rhs(s, u, rates), y, dt)

    def rolling(y, u):
        y = kinematic(y[:4], u)
        return [*y[:3], *models.rolling_body(y[3], u[2], geom)]

    def blended(y, u):
        slow = y[3] < BLEND_SPEED
        out = [np.empty_like(c) for c in y]
        for rows, branch in ((slow, rolling), (~slow, dynamic)):
            if rows.any():
                for o, c in zip(out, branch([c[rows] for c in y], [a[rows] for a in u])):
                    o[rows] = c
        return out

    return blended if params.normalized_slip else dynamic


def trajectory_yaw_rate(traj: Trajectory, params: VehicleParams) -> np.ndarray:
    """The yaw rate an IMU would report along a trajectory."""
    if traj.model == "dynamic":
        return traj.states[:, 5].copy()
    delta = models.steering_angle(traj.applied_s, params.steering)
    return models.kinematic_yaw_rate(traj.states[:, 3], np.tan(delta), params.geometry)


def synthesize_log(scenario: Scenario, params: VehicleParams, noise: NoiseSpec, seed: int,
                   *, trajectory: Trajectory | None = None) -> RawLog:
    """Simulate a scenario and emit the RawLog a real robot would record.

    Commanded (pre-delay) inputs are logged; sensor channels get
    additive Gaussian noise drawn from ``seed``. The pose block is
    included only when the scenario asks for motion capture. A
    ``trajectory`` already simulated for the scenario is used as is.
    """
    traj = trajectory if trajectory is not None else simulate(scenario, params)
    rng = np.random.default_rng(seed)

    def sensed(column, std):
        return column + rng.normal(0.0, std, len(column)) if std else column.copy()

    v = sensed(traj.states[:, 3], noise.v_enc)
    omega = sensed(trajectory_yaw_rate(traj, params), noise.omega_imu)
    mocap = None
    if scenario.mocap:
        mocap = MocapBlock(*(sensed(traj.states[:, i], std) for i, std in
                             enumerate((noise.mocap_xy, noise.mocap_xy, noise.mocap_eta))))
    return RawLog(t=traj.t.copy(), tau=traj.commanded_tau.copy(), s=traj.commanded_s.copy(),
                  v_enc=v, omega_imu=omega, mocap=mocap, name=scenario.name)


def trajectory_to_csv(traj: Trajectory, params: VehicleParams) -> str:
    """Trajectory as CSV: the RawLog dialect extended with state columns."""
    omega = trajectory_yaw_rate(traj, params)
    header = [*REQUIRED_COLUMNS, *APPLIED_COLUMNS, *models.STATE_NAMES[traj.model]]
    columns = [traj.t, traj.commanded_tau, traj.commanded_s, traj.states[:, 3], omega,
               traj.applied_tau, traj.applied_s, *traj.states.T]
    return format_table(header, columns)


def save_trajectory(traj: Trajectory, params: VehicleParams, path: str | Path) -> None:
    Path(path).write_text(trajectory_to_csv(traj, params), encoding="utf-8")
