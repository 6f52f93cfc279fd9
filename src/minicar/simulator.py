"""Scenario simulation with actuation delays and log synthesis.

Scenario inputs are open loop, so every command is sampled before
integration starts. Actuation delay is then a shift of the sampled
command series (``delay.delay_shift``), and the delayed steering
command is mapped to a road-wheel angle once per series. Each scenario
then advances one RK4 step at a time on Python floats, with the
commands of each step frozen (zero-order hold), through the same model
functions that the dataset and validation code call on arrays. The net
longitudinal force is re-evaluated from the motor and friction curves
inside every RK4 stage, since it depends on the evolving speed. Both
the commanded and the applied input series are recorded.

The dynamic model can run with either slip-angle convention. The
default raw-velocity form is regular at standstill and needs no special
casing; the normalized form is singular as v_x -> 0, so in every step
that starts below a blend speed the simulator falls back to kinematic
propagation and pins (v_y, omega) to their rigid-rolling values.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import models
from .delay import delay_shift
from .errors import ConfigError, IntegrationError, SimulationDiverged
from .integrators import rk4_step
from .logs import MocapBlock, RawLog, format_table
from .params import VehicleParams
from .scenarios import Scenario

# Any state component beyond this magnitude aborts the run: parameter
# sets that unstable are diagnosed faster by failing than by NaNs.
DIVERGENCE_LIMIT = 1e6

# v_x under which normalized-slip dynamics hand over to the kinematic
# model (the raw-velocity form never blends).
BLEND_SPEED = 0.3


@dataclass(frozen=True)
class NoiseSpec:
    """Per-channel additive Gaussian noise levels; the seed is mandatory."""

    seed: int
    v_enc: float = 0.0
    omega_imu: float = 0.0
    mocap_xy: float = 0.0
    mocap_eta: float = 0.0

    def __post_init__(self):
        for name in ("v_enc", "omega_imu", "mocap_xy", "mocap_eta"):
            if getattr(self, name) < 0:
                raise ConfigError(f"noise std {name} must be >= 0")


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
        n = self.t.size
        for a in (
            self.states,
            self.commanded_tau,
            self.commanded_s,
            self.applied_tau,
            self.applied_s,
        ):
            if a.shape[0] != n:
                raise ConfigError("trajectory series must share one length")
            a.setflags(write=False)
        self.t.setflags(write=False)

    def __len__(self) -> int:
        return int(self.t.size)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def state_names(self) -> tuple[str, ...]:
        return (
            models.KINEMATIC_STATE_NAMES
            if self.model == "kinematic"
            else models.DYNAMIC_STATE_NAMES
        )


def simulate(scenario: Scenario, params: VehicleParams, *, normalized: bool = False,
             blend_speed: float = BLEND_SPEED) -> Trajectory:
    """Integrate a scenario and record states plus both input series.

    A non-finite derivative raises IntegrationError. A state beyond
    DIVERGENCE_LIMIT raises SimulationDiverged carrying the trajectory
    up to the last sane state. Both name the scenario.
    """
    geom, dt, times = params.geometry, scenario.dt, scenario.times
    tau_cmd, s_cmd = scenario.sample_inputs()
    tau_app = delay_shift(tau_cmd, params.delays.long_delay, dt)
    s_app = delay_shift(s_cmd, params.delays.steer_delay, dt)
    delta = models.steering_angle(s_app, params.steering)

    def trajectory(states: list) -> Trajectory:
        n = len(states)
        return Trajectory(model=scenario.model, t=times[:n].copy(), states=np.array(states),
                          commanded_tau=tau_cmd[:n].copy(), commanded_s=s_cmd[:n].copy(),
                          applied_tau=tau_app[:n].copy(), applied_s=s_app[:n].copy())

    # Each parameter group is unpacked once, into a tuple the curves read fast.
    motor, friction = tuple(params.motor), tuple(params.friction)
    tau_k = delta_k = 0.0  # the inputs of the current step

    def kinematic_rhs(y):
        return models.kinematic_rhs(y, delta_k, models.net_force(tau_k, y[3], motor, friction),
                                    geom)

    def dynamic_rhs(y):
        return models.dynamic_rhs(y, delta_k, models.net_force(tau_k, y[3], motor, friction),
                                  params, normalized=normalized)

    dynamic = scenario.model == "dynamic"
    fallback = dynamic and normalized
    limit = DIVERGENCE_LIMIT
    y = scenario.initial_state
    states = [y]
    t = times.tolist()
    try:
        for k, (tau_k, delta_k) in enumerate(zip(tau_app[:-1].tolist(), delta[:-1].tolist())):
            if fallback and y[3] < blend_speed:
                # kinematic fallback where the normalized slip form is singular
                y = rk4_step(kinematic_rhs, y[:4], dt, t[k])
                omega = models.kinematic_yaw_rate(y[3], delta_k, geom)
                y += (omega * geom.l_r, omega)
            else:
                y = rk4_step(dynamic_rhs if dynamic else kinematic_rhs, y, dt, t[k])
            if not all(-limit <= v <= limit for v in y):  # False for NaN too
                raise SimulationDiverged(
                    f"state left the sane envelope in scenario {scenario.name!r}",
                    t=t[k + 1], trajectory=trajectory(states))
            states.append(y)
    except IntegrationError as exc:
        raise IntegrationError(f"{exc} in scenario {scenario.name!r}") from exc
    return trajectory(states)


def trajectory_yaw_rate(traj: Trajectory, params: VehicleParams) -> np.ndarray:
    """The yaw rate an IMU would report along a trajectory."""
    if traj.model == "dynamic":
        return traj.states[:, 5].copy()
    delta = models.steering_angle(traj.applied_s, params.steering)
    return models.kinematic_yaw_rate(traj.states[:, 3], delta, params.geometry)


def synthesize_log(scenario: Scenario, params: VehicleParams, noise: NoiseSpec,
                   *, normalized: bool = False, trajectory: Trajectory | None = None) -> RawLog:
    """Simulate a scenario and emit the RawLog a real robot would record.

    Commanded (pre-delay) inputs are logged; sensor channels get
    additive seeded Gaussian noise. The pose block is included only
    when the scenario asks for motion capture. A ``trajectory`` already
    simulated for the scenario is used as is.
    """
    traj = trajectory if trajectory is not None else simulate(scenario, params,
                                                              normalized=normalized)
    rng = np.random.default_rng(noise.seed)
    n = len(traj)

    v = traj.states[:, 3].copy()
    omega = trajectory_yaw_rate(traj, params)
    if noise.v_enc:
        v = v + rng.normal(0.0, noise.v_enc, n)
    if noise.omega_imu:
        omega = omega + rng.normal(0.0, noise.omega_imu, n)

    mocap = None
    if scenario.mocap:
        x = traj.states[:, 0].copy()
        y = traj.states[:, 1].copy()
        eta = traj.states[:, 2].copy()
        if noise.mocap_xy:
            x = x + rng.normal(0.0, noise.mocap_xy, n)
            y = y + rng.normal(0.0, noise.mocap_xy, n)
        if noise.mocap_eta:
            eta = eta + rng.normal(0.0, noise.mocap_eta, n)
        mocap = MocapBlock(x_t=x, y_t=y, eta_t=eta)

    return RawLog(
        t=traj.t.copy(),
        tau=traj.commanded_tau.copy(),
        s=traj.commanded_s.copy(),
        v_enc=v,
        omega_imu=omega,
        mocap=mocap,
        name=scenario.name,
    )


def trajectory_to_csv(traj: Trajectory, params: VehicleParams) -> str:
    """Trajectory as CSV: the RawLog dialect extended with state columns."""
    omega = trajectory_yaw_rate(traj, params)
    header = ["t", "tau", "s", "v_enc", "omega_imu", "tau_applied", "s_applied",
              *traj.state_names]
    columns = [traj.t, traj.commanded_tau, traj.commanded_s, traj.states[:, 3], omega,
               traj.applied_tau, traj.applied_s, *traj.states.T]
    return format_table(header, columns)


def save_trajectory(traj: Trajectory, params: VehicleParams, path: str | Path) -> None:
    Path(path).write_text(trajectory_to_csv(traj, params), encoding="utf-8")
