"""Scenario simulation with actuation delays and log synthesis.

Scenario inputs are open loop, so every command is sampled before
integration starts. Actuation delay is then a shift of the sampled
command series (``delay.delay_shift``), and the delayed steering
command is mapped to a road-wheel angle once per series. Scenarios
that share a model and a time step advance together as one
``(B, n_state)`` batch of RK4 steps, with the commands of each step
frozen (zero-order hold); ``simulate`` is the batch of one. The net
longitudinal force is re-evaluated from the motor and friction curves
inside every RK4 stage, since it depends on the evolving speed. Both
the commanded and the applied input series are recorded.

The dynamic model can run with either slip-angle convention. The
default raw-velocity form is regular at standstill and needs no special
casing; the normalized form is singular as v_x -> 0, so below a blend
speed the simulator falls back to kinematic propagation, row by row,
and pins (v_y, omega) to their rigid-rolling values.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
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


def _kinematic_rolling(v_x, delta, geom):
    """(v_y, omega) of a rigidly rolling bicycle at the CoM."""
    omega = v_x * np.tan(delta) / geom.l
    return omega * geom.l_r, omega


def simulate(scenario: Scenario, params: VehicleParams, *, normalized: bool = False,
             blend_speed: float = BLEND_SPEED) -> Trajectory:
    """Integrate a scenario and record states plus both input series."""
    return simulate_batch([scenario], params, normalized=normalized,
                          blend_speed=blend_speed)[0]


def simulate_batch(scenarios: Sequence[Scenario], params: VehicleParams, *,
                   normalized: bool = False, blend_speed: float = BLEND_SPEED,
                   on_done: Callable[[int, Trajectory], object] | None = None) -> list:
    """Integrate scenarios, each group sharing (model, dt) as one batch.

    Returns one entry per scenario, in input order: its Trajectory, or
    what ``on_done(index, trajectory)`` returned for it. ``on_done``
    runs as soon as a trajectory is complete, shortest first, so a
    caller that writes each one out need not hold them all.
    """
    scenarios = list(scenarios)
    results: list = [None] * len(scenarios)
    groups: dict[tuple[str, float], list[int]] = {}
    for i, scenario in enumerate(scenarios):
        groups.setdefault((scenario.model, scenario.dt), []).append(i)
    for members in groups.values():
        # longest first, so the rows still integrating are always a prefix
        members.sort(key=lambda i: -scenarios[i].times.size)

        def done(row: int, traj: Trajectory, members=members) -> None:
            i = members[row]
            results[i] = traj if on_done is None else on_done(i, traj)

        _integrate([scenarios[i] for i in members], params, normalized, blend_speed, done)
    return results


def _integrate(rows: list[Scenario], params: VehicleParams, normalized: bool,
               blend_speed: float, done: Callable[[int, Trajectory], None]) -> None:
    """RK4 over rows sorted by decreasing length; ``done(row, traj)`` as each ends."""
    geom = params.geometry
    model, dt = rows[0].model, rows[0].dt
    dynamic = model == "dynamic"
    times = rows[0].times  # every row's grid is a prefix of the longest
    lengths = [scenario.times.size for scenario in rows]

    def applied(tau_cmd, s_cmd):
        return (delay_shift(tau_cmd, params.delays.long_delay, dt),
                delay_shift(s_cmd, params.delays.steer_delay, dt))

    # Time-major applied inputs, so each step reads one contiguous row.
    # Rows keep only their commands and states; the applied series are
    # shifted again when a row ends, which is cheap, rather than held,
    # which would add to peak memory.
    tau_app = np.zeros((times.size, len(rows)))
    delta = np.zeros((times.size, len(rows)))
    commands, outputs = [], []
    for j, scenario in enumerate(rows):
        tau_cmd, s_cmd = scenario.sample_inputs()
        n = lengths[j]
        tau, s = applied(tau_cmd, s_cmd)
        tau_app[:n, j] = tau
        delta[:n, j] = models.steering_angle(s, params.steering)
        states = np.empty((n, 6 if dynamic else 4))
        states[0] = scenario.initial_state
        commands.append((tau_cmd, s_cmd))
        outputs.append(states)

    def trajectory(j: int, n: int) -> Trajectory:
        # a finished row hands its own arrays over; a partial one copies
        t, tau_cmd, s_cmd, states = (
            a if a.shape[0] == n else a[:n].copy() for a in (times, *commands[j], outputs[j])
        )
        tau, s = applied(tau_cmd, s_cmd)
        return Trajectory(model=model, t=t, states=states, commanded_tau=tau_cmd,
                          commanded_s=s_cmd, applied_tau=tau, applied_s=s)

    def advance(y, tau_k, delta_k, t, rhs_of, index):
        def net_force(v_long):
            # v (kinematic) and v_x (dynamic) share state slot 3
            return models.motor_force(tau_k, v_long, params.motor) + models.friction_force(
                v_long, params.friction
            )

        try:
            return rk4_step(lambda s: rhs_of(s, delta_k, net_force(s[:, 3])), y, dt, t=t)
        except IntegrationError as exc:
            if not exc.rows:
                raise
            name = rows[index[exc.rows[0]]].name
            raise IntegrationError(f"{exc} in scenario {name!r}") from exc

    def kinematic_rhs(y, delta_k, force):
        return models.kinematic_rhs(y, delta_k, force, geom)

    def dynamic_rhs(y, delta_k, force):
        return models.dynamic_rhs(y, delta_k, force, params, normalized=normalized)

    y = np.array([scenario.initial_state for scenario in rows])
    m = len(rows)
    all_rows = np.arange(m)
    for k in range(times.size):
        while m and lengths[m - 1] <= k + 1:
            m -= 1
            done(m, trajectory(m, lengths[m]))
            commands[m] = outputs[m] = None
        if m == 0:
            break
        y = y[:m]
        tau_k, delta_k, t = tau_app[k, :m], delta[k, :m], float(times[k])
        slow = (y[:, 3] < blend_speed) if dynamic and normalized else None
        if slow is None or not slow.any():
            nxt = advance(y, tau_k, delta_k, t, dynamic_rhs if dynamic else kinematic_rhs,
                          all_rows)
        else:
            # kinematic fallback where the normalized slip form is singular
            nxt = np.empty_like(y)
            lo, hi = np.flatnonzero(slow), np.flatnonzero(~slow)
            kin = advance(y[lo, :4], tau_k[lo], delta_k[lo], t, kinematic_rhs, lo)
            nxt[lo, :4] = kin
            nxt[lo, 4], nxt[lo, 5] = _kinematic_rolling(kin[:, 3], delta_k[lo], geom)
            if hi.size:
                nxt[hi] = advance(y[hi], tau_k[hi], delta_k[hi], t, dynamic_rhs, hi)

        sane = np.abs(nxt) <= DIVERGENCE_LIMIT  # False for NaN too
        if not sane.all():
            j = int(np.flatnonzero(~sane.all(axis=1))[0])
            raise SimulationDiverged(
                f"state left the sane envelope in scenario {rows[j].name!r}",
                t=float(times[k + 1]),
                trajectory=trajectory(j, k + 1),
            )
        for j in range(m):
            outputs[j][k + 1] = nxt[j]
        y = nxt


def trajectory_yaw_rate(traj: Trajectory, params: VehicleParams) -> np.ndarray:
    """The yaw rate an IMU would report along a trajectory."""
    if traj.model == "dynamic":
        return traj.states[:, 5].copy()
    delta = models.steering_angle(traj.applied_s, params.steering)
    return traj.states[:, 3] * np.tan(delta) / params.geometry.l


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
