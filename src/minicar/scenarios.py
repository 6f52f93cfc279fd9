"""Input schedules and scripted test scenarios.

A scenario pairs a throttle schedule and a steering schedule with an
integration grid and a model choice. The library batteries mirror the
experiment designs the identification pipeline expects: throttle steps,
coast-downs, a constant-steering grid, low-frequency sinusoidal
steering, and circular ramps driven under the dynamic model with pose
tracking enabled.

Scenario JSON schema::

    {
      "name": "step_0.30",
      "duration": 10.0,
      "dt": 0.01,
      "model": "kinematic",           # or "dynamic"
      "throttle": {"type": "step", "t": 1.0, "before": 0.0, "after": 0.3},
      "steering": {"type": "piecewise", "times": [0.0], "values": [0.0]},
      "initial_state": [0, 0, 0, 0],  # optional, zeros by default
      "mocap": false                  # optional
    }

``dt`` lies in (0, MAX_DT] s, and the grid's round(duration / dt)
steps number from 1 to MAX_SAMPLES - 1 (MAX_SAMPLES = 10**6 samples).

Schedule variants: ``step`` (one switch), ``piecewise`` (zero-order
hold over breakpoints) and ``sine`` (offset + amplitude * sin(2*pi*f*t
+ phase)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .logs import command_out_of_range
from .models import STATE_NAMES
from .params import FloatFields, finite_float, finite_floats, from_json, load_json

MAX_DT = 0.05
# Most samples a scenario grid may hold, its round(duration / dt) steps
# plus one, so that a mistyped duration fails before memory runs out.
MAX_SAMPLES = 10**6


@dataclass(frozen=True)
class StepSchedule(FloatFields):
    t: float
    before: float
    after: float

    def sample(self, times: np.ndarray) -> np.ndarray:
        return np.where(times < self.t, float(self.before), float(self.after))


@dataclass(frozen=True)
class PiecewiseSchedule:
    """Zero-order hold over (time, value) breakpoints."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "times", finite_floats(self.times, "field 'times'"))
        object.__setattr__(self, "values", finite_floats(self.values, "field 'values'"))
        if len(self.times) != len(self.values) or not self.times:
            raise ConfigError("piecewise schedule needs matching, non-empty breakpoints")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ConfigError("piecewise breakpoint times must increase")

    def sample(self, times: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.times, times, side="right") - 1
        return np.asarray(self.values, dtype=float)[np.maximum(idx, 0)]


@dataclass(frozen=True)
class SineSchedule(FloatFields):
    amplitude: float
    frequency: float
    phase: float = 0.0
    offset: float = 0.0

    def sample(self, times: np.ndarray) -> np.ndarray:
        # math.sin per point: np.sin may differ in the last bit, and
        # logs must not change with how the grid is sampled
        return np.array([self.offset + self.amplitude * math.sin(
            2.0 * math.pi * self.frequency * t + self.phase) for t in times.tolist()])


def constant(value: float) -> PiecewiseSchedule:
    return PiecewiseSchedule(times=(0.0,), values=(value,))


SCHEDULE_TYPES = {"step": StepSchedule, "piecewise": PiecewiseSchedule, "sine": SineSchedule}


def schedule_from_json(doc: dict):
    """A schedule from its JSON object; ConfigError naming an unknown
    type, an unknown field or a missing one."""
    if not isinstance(doc, dict):
        raise ConfigError(f"schedule: expected a JSON object, got {type(doc).__name__}")
    kind = doc.get("type")
    schedule = SCHEDULE_TYPES.get(kind) if isinstance(kind, str) else None
    if schedule is None:
        raise ConfigError(f"unknown schedule type {kind!r}")
    return from_json(schedule, doc, f"{kind} schedule", extra=("type",))


@dataclass(frozen=True)
class Scenario:
    name: str
    duration: float
    dt: float
    model: str  # "kinematic" | "dynamic"
    throttle: object
    steering: object
    initial_state: tuple[float, ...] = ()
    mocap: bool = False

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"field 'name' must be a string, got {self.name!r}")
        object.__setattr__(self, "duration", finite_float(self.duration, "field 'duration'"))
        object.__setattr__(self, "dt", finite_float(self.dt, "field 'dt'"))
        if self.duration <= 0:
            raise ConfigError("field 'duration' must be > 0")
        if not 0 < self.dt <= MAX_DT:
            raise ConfigError(f"field 'dt' must lie in (0, {MAX_DT}] s")
        # 0.5 < x < MAX_SAMPLES - 0.5 is 1 <= round(x) <= MAX_SAMPLES - 1
        if not 0.5 < self.duration / self.dt < MAX_SAMPLES - 0.5:
            raise ConfigError(f"duration / dt must give 1 to {MAX_SAMPLES - 1} steps, "
                              f"got {self.duration / self.dt:.6g}")
        if self.model not in tuple(STATE_NAMES):  # not a dict lookup: the model may be a list
            raise ConfigError(f"unknown model kind {self.model!r}")
        if not isinstance(self.mocap, bool):
            raise ConfigError(f"field 'mocap' must be true or false, got {self.mocap!r}")
        n_states = len(STATE_NAMES[self.model])
        state = finite_floats(self.initial_state, "field 'initial_state'") or (0.0,) * n_states
        if len(state) != n_states:
            raise ConfigError(
                f"{self.model} model needs {n_states} initial states, got {len(state)}"
            )
        object.__setattr__(self, "initial_state", state)

    @property
    def times(self) -> np.ndarray:
        n = int(round(self.duration / self.dt))
        return np.arange(n + 1) * self.dt

    def sample_inputs(self) -> tuple[np.ndarray, np.ndarray]:
        """Commanded throttle and steering at every grid time.

        Raises ConfigError if either schedule leaves [-1, 1] anywhere
        on the grid, by the logs' rule (``logs.command_out_of_range``).
        """
        times = self.times
        tau = self.throttle.sample(times)
        s = self.steering.sample(times)
        for name, series in (("throttle", tau), ("steering", s)):
            if command_out_of_range(series) is not None:
                raise ConfigError(f"{name} schedule leaves [-1, 1] in scenario {self.name!r}")
        return tau, s


def _schedule_field(key: str, doc):
    try:
        return schedule_from_json(doc)
    except ConfigError as exc:
        raise ConfigError(f"scenario field {key!r}: {exc}") from exc


def scenario_from_json(doc: dict) -> Scenario:
    """A Scenario from its JSON object; ConfigError naming the field for
    anything missing, unknown, mistyped or non-finite."""
    return from_json(Scenario, doc, "scenario",
                     parse=dict.fromkeys(("throttle", "steering"), _schedule_field))


def load_scenario(path: str | Path) -> Scenario:
    return load_json(path, "scenario", scenario_from_json)


# --- experiment batteries ----------------------------------------------

STEP_THROTTLE_LEVELS = (0.15, 0.2, 0.25, 0.3, 0.35, 0.4)


def step_throttle_battery(
    levels=STEP_THROTTLE_LEVELS, *, t_on: float = 1.0, hold: float = 8.0,
    coast: float = 4.0, dt: float = 0.01,
) -> list[Scenario]:
    """One throttle step per level, each followed by a coasting tail."""
    scenarios = []
    for tau in levels:
        scenarios.append(
            Scenario(
                name=f"step_{tau:.2f}",
                duration=t_on + hold + coast,
                dt=dt,
                model="kinematic",
                throttle=PiecewiseSchedule(times=(0.0, t_on, t_on + hold), values=(0.0, tau, 0.0)),
                steering=constant(0.0),
            )
        )
    return scenarios


def coast_down_battery(
    launch_levels=(0.4, 0.35, 0.3, 0.25), *, launch: float = 5.0, coast: float = 5.0,
    pulse_levels=(0.23, 0.24, 0.26, 0.28, 0.3, 0.32), pulse_cycles: int = 12,
    dt: float = 0.01,
) -> list[Scenario]:
    """Roll-out tests: full launches plus repeated low-speed pulses.

    The pulse runs re-enter the sub-0.5 m/s band many times; that band
    is where the friction curve bends, and single high-speed coasts
    cross it too quickly to pin the bend sharpness under sensor noise.
    """
    scenarios = []
    for tau in launch_levels:
        scenarios.append(
            Scenario(
                name=f"coast_{tau:.2f}",
                duration=launch + coast,
                dt=dt,
                model="kinematic",
                throttle=PiecewiseSchedule(times=(0.0, launch), values=(tau, 0.0)),
                steering=constant(0.0),
            )
        )
    on, off = 1.4, 1.6
    for tau in pulse_levels:
        times, values = [], []
        t = 0.0
        for _ in range(pulse_cycles):
            times += [t, t + on]
            values += [tau, 0.0]
            t += on + off
        scenarios.append(
            Scenario(
                name=f"pulse_{tau:.2f}",
                duration=t,
                dt=dt,
                model="kinematic",
                throttle=PiecewiseSchedule(times=tuple(times), values=tuple(values)),
                steering=constant(0.0),
            )
        )
    return scenarios


def constant_steering_battery(
    s_values=tuple(np.round(np.arange(-1.0, 1.01, 0.2), 10)), *, tau: float = 0.25,
    duration: float = 8.0, dt: float = 0.01,
) -> list[Scenario]:
    """Constant steering at constant throttle, one scenario per grid value."""
    return [
        Scenario(
            name=f"steer_{s:+.2f}",
            duration=duration,
            dt=dt,
            model="kinematic",
            throttle=constant(tau),
            steering=constant(float(s)),
        )
        for s in s_values
    ]


def sinusoidal_steering(
    *, amplitude: float = 0.8, frequency: float = 0.5, tau: float = 0.25,
    duration: float = 14.0, dt: float = 0.01,
) -> Scenario:
    """Low-frequency steering sweep at constant throttle."""
    return Scenario(
        name=f"sine_{frequency:.2f}Hz",
        duration=duration,
        dt=dt,
        model="kinematic",
        throttle=constant(tau),
        steering=SineSchedule(amplitude=amplitude, frequency=frequency),
    )


def mocap_circular_ramp(
    s: float, *, tau_start: float = 0.22, tau_end: float = 0.32,
    duration: float = 40.0, ramp_steps: int = 40, launch_speed: float = 0.5,
    dt: float = 0.01,
) -> Scenario:
    """Constant steering with a staircase throttle ramp, under the
    dynamic model with pose tracking, to sweep slip angles.

    Starts from a rolling launch: with the weak lateral forces typical
    of this vehicle class, full steering from standstill winds the yaw
    rate up long before the drive overcomes the friction dead zone, and
    nothing useful is excited. The default ramp stays inside the
    envelope where the model corners rather than pirouettes.
    """
    times = tuple(np.linspace(0.0, duration * (1 - 1 / ramp_steps), ramp_steps))
    values = tuple(np.linspace(tau_start, tau_end, ramp_steps))
    return Scenario(
        name=f"circle_{s:+.2f}",
        duration=duration,
        dt=dt,
        model="dynamic",
        throttle=PiecewiseSchedule(times=times, values=values),
        steering=constant(s),
        initial_state=(0.0, 0.0, 0.0, launch_speed, 0.0, 0.0),
        mocap=True,
    )


def mocap_circular_battery(s_values=(-0.45, -0.3, 0.3, 0.45), **kwargs) -> list[Scenario]:
    return [mocap_circular_ramp(s, **kwargs) for s in s_values]


def scenario_library(dt: float = 0.01) -> dict[str, list[Scenario]]:
    """The full synthetic experiment suite, keyed by experiment tag."""
    return {
        "coast": coast_down_battery(dt=dt),
        "step": step_throttle_battery(dt=dt),
        "steer": constant_steering_battery(dt=dt),
        "sine": [sinusoidal_steering(dt=dt)],
        "mocap": mocap_circular_battery(dt=dt),
    }
