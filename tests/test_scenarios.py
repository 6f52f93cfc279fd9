import bisect
import json
import math

import numpy as np
import pytest

from minicar import pipeline
from minicar.errors import ConfigError
from minicar.scenarios import (
    MAX_SAMPLES,
    PiecewiseSchedule,
    Scenario,
    SineSchedule,
    StepSchedule,
    constant,
    constant_steering_battery,
    load_scenario,
    mocap_circular_ramp,
    scenario_from_json,
    scenario_library,
    schedule_from_json,
    sinusoidal_steering,
    step_throttle_battery,
)


def test_step_schedule():
    sched = StepSchedule(t=1.0, before=0.0, after=0.3)
    assert sched.sample(np.array([0.99, 1.0])).tolist() == [0.0, 0.3]


def test_piecewise_schedule_zero_order_hold():
    sched = PiecewiseSchedule(times=(0.0, 1.0, 2.0), values=(0.1, 0.2, 0.3))
    assert sched.sample(np.array([0.5, 1.0, 5.0])).tolist() == [0.1, 0.2, 0.3]


def test_piecewise_schedule_validation():
    with pytest.raises(ConfigError):
        PiecewiseSchedule(times=(0.0, 0.0), values=(1.0, 2.0))
    with pytest.raises(ConfigError):
        PiecewiseSchedule(times=(), values=())


def test_sine_schedule():
    sched = SineSchedule(amplitude=0.5, frequency=1.0)
    at_quarter, at_zero = sched.sample(np.array([0.25, 0.0]))
    assert at_quarter == pytest.approx(0.5)
    assert at_zero == pytest.approx(0.0, abs=1e-15)


def test_scenario_validation():
    kw = dict(model="kinematic", throttle=constant(0.2), steering=constant(0.0))
    with pytest.raises(ConfigError):
        Scenario(name="bad", duration=0.0, dt=0.01, **kw)
    with pytest.raises(ConfigError):
        Scenario(name="bad", duration=1.0, dt=0.0, **kw)
    with pytest.raises(ConfigError):
        Scenario(name="bad", duration=1.0, dt=0.06, **kw)
    with pytest.raises(ConfigError):
        Scenario(name="bad", duration=1.0, dt=0.01, model="hovercraft",
                 throttle=constant(0.2), steering=constant(0.0))
    with pytest.raises(ConfigError):
        Scenario(name="bad", duration=1.0, dt=0.01, model="kinematic",
                 throttle=constant(0.2), steering=constant(0.0),
                 initial_state=(0.0,) * 6)


@pytest.mark.parametrize("duration, dt", [(0.004, 0.01), (1e9, 0.05), (1.0, 5e-324),
                                          (MAX_SAMPLES * 0.01, 0.01)])
def test_scenario_rejects_a_grid_of_no_step_or_too_many_samples(duration, dt):
    """Checked on the fields alone: neither grid is ever built."""
    with pytest.raises(ConfigError, match="steps"):
        Scenario(name="bad", duration=duration, dt=dt, model="kinematic",
                 throttle=constant(0.2), steering=constant(0.0))


def test_scenario_accepts_the_largest_and_smallest_grids():
    for duration in ((MAX_SAMPLES - 1) * 0.01, 0.006):
        Scenario(name="edge", duration=duration, dt=0.01, model="kinematic",
                 throttle=constant(0.2), steering=constant(0.0))


def test_scenario_rejects_out_of_range_schedule():
    scen = Scenario(
        name="hot", duration=1.0, dt=0.01, model="kinematic",
        throttle=constant(0.2), steering=SineSchedule(amplitude=1.4, frequency=0.5),
    )
    with pytest.raises(ConfigError, match="steering"):
        scen.sample_inputs()


def _callable(sched):
    """The schedule's law at one time, written per point apart from
    ``sample``: a switch, a zero-order hold, or ``math.sin``."""
    if isinstance(sched, StepSchedule):
        return lambda t: sched.before if t < sched.t else sched.after
    if isinstance(sched, PiecewiseSchedule):
        return lambda t: sched.values[max(bisect.bisect_right(sched.times, t) - 1, 0)]
    return lambda t: sched.offset + sched.amplitude * math.sin(
        2.0 * math.pi * sched.frequency * t + sched.phase)


@pytest.mark.parametrize("dt", [0.01, 0.02, 0.05])
def test_vectorized_sampling_matches_schedule_callables(dt):
    schedules = [
        StepSchedule(t=1.0, before=-0.2, after=0.3),
        StepSchedule(t=0.37, before=0, after=1),
        PiecewiseSchedule(times=(0.0, 0.5, 1.0, 2.5), values=(0.1, -0.4, 0.2, 0.0)),
        PiecewiseSchedule(times=(0.3, 0.7), values=(0.5, 0.6)),  # starts after t=0
        mocap_circular_ramp(0.3, duration=3.0, ramp_steps=7).throttle,
        SineSchedule(amplitude=0.8, frequency=0.5, phase=0.2, offset=0.1),
    ]
    scen = Scenario(name="grid", duration=3.0, dt=dt, model="kinematic",
                    throttle=constant(0.0), steering=constant(0.0))
    times = scen.times
    # breakpoints that land exactly on the grid are the edge case
    assert {1.0, 0.5, 2.5} <= set(times.tolist())
    for sched in schedules:
        sampled = sched.sample(times)
        assert sampled.dtype == float
        np.testing.assert_array_equal(sampled, list(map(_callable(sched), times.tolist())))
    scen = Scenario(name="pair", duration=3.0, dt=dt, model="kinematic",
                    throttle=schedules[0], steering=schedules[2])
    tau, s = scen.sample_inputs()
    np.testing.assert_array_equal(tau, list(map(_callable(schedules[0]), times.tolist())))
    np.testing.assert_array_equal(s, list(map(_callable(schedules[2]), times.tolist())))


def test_scenario_grid():
    scen = Scenario(
        name="grid", duration=1.0, dt=0.01, model="kinematic",
        throttle=constant(0.0), steering=constant(0.0),
    )
    times = scen.times
    assert times.size == 101
    assert times[-1] == pytest.approx(1.0)


def test_scenario_from_json_rejects_missing_fields():
    with pytest.raises(ConfigError, match="duration"):
        scenario_from_json({"name": "x", "dt": 0.01, "model": "kinematic",
                            "throttle": {"type": "sine", "amplitude": 1, "frequency": 1},
                            "steering": {"type": "sine", "amplitude": 1, "frequency": 1}})


def test_schedule_json_rejects_unknown_type(tmp_path):
    doc = {
        "name": "x", "duration": 1.0, "dt": 0.01, "model": "kinematic",
        "throttle": {"type": "spline", "values": []},
        "steering": {"type": "sine", "amplitude": 0.1, "frequency": 1.0},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="spline"):
        load_scenario(path)


@pytest.mark.parametrize("doc, key", [
    ({"type": "sine", "amplitude": 0.4, "frequency": 0.5, "ofset": 0.2}, "ofset"),
    ({"type": "step", "t": 1.0, "before": 0.0, "after": 0.3, "aftr": 0.5}, "aftr"),
    ({"type": "piecewise", "times": [0.0], "values": [0.1], "time": [1.0]}, "time"),
])
def test_schedule_json_names_an_unknown_field(doc, key):
    """A mistyped optional field must not silently take its default."""
    with pytest.raises(ConfigError, match=f"{doc['type']} schedule: unknown field '{key}'"):
        schedule_from_json(doc)
    with pytest.raises(ConfigError, match=f"'steering'.*'{key}'"):
        scenario_from_json({"name": "x", "duration": 1.0, "dt": 0.01, "model": "kinematic",
                            "throttle": {"type": "step", "t": 0.5, "before": 0.0, "after": 0.2},
                            "steering": doc})


def test_step_battery_has_one_scenario_per_level():
    assert len(step_throttle_battery()) == 6
    assert len(step_throttle_battery(levels=(0.2, 0.3))) == 2


def test_constant_steering_battery_grid():
    battery = constant_steering_battery()
    assert len(battery) == 11
    values = sorted(s.sample_inputs()[1][0] for s in battery)
    np.testing.assert_allclose(values, np.arange(-1.0, 1.01, 0.2), atol=1e-9)


def test_circular_ramp_reaches_final_level():
    scen = mocap_circular_ramp(0.4, tau_start=0.2, tau_end=0.36, duration=30.0)
    end, start = scen.throttle.sample(np.array([scen.duration - 1e-9, 0.0]))
    assert end == pytest.approx(0.36)
    assert start == pytest.approx(0.2)
    assert scen.mocap and scen.model == "dynamic"


def test_sinusoidal_steering_scenario():
    scen = sinusoidal_steering(frequency=0.5, amplitude=0.8)
    tau, s = scen.sample_inputs()
    assert np.max(np.abs(s)) <= 0.8 + 1e-12
    assert np.all(tau == tau[0])


def test_scenario_library_tags():
    lib = scenario_library()
    assert set(lib) == {"coast", "step", "steer", "sine", "mocap"}
    assert set(lib) == set(pipeline.EXPERIMENT_TAGS)  # what generate writes is what fit reads
    assert all(lib[tag] for tag in lib)
    names = [s.name for battery in lib.values() for s in battery]
    assert len(names) == len(set(names))
