import numpy as np
import pytest
from hypothesis import settings

from minicar.params import reference_params
from minicar.scenarios import (
    PiecewiseSchedule,
    Scenario,
    constant,
    constant_steering_battery,
    mocap_circular_ramp,
    sinusoidal_steering,
    step_throttle_battery,
)
from minicar.simulator import NoiseSpec, synthesize_log

# The same generated cases on every run, and no per-example time limit,
# so that the property and fuzz tests cannot flake on a slow machine.
settings.register_profile("minicar", derandomize=True, deadline=None)
settings.load_profile("minicar")


def finite_difference_gradient(fn, p, step: float = 1e-6) -> np.ndarray:
    """Central finite differences with per-parameter relative steps."""
    p = np.asarray(p, dtype=float)
    grad = np.empty_like(p)
    for i in range(p.size):
        h = step * max(1.0, abs(p[i]))
        hi, lo = p.copy(), p.copy()
        hi[i] += h
        lo[i] -= h
        grad[i] = (fn(hi) - fn(lo)) / (2 * h)
    return grad


@pytest.fixture(scope="session")
def ref():
    """Reference parameter set used as ground truth throughout."""
    return reference_params()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def _synthesize(scenarios, ref, base_seed, **noise):
    seeds = np.random.SeedSequence(base_seed).spawn(len(scenarios))
    return [
        synthesize_log(
            scen, ref, NoiseSpec(**noise), int(seeds[i].generate_state(1)[0])
        )
        for i, scen in enumerate(scenarios)
    ]


@pytest.fixture(scope="session")
def small_suite(ref):
    """A trimmed synthetic suite tagged by experiment: enough data for
    coarse recovery, small enough to keep the pipeline tests quick."""
    coast = [
        Scenario(
            name=f"coast_{tau}", duration=8.0, dt=0.01, model="kinematic",
            throttle=PiecewiseSchedule(times=(0.0, 4.0), values=(tau, 0.0)),
            steering=constant(0.0),
        )
        for tau in (0.4, 0.3)
    ]
    return {
        "coast": _synthesize(coast, ref, 11, v_enc=0.01),
        "step": _synthesize(step_throttle_battery(levels=(0.2, 0.3, 0.4), hold=5.0), ref, 22, v_enc=0.01),
        "steer": _synthesize(
            constant_steering_battery(s_values=(-0.8, -0.4, 0.0, 0.4, 0.8), duration=6.0),
            ref, 33, v_enc=0.01, omega_imu=0.01,
        ),
        "sine": _synthesize([sinusoidal_steering(duration=10.0)], ref, 44, v_enc=0.01, omega_imu=0.01),
        "mocap": _synthesize(
            [mocap_circular_ramp(s, duration=20.0) for s in (-0.4, 0.4)],
            ref, 55, mocap_xy=0.001, mocap_eta=0.002,
        ),
    }
