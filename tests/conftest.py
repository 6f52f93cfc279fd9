import numpy as np
import pytest
from hypothesis import settings

from minicar import models
from minicar.params import (Delays, FrictionParams, Geometry, MotorParams, SteeringParams,
                            TireParams, VehicleParams, reference_params)
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
# print_blob makes a failure print a @reproduce_failure line, which
# replays it in one module though its examples depend on the others
# collected with it.
settings.register_profile("minicar", derandomize=True, deadline=None, print_blob=True)
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


def curve_laws(params):
    """``models.kinematic_speed_law`` and ``models.dynamic_body_law`` of
    ``params`` written from the curves they inline (``drive_force``,
    ``friction_force``, ``slip_angles``, ``pacejka_lateral``,
    ``rear_lateral``), on floats or arrays: the reference that the laws
    are checked against."""
    motor, friction, tire, geom = params.motor, params.friction, params.tire, params.geometry

    def force(gate, v):
        return models.drive_force(gate, v, motor) + models.friction_force(v, friction)

    def rates(u, body):
        gate, delta, _, cos_d, sin_d = u
        v_x, v_y, omega = body
        alpha_f, alpha_r = models.slip_angles(v_x, v_y, omega, delta, params)
        f_yf = models.pacejka_lateral(alpha_f, tire)
        f_yr = models.rear_lateral(alpha_r, tire.C_r)
        f_half = force(gate, v_x) / 2.0
        front_y = f_yf * cos_d + f_half * sin_d  # front axle force, vehicle-frame y
        return ((f_half + f_half * cos_d - f_yf * sin_d) / geom.m + omega * v_y,
                (f_yr + front_y) / geom.m - omega * v_x,
                (geom.l_f * front_y - geom.l_r * f_yr) / geom.I_z)

    return (lambda gate, v: force(gate, v) / geom.m), rates


@pytest.fixture(scope="session")
def ref():
    """Reference parameter set used as ground truth throughout."""
    return reference_params()


@pytest.fixture(scope="session")
def spin():
    """A normalized-slip vehicle and a 0.3-s run on it at dt = 0.005 s:
    from v_x = 0.25 m/s at full throttle it spins, and v_x falls from
    0.398 m/s to 0 or below within the step from t = 0.25 s."""
    params = VehicleParams(
        friction=FrictionParams(a=1.0, b=5.0, c=0.0), motor=MotorParams(d=43.0, e=2.0, g=0.0),
        steering=SteeringParams(a_t=1.0, b_t=2.0, c_t=0.125, d_t=1.0, e_t=1.0),
        tire=TireParams(D=1.0, C=1.0, B=0.5, E=0.0, C_r=0.5),
        geometry=Geometry.rectangle(m=1.0, l=0.25, w=0.125), delays=Delays(),
        normalized_slip=True)
    scenario = Scenario(name="spin", duration=0.3, dt=0.005, model="dynamic",
                        throttle=PiecewiseSchedule(times=(0.0, 0.01), values=(0.0, 1.0)),
                        steering=constant(0.0), initial_state=(0, 0, 0, 0.25, 0, 0))
    return params, scenario


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
