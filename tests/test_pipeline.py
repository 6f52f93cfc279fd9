import numpy as np
import pytest

from minicar import models
from minicar.errors import DataError
from minicar.pipeline import fit_pipeline, measure_steer_delay
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


def _synthesize(scenarios, ref, base_seed, **noise):
    seeds = np.random.SeedSequence(base_seed).spawn(len(scenarios))
    return [
        synthesize_log(
            scen, ref, NoiseSpec(seed=int(seeds[i].generate_state(1)[0]), **noise)
        )
        for i, scen in enumerate(scenarios)
    ]


@pytest.fixture(scope="module")
def small_suite(ref):
    """A trimmed synthetic suite: enough data for coarse recovery,
    small enough to keep this module quick."""
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


@pytest.fixture(scope="module")
def full_result(ref, small_suite):
    return fit_pipeline(small_suite, ref.geometry)


def test_pipeline_fits_all_stages(full_result):
    status = {r.name: r.status for r in full_result.stages}
    assert status == {
        "friction": "fitted",
        "motor": "fitted",
        "steering": "fitted",
        "delay": "fitted",
        "tire": "fitted",
        "tire_rear": "fitted",
    }


def test_pipeline_recovers_parameters_coarsely(ref, full_result):
    fitted = full_result.params
    assert fitted is not None
    grid = np.linspace(0, 3.5, 200)
    friction_err = models.friction_force(grid, fitted.friction) - models.friction_force(
        grid, ref.friction
    )
    assert np.sqrt(np.mean(friction_err**2)) < 0.1
    s_grid = np.linspace(-1, 1, 100)
    steer_err = models.steering_angle(s_grid, fitted.steering) - models.steering_angle(
        s_grid, ref.steering
    )
    assert np.sqrt(np.mean(steer_err**2)) < 0.01
    assert fitted.delays.steer_delay == pytest.approx(0.15, abs=0.011)
    assert fitted.tire is not None
    assert fitted.tire.C_r == pytest.approx(ref.tire.C_r, rel=0.2)


def test_pipeline_without_mocap_skips_tire(ref, small_suite):
    logs = {k: v for k, v in small_suite.items() if k != "mocap"}
    result = fit_pipeline(logs, ref.geometry)
    assert result.stage("tire").status == "skipped"
    assert result.params is not None
    assert result.params.tire is None


def test_pipeline_empty_input_raises(ref):
    with pytest.raises(DataError, match="no logs"):
        fit_pipeline({}, ref.geometry)


def test_pipeline_motor_fails_without_friction(ref, small_suite):
    logs = {"step": small_suite["step"]}
    result = fit_pipeline(logs, ref.geometry, stages=("motor",))
    motor = result.stage("motor")
    assert motor.status == "failed"
    assert "friction" in motor.detail


def test_pipeline_delay_fails_without_steering(ref, small_suite):
    logs = {"sine": small_suite["sine"]}
    result = fit_pipeline(logs, ref.geometry)
    assert result.stage("delay").status == "failed"
    assert result.stage("steering").status == "skipped"


def test_pipeline_rejects_unknown_stage(ref, small_suite):
    with pytest.raises(DataError, match="unknown stages"):
        fit_pipeline(small_suite, ref.geometry, stages=("downforce",))


def test_pipeline_subset_runs_only_requested(ref, small_suite):
    result = fit_pipeline(small_suite, ref.geometry, stages=("friction",))
    assert result.stage("friction").status == "fitted"
    assert result.stage("motor").detail == "not requested"
    assert result.params is None  # cannot assemble a full set


def test_measure_steer_delay(ref, small_suite):
    est = measure_steer_delay(
        small_suite["sine"][0], ref.steering, ref.geometry.l
    )
    assert est == pytest.approx(0.15, abs=0.011)


def test_measure_steer_delay_needs_motion(ref):
    scen = sinusoidal_steering(duration=4.0, tau=0.16)  # never exceeds v_min
    log = synthesize_log(scen, ref, NoiseSpec(seed=1))
    with pytest.raises(DataError, match="v > v_min"):
        measure_steer_delay(log, ref.steering, ref.geometry.l)
