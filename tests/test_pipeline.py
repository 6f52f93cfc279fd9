import numpy as np
import pytest

from minicar import fitting, models, pipeline
from minicar.errors import DataError
from minicar.logs import RawLog
from minicar.pipeline import fit_pipeline, measure_steer_delay
from minicar.scenarios import sinusoidal_steering
from minicar.simulator import NoiseSpec, synthesize_log


def _stage(result, name: str):
    """The report of stage ``name`` in a pipeline result."""
    return {r.name: r for r in result.stages}[name]


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


def test_the_chains_hold_every_stage_with_the_stages_it_requires():
    """``CHAINS`` splits PLAN into the groups that ``requires`` links, each
    in PLAN order, so ``fit`` can run them in separate workers."""
    assert pipeline.CHAINS == (("friction", "motor"), ("steering", "delay", "tire"))
    chain_of = {name: chain for chain in pipeline.CHAINS for name in chain}
    assert sorted(chain_of) == sorted(pipeline.STAGES)
    assert all(set(requires) <= set(chain_of[name]) for name, _, requires, *_ in pipeline.PLAN)


def test_pipeline_without_mocap_skips_tire(ref, small_suite):
    logs = {k: v for k, v in small_suite.items() if k != "mocap"}
    result = fit_pipeline(logs, ref.geometry)
    assert _stage(result, "tire").status == "skipped"
    assert result.params is not None
    assert result.params.tire is None


def test_pipeline_reports_a_failed_rear_tire_fit_as_one_failed_tire_stage(
        ref, small_suite, monkeypatch):
    def fail(data):
        raise DataError("rear tire did not fit")

    monkeypatch.setattr(fitting, "fit_rear_tire", fail)
    result = fit_pipeline(small_suite, ref.geometry)
    assert [(r.name, r.status) for r in result.stages][3:] == [("delay", "fitted"),
                                                               ("tire", "failed")]
    assert _stage(result, "tire").detail == "rear tire did not fit"
    assert result.params is not None and result.params.tire is None


def test_pipeline_empty_input_raises(ref):
    with pytest.raises(DataError, match="no logs"):
        fit_pipeline({}, ref.geometry)


def test_pipeline_motor_fails_without_friction(ref, small_suite):
    logs = {"step": small_suite["step"]}
    result = fit_pipeline(logs, ref.geometry, stages=("motor",))
    motor = _stage(result, "motor")
    assert motor.status == "failed"
    assert "friction" in motor.detail


def test_pipeline_delay_fails_without_steering(ref, small_suite):
    logs = {"sine": small_suite["sine"]}
    result = fit_pipeline(logs, ref.geometry)
    assert _stage(result, "delay").status == "failed"
    assert _stage(result, "steering").status == "skipped"


def _sine_heads(small_suite):
    """A 4-row and an 8-row head of the suite's sine log: too short to
    smooth, and too short for a usable stretch."""
    sine = small_suite["sine"][0]
    return [RawLog(sine.t[:n], sine.tau[:n], sine.s[:n], sine.v_enc[:n], sine.omega_imu[:n],
                   name=f"head{n}") for n in (4, 8)]


def test_pipeline_delay_skips_sine_logs_too_short_to_use(ref, small_suite, full_result, caplog):
    caplog.set_level("INFO", logger="minicar.pipeline")
    logs = {"steer": small_suite["steer"],
            "sine": _sine_heads(small_suite) + small_suite["sine"]}
    result = fit_pipeline(logs, ref.geometry, stages=("steering", "delay"))
    assert _stage(result, "delay").status == "fitted"
    assert result.steer_delay == full_result.steer_delay
    assert "head4" in caplog.text and "head8" in caplog.text


def test_pipeline_delay_fails_when_no_sine_log_has_a_usable_stretch(ref, small_suite):
    logs = {"steer": small_suite["steer"], "sine": _sine_heads(small_suite)}
    result = fit_pipeline(logs, ref.geometry, stages=("steering", "delay"))
    delay = _stage(result, "delay")
    assert delay.status == "failed"
    assert "usable stretch" in delay.detail
    assert result.steer_delay is None


def test_pipeline_rejects_unknown_stage(ref, small_suite):
    with pytest.raises(DataError, match="unknown stages"):
        fit_pipeline(small_suite, ref.geometry, stages=("downforce",))


def test_pipeline_subset_runs_only_requested(ref, small_suite):
    result = fit_pipeline(small_suite, ref.geometry, stages=("friction",))
    assert _stage(result, "friction").status == "fitted"
    assert _stage(result, "motor").detail == "not requested"
    assert result.params is None  # cannot assemble a full set


def test_measure_steer_delay(ref, small_suite):
    est = measure_steer_delay(
        small_suite["sine"][0], ref.steering, ref.geometry.l
    )
    assert est == pytest.approx(0.15, abs=0.011)


def test_measure_steer_delay_needs_motion(ref):
    scen = sinusoidal_steering(duration=4.0, tau=0.16)  # never exceeds v_min
    log = synthesize_log(scen, ref, NoiseSpec(), 1)
    with pytest.raises(DataError, match="v > v_min"):
        measure_steer_delay(log, ref.steering, ref.geometry.l)
