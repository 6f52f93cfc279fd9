"""The benchmark's traced run wraps minicar's layer functions by name;
installing and removing its tracer must work on the current code."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patch():
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # a name the tracer wraps that is gone raises here
        patches = list(tracer._patches)
        assert patches
        assert all(getattr(owner, attr) is not original for owner, attr, original in patches)
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is original for owner, attr, original in patches)


def test_traced_simulate_counts_the_stages_of_pass_1():
    """The benchmark's traced spans of a simulation are exact. Both
    models step only what their pose depends on (the speed, or the body
    state of a dynamic model), on flat float laws that write the
    friction and tire curves inline, and evaluate the pose on whole
    series, so neither opens an ``rk4_step``, right-hand-side or curve
    span; the steering map is one span on the whole input series. A
    normalized-slip dynamic run above the blend speed, which never
    rolls, opens the same spans."""
    from dataclasses import replace

    from minicar import simulator
    from minicar.params import reference_params
    from minicar.scenarios import Scenario, constant

    ref = reference_params()
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        for model, init, normalized in (("kinematic", (0, 0, 0, 0.5), False),
                                        ("dynamic", (0, 0, 0, 0.5, 0, 0), False),
                                        ("dynamic", (0, 0, 0, 0.5, 0, 0), True)):
            before = {name: calls for name, (calls, _, _) in tracer.snapshot()[0].items()}
            traj = simulator.simulate(
                Scenario(name=model, duration=0.3, dt=0.01, model=model, throttle=constant(0.3),
                         steering=constant(0.2), initial_state=init),
                replace(ref, normalized_slip=normalized))
            steps = len(traj) - 1
            assert steps == 30
            assert traj.states[:, 3].min() >= simulator.BLEND_SPEED  # no step rolls
            spans = tracer.snapshot()[0]

            def calls(name):
                return spans.get(name, (0, 0.0, 0.0))[0] - before.get(name, 0)

            assert calls("integrators.rk4_step") == 0
            assert calls("models.kinematic_rhs") == calls("models.dynamic_rhs") == 0
            assert calls("models.friction_force") == calls("models.pacejka_lateral") == 0
            assert calls("models.steering_angle") == 1
    finally:
        tracer.restore()


def test_traced_normalized_validation_counts_both_branches_as_rk4_steps():
    """Validation steps its rows through the simulator's ``rk4_step``,
    so the benchmark's step counts see it: a normalized dynamic log
    with rows on both sides of the blend speed is one ``rk4_step`` span
    for its rolling-fallback rows and one for its dynamic rows."""
    from dataclasses import replace

    from minicar import simulator, validation
    from minicar.params import reference_params
    from minicar.scenarios import Scenario, constant

    ref = replace(reference_params(), normalized_slip=True)
    coast = Scenario(name="coast", duration=3.0, dt=0.01, model="dynamic",
                     throttle=constant(0.0), steering=constant(0.3),
                     initial_state=(0, 0, 0, 0.6, 0, 0))
    traj = simulator.simulate(coast, ref)
    v_x = traj.states[:-1, 3]
    assert (v_x < simulator.BLEND_SPEED).any() and (v_x >= simulator.BLEND_SPEED).any()
    table = validation.read_table(simulator.trajectory_to_csv(traj, ref).encode())
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        validation.one_step_rms(table, ref, "dynamic")
        spans = tracer.snapshot()[0]
    finally:
        tracer.restore()
    assert spans["validation.one_step_rms"][0] == 1
    assert spans["integrators.rk4_step"][0] == 2
    assert spans["models.kinematic_rhs"][0] == spans["models.dynamic_rhs"][0] == 4


def test_traced_fit_pipeline_counts_every_stage_call(ref, small_suite):
    """The benchmark's per-stage fit and dataset figures come from spans
    around the functions the identification plan calls. The plan looks
    each of them up through its module when a stage runs, so a traced
    run opens one ``fitting.fit_<stage>`` span per fitted curve, one
    ``datasets.<stage>`` span per builder and one
    ``pipeline.measure_steer_delay`` span per sinusoidal log. A plan
    that bound them at import would open none."""
    from minicar import pipeline

    tracing = _tracing_module()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        result = pipeline.fit_pipeline(small_suite, ref.geometry)
        spans = tracer.snapshot()[0]
    finally:
        tracer.restore()

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    curves = [r for r in result.stages if r.result is not None]
    assert len(curves) == len(tracing.FIT_STAGES) == 5
    assert all(calls(f"fitting.fit_{stage}") == 1 for stage in tracing.FIT_STAGES)
    assert all(calls(f"datasets.{stage}") == 1 for stage in tracing.DATASET_STAGES)
    assert calls("pipeline.measure_steer_delay") == len(small_suite["sine"]) == 1


def test_traced_fit_pipeline_opens_no_tire_curve_span(ref, small_suite):
    """The benchmark's ``models.curve_s`` times the simulator's curve
    calls. The fit stages bind their curves when ``fitting`` is
    imported, so the solver's evaluations stay out of it: a traced
    identification run opens no span of the two tire curves, which no
    dataset builder calls."""
    from minicar import pipeline

    tracing = _tracing_module()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        result = pipeline.fit_pipeline(small_suite, ref.geometry)
        spans = tracer.snapshot()[0]
    finally:
        tracer.restore()
    reports = {r.name: r for r in result.stages}
    assert reports["tire"].fitted and reports["tire_rear"].fitted
    assert spans["models.pacejka_lateral"][0] == spans["models.rear_lateral"][0] == 0
