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


def test_traced_simulate_counts_one_rk4_step_and_four_rhs_calls_per_step():
    """The benchmark's traced counts (simulator.steps, integrators.rk4_calls,
    models.rhs_calls) stay meaningful: each step is one ``rk4_step`` span
    and four spans of the scenario's right-hand side."""
    from minicar import simulator
    from minicar.params import reference_params
    from minicar.scenarios import Scenario, constant

    ref = reference_params()
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        for model, init in (("kinematic", (0, 0, 0, 0.5)), ("dynamic", (0, 0, 0, 0.5, 0, 0))):
            before = {name: calls for name, (calls, _, _) in tracer.snapshot()[0].items()}
            traj = simulator.simulate(
                Scenario(name=model, duration=0.3, dt=0.01, model=model, throttle=constant(0.3),
                         steering=constant(0.2), initial_state=init), ref)
            steps = len(traj) - 1
            assert steps == 30
            spans = tracer.snapshot()[0]

            def calls(name):
                return spans.get(name, (0, 0.0, 0.0))[0] - before.get(name, 0)

            assert calls("integrators.rk4_step") == steps
            assert calls(f"models.{model}_rhs") == 4 * steps
            other = "dynamic" if model == "kinematic" else "kinematic"
            assert calls(f"models.{other}_rhs") == 0
    finally:
        tracer.restore()
