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
