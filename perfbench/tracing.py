"""Per-layer tracing from outside the program.

A traced run replaces each layer's public functions, where their
callers look them up, with wrappers that time the call and note what
it did. A span's self time is its duration minus the time of the spans
it opened. A generate op opens about 960,000 spans, so spans are
folded into per-name totals as they close instead of being kept one by
one.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

CURVES = ("friction_force", "motor_force", "steering_angle", "pacejka_lateral", "rear_lateral")
PREPROCESS = ("smooth", "differentiate", "erode_mask", "rolling_stats",
              "local_poly_value", "local_poly_derivative")
DATASET_STAGES = ("friction", "motor", "steering", "tire")
FIT_STAGES = ("friction", "motor", "steering", "front_tire", "rear_tire")


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total s, self s]
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []

    def span(self, name, fn, note=None):
        """``fn`` wrapped in a span; ``note(counts, result, elapsed, *args)``
        records what the call did."""
        stat, stack, counts, clock = self.spans[name], self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children[0]
            if note is not None:
                note(counts, result, elapsed, *args)
            return result

        return traced

    def replace(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner, attr, name, note=None):
        self.replace(owner, attr, self.span(name, getattr(owner, attr), note))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self):
        return {k: tuple(v) for k, v in self.spans.items()}, dict(self.counts)


def install(tracer: Tracer) -> None:
    """Wrap the calls into every layer of minicar."""
    from minicar import (cli, datasets, fitting, logs, models, pipeline, scenarios,
                         simulator, svgplot, validation)

    def add(key, value):
        return lambda c, *_: c.__setitem__(key, c[key] + value)

    def samples(c, result, _elapsed, *_):
        c["scenarios.samples"] += len(result[0])

    def steps(c, traj, elapsed, *_):
        c[f"simulator.{traj.model}_steps"] += len(traj) - 1
        c[f"simulator.{traj.model}_s"] += elapsed

    def text_bytes(key):
        return lambda c, text, *_: c.__setitem__(key, c[key] + len(text))

    def file_bytes(key):
        return lambda c, _r, _e, path, *_: c.__setitem__(key, c[key] + os.path.getsize(path))

    def rms_rows(c, _r, _e, table, *_):
        c["validation.rms_rows"] += len(table["t"]) - 1

    def dataset_rows(stage):
        def note(c, result, _elapsed, logs_in, *_):
            data = result[0] if isinstance(result, tuple) else result
            c[f"datasets.{stage}_rows"] += len(data)
            c[f"datasets.{stage}_offered"] += sum(len(log) for log in logs_in)
        return note

    def iterations(stage):
        return lambda c, result, *_: c.__setitem__(
            f"fitting.{stage}_iterations", c[f"fitting.{stage}_iterations"] + result[1].iterations)

    P = tracer.patch
    P(scenarios.Scenario, "sample_inputs", "scenarios.sample_inputs", samples)
    P(scenarios, "scenario_library", "scenarios.scenario_library")
    P(scenarios, "load_scenario", "scenarios.load_scenario")

    P(simulator, "simulate", "simulator.simulate", steps)
    P(simulator, "synthesize_log", "simulator.synthesize_log")
    P(simulator, "trajectory_yaw_rate", "simulator.trajectory_yaw_rate")
    P(simulator, "save_trajectory", "simulator.save_trajectory")
    P(simulator, "trajectory_to_csv", "simulator.trajectory_to_csv",
      text_bytes("simulator.csv_bytes"))
    P(simulator, "rk4_step", "integrators.rk4_step")
    P(validation, "rk4_step", "integrators.rk4_step")

    for name in ("kinematic_rhs", "dynamic_rhs", *CURVES):
        P(models, name, f"models.{name}")

    P(cli, "load_log", "logs.load_log", file_bytes("logs.load_bytes"))
    P(cli, "save_log", "logs.save_log")
    P(logs, "dump_log", "logs.dump_log", text_bytes("logs.dump_bytes"))

    P(validation, "read_table", "validation.read_table", file_bytes("validation.read_bytes"))
    P(validation, "one_step_rms", "validation.one_step_rms", rms_rows)

    for module, names in ((datasets, PREPROCESS), (validation, ("smooth", "differentiate")),
                          (pipeline, ("smooth",))):
        for name in names:
            P(module, name, f"preprocess.{name}")
    for stage in DATASET_STAGES:
        P(datasets, f"build_{stage}_dataset", f"datasets.{stage}", dataset_rows(stage))

    for stage in FIT_STAGES:
        P(fitting, f"fit_{stage}", f"fitting.fit_{stage}", iterations(stage))
    P(fitting, "adam_fit", "fitting.adam_fit")
    objective_of = fitting.submodel_objective

    def submodel_objective(sub_model, data):
        return tracer.span(f"fitting.objective_{sub_model}", objective_of(sub_model, data),
                           add(f"fitting.{sub_model}_row_evals", len(data)))

    tracer.replace(fitting, "submodel_objective", submodel_objective)

    P(pipeline, "estimate_delay_xcorr", "delay.estimate_delay_xcorr")
    P(pipeline, "fit_pipeline", "pipeline.fit_pipeline")
    P(pipeline, "measure_steer_delay", "pipeline.measure_steer_delay")
    P(svgplot, "save_plot", "svgplot.save_plot")


def layer_metrics(spans: dict, counts: dict) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one round, from its span totals and counts."""

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(layer):
        return sum(v[2] for k, v in spans.items() if k.split(".")[0] == layer)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    c = defaultdict(float, counts)
    kin, dyn = c["simulator.kinematic_steps"], c["simulator.dynamic_steps"]
    out = {
        "scenarios.sample_s": (total("scenarios.sample_inputs"), "s"),
        "scenarios.samples": (c["scenarios.samples"], "count"),
        "simulator.self_s": (self_time("simulator"), "s"),
        "simulator.steps": (kin + dyn, "count"),
        "simulator.kinematic_step_us": (ratio(c["simulator.kinematic_s"], kin, 1e6), "us"),
        "simulator.dynamic_step_us": (ratio(c["simulator.dynamic_s"], dyn, 1e6), "us"),
        "simulator.csv_mb_per_s": (
            ratio(c["simulator.csv_bytes"] / 1e6, total("simulator.trajectory_to_csv")), "MB/s"),
        "integrators.rk4_calls": (calls("integrators.rk4_step"), "count"),
        "integrators.rk4_self_s": (spans.get("integrators.rk4_step", (0, 0, 0.0))[2], "s"),
        "models.rhs_calls": (calls("models.kinematic_rhs") + calls("models.dynamic_rhs"), "count"),
        "models.kinematic_rhs_us": (
            ratio(total("models.kinematic_rhs"), calls("models.kinematic_rhs"), 1e6), "us"),
        "models.dynamic_rhs_us": (
            ratio(total("models.dynamic_rhs"), calls("models.dynamic_rhs"), 1e6), "us"),
        "models.curve_s": (total(*(f"models.{n}" for n in CURVES)), "s"),
        "logs.dump_mb": (c["logs.dump_bytes"] / 1e6, "MB"),
        "logs.load_mb": (c["logs.load_bytes"] / 1e6, "MB"),
        "logs.dump_mb_per_s": (ratio(c["logs.dump_bytes"] / 1e6, total("logs.dump_log")), "MB/s"),
        "logs.load_mb_per_s": (ratio(c["logs.load_bytes"] / 1e6, total("logs.load_log")), "MB/s"),
        "validation.read_mb_per_s": (
            ratio(c["validation.read_bytes"] / 1e6, total("validation.read_table")), "MB/s"),
        "validation.rms_rows": (c["validation.rms_rows"], "count"),
        "validation.rms_s": (total("validation.one_step_rms"), "s"),
        "preprocess.s": (total(*(f"preprocess.{n}" for n in PREPROCESS)), "s"),
    }
    for stage in DATASET_STAGES:
        rows = c[f"datasets.{stage}_rows"]
        out[f"datasets.{stage}_s"] = (total(f"datasets.{stage}"), "s")
        out[f"datasets.{stage}_rows"] = (rows, "count")
        out[f"datasets.{stage}_kept"] = (ratio(rows, c[f"datasets.{stage}_offered"]), "ratio")
    for stage in FIT_STAGES:
        objective = f"fitting.objective_{stage}"
        out[f"fitting.{stage}_iterations"] = (c[f"fitting.{stage}_iterations"], "count")
        out[f"fitting.{stage}_row_evals"] = (c[f"fitting.{stage}_row_evals"], "count")
        out[f"fitting.{stage}_objective_us"] = (ratio(total(objective), calls(objective), 1e6), "us")
        out[f"fitting.{stage}_s"] = (total(f"fitting.fit_{stage}"), "s")
    out["fitting.adam_self_s"] = (spans.get("fitting.adam_fit", (0, 0, 0.0))[2], "s")
    out["delay.xcorr_s"] = (total("delay.estimate_delay_xcorr"), "s")
    out["pipeline.self_s"] = (self_time("pipeline"), "s")
    out["svgplot.s"] = (total("svgplot.save_plot"), "s")
    out["svgplot.plots"] = (calls("svgplot.save_plot"), "count")
    out["cli.self_s"] = (self_time("cli"), "s")
    return out
