"""The benchmark's workloads.

Each workload writes its inputs in ``setup``, after the caller has
imported minicar again and set ``main``, runs one round of
in-process ``minicar.cli.main`` calls in ``round`` (the timed part),
looks at that round's outputs in ``collect`` and reports what is wrong
with them in ``problems``. One caller waits for every call, so the
load is a closed loop with a single client.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import traceback
from pathlib import Path

import numpy as np

import checks


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


class Workload:
    setup_repeats = 1
    # Two rounds let a run compare their outputs byte for byte.
    min_rounds = 2

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.main = None  # minicar.cli.main, set by each set-up's import
        self.params = work / "params.json"
        self.noise = work / "noise.json"
        self.digests: list[str] = []
        self.found: list[str] = []

    def call(self, *argv) -> tuple[int, str]:
        """One operation: exit status and standard output of ``minicar argv``."""
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = self.main([str(a) for a in argv])
        except Exception:  # an escaped exception is a failed operation, not a crash
            traceback.print_exc(file=sys.stderr)
            code = -1
        return code, out.getvalue()

    def write_reference_inputs(self) -> None:
        _write_json(self.params, checks.REFERENCE)
        _write_json(self.noise, checks.NOISE)

    def digest_problems(self, what: str) -> list[str]:
        if len(set(self.digests)) > 1:
            return [f"{what} differ between rounds of the same inputs"]
        return []


class GenerateBattery(Workload):
    """``minicar generate`` on the full 32-scenario library."""

    setup_repeats = 5

    def setup(self) -> None:
        self.write_reference_inputs()

    def round(self, i: int) -> list[int]:
        code, _ = self.call("generate", "--params", self.params, "--noise", self.noise,
                            "--seed", self.seed, "--out", self.work / f"gen{i}")
        return [code]

    def collect(self, i: int) -> None:
        out = self.work / f"gen{i}"
        self.digests.append(_digest([*out.glob("*.csv"), out / "manifest.json"]))
        if i > 0:
            shutil.rmtree(out)

    def problems(self) -> list[str]:
        out = self.work / "gen0"
        manifest = json.loads((out / "manifest.json").read_text())
        tables = {n: checks.read_csv(out / f"{n}.csv") for n in checks.BATTERY
                  if (out / f"{n}.csv").is_file()}
        problems = checks.battery_problems(manifest, tables) + self.digest_problems("CSVs")
        if problems:
            return problems
        for name in checks.STRAIGHT_LINE:
            data = tables[name][1]
            v_ref = checks.reference_speed(checks.commanded_throttle(name))
            problems += checks.speed_noise_problems(name, data[:, 1], data[:, 3], v_ref)
        return problems


class FitBattery(Workload):
    """``minicar fit`` on a battery that ``minicar generate`` writes in set-up.

    The battery's noise always comes from BATTERY_SEED, not from the run's
    seed: Adam stops once the loss stops moving, and on batteries drawn
    from seeds 1 to 5 one fit took from 6.7 to 24.9 s, a spread no bound
    could hold. One fit takes about 25 s and its battery about 18 s, so a
    run makes one round unless ``--seconds`` asks for more; params.json
    is compared byte for byte only when a run makes two.
    """

    BATTERY_SEED = 20240811
    min_rounds = 1

    def setup(self) -> None:
        self.write_reference_inputs()
        self.battery = self.work / "battery"
        code, _ = self.call("generate", "--params", self.params, "--noise", self.noise,
                            "--seed", self.BATTERY_SEED, "--out", self.battery)
        if code != 0:
            raise RuntimeError(f"writing the battery failed with status {code}")

    def round(self, i: int) -> list[int]:
        code, _ = self.call("fit", "--logs", self.battery,
                            "--out", self.work / f"fit{i}" / "params.json")
        return [code]

    def collect(self, i: int) -> None:
        out = self.work / f"fit{i}"
        self.digests.append(_digest([out / "params.json"]))
        if i > 0:
            shutil.rmtree(out)

    def problems(self) -> list[str]:
        out = self.work / "fit0"
        params = json.loads((out / "params.json").read_text())
        report = json.loads((out / "report.json").read_text())
        return checks.fit_problems(params, report) + self.digest_problems("params.json files")


class SimulateValidate(Workload):
    """``minicar simulate`` on two long dynamic circles, one scenario per
    call, then ``minicar validate`` on each trajectory export and on
    noisy straight-line logs.

    The noisy logs are the battery's 16 coast, step and pulse runs,
    written from the benchmark's own reference solution plus seeded
    noise, so set-up does not run the simulator under test.
    """

    setup_repeats = 3

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        rng = np.random.default_rng(seed)
        self.circles = {f"circle_{s:+.4f}": s for s in
                        (rng.uniform(0.30, 0.45), -rng.uniform(0.30, 0.45))}
        self.logs = [work / "logs" / f"{n}.csv" for n in checks.STRAIGHT_LINE]
        self.v_ref = {n: checks.reference_speed(checks.commanded_throttle(n))
                      for n in checks.STRAIGHT_LINE}

    def setup(self) -> None:
        self.write_reference_inputs()
        for name, s in self.circles.items():
            ramp = np.linspace(0.0, 39.0, 40)
            _write_json(self.work / f"{name}.json", {
                "name": name, "duration": 40.0, "dt": checks.DT, "model": "dynamic",
                "throttle": {"type": "piecewise", "times": ramp.tolist(),
                             "values": np.linspace(0.22, 0.32, 40).tolist()},
                "steering": {"type": "piecewise", "times": [0.0], "values": [s]},
                "initial_state": [0.0, 0.0, 0.0, 0.5, 0.0, 0.0],
                "mocap": True,
            })
        self.logs[0].parent.mkdir(exist_ok=True)
        rng = np.random.default_rng([self.seed, 1])
        for path in self.logs:
            v = self.v_ref[path.stem]
            tau = checks.commanded_throttle(path.stem)
            path.write_text(checks.format_csv(
                ["t", "tau", "s", "v_enc", "omega_imu"],
                [np.arange(v.size) * checks.DT, tau, np.zeros_like(v),
                 v + rng.normal(0.0, checks.NOISE["v_enc"], v.size),
                 rng.normal(0.0, checks.NOISE["omega_imu"], v.size)]))

    def round(self, i: int) -> list[int]:
        codes = []
        self.outputs = {}
        for name in self.circles:
            out = self.work / f"sim{i}" / name
            code, _ = self.call("simulate", "--params", self.params,
                                "--scenario", self.work / f"{name}.json", "--out", out)
            codes.append(code)
            code, text = self.call("validate", "--params", self.params,
                                   "--log", out / "trajectory.csv", "--model", "dynamic")
            codes.append(code)
            self.outputs[name] = text
        for path in self.logs:
            code, text = self.call("validate", "--params", self.params,
                                   "--log", path, "--model", "kinematic")
            codes.append(code)
            self.outputs[path.stem] = text
        return codes

    def collect(self, i: int) -> None:
        out = self.work / f"sim{i}"
        self.digests.append(_digest(out.glob("*/trajectory.csv")))
        for name, text in self.outputs.items():
            try:
                rms = json.loads(text)["rms"]
            except (ValueError, KeyError):
                self.found.append(f"{name}: validate printed no report")
                continue
            check = checks.export_problems if name in self.circles else checks.noisy_log_problems
            self.found += check(name, rms)
        shutil.rmtree(out)

    def problems(self) -> list[str]:
        return self.found + self.digest_problems("trajectory exports")


WORKLOADS = {
    "generate-battery": GenerateBattery,
    "fit-battery": FitBattery,
    "simulate-validate": SimulateValidate,
}
