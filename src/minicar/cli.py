"""Command-line front end: fit, simulate, generate, validate.

Every run writes a ``run_manifest.json`` beside its outputs recording
the exact inputs (with content hashes), the seed, package and library
versions and the preprocessing defaults in effect, so reruns reproduce
outputs bit for bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import fields
from importlib import metadata
from pathlib import Path

import numpy as np

from . import datasets, models, pipeline, scenarios, simulator, svgplot, validation
from .errors import ConfigError, MinicarError
from .logs import load_log, save_log
from .params import Geometry, load_params, save_params
from .simulator import NoiseSpec

logger = logging.getLogger(__name__)

KINEMATIC_STAGES = ("friction", "motor", "steering", "delay")

DEFAULT_MASS = 1.67
DEFAULT_WHEELBASE = 0.192
DEFAULT_WIDTH = 0.1


def _package_version() -> str:
    try:
        return metadata.version("minicar")
    except metadata.PackageNotFoundError:
        return "unknown"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_json(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return doc


def _defaults() -> dict:
    """Every scalar PipelineConfig default plus the fixed thresholds the
    dataset builders and the simulator apply."""
    doc = {f.name: f.default for f in fields(pipeline.PipelineConfig)
           if isinstance(f.default, (bool, int, float))}
    for name in ("STEADY_WINDOW_S", "STEADY_REL_TOL", "STEADY_OMEGA_FLOOR",
                 "TRANSITION_GUARD_S"):
        doc[name.lower()] = getattr(datasets, name)
    doc["divergence_limit"] = simulator.DIVERGENCE_LIMIT
    return doc


def _write_manifest(out_dir: Path, args: argparse.Namespace, inputs: list[Path],
                    extra: dict | None = None) -> None:
    doc = {
        "command": args.command,
        "arguments": {
            k: str(v) for k, v in sorted(vars(args).items()) if k not in ("command", "func")
        },
        "inputs": {str(p): _sha256(p) for p in inputs if p.is_file()},
        "versions": {
            "minicar": _package_version(),
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "defaults": _defaults(),
    }
    if extra:
        doc.update(extra)
    (out_dir / "run_manifest.json").write_text(json.dumps(doc, indent=2) + "\n")


def _geometry_from_args(args) -> Geometry:
    m, l, w = args.mass, args.wheelbase, args.width
    l_f = args.lf if args.lf is not None else l / 2
    l_r = l - l_f
    return Geometry(m=m, l=l, l_f=l_f, l_r=l_r, w=w,
                    I_z=models.rectangle_inertia(m, l, w))


def _collect_logs(logs_dir: Path) -> tuple[dict[str, list], list[Path]]:
    """Tagged logs from manifest.json, or from tag-named subdirectories."""
    tagged: dict[str, list] = {tag: [] for tag in pipeline.EXPERIMENT_TAGS}
    files: list[Path] = []
    manifest_path = logs_dir / "manifest.json"
    if manifest_path.is_file():
        doc = _read_json(manifest_path)
        for entry in doc.get("logs", []):
            tag, rel = entry.get("tag"), entry.get("file")
            if tag not in tagged:
                raise MinicarError(f"manifest lists unknown experiment tag {tag!r}")
            path = logs_dir / rel
            tagged[tag].append(load_log(path))
            files.append(path)
        files.insert(0, manifest_path)
        return tagged, files
    for tag in pipeline.EXPERIMENT_TAGS:
        subdir = logs_dir / tag
        if subdir.is_dir():
            for path in sorted(subdir.glob("*.csv")):
                tagged[tag].append(load_log(path))
                files.append(path)
    return tagged, files


def _fit_plots(result: pipeline.PipelineResult, out_dir: Path) -> None:
    params = result.params
    if "friction" in result.datasets and params is not None:
        data = result.datasets["friction"]
        grid = np.linspace(0.0, float(data.X.max()) * 1.05 + 1e-9, 200)
        svgplot.save_plot(
            out_dir / "fit_friction.svg",
            [
                svgplot.Series(data.X[:, 0], data.Y[:, 0], "data", "points"),
                svgplot.Series(grid, models.friction_force(grid, params.friction), "fit"),
            ],
            title="Friction curve", x_label="v [m/s]", y_label="F [N]",
        )
    if "motor" in result.datasets and params is not None:
        data = result.datasets["motor"]
        grid = np.linspace(0.0, float(data.X[:, 1].max()) * 1.05 + 1e-9, 200)
        series = [svgplot.Series(data.X[:, 1], data.Y[:, 0], "data", "points")]
        for tau in sorted(set(np.round(data.X[:, 0], 6)))[:6]:
            series.append(
                svgplot.Series(
                    grid, models.motor_force(tau, grid, params.motor), f"tau={tau:.2f}"
                )
            )
        svgplot.save_plot(
            out_dir / "fit_motor.svg", series,
            title="Motor curve", x_label="v [m/s]", y_label="F [N]",
        )
    if "steering" in result.datasets and params is not None:
        data = result.datasets["steering"]
        grid = np.linspace(-1.0, 1.0, 200)
        svgplot.save_plot(
            out_dir / "fit_steering.svg",
            [
                svgplot.Series(data.X[:, 0], data.Y[:, 0], "data", "points"),
                svgplot.Series(grid, models.steering_angle(grid, params.steering), "fit"),
            ],
            title="Steering map", x_label="s", y_label="delta [rad]",
        )
    if "tire_front" in result.datasets and params is not None and params.tire is not None:
        data = result.datasets["tire_front"]
        grid = np.linspace(float(data.X.min()), float(data.X.max()), 200)
        svgplot.save_plot(
            out_dir / "fit_tire_front.svg",
            [
                svgplot.Series(data.X[:, 0], data.Y[:, 0], "data", "points"),
                svgplot.Series(grid, models.pacejka_lateral(grid, params.tire), "fit"),
            ],
            title="Front tire", x_label="alpha [rad]", y_label="F_y [N]",
        )
    if "tire_rear" in result.datasets and params is not None and params.tire is not None:
        data = result.datasets["tire_rear"]
        grid = np.linspace(float(data.X.min()), float(data.X.max()), 200)
        svgplot.save_plot(
            out_dir / "fit_tire_rear.svg",
            [
                svgplot.Series(data.X[:, 0], data.Y[:, 0], "data", "points"),
                svgplot.Series(grid, models.rear_lateral(grid, params.tire.C_r), "fit"),
            ],
            title="Rear tire", x_label="alpha [rad]", y_label="F_y [N]",
        )


def cmd_fit(args) -> int:
    logs_dir = Path(args.logs)
    if not logs_dir.is_dir():
        logger.error("logs directory %s does not exist", logs_dir)
        return 2
    out_path = Path(args.out)
    out_dir = out_path.parent if out_path.parent != Path("") else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)

    tagged, files = _collect_logs(logs_dir)
    if not any(tagged.values()):
        logger.error("no tagged logs found under %s", logs_dir)
        return 2

    config = pipeline.PipelineConfig(
        geometry=_geometry_from_args(args), normalized_slip=args.normalized_slip
    )
    stages = tuple(args.stages.split(",")) if args.stages else pipeline.STAGES
    try:
        result = pipeline.fit_pipeline(tagged, config, stages=stages)
    except MinicarError as exc:
        logger.error("fit failed: %s", exc)
        return 2

    report = {
        "stages": [
            {"name": r.name, "status": r.status, "detail": r.detail,
             "final_loss": None if r.result is None else r.result.loss,
             "iterations": None if r.result is None else r.result.iterations,
             "converged": None if r.result is None else r.result.converged,
             "parameters": None if r.result is None else [float(p) for p in r.result.params],
             "diagnostics": None if r.result is None else r.result.diagnostics}
            for r in result.stages
        ],
        "steer_delay": result.steer_delay,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    for r in result.stages:
        if r.result is not None:
            trace_lines = ["iteration,loss"] + [
                f"{i},{repr(float(loss))}" for i, loss in enumerate(r.result.trace)
            ]
            (out_dir / f"loss_{r.name}.csv").write_text("\n".join(trace_lines) + "\n")

    if result.params is not None:
        save_params(result.params, out_path)
        _fit_plots(result, out_dir)
    _write_manifest(out_dir, args, files, {"report": report})

    if args.stages:
        requested = set(stages)
    else:
        requested = set(KINEMATIC_STAGES)
        if tagged.get("mocap"):
            requested.add("tire")
    fitted = {r.name for r in result.stages if r.fitted}
    missing = sorted(requested - fitted)
    for r in result.stages:
        if r.status != "fitted":
            logger.warning("stage %s: %s (%s)", r.name, r.status, r.detail)
    if missing:
        logger.error("requested stages did not complete: %s", ", ".join(missing))
        return 1
    print(f"wrote {out_path}")
    return 0


def cmd_simulate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = load_params(args.params)
    scenario = scenarios.load_scenario(args.scenario)
    traj = simulator.simulate(scenario, params, normalized=args.normalized_slip)
    simulator.save_trajectory(traj, params, out_dir / "trajectory.csv")

    svgplot.save_plot(
        out_dir / "path.svg",
        [svgplot.Series(traj.states[:, 0], traj.states[:, 1], scenario.name)],
        title="Path", x_label="x [m]", y_label="y [m]",
    )
    omega = simulator.trajectory_yaw_rate(traj, params)
    svgplot.save_plot(
        out_dir / "channels.svg",
        [
            svgplot.Series(traj.t, traj.states[:, 3], "v [m/s]"),
            svgplot.Series(traj.t, omega, "omega [rad/s]"),
            svgplot.Series(traj.t, traj.applied_tau, "tau applied"),
            svgplot.Series(traj.t, traj.applied_s, "s applied"),
        ],
        title=f"Channels: {scenario.name}", x_label="t [s]",
    )
    _write_manifest(out_dir, args, [Path(args.params), Path(args.scenario)])
    print(f"wrote {out_dir / 'trajectory.csv'}")
    return 0


def cmd_generate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = load_params(args.params)
    noise_doc = _read_json(Path(args.noise))
    library = [(tag, scenario) for tag, battery in
               scenarios.scenario_library(dt=args.dt).items() for scenario in battery]

    try:
        levels = {name: float(noise_doc.get(name, 0.0))
                  for name in ("v_enc", "omega_imu", "mocap_xy", "mocap_eta")}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"noise levels in {args.noise} must be numbers: {exc}") from exc
    # each log's noise seed follows its library index, not completion order
    seeds = np.random.SeedSequence(args.seed).spawn(len(library))
    specs = [NoiseSpec(seed=int(seed.generate_state(1)[0]), **levels) for seed in seeds]

    def write_log(index: int, traj: simulator.Trajectory) -> dict:
        tag, scenario = library[index]
        log = simulator.synthesize_log(scenario, params, specs[index], trajectory=traj)
        filename = f"{scenario.name}.csv"
        save_log(log, out_dir / filename)
        return {"file": filename, "tag": tag}

    entries = simulator.simulate_batch(
        [scenario for _, scenario in library], params,
        normalized=args.normalized_slip, on_done=write_log,
    )
    (out_dir / "manifest.json").write_text(
        json.dumps({"schema_version": 1, "logs": entries}, indent=2) + "\n"
    )
    _write_manifest(out_dir, args, [Path(args.params), Path(args.noise)],
                    {"seed": args.seed})
    print(f"wrote {len(entries)} logs to {out_dir}")
    return 0


def cmd_validate(args) -> int:
    params = load_params(args.params)
    table = validation.read_table(args.log)
    rms = validation.one_step_rms(table, params, args.model,
                                  normalized=args.normalized_slip)
    report = {"log": str(args.log), "model": args.model, "rms": rms}
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minicar",
        description="Identify and simulate small car-like robots.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="run the staged identification pipeline")
    p_fit.add_argument("--logs", required=True, help="directory of tagged log CSVs")
    p_fit.add_argument("--out", required=True, help="output parameter JSON path")
    p_fit.add_argument("--stages", default="",
                       help="comma-separated subset of: " + ",".join(pipeline.STAGES))
    p_fit.add_argument("--mass", type=float, default=DEFAULT_MASS, help="vehicle mass [kg]")
    p_fit.add_argument("--wheelbase", type=float, default=DEFAULT_WHEELBASE,
                       help="axle distance [m]")
    p_fit.add_argument("--width", type=float, default=DEFAULT_WIDTH, help="vehicle width [m]")
    p_fit.add_argument("--lf", type=float, default=None,
                       help="CoM to front axle [m] (default: wheelbase/2)")
    p_fit.add_argument("--normalized-slip", action="store_true",
                       help="divide slip-angle arguments by v_x")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="integrate a scenario")
    p_sim.add_argument("--params", required=True)
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--normalized-slip", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_gen = sub.add_parser("generate", help="synthesize the experiment battery")
    p_gen.add_argument("--params", required=True)
    p_gen.add_argument("--noise", required=True, help="noise spec JSON")
    p_gen.add_argument("--seed", required=True, type=int)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--dt", type=float, default=0.01, help="sample period [s]")
    p_gen.add_argument("--normalized-slip", action="store_true")
    p_gen.set_defaults(func=cmd_generate)

    p_val = sub.add_parser("validate", help="one-step-ahead RMS against a log")
    p_val.add_argument("--params", required=True)
    p_val.add_argument("--log", required=True)
    p_val.add_argument("--model", required=True, choices=("kinematic", "dynamic"))
    p_val.add_argument("--out", default="", help="optional report JSON path")
    p_val.add_argument("--normalized-slip", action="store_true")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except MinicarError as exc:
        logger.error("%s", exc)
        return 2
    except FileNotFoundError as exc:
        logger.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
