"""Command-line front end: fit, simulate, generate, validate.

``fit``, ``simulate`` and ``generate`` write a ``run_manifest.json``
beside their outputs recording the exact inputs (with content hashes),
the seed, the versions (numpy's SIMD extensions and libc too) and the
fixed thresholds of the path that ran, so reruns on the same CPU path
reproduce outputs bit for bit. ``validate`` writes only its report.

``fit`` runs the stages of ``pipeline.PLAN`` and writes one report
entry per stage report, one loss trace per fit and one plot per fitted
curve. The stages it requires come from ``pipeline.STAGES``: those of
``--stages``, checked with the geometry options before any log is
read, or else every stage but ``tire`` when there are no motion-capture
logs, since a vehicle without a tire model still runs the kinematic model.

``generate`` and ``fit`` run their jobs in workers forked from the
command (``_run_jobs``), or in process where the platform cannot fork,
on one OpenBLAS thread. A ``generate`` job simulates one scenario and
writes its log. A ``fit`` job is one chain of ``pipeline.CHAINS``: it
parses the logs its chain's requested stages read, fits them and renders
their plots, and the command merges the chains and writes every output.
Each scenario's noise seed follows its place in the library, so the
outputs do not depend on the number of CPUs; ``generate``'s manifests
list the scenarios in library order, and ``fit``'s run manifest its
logs in the order of theirs. The workers' log records are handled by
the command, in job order. A failure reports the first
failing scenario in library order, the log that ``fit`` cannot parse
earliest in its manifest, or a dead worker and the jobs it left without
a result, and writes no manifest.

``fit --normalized-slip`` picks the slip-angle convention, which the
parameter file records; the other commands follow their ``--params``.

``main`` parses with one parser per process. It is built on the first
call, and its set_defaults(func=...) binds the command functions then.
Each call sets the ``minicar`` loggers' level: DEBUG with -v, else INFO.
A refusal raises a MinicarError where it is found; ``main`` logs it and
returns 2, so a command itself returns only 0, or 1 for unfitted stages.

Importing the module loads only the minicar modules every command runs.
Each command imports the rest where it runs them: ``fit`` the pipeline,
fitting, dataset, delay and plot modules, ``simulate`` the scenario and
plot modules, ``generate`` the scenario module and ``validate`` the
validation module.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import pickle
import platform
import signal
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__, models, simulator
from .errors import ConfigError, DataError, MinicarError
from .logs import load_log, save_log
from .params import (Geometry, from_json, load_params, read_json_object, reference_params,
                     save_params, write_json)

if TYPE_CHECKING:  # annotations only: fit and validate never load the scenario library
    from .scenarios import Scenario

logger = logging.getLogger("minicar.cli")


def _sha256(path: Path) -> str:
    import hashlib  # here, not at the top: validate writes no manifest

    return hashlib.sha256(path.read_bytes()).hexdigest()


def _simulation_defaults() -> dict:
    """The one fixed threshold the simulate and generate paths apply."""
    return {"divergence_limit": simulator.DIVERGENCE_LIMIT}


def _fit_defaults() -> dict:
    """The fixed thresholds the fit path applies."""
    from . import datasets, delay, pipeline  # only fit records the fit thresholds

    return {
        "v_min": datasets.V_MIN,
        "smooth_window": datasets.SMOOTH_WINDOW,
        "force_window": datasets.FORCE_WINDOW,
        "long_delay": pipeline.DEFAULT_LONG_DELAY,
        "delay_max_lag": delay.MAX_LAG_S,
        "steady_window_s": datasets.STEADY_WINDOW_S,
        "steady_rel_tol": datasets.STEADY_REL_TOL,
        "steady_omega_floor": datasets.STEADY_OMEGA_FLOOR,
        "transition_guard_s": datasets.TRANSITION_GUARD_S,
        **_simulation_defaults(),
    }


def _write_manifest(out_dir: Path, args: argparse.Namespace, inputs: list[Path],
                    defaults: dict, extra: dict) -> None:
    simd = np.show_config(mode="dicts")["SIMD Extensions"]  # the CPU path that made the bytes
    doc = {
        "command": args.command,
        "arguments": {
            k: str(v) for k, v in sorted(vars(args).items()) if k not in ("command", "func")
        },
        "inputs": {str(p): _sha256(p) for p in inputs if p.is_file()},
        "versions": {"minicar": __version__, "numpy": np.__version__,
                     "numpy_simd": {key: simd.get(key, []) for key in ("baseline", "found")},
                     "libc": platform.libc_ver(), "python": sys.version.split()[0]},
        "defaults": defaults,
        **extra,
    }
    write_json(out_dir / "run_manifest.json", doc)


# The objects of a log directory's manifest.json, as ``generate`` writes
# them; a hand-written manifest may omit either top-level field.
@dataclass(frozen=True)
class _LogEntry:
    file: str
    tag: str

    def __post_init__(self):
        if not isinstance(self.file, str):
            raise ConfigError(f"'file' must be a string, got {self.file!r}")
        if not self.file or "\0" in self.file:
            raise ConfigError(f"'file' must name a file, got {self.file!r}")


@dataclass(frozen=True)
class _LogManifest:
    schema_version: int = 1
    logs: list[_LogEntry] = field(default_factory=list)

    def __post_init__(self):
        if isinstance(self.schema_version, bool) or self.schema_version != 1:
            raise ConfigError(f"unsupported schema_version {self.schema_version!r}")


def _read_manifest(path: Path) -> _LogManifest:
    """The log manifest in ``path``; ConfigError naming the file, and
    the entry, when an entry is malformed, its tag is none that fit
    reads or its file is an earlier entry's."""
    from .pipeline import EXPERIMENT_TAGS  # only fit reads a manifest
    first = {}  # the number of the first entry naming each resolved log path

    def entry(i, doc):
        what = f"{path}: logs[{i}]"
        log = from_json(_LogEntry, doc, what)
        if log.tag not in EXPERIMENT_TAGS:  # a tag that is not a string, too
            raise ConfigError(f"{what}: unknown experiment tag {log.tag!r}")
        if (j := first.setdefault((path.parent / log.file).resolve(), i)) != i:
            raise ConfigError(f"{what}: file {log.file!r} repeats logs[{j}]")
        return log

    def entries(_, docs):
        if not isinstance(docs, list):
            raise ConfigError(f"{path}: 'logs' must be a list")
        return [entry(i, doc) for i, doc in enumerate(docs)]

    return from_json(_LogManifest, read_json_object(path, "log manifest"), str(path),
                     parse={"logs": entries})


def _log_entries(logs_dir: Path) -> tuple[list[tuple[str, Path]], list[Path]]:
    """The tagged log paths of manifest.json, checked and in its order, or
    of the tag-named subdirectories; and the manifest read, if any."""
    from .pipeline import EXPERIMENT_TAGS  # only fit collects logs

    manifest_path = logs_dir / "manifest.json"
    if manifest_path.is_file():
        return ([(e.tag, logs_dir / e.file) for e in _read_manifest(manifest_path).logs],
                [manifest_path])
    return [(tag, path) for tag in EXPERIMENT_TAGS if (logs_dir / tag).is_dir()
            for path in sorted((logs_dir / tag).glob("*.csv"))], []


def _from_zero(x: np.ndarray) -> np.ndarray:
    return np.linspace(0.0, float(x.max()) * 1.05 + 1e-9, 200)


def _data_range(x: np.ndarray) -> np.ndarray:
    return np.linspace(float(x.min()), float(x.max()), 200)


# One plot per fitted curve, keyed by its stage report: the file, the
# ``models`` curve it draws at its fitted parameters, the dataset's input
# column on the horizontal axis, the grid over it, the title and the axis
# labels. The motor curve is drawn at each of the first six throttle levels.
_PLOTS = {
    "friction": ("fit_friction.svg", models.friction_force, 0, _from_zero,
                 "Friction curve", "v [m/s]", "F [N]"),
    "motor": ("fit_motor.svg", models.motor_force, 1, _from_zero,
              "Motor curve", "v [m/s]", "F [N]"),
    "steering": ("fit_steering.svg", models.steering_angle, 0,
                 lambda _: np.linspace(-1.0, 1.0, 200), "Steering map", "s", "delta [rad]"),
    "tire": ("fit_tire_front.svg", models.pacejka_lateral, 0, _data_range,
             "Front tire", "alpha [rad]", "F_y [N]"),
    "tire_rear": ("fit_tire_rear.svg", models.rear_lateral, 0, _data_range,
                  "Rear tire", "alpha [rad]", "F_y [N]"),
}


def _fit_plots(reports) -> dict[str, str]:
    """The SVG text of one plot per fitted curve of ``reports``, by file name."""
    from . import svgplot  # only fit plots fitted curves

    plots = {}
    for r in reports:
        if r.data is None:
            continue
        filename, curve, column, grid_of, title, x_label, y_label = _PLOTS[r.name]
        p = r.result.params
        x = r.data.inputs[column]
        grid = grid_of(x)
        curves = [("fit", curve(grid, p))] if len(r.data.inputs) == 1 else [
            (f"tau={tau:.2f}", curve(tau, grid, p))
            for tau in sorted(set(np.round(r.data.inputs[0], 6)))[:6]]
        series = [svgplot.Series(x, r.data.label, "data", "points")] + [
            svgplot.Series(grid, y, label) for label, y in curves]
        plots[filename] = svgplot.render_plot(series, title=title, x_label=x_label,
                                              y_label=y_label)
    return plots


# The report.json fields read from a stage's fit; each is null without one.
_FIT_FIELDS = {
    "final_loss": lambda fit: fit.loss,
    "iterations": lambda fit: fit.iterations,
    "converged": lambda fit: fit.converged,
    "evaluations": lambda fit: fit.evaluations,
    "parameters": lambda fit: [float(p) for p in fit.params],
    "diagnostics": lambda fit: fit.diagnostics,
}


def _check_out(out: str, what: str) -> None:
    """ConfigError when ``--out`` names a directory, not the ``what`` file."""
    if out.endswith(("/", os.sep)) or Path(out).is_dir():  # "" is the current directory
        raise ConfigError(f"--out {out or repr(out)} names a directory, not the {what}")


def _geometry(args) -> Geometry:
    """``Geometry.rectangle`` of fit's options; ConfigError naming one that breaks its rule."""
    for name in ("mass", "wheelbase", "width"):
        if not 0 < getattr(args, name) < np.inf:
            raise ConfigError(f"--{name} {getattr(args, name)}: {name} must be finite and > 0")
    if args.lf is not None and not 0 <= args.lf <= args.wheelbase:
        raise ConfigError(f"--lf {args.lf}: lf must lie in [0, wheelbase]")
    return Geometry.rectangle(args.mass, args.wheelbase, args.width, args.lf)


def _fit_chain(chain, entries, stages, geometry, normalized_slip):
    """One job of ``fit``: parse the chain's logs, ``entries`` of (place in
    the manifest, tag, path), in that order, run ``pipeline.fit_chain`` on
    them and render the plots of its fitted curves. Returns its reports and
    results and the plots by file name. The error of a log it cannot parse
    carries the log's place in the manifest as ``entry``."""
    from . import pipeline  # only fit runs the fit modules

    tagged: dict[str, list] = {}
    for i, tag, path in entries:
        try:
            tagged.setdefault(tag, []).append(load_log(path))
        except (MinicarError, OSError) as exc:
            exc.entry = i
            raise
    reports, values = pipeline.fit_chain(chain, tagged, geometry,
                                         normalized_slip=normalized_slip, stages=stages)
    return reports, values, _fit_plots(r for chain_reports in reports.values()
                                       for r in chain_reports)


def cmd_fit(args) -> int:
    from . import pipeline  # here, not at the top: only fit runs the fit modules

    _check_out(args.out, "parameter file")
    geometry = _geometry(args)
    logs_dir = Path(args.logs)
    if not logs_dir.is_dir():
        raise ConfigError(f"logs directory {logs_dir} does not exist")
    stages = tuple(args.stages.split(",")) if args.stages else pipeline.STAGES
    pipeline.check_stages(stages)
    entries, files = _log_entries(logs_dir)
    if not entries:
        raise DataError(f"no tagged logs found under {logs_dir}")

    reads = {name: tags for name, tags, *_ in pipeline.PLAN if name in stages}
    jobs = {}
    for chain in pipeline.CHAINS:  # each job parses the logs its chain's requested stages read
        tags = {tag for name in chain for tag in reads.get(name, ())}
        jobs[", ".join(chain)] = (chain, [(i, tag, path) for i, (tag, path) in enumerate(entries)
                                          if tag in tags], stages, geometry, args.normalized_slip)
    chains = _run_jobs("fit", _fit_chain, jobs, cost=lambda job: len(job[1]))
    if errors := [chain for chain in chains if isinstance(chain, Exception)]:
        raise min(errors, key=lambda exc: getattr(exc, "entry", len(entries)))
    result = pipeline.merge_chains([chain[:2] for chain in chains], geometry,
                                   normalized_slip=args.normalized_slip)

    out_path = Path(args.out)
    out_dir = out_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "stages": [
            {"name": r.name, "status": r.status, "detail": r.detail,
             **{key: None if r.result is None else get(r.result)
                for key, get in _FIT_FIELDS.items()}}
            for r in result.stages
        ],
        "steer_delay": result.steer_delay,
    }
    write_json(out_dir / "report.json", report)
    for r in result.stages:
        if r.result is not None:
            trace_lines = ["iteration,loss"] + [
                f"{i},{repr(float(loss))}" for i, loss in enumerate(r.result.trace)
            ]
            (out_dir / f"loss_{r.name}.csv").write_text("\n".join(trace_lines) + "\n")

    fitted = {r.name for r in result.stages if r.fitted}
    if result.params is None:
        logger.warning("no parameter file written: %s not fitted", ", ".join(
            name for name in pipeline.PARAMS_STAGES if name not in fitted))
    else:
        save_params(result.params, out_path)
        print(f"wrote {out_path}")
        if result.steer_delay is None:
            logger.warning("%s: steer_delay is 0.0, no stage measured the steering delay",
                           out_path)
        for *_, plots in chains:
            for filename, text in plots.items():
                (out_dir / filename).write_text(text, encoding="utf-8")
    read = {tag for tags in reads.values() for tag in tags}
    _write_manifest(out_dir, args, files + [path for tag, path in entries if tag in read],
                    _fit_defaults(), {"report": report})

    requested = set(stages) if args.stages else {
        name for name in pipeline.STAGES if name != "tire" or any(
            tag == "mocap" for tag, _ in entries)}
    missing = sorted(requested - fitted)
    for r in result.stages:
        if r.status != "fitted":
            logger.warning("stage %s: %s (%s)", r.name, r.status, r.detail)
    if missing:
        logger.error("requested stages did not complete: %s", ", ".join(missing))
        return 1
    return 0


def _simulate(scenario: Scenario, params):
    """The scenario's trajectory, and its steps and wall time for the run manifest."""
    start = time.perf_counter()
    traj = simulator.simulate(scenario, params)
    run = {"name": scenario.name, "steps": len(traj) - 1,
           "wall_s": round(time.perf_counter() - start, 6)}
    return traj, run


def cmd_simulate(args) -> int:
    from . import scenarios, svgplot  # here, not at the top: see the module docstring

    scenario = scenarios.load_scenario(args.scenario)
    params = load_params(args.params, dynamic=scenario.model == "dynamic")
    traj, run = _simulate(scenario, params)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    _write_manifest(out_dir, args, [Path(args.params), Path(args.scenario)],
                    _simulation_defaults(), {"scenarios": [run]})
    print(f"wrote {out_dir / 'trajectory.csv'}")
    return 0


def _generate_one(tag: str, scenario: Scenario, seed: int, params, noise,
                  out_dir: Path):
    """One job of ``generate``: simulate the scenario, write its noisy log,
    and return the log's manifest entry and the scenario's run record."""
    traj, run = _simulate(scenario, params)
    log = simulator.synthesize_log(scenario, params, noise, seed, trajectory=traj)
    filename = f"{scenario.name}.csv"
    save_log(log, out_dir / filename)
    return _LogEntry(filename, tag), run


class _Records(logging.Handler):
    """The log records a forked worker makes, their messages formatted,
    kept for its parent to handle."""

    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        record.msg, record.args, record.exc_info = record.getMessage(), None, None
        self.records.append(record)


def _call(run, job):
    """``run(*job)``, or the exception it raised."""
    try:
        return run(*job)
    except Exception as exc:
        return exc


def _work(run, jobs: list[tuple], job_r: int, result_w: int, mask: set):
    """A forked worker: restore the signal ``mask``, then run each job whose
    number it reads from ``job_r`` and write its number, its result or
    error and its log records to ``result_w`` as soon as it ends, one
    flushed pickle each. It leaves by ``os._exit``, even on
    KeyboardInterrupt, so it never runs the parent's exit handlers or
    flushes the parent's buffers."""
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        logging.root.handlers = [records := _Records()]
        with open(result_w, "wb") as out:
            while number := os.read(job_r, 4):
                i = int.from_bytes(number, "little")
                pickle.dump((i, _call(run, jobs[i]), records.records), out)
                out.flush()
                records.records = []
        os._exit(0)
    finally:
        os._exit(1)


def _set_blas_threads(count: int) -> int:
    """Set numpy's bundled OpenBLAS to ``count`` threads and return the
    count it had, or 0, setting nothing, where no such library is loaded."""
    import ctypes  # numpy has loaded it

    libs = Path(np.__file__).parents[1] / "numpy.libs"
    for path in libs.glob("libscipy_openblas64_*.so") if hasattr(os, "RTLD_NOLOAD") else ():
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        except OSError:  # not loaded
            continue
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        threads = get()
        put(count)
        return threads
    return 0


def _run_jobs(command: str, run, jobs: dict[str, tuple], cost) -> list:
    """``run(*job)`` of every job of ``jobs``, by name, in job order: its
    result, or the exception it raised. The jobs run in forked workers
    (``_fork_jobs``), or in process where the platform cannot fork.

    numpy's bundled OpenBLAS runs one thread while they run, and then the
    count it had. A worker whose SVD of a tall matrix starts OpenBLAS's
    helper thread would leave it spinning on another CPU, and setting the
    count in the worker starts it too. One thread also keeps each result
    the same on either path and on any number of CPUs: OpenBLAS splits a
    dot product of more than 10,000 terms over its threads, which changes
    the sum's last bits.
    """
    threads = _set_blas_threads(1)
    try:
        if not hasattr(os, "fork"):
            return [_call(run, job) for job in jobs.values()]
        return _fork_jobs(command, run, jobs, cost)
    finally:
        if threads:
            _set_blas_threads(threads)


def _fork_jobs(command: str, run, jobs: dict[str, tuple], cost) -> list:
    """``_run_jobs`` in forked workers.

    ``_work`` runs the jobs in workers, one per CPU this process may run
    on, which need not import numpy again (0.3-0.8 s); the command starts
    no thread that a fork could break. The job numbers, highest
    ``cost(job)`` first, fill one pipe before the first fork. SIGINT waits
    while they are forked, so that one sent then is not lost in a fork
    hook. Each worker is read to the end and reaped, and any way out kills
    and reaps the rest. The log records of each job are then handled here,
    in job order. A dead worker raises a MinicarError naming its exit
    status and the jobs left without a result.
    """
    names, jobs = list(jobs), list(jobs.values())
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    longest_first = sorted(range(len(jobs)), key=lambda i: cost(jobs[i]), reverse=True)
    job_r, job_w = os.pipe()
    workers, done, logged, died = {}, {}, {}, 0  # workers: the result pipe of each live pid
    try:
        with open(job_w, "wb") as pipe:
            if len(jobs) > 16384:  # more 4-byte records than a pipe holds by default
                import fcntl
                fcntl.fcntl(job_w, fcntl.F_SETPIPE_SZ, 4 * len(jobs))
            pipe.write(b"".join(i.to_bytes(4, "little") for i in longest_first))
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for _ in range(min(cpus, len(jobs))):
                result_r, result_w = os.pipe()
                if (pid := os.fork()) == 0:
                    _work(run, jobs, job_r, result_w, mask)
                workers[pid] = open(result_r, "rb")
                os.close(result_w)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for pid in list(workers):
            with workers[pid] as pipe:
                while True:  # to its end, or to a record its worker did not live to finish
                    try:
                        i, result, records = pickle.load(pipe)
                    except (EOFError, pickle.UnpicklingError):
                        break
                    done[i], logged[i] = result, records
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[pid]
            died = died or status
    finally:
        os.close(job_r)
        for pid, pipe in workers.items():
            pipe.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    for i in sorted(logged):
        for record in logged[i]:
            logging.getLogger(record.name).handle(record)
    if lost := [name for i, name in enumerate(names) if i not in done]:
        raise MinicarError(f"a {command} worker exited with status {died}; "
                           f"no result for {', '.join(lost)}")
    return [done[i] for i in range(len(jobs))]


def _seed(text: str) -> int:
    """A ``--seed`` value: the non-negative integer that numpy's
    SeedSequence takes."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def cmd_generate(args) -> int:
    from . import scenarios  # here, not at the top: fit and validate run no scenario

    try:
        batteries = scenarios.scenario_library(dt=args.dt)
    except ConfigError as exc:  # the rule is the scenario's; the value is the option's
        raise ConfigError(f"--dt {args.dt}: {exc}") from None
    library = [(tag, scenario) for tag, battery in batteries.items() for scenario in battery]
    params = load_params(args.params, dynamic=any(s.model == "dynamic" for _, s in library))
    noise = simulator.load_noise(args.noise)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = np.random.SeedSequence(args.seed).spawn(len(library))
    done = _run_jobs("generate", _generate_one, {
        scenario.name: (tag, scenario, int(seed.generate_state(1)[0]), params, noise, out_dir)
        for (tag, scenario), seed in zip(library, seeds)}, cost=lambda job: job[1].times.size)
    if errors := [result for result in done if isinstance(result, Exception)]:
        raise errors[0]
    entries, runs = zip(*done)
    write_json(out_dir / "manifest.json", asdict(_LogManifest(logs=list(entries))))
    _write_manifest(out_dir, args, [Path(args.params), Path(args.noise)],
                    _simulation_defaults(), {"seed": args.seed, "scenarios": list(runs)})
    print(f"wrote {len(entries)} logs to {out_dir}")
    return 0


def cmd_validate(args) -> int:
    from . import validation  # here, not at the top: no other command validates

    if args.out:
        _check_out(args.out, "report file")
    params = load_params(args.params, dynamic=args.model == "dynamic")
    table = validation.read_table(args.log)
    try:
        rms = validation.one_step_rms(table, params, args.model)
    except MinicarError as exc:
        raise exc.named(args.log) from None
    report = {"log": str(args.log), "model": args.model, "rms": rms}
    print(json.dumps(report, indent=2, allow_nan=False))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        write_json(args.out, report)
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
                       help="comma-separated subset of the fit stages (default: all)")
    reference = reference_params().geometry
    p_fit.add_argument("--mass", type=float, default=reference.m, help="vehicle mass [kg]")
    p_fit.add_argument("--wheelbase", type=float, default=reference.l, help="axle distance [m]")
    p_fit.add_argument("--width", type=float, default=reference.w, help="vehicle width [m]")
    p_fit.add_argument("--lf", type=float, default=None,
                       help="CoM to front axle [m] (default: wheelbase/2)")
    p_fit.add_argument("--normalized-slip", action="store_true",
                       help="divide slip-angle arguments by v_x; the parameter file records it")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="integrate a scenario")
    p_sim.add_argument("--params", required=True)
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_gen = sub.add_parser("generate", help="synthesize the experiment battery")
    p_gen.add_argument("--params", required=True)
    p_gen.add_argument("--noise", required=True, help="noise spec JSON")
    p_gen.add_argument("--seed", required=True, type=_seed)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--dt", type=float, default=0.01, help="sample period [s]")
    p_gen.set_defaults(func=cmd_generate)

    p_val = sub.add_parser("validate", help="one-step-ahead RMS against a log")
    p_val.add_argument("--params", required=True)
    p_val.add_argument("--log", required=True)
    p_val.add_argument("--model", required=True, choices=tuple(models.STATE_NAMES))
    p_val.add_argument("--out", default="", help="optional report JSON path")
    p_val.set_defaults(func=cmd_validate)
    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("minicar").setLevel(logging.DEBUG if args.verbose else logging.INFO)
    try:
        return args.func(args)
    except (MinicarError, OSError) as exc:
        logger.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
