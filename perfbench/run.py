"""Run one benchmark workload against the minicar sources of this checkout.

    python3 perfbench/run.py --workload generate-battery --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A run repeats
the workload's round until ``--seconds`` have passed, and makes at
least the workload's ``min_rounds``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed
import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def import_minicar() -> None:
    """Import minicar.cli from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "minicar" / "cli.py").is_file():
        raise SystemExit(f"no minicar sources under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("minicar.cli")
    if Path(cli.__file__).resolve().parent != (src / "minicar").resolve():
        raise SystemExit(f"minicar was imported from {cli.__file__}, not from {src}")


def reimport_minicar():
    """Run minicar's module code again, as every command-line call does."""
    for name in [m for m in sys.modules if m == "minicar" or m.startswith("minicar.")]:
        del sys.modules[name]
    return importlib.import_module("minicar.cli")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # The first import loads numpy and the rest of minicar's dependencies;
    # it took 0.3 to 0.8 s between processes, so set-up times only the
    # re-imports of minicar itself.
    import_minicar()

    out = BENCH / "out"
    work = out / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    meter = speed.Speedometer()
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        with meter:
            setups = []
            for _ in range(workload.setup_repeats):
                start = time.perf_counter()
                main = reimport_minicar().main
                workload.main = main if tracer is None else tracer.span("cli.main", main)
                workload.setup()
                setups.append((start, time.perf_counter()))

            if tracer is not None:
                tracing.install(tracer)
            attempted = failed = 0
            rounds, layers, problems = [], [], []
            began = time.perf_counter()
            while len(rounds) < workload.min_rounds or time.perf_counter() - began < args.seconds:
                before = tracer.snapshot() if tracer else None
                start = time.perf_counter()
                codes = workload.round(len(rounds))
                rounds.append((start, time.perf_counter()))
                if tracer is not None:
                    layers.append(round_layers(before, tracer.snapshot()))
                attempted += len(codes)
                failed += sum(code != 0 for code in codes)
                try:
                    workload.collect(len(rounds) - 1)
                except (OSError, ValueError) as exc:
                    problems.append(f"round {len(rounds)} left no readable outputs: {exc!r}")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.restore()

        try:
            problems += workload.problems()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"outputs could not be read: {exc!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def seconds(spans):
        return [meter.reference_seconds(a, b) for a, b in spans]

    probes = [p for _, p in meter.samples]
    print(f"op wall seconds: {[b - a for a, b in rounds]}; op reference seconds: "
          f"{seconds(rounds)}; {len(probes)} probes, median "
          f"{statistics.median(probes) * 1e3:.4f} ms", file=sys.stderr)
    op_s = statistics.median(seconds(rounds))
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(seconds(setups)), "s"),
            "op_s": (op_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics, unsteady = combine_rounds(layers)
        problems += [f"count {name} differs between rounds" for name in unsteady]
        metrics["trace.op_s"] = (op_s, "s")
        write_trace(out / f"trace-{args.workload}-{args.seed}.json", args, layers)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def round_layers(before, after):
    """Span totals and counts of one round: the change between two snapshots."""
    (spans0, counts0), (spans1, counts1) = before, after
    zero = (0, 0.0, 0.0)
    spans = {k: tuple(a - b for a, b in zip(v, spans0.get(k, zero))) for k, v in spans1.items()}
    counts = {k: v - counts0.get(k, 0.0) for k, v in counts1.items()}
    return spans, counts


def combine_rounds(layers):
    """Median per-layer figures over rounds, and the counts that moved."""
    per_round = [tracing.layer_metrics(spans, counts) for spans, counts in layers]
    metrics, unsteady = {}, []
    for name, (_, unit) in per_round[0].items():
        values = [r[name][0] for r in per_round]
        if unit == "count" and len(set(values)) > 1:
            unsteady.append(name)
        value = statistics.median(values)
        metrics[name] = (int(value) if unit == "count" else value, unit)
    return metrics, unsteady


def write_trace(path: Path, args, layers) -> None:
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": [
            {"spans": {k: {"calls": c, "total_s": t, "self_s": s}
                       for k, (c, t, s) in sorted(spans.items())},
             "counts": dict(sorted(counts.items()))}
            for spans, counts in layers
        ],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
