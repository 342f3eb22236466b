"""Benchmark driver for permscan.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Runs one workload (``study-normal``, ``study-binomial`` or ``cli-wide``)
in whole rounds until ``--seconds`` have passed, checks every round's
outputs, and prints an environment record, a detail record and, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` each round runs the workload once
untraced and once with wrappers around permscan's layer calls, and the
metrics are the per-layer metrics. ``--quick`` shrinks every size so that a
run takes seconds (a self-check, not a measurement).

The package is imported from ``src/`` of the checkout this file sits in.
The benchmark sets no ``*_NUM_THREADS`` variable and no CPU affinity; it
records them.
"""

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for self-checks")
    return parser.parse_args(argv)


def environment(nproc):
    import numpy
    import scipy

    config = getattr(getattr(numpy, "__config__", None), "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    threads = {name: os.environ.get(name) for name in THREAD_VARIABLES}
    threads.update(
        {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    )
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        },
        "thread_variables": threads,
        "PERMSCAN_WORKERS": os.environ.get("PERMSCAN_WORKERS"),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def measure(workload, run, seconds, tracer):
    """Run whole rounds until ``seconds`` have passed and check each round's
    outputs as soon as it ends. Returns the rounds, each a (Round, per-layer
    figures) pair, and the messages of the checks that failed."""
    from checks import CheckFailed
    from workloads import interpreter_start_s, layer_metrics

    rounds = []
    reference = None
    failed_checks = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        layers = {}
        if tracer is None:
            result = workload.timed_round(run)
        else:
            before = Counter(tracer.counters)
            result, traced_s, root, untraced_s = workload.traced_round(
                run, tracer, traced_first=len(rounds) % 2 == 1
            )
            layers = layer_metrics(tracer, root, tracer.counters - before)
            layers.update(
                {
                    "cli.startup_s": interpreter_start_s(run),
                    "trace.traced_s": traced_s,
                    "trace.untraced_s": untraced_s,
                }
            )
        try:
            reference = workload.check(run, result.outputs, reference)
        except CheckFailed as exc:
            failed_checks.append(str(exc))
        rounds.append((result, layers))
    return rounds, failed_checks


def stage_figures(results, nproc):
    """Median wall time of each stage of a round, and the parallel
    efficiency where a round runs the study at both worker counts."""
    stages = {}
    for result in results:
        for stage, value in result.stages.items():
            stages.setdefault(stage, []).append(value)
    figures = {stage: median(values) for stage, values in stages.items()}
    if "study_parallel_s" in figures:
        figures["study.parallel_efficiency"] = figures["study_s"] / (
            nproc * figures["study_parallel_s"]
        )
    return figures


def end_to_end(results, setup_times):
    return {
        "setup_s": median(setup_times),
        "wall_s": median(sum(r.stages.values()) for r in results),
        "cpu_s": median(r.cpu_s for r in results),
        "peak_rss_mb": max(r.peak_rss_mb for r in results),
    }


def per_layer(layers):
    """Median over the traced rounds of every per-layer figure."""
    keys = set().union(*layers)
    figures = {key: median(x.get(key, 0.0) for x in layers) for key in sorted(keys)}
    figures["trace.overhead_s"] = figures["trace.traced_s"] - figures["trace.untraced_s"]
    return figures


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "permscan" / "__init__.py").is_file():
        print(f"bench: no permscan package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import_start = time.perf_counter()
    import permscan

    if Path(permscan.__file__).resolve().parent != SRC / "permscan":
        print(f"bench: imported permscan from {permscan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    import_s = time.perf_counter() - import_start
    if args.workload not in workloads.WORKLOADS:
        print(
            f"bench: unknown workload {args.workload!r}; choose from "
            + ", ".join(workloads.WORKLOADS),
            file=sys.stderr,
        )
        return 2
    e2e_units, layer_units = declared_metrics()
    workload = workloads.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    env = environment(nproc)
    sizes = workloads.QUICK if args.quick else workloads.FULL
    OUT.mkdir(exist_ok=True)
    workdir = None
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            if workdir is not None:
                shutil.rmtree(workdir)
            workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
            run = workloads.Run(sizes=sizes, seed=args.seed, workdir=workdir, src=SRC, nproc=nproc)
            workloads.interpreter_start_s(run)
            workload.warm_up(run)
            setup_times.append(time.perf_counter() - start)
        tracer = Tracer() if args.trace else None
        rounds, failed_checks = measure(workload, run, args.seconds, tracer)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_1m_end"] = os.getloadavg()[0]

    results = [result for result, _ in rounds]
    detail = stage_figures(results, nproc)
    if tracer is None:
        values = end_to_end(results, setup_times)
        detail["round_wall_s"] = [sum(r.stages.values()) for r in results]
        units = e2e_units
    else:
        values = per_layer([layers for _, layers in rounds])
        # Layers that did not run in this workload read 0 and are left out.
        detail.update({k: v for k, v in values.items() if k not in layer_units and v})
        units = layer_units
    detail.update(
        rounds=len(rounds),
        sizes=sizes.__dict__,
        import_s=import_s,
        setup_runs_s=setup_times,
    )
    missing = set(units) - set(values)
    if missing:
        print(f"bench: metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 3
    errors = [error for result in results for error in result.errors]
    result = {
        "correct": not failed_checks,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env,
        "detail": detail,
        "failed_checks": failed_checks,
        "failed_operations": errors,
        "result": result,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(tracer.dump()))
    for message in errors + [f"check failed: {m}" for m in failed_checks]:
        print(f"bench: {message}", file=sys.stderr)
    print("environment: " + json.dumps(env))
    print("detail: " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
