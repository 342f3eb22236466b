"""The benchmark's workloads: what one round runs, how it is traced and how
its outputs are checked.

``study-normal`` and ``study-binomial`` call ``run_study`` in the driver
process. ``cli-wide`` runs ``permscan simulate`` and two ``permscan scan``
commands as child processes (in-process through ``permscan.cli.main`` when
traced, so that the wrappers see the calls).
"""

import contextlib
import hashlib
import io as _io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
from permscan import cli, glm, resampling, score, simulate, study
from permscan.glm import Family
from permscan.resampling import ResamplingScheme
from permscan.simulate import SimulationConfig
from permscan.study import StudyConfig

ALPHA = 0.05


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of every workload: K datasets of n x m for the studies,
    an n x m CSV dataset for the CLI, and B replicates each."""

    study_n: int
    study_m: int
    study_k: int
    study_b: int
    cli_n: int
    cli_m: int
    cli_b: int


# K is set so that one study round lasts a few seconds here; the other sizes
# are the calibration scenario of the paper (n=400, m=100, B=500) and a scan
# with m 20x the study size.
FULL = Sizes(study_n=400, study_m=100, study_k=10, study_b=500, cli_n=2000, cli_m=2000, cli_b=1000)
QUICK = Sizes(study_n=120, study_m=10, study_k=2, study_b=39, cli_n=200, cli_m=30, cli_b=99)
WARM_UP = Sizes(study_n=40, study_m=4, study_k=1, study_b=19, cli_n=40, cli_m=4, cli_b=19)


@dataclass
class Run:
    """What a workload needs to know about the run it is part of."""

    sizes: Sizes
    seed: int
    workdir: Path
    src: Path
    nproc: int

    def child_env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        return env


@dataclass
class Round:
    """One round's wall time per stage, CPU time, peak RSS and outputs."""

    stages: dict = field(default_factory=dict)
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_child(argv, env, log_path):
    """Run a child process to completion; return (exit code, rusage) of
    that child alone."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def interpreter_start_s(run):
    """Wall time of a fresh interpreter importing ``permscan.cli``."""
    start = time.perf_counter()
    code, _ = run_child(
        [sys.executable, "-c", "import permscan.cli"],
        run.child_env(),
        run.workdir / "startup.log",
    )
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"importing permscan.cli in a fresh interpreter exited {code}")
    return elapsed


# -- tracing -----------------------------------------------------------------


def _after_fit(tracer, args, kwargs, fit):
    tracer.counters["glm.irls_iterations"] += fit.iterations


def _replicates_span(args, kwargs):
    return "resampling.replicate_statistics." + args[0].value


def _after_replicates(tracer, args, kwargs, dist):
    scheme, _, dataset, b = args[:4]
    length = scheme.permuted_length(dataset.n, dataset.d)
    tracer.counters["resampling.replicates"] += dist.b
    tracer.counters["resampling.kernel_flop"] += 2 * b * length * dataset.m
    tracer.counters["resampling.kernel_bytes"] += 8 * (b * length + length * dataset.m)


def _after_ingest(tracer, args, kwargs, result):
    tracer.counters["io.bytes_read"] += sum(
        os.path.getsize(path) for path in args if path is not None
    )


def _after_write(tracer, args, kwargs, paths):
    tracer.counters["io.bytes_written"] += sum(os.path.getsize(path) for path in paths)


def trace_hooks():
    """Module attributes through which permscan calls from layer to layer,
    as ``(owner, attribute, span name, after-hook)``."""
    replicates = (_replicates_span, _after_replicates)
    return [
        (study, "simulate_dataset", "simulate.dataset", None),
        (cli, "simulate_dataset", "simulate.dataset", None),
        (simulate, "correlation_factor", "simulate.correlation_factor", None),
        (simulate, "substream", "rng.substream@simulate", None),
        (study, "fit_null", "glm.fit_null", _after_fit),
        (resampling, "fit_null", "glm.fit_null", _after_fit),
        (cli, "fit_null", "glm.fit_null", _after_fit),
        (glm.NullModelFit, "q_factor", "glm.q_factor", None),
        (score, "score_denominators", "score.denominators", None),
        (resampling, "score_denominators", "score.denominators", None),
        (study, "score_statistics", "score.statistics", None),
        (cli, "score_statistics", "score.statistics", None),
        (study, "replicate_statistics", *replicates),
        (cli, "replicate_statistics", *replicates),
        (resampling, "exchangeable_transform", "resampling.transform", None),
        (resampling, "substream", "rng.substream@resampling", None),
        (study, "per_dataset_fwer", "resampling.cutoff", None),
        (cli, "maxt_cutoff", "resampling.cutoff", None),
        (cli, "ingest", "io.ingest", _after_ingest),
        (cli, "write_dataset", "io.write_dataset", _after_write),
        (cli, "write_scan_report", "cli.report_write", None),
    ]


def layer_metrics(tracer, root, counters):
    """Per-layer figures of the traced round under span ``root``;
    ``counters`` holds the counter increments of that round."""
    seconds, calls, self_seconds = tracer.totals(root)
    per_scheme = {
        name[len("resampling.replicate_statistics.") :]: value
        for name, value in seconds.items()
        if name.startswith("resampling.replicate_statistics.")
    }
    refit = {s.value for s in ResamplingScheme if s.refits_per_replicate}
    replicates = counters["resampling.replicates"]
    replicate_streams = calls["rng.substream@resampling"]
    ingest_s = seconds["io.ingest"]
    out = {
        "simulate.dataset_s": seconds["simulate.dataset"],
        "simulate.correlation_factor_s": seconds["simulate.correlation_factor"],
        "glm.fit_null_calls": calls["glm.fit_null"],
        "glm.fit_null_s": seconds["glm.fit_null"],
        "glm.irls_iterations": counters["glm.irls_iterations"],
        "glm.q_factor_s": seconds["glm.q_factor"],
        "score.denominators_calls": calls["score.denominators"],
        "score.denominators_s": seconds["score.denominators"],
        "score.statistics_s": seconds["score.statistics"],
        "resampling.replicate_statistics_s": sum(per_scheme.values()),
        "resampling.transform_schemes_s": sum(
            v for k, v in per_scheme.items() if k not in refit
        ),
        "resampling.refit_schemes_s": sum(v for k, v in per_scheme.items() if k in refit),
        "resampling.replicates": replicates,
        "resampling.transform_s": seconds["resampling.transform"],
        "resampling.kernel_gflop": counters["resampling.kernel_flop"] / 1e9,
        "resampling.kernel_mb": counters["resampling.kernel_bytes"] / 1e6,
        "resampling.cutoff_s": seconds["resampling.cutoff"],
        "rng.substream_calls": calls["rng.substream@simulate"] + replicate_streams,
        "rng.substream_s": seconds["rng.substream@simulate"]
        + seconds["rng.substream@resampling"],
        "rng.replicate_streams": replicate_streams,
        "rng.streams_per_replicate": replicate_streams / replicates if replicates else 0.0,
        "io.write_dataset_s": seconds["io.write_dataset"],
        "io.bytes_written": counters["io.bytes_written"],
        "io.ingest_s": ingest_s,
        "io.bytes_read": counters["io.bytes_read"],
        "io.ingest_mb_per_s": counters["io.bytes_read"] / 1e6 / ingest_s if ingest_s else 0.0,
        "cli.report_write_s": seconds["cli.report_write"],
        "entry.self_s": sum(self_seconds.values()),
    }
    for scheme, value in per_scheme.items():
        out["resampling.replicate_statistics_s." + scheme] = value
    return out


# -- workloads ----------------------------------------------------------------


class StudyWorkload:
    """``run_study`` at workers=1, and for the binomial study again at
    workers=nproc."""

    def __init__(self, name, family, beta_e, schemes, parallel):
        self.name = name
        self.family = family
        self.beta_e = beta_e
        self.schemes = schemes
        self.parallel = parallel

    def config(self, run, sizes, workers):
        sim = SimulationConfig(
            n=sizes.study_n, m=sizes.study_m, family=self.family, beta_e=self.beta_e, rho=0.7
        )
        return StudyConfig(
            sim=sim,
            schemes=self.schemes,
            k=sizes.study_k,
            b=sizes.study_b,
            alpha=ALPHA,
            workers=workers,
            master_seed=run.seed,
        )

    def operations(self, run, sizes):
        ops = [("study_s", lambda: (1, study.run_study(self.config(run, sizes, 1))))]
        if self.parallel:
            workers = run.nproc
            ops.append(
                (
                    "study_parallel_s",
                    lambda: (workers, study.run_study(self.config(run, sizes, workers))),
                )
            )
        return ops

    def timed_round(self, run):
        cpu_before = _cpu_seconds()
        result = Round()
        for stage, operation in self.operations(run, run.sizes):
            result.attempted += 1
            start = time.perf_counter()
            try:
                result.outputs.append(operation())
            except Exception:  # counted as a failed operation, run continues
                result.failed += 1
                result.errors.append(traceback.format_exc(limit=3))
            result.stages[stage] = result.stages.get(stage, 0.0) + time.perf_counter() - start
        result.cpu_s = _cpu_seconds() - cpu_before
        result.peak_rss_mb = _peak_rss_mb()
        return result

    def warm_up(self, run):
        for _, operation in self.operations(run, WARM_UP):
            operation()

    def traced_round(self, run, tracer, traced_first):
        """Untraced and traced ``run_study`` at workers=1, plus the untraced
        parallel study; returns (Round, traced seconds, root span, untraced
        seconds)."""
        config = self.config(run, run.sizes, 1)

        def traced():
            with tracer.span("round") as root:
                with tracer.installed(trace_hooks()):
                    with tracer.span("entry.run_study") as entry:
                        output = study.run_study(config)
            start, end = tracer.spans[entry][1:3]
            return (1, output), end - start, root

        if traced_first:
            output, traced_s, root = traced()
            result = self.timed_round(run)
        else:
            result = self.timed_round(run)
            output, traced_s, root = traced()
        result.attempted += 1
        result.outputs.append(output)
        return result, traced_s, root, result.stages["study_s"]

    def check(self, run, outputs, reference):
        """Full checks on the first study; every later one, whatever its
        worker count, must give the same alpha_hat bytes (modified-model
        aside, see the README)."""
        for workers, result in outputs:
            hats = {s.value: result.per_scheme[s].alpha_hat for s in self.schemes}
            for scheme, values in hats.items():
                checks.alpha_hats_on_grid(values, result.config.b, f"{self.name} {scheme}")
            stable = {k: v.tobytes() for k, v in hats.items() if k != "modified-model"}
            if reference is None:
                self.check_method(run, result)
                reference = stable
            checks.require(
                stable == reference,
                f"{self.name}: alpha_hat at workers={workers} differs from the first study",
            )
        return reference

    def check_method(self, run, result):
        sim = replace(result.config.sim, seed=run.seed)
        dataset = simulate.simulate_dataset(sim, stream_path=(0,)).dataset
        fit = glm.fit_null(self.family, dataset.y, dataset.x_e)
        observed = score.score_statistics(fit, dataset.x_g)
        if self.family is Family.NORMAL:
            fl = result.per_scheme[ResamplingScheme.FREEDMAN_LANE].alpha_hat
            sr = result.per_scheme[ResamplingScheme.STANDARDIZED_RESIDUALS].alpha_hat
            checks.require(
                np.array_equal(fl, sr),
                f"{self.name}: freedman-lane and standardized-residuals alpha_hat differ",
            )
            reference = checks.ols_scores(dataset.y, dataset.x_e, dataset.x_g)
            checks.scores_match(observed.t, reference, 1e-8, f"{self.name} dataset 0")
            checks.q_factor_is_residual_basis(fit.q_factor(), dataset.x_e)
        else:
            reference = checks.logistic_scores(dataset.y, dataset.x_e, dataset.x_g)
            checks.scores_match(observed.t, reference, 1e-6, f"{self.name} dataset 0")


class CliWorkload:
    """``permscan simulate`` of a wide binomial dataset, then ``permscan
    scan`` of it under two schemes."""

    name = "cli-wide"
    schemes = ("standardized-residuals", "parametric-bootstrap")

    def commands(self, run, sizes, directory):
        data = directory / "data"
        simulate_args = [
            "simulate", "--family", "binomial", "--n", str(sizes.cli_n),
            "--m", str(sizes.cli_m), "--beta-e", "0.5", "--rho", "0.5",
            "--seed", str(run.seed), "--out-dir", str(data),
        ]
        commands = [("simulate_s", simulate_args)]
        for scheme in self.schemes:
            commands.append(
                (
                    "scan_s",
                    [
                        "scan", "--phenotype", str(data / "phenotype.csv"),
                        "--genotypes", str(data / "genotypes.csv"),
                        "--covariates", str(data / "covariates.csv"),
                        "--family", "binomial", "--scheme", scheme,
                        "--b", str(sizes.cli_b), "--alpha", str(ALPHA),
                        "--seed", str(run.seed),
                        "--out", str(directory / f"{scheme}.json"), "--format", "json",
                    ],
                )
            )
        return commands

    @staticmethod
    def _directory(run):
        return run.workdir / "cli"

    def timed_round(self, run):
        directory = self._directory(run)
        result = Round()
        env = run.child_env()
        ok = True
        for stage, argv in self.commands(run, run.sizes, directory):
            result.attempted += 1
            start = time.perf_counter()
            code, usage = run_child(
                [sys.executable, "-m", "permscan.cli", *argv], env, run.workdir / "child.log"
            )
            result.stages[stage] = result.stages.get(stage, 0.0) + time.perf_counter() - start
            result.cpu_s += usage.ru_utime + usage.ru_stime
            result.peak_rss_mb = max(result.peak_rss_mb, usage.ru_maxrss / 1024.0)
            if code != 0:
                ok = False
                result.failed += 1
                result.errors.append(
                    f"permscan {argv[0]} exited {code}: "
                    + (run.workdir / "child.log").read_text()[-2000:]
                )
        if ok:
            result.outputs.append(self.snapshot(directory))
        return result

    def _main(self, argv):
        with contextlib.redirect_stdout(_io.StringIO()):
            return cli.main(argv)

    def warm_up(self, run):
        for _, argv in self.commands(run, WARM_UP, run.workdir / "warm-up"):
            code = self._main(argv)
            if code != 0:
                raise RuntimeError(f"warm-up permscan {argv[0]} exited {code}")

    def _in_process(self, run, result, tracer=None):
        """The three commands through ``permscan.cli.main``; returns the
        wall time and whether all of them succeeded."""
        ok = True
        start = time.perf_counter()
        for _, argv in self.commands(run, run.sizes, self._directory(run)):
            result.attempted += 1
            with tracer.span("entry.cli.main") if tracer else contextlib.nullcontext():
                code = self._main(argv)
            if code != 0:
                ok = False
                result.failed += 1
                result.errors.append(f"in-process permscan {argv[0]} returned {code}")
        return time.perf_counter() - start, ok

    def traced_round(self, run, tracer, traced_first):
        """The three commands in-process, untraced and traced; returns
        (Round, traced seconds, root span, untraced seconds)."""
        directory = self._directory(run)
        result = Round()
        seconds = {}
        for traced in (True, False) if traced_first else (False, True):
            if traced:
                with tracer.span("round") as root:
                    with tracer.installed(trace_hooks()):
                        seconds[traced], ok = self._in_process(run, result, tracer)
            else:
                seconds[traced], ok = self._in_process(run, result)
            if ok:
                result.outputs.append(self.snapshot(directory))
        return result, seconds[True], root, seconds[False]

    @staticmethod
    def snapshot(directory):
        """Digest of every file a round wrote, so later rounds can be
        compared with the checked one."""
        files = sorted(p for p in directory.rglob("*") if p.is_file())
        return {
            str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files
        }

    def check(self, run, outputs, reference):
        """Full checks on the files of the first round; every later set of
        outputs must have the same bytes."""
        if reference is None and outputs:
            self.check_method(run, self._directory(run))
            reference = outputs[-1]
        for digest in outputs:
            checks.require(digest == reference, f"{self.name}: outputs changed between rounds")
        return reference

    def check_method(self, run, directory):
        sizes = run.sizes
        data = directory / "data"
        x_g = np.loadtxt(data / "genotypes.csv", delimiter=",", skiprows=1, ndmin=2)
        y = np.loadtxt(data / "phenotype.csv", delimiter=",", skiprows=1, ndmin=1)
        covariates = np.loadtxt(data / "covariates.csv", delimiter=",", skiprows=1, ndmin=2)
        checks.genotypes_valid(x_g, sizes.cli_n, sizes.cli_m, (0.05, 0.5))
        checks.require(y.shape == (sizes.cli_n,), f"phenotype has shape {y.shape}")
        checks.require(np.isin(y, (0.0, 1.0)).all(), "phenotype is not 0/1")
        checks.require(
            covariates.shape == (sizes.cli_n, 1), f"covariates have shape {covariates.shape}"
        )
        x_e = np.column_stack([np.ones(sizes.cli_n), covariates])
        t_reference = checks.logistic_scores(y, x_e, x_g)
        for scheme in self.schemes:
            report = json.loads((directory / f"{scheme}.json").read_text())
            checks.scan_report_valid(
                report, t_reference, sizes.cli_n, sizes.cli_m, sizes.cli_b, ALPHA, scheme, 1e-8
            )


WORKLOADS = {
    w.name: w
    for w in (
        StudyWorkload(
            "study-normal", Family.NORMAL, 0.5, tuple(ResamplingScheme), parallel=False
        ),
        StudyWorkload(
            "study-binomial",
            Family.BINOMIAL,
            1.5,
            (
                ResamplingScheme.STANDARDIZED_RESIDUALS,
                ResamplingScheme.RAW_Y,
                ResamplingScheme.PARAMETRIC_BOOTSTRAP,
            ),
            parallel=True,
        ),
        CliWorkload(),
    )
}
