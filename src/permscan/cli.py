"""Command-line front end.

Three subcommands:

* ``permscan scan``      score-test a dataset read from CSV files and apply
                         maxT multiplicity control under a chosen scheme;
* ``permscan simulate``  write a simulated dataset as the three CSV files
                         the scan subcommand ingests;
* ``permscan study``     run a K x B calibration study described by a
                         key-value config file plus command-line overrides.

Exit codes: 0 success, 2 file parse error, 3 model fit error, 4 resampling
error, 5 configuration error. Reports embed the resolved statistical
configuration and seed; identical requests produce byte-identical output
files for any worker count.
"""

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    FitError,
    ParseError,
    PermscanError,
    ResamplingError,
)
from .glm import Family, fit_null
from .io import (
    ingest,
    write_dataset,
    write_table_csv,
    write_table_json,
)
from .resampling import (
    ResamplingScheme,
    bonferroni_sidak,
    maxt_cutoff,
    replicate_statistics,
)
from .score import score_statistics, two_sided_p
from .simulate import SimulationConfig, simulate_dataset
from .study import StudyConfig, run_study, table_rows

__all__ = ["ScanReport", "run_scan", "main"]

WORKERS_ENV_VAR = "PERMSCAN_WORKERS"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; we reserve 2 for data parse
    # failures and route usage problems to the config exit code instead.
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class ScanReport:
    """Per-marker scan results plus the maxT calibration that fixed them."""

    config: dict
    marker_names: list
    t: np.ndarray
    p_values: np.ndarray
    rejected: np.ndarray
    cutoff: object
    alpha_bonferroni: float
    alpha_sidak: float


def _check_workers(workers, source):
    if workers < 1:
        raise ConfigError(f"{source} must be >= 1, got {workers}")
    return workers


def _default_workers():
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}") from exc
    return _check_workers(workers, WORKERS_ENV_VAR)


def _family(value):
    try:
        return Family(value)
    except ValueError as exc:
        names = ", ".join(f.value for f in Family)
        raise ConfigError(f"unknown family {value!r} (choose from {names})") from exc


def _scheme(value):
    try:
        return ResamplingScheme(value)
    except ValueError as exc:
        names = ", ".join(s.value for s in ResamplingScheme)
        raise ConfigError(f"unknown scheme {value!r} (choose from {names})") from exc


def run_scan(
    phenotype,
    genotypes,
    covariates=None,
    family=Family.NORMAL,
    scheme=ResamplingScheme.FREEDMAN_LANE,
    b=1000,
    alpha=0.05,
    seed=0,
):
    """Ingest the CSV files, run the scheme and build a ScanReport."""
    dataset, marker_names = ingest(phenotype, genotypes, covariates)
    if family is Family.BINOMIAL:
        bad = np.flatnonzero((dataset.y != 0.0) & (dataset.y != 1.0))
        if bad.size:
            raise ConfigError(
                f"family 'binomial' needs a 0/1 phenotype; {phenotype} has "
                f"{dataset.y[bad[0]]:g} at row {bad[0] + 1}"
            )
    fit = fit_null(family, dataset.y, dataset.x_e)
    observed = score_statistics(fit, dataset.x_g)
    dist = replicate_statistics(scheme, fit, dataset, b, seed)
    cutoff = maxt_cutoff(dist, alpha)
    alpha_bonf, alpha_sidak = bonferroni_sidak(dataset.m, alpha)
    p_values = np.array([two_sided_p(t) for t in observed.t])
    # The statistical request only; execution hints (worker count, output
    # paths) never appear so reruns are byte-identical.
    config = {
        "alpha": alpha,
        "b": b,
        "covariates": covariates is not None,
        "family": family.value,
        "m": dataset.m,
        "n": dataset.n,
        "scheme": scheme.value,
        "seed": seed,
    }
    return ScanReport(
        config=config,
        marker_names=list(marker_names),
        t=observed.t,
        p_values=p_values,
        rejected=np.abs(observed.t) >= cutoff.c,
        cutoff=cutoff,
        alpha_bonferroni=alpha_bonf,
        alpha_sidak=alpha_sidak,
    )


def _cutoff_dict(cutoff):
    return {
        "alpha": cutoff.alpha,
        "alpha_loc": cutoff.alpha_loc,
        "c": cutoff.c,
        "ci_high": cutoff.ci_high,
        "ci_low": cutoff.ci_low,
        "eq_index": cutoff.eq_index,
        "eq_satisfied": cutoff.eq_satisfied,
        "quantile_index": cutoff.quantile_index,
        "quantile_value": cutoff.quantile_value,
    }


def write_scan_report(report, path, fmt):
    if fmt == "json":
        payload = {
            "baselines": {
                "bonferroni": report.alpha_bonferroni,
                "sidak": report.alpha_sidak,
            },
            "config": report.config,
            "cutoff": _cutoff_dict(report.cutoff),
            "markers": [
                {
                    "name": name,
                    "t": float(t),
                    "p_value": float(p),
                    "rejected": bool(r),
                }
                for name, t, p, r in zip(
                    report.marker_names, report.t, report.p_values, report.rejected
                )
            ],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return
    with open(path, "w", newline="") as handle:
        for key in sorted(report.config):
            handle.write(f"# {key}={report.config[key]}\n")
        for key, value in sorted(_cutoff_dict(report.cutoff).items()):
            handle.write(f"# cutoff.{key}={value}\n")
        handle.write(f"# baseline.bonferroni={report.alpha_bonferroni!r}\n")
        handle.write(f"# baseline.sidak={report.alpha_sidak!r}\n")
        handle.write("marker,t,p_value,rejected\n")
        for name, t, p, r in zip(
            report.marker_names, report.t, report.p_values, report.rejected
        ):
            handle.write(f"{name},{float(t)!r},{float(p)!r},{int(r)}\n")


def _add_scan_parser(subparsers):
    p = subparsers.add_parser("scan", help="score-test a dataset with maxT control")
    p.add_argument("--phenotype", required=True, help="phenotype CSV (header 'y')")
    p.add_argument("--genotypes", required=True, help="genotype CSV of 0/1/2 counts")
    p.add_argument("--covariates", help="covariate CSV (intercept added)")
    p.add_argument("--family", default="normal", help="normal or binomial")
    p.add_argument(
        "--scheme",
        default="freedman-lane",
        help=", ".join(s.value for s in ResamplingScheme),
    )
    p.add_argument("--b", type=int, default=1000, help="number of replicates")
    p.add_argument("--alpha", type=float, default=0.05, help="target FWER level")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--workers", type=int, help="accepted; scan runs serially")
    p.add_argument("--out", required=True, help="report path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_simulate_parser(subparsers):
    p = subparsers.add_parser("simulate", help="write a simulated dataset as CSVs")
    p.add_argument("--family", default="normal")
    p.add_argument("--n", type=int, required=True, help="individuals")
    p.add_argument("--m", type=int, required=True, help="markers")
    p.add_argument("--rho", type=float, default=0.0, help="latent correlation")
    p.add_argument("--beta-e", type=float, default=0.0, help="covariate effect size")
    p.add_argument("--maf-low", type=float, default=0.05)
    p.add_argument("--maf-high", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True, help="directory for the three CSVs")


def _add_study_parser(subparsers):
    p = subparsers.add_parser("study", help="run a K x B calibration study")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--family")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--beta-e", type=float)
    p.add_argument("--maf-low", type=float)
    p.add_argument("--maf-high", type=float)
    p.add_argument("--schemes", help="comma-separated scheme names")
    p.add_argument("--k", type=int, help="number of simulated datasets")
    p.add_argument("--b", type=int, help="replicates per dataset")
    p.add_argument("--alpha", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument(
        "--timings",
        action="store_true",
        default=None,
        help="write wall-clock seconds into the table (breaks byte "
        "reproducibility across runs)",
    )
    p.add_argument("--out", required=True, help="table path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


@contextlib.contextmanager
def _writing(path):
    """Report a failure to write ``path`` as a configuration error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _read_config_file(path):
    values = {}
    try:
        with open(path) as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value', got {raw!r}"
                    )
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


_STUDY_DEFAULTS = {
    "family": "normal",
    "n": 400,
    "m": 100,
    "rho": 0.0,
    "beta_e": 0.0,
    "maf_low": 0.05,
    "maf_high": 0.5,
    "schemes": "freedman-lane",
    "k": 100,
    "b": 500,
    "alpha": 0.05,
    "seed": 0,
    "workers": None,
    "timings": False,
}

_STUDY_CASTS = {
    "n": int,
    "m": int,
    "rho": float,
    "beta_e": float,
    "maf_low": float,
    "maf_high": float,
    "k": int,
    "b": int,
    "alpha": float,
    "seed": int,
    "workers": int,
    "timings": lambda v: str(v).strip().lower() in ("1", "true", "yes", "on"),
}


def _resolve_study_config(args):
    """Defaults < config file < command-line flags."""
    resolved = dict(_STUDY_DEFAULTS)
    if args.config:
        file_values = _read_config_file(args.config)
        unknown = set(file_values) - set(_STUDY_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, raw in file_values.items():
            cast = _STUDY_CASTS.get(key, str)
            try:
                resolved[key] = cast(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    for key in _STUDY_DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    if resolved["workers"] is None:
        resolved["workers"] = _default_workers()
    schemes = tuple(
        _scheme(name.strip())
        for name in str(resolved["schemes"]).split(",")
        if name.strip()
    )
    sim = SimulationConfig(
        n=resolved["n"],
        m=resolved["m"],
        family=_family(resolved["family"]),
        beta_e=resolved["beta_e"],
        rho=resolved["rho"],
        maf_range=(resolved["maf_low"], resolved["maf_high"]),
        seed=resolved["seed"],
    )
    config = StudyConfig(
        sim=sim,
        schemes=schemes,
        k=resolved["k"],
        b=resolved["b"],
        alpha=resolved["alpha"],
        workers=resolved["workers"],
        master_seed=resolved["seed"],
    )
    return config, bool(resolved["timings"])


def _cmd_scan(args):
    # Validated for symmetry with study; scan is serial.
    if args.workers is None:
        _default_workers()
    else:
        _check_workers(args.workers, "--workers")
    report = run_scan(
        phenotype=args.phenotype,
        genotypes=args.genotypes,
        covariates=args.covariates,
        family=_family(args.family),
        scheme=_scheme(args.scheme),
        b=args.b,
        alpha=args.alpha,
        seed=args.seed,
    )
    with _writing(args.out):
        write_scan_report(report, args.out, args.format)
    rejected = int(report.rejected.sum())
    print(
        f"scan: {len(report.marker_names)} markers, {rejected} rejected at "
        f"alpha={report.cutoff.alpha} (alpha_loc={report.cutoff.alpha_loc:.6g}); "
        f"report written to {args.out}"
    )
    return 0


def _cmd_simulate(args):
    config = SimulationConfig(
        n=args.n,
        m=args.m,
        family=_family(args.family),
        beta_e=args.beta_e,
        rho=args.rho,
        maf_range=(args.maf_low, args.maf_high),
        seed=args.seed,
    )
    simulated = simulate_dataset(config)
    with _writing(args.out_dir):
        paths = write_dataset(args.out_dir, simulated.dataset)
    print("simulate: wrote " + ", ".join(str(p) for p in paths))
    return 0


def _cmd_study(args):
    config, timings = _resolve_study_config(args)
    result = run_study(config)
    rows = table_rows(result)
    writer = write_table_json if args.format == "json" else write_table_csv
    with _writing(args.out):
        writer(args.out, rows, include_timings=timings)
    for row in rows:
        print(
            f"study: {row['scheme']:>24s}  alpha_tilde={row['alpha_tilde']:.4f}  "
            f"ci=({row['ci_low']:.4f}, {row['ci_high']:.4f})"
        )
    print(f"study: table written to {args.out}")
    return 0


def build_parser():
    parser = _Parser(
        prog="permscan",
        description="FWER-controlled association scans via score tests and "
        "resampling-based maxT calibration",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_scan_parser(subparsers)
    _add_simulate_parser(subparsers)
    _add_study_parser(subparsers)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_study(args)
    except _UsageError as exc:
        print(f"permscan: {exc}", file=sys.stderr)
        return 5
    except ParseError as exc:
        print(f"permscan: parse error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"permscan: fit error: {exc}", file=sys.stderr)
        return 3
    except ResamplingError as exc:
        print(f"permscan: resampling error: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"permscan: config error: {exc}", file=sys.stderr)
        return 5
    except PermscanError as exc:
        print(f"permscan: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
