"""Command-line front end.

Three subcommands:

* ``permscan scan``      score-test a dataset read from CSV files and apply
                         maxT multiplicity control under a chosen scheme;
* ``permscan simulate``  write a simulated dataset as the three CSV files
                         the scan subcommand ingests;
* ``permscan study``     run a K x B calibration study described by a
                         key-value config file plus command-line overrides.

``_STUDY`` is the one table of the simulation and study options: each key
is a ``study`` flag (``--beta-e`` for ``beta_e``) and a study config-file
key, and its eight ``_SCENARIO`` keys are also the ``simulate`` flags.

Exit codes (``_EXIT_CODES``): 0 success, 1 any other permscan error, 2 file
parse error, 3 model fit error, 4 resampling error, 5 configuration error.
Reports embed the resolved statistical configuration and seed; identical
requests produce byte-identical output files for any worker count.
"""

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    ConfigError,
    FitError,
    ParseError,
    PermscanError,
    ResamplingError,
    check_integer,
)
from .glm import Family, fit_null
from .io import ingest, write_dataset, write_table_csv, write_table_json
from .resampling import (
    ResamplingScheme,
    bonferroni_sidak,
    check_cutoff_request,
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


def _default_workers():
    raw = os.environ.get(WORKERS_ENV_VAR, "1")
    with contextlib.suppress(ValueError):  # a str left here fails check_integer
        raw = int(raw)
    return check_integer(WORKERS_ENV_VAR, raw, 1)


def _choice(kind, value, noun):
    """The member of enum ``kind`` named ``value``, or a ConfigError."""
    try:
        return kind(value)
    except ValueError as exc:
        names = ", ".join(member.value for member in kind)
        raise ConfigError(f"unknown {noun} {value!r} (choose from {names})") from exc


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
    check_cutoff_request(b, alpha)
    check_integer("seed", seed, 0)
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


def write_scan_report(report, path, fmt):
    if fmt == "json":
        payload = {
            "baselines": {
                "bonferroni": report.alpha_bonferroni,
                "sidak": report.alpha_sidak,
            },
            "config": report.config,
            "cutoff": asdict(report.cutoff),
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
        for key, value in sorted(asdict(report.cutoff).items()):
            handle.write(f"# cutoff.{key}={value}\n")
        handle.write(f"# baseline.bonferroni={report.alpha_bonferroni!r}\n")
        handle.write(f"# baseline.sidak={report.alpha_sidak!r}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["marker", "t", "p_value", "rejected"])
        for name, t, p, r in zip(
            report.marker_names, report.t, report.p_values, report.rejected
        ):
            writer.writerow([name, float(t), float(p), int(r)])


@contextlib.contextmanager
def _writing(path):
    """Report a failure to write ``path`` as a configuration error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _check_out_dir(path):
    """Fail before any computation when ``path`` is or lacks a directory."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"cannot write {path}: {directory} is not a directory")


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


def _boolean(value):
    """A config-file switch: 1/true/yes/on or 0/false/no/off, in any case."""
    word = value.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(value)
    return word in ("1", "true", "yes", "on")


# key: (cast, study default, help). The scenario keys describe one simulated
# dataset and are the simulate flags; a study takes them and its own.
_SCENARIO = {
    "family": (str, "normal", "normal or binomial"),
    "n": (int, 400, "individuals"),
    "m": (int, 100, "markers"),
    "rho": (float, 0.0, "latent correlation"),
    "beta_e": (float, 0.0, "covariate effect size"),
    "maf_low": (float, 0.05, "lowest minor-allele frequency"),
    "maf_high": (float, 0.5, "highest minor-allele frequency"),
    "seed": (int, 0, "master seed"),
}
_STUDY = {
    **_SCENARIO,
    "schemes": (str, "freedman-lane", "comma-separated scheme names"),
    "k": (int, 100, "number of simulated datasets"),
    "b": (int, 500, "replicates per dataset"),
    "alpha": (float, 0.05, "target FWER level"),
    "workers": (int, None, f"worker processes (default: ${WORKERS_ENV_VAR} or 1)"),
    "timings": (
        _boolean,
        False,
        "write wall-clock seconds into the table (breaks byte "
        "reproducibility across runs)",
    ),
}


def _simulation_config(values):
    """The SimulationConfig of a mapping with the eight scenario keys."""
    return SimulationConfig(
        n=values["n"],
        m=values["m"],
        family=_choice(Family, values["family"], "family"),
        beta_e=values["beta_e"],
        rho=values["rho"],
        maf_range=(values["maf_low"], values["maf_high"]),
        seed=values["seed"],
    )


def _resolve_study_config(args):
    """Defaults < config file < command-line flags."""
    resolved = {key: default for key, (_, default, _) in _STUDY.items()}
    if args.config:
        file_values = _read_config_file(args.config)
        unknown = set(file_values) - set(_STUDY)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, raw in file_values.items():
            try:
                resolved[key] = _STUDY[key][0](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    for key in _STUDY:
        flag = getattr(args, key)
        if flag is not None:
            resolved[key] = flag
    if resolved["workers"] is None:
        resolved["workers"] = _default_workers()
    schemes = tuple(
        _choice(ResamplingScheme, name.strip(), "scheme")
        for name in resolved["schemes"].split(",")
        if name.strip()
    )
    config = StudyConfig(
        sim=_simulation_config(resolved),
        schemes=schemes,
        k=resolved["k"],
        b=resolved["b"],
        alpha=resolved["alpha"],
        workers=resolved["workers"],
        master_seed=resolved["seed"],
    )
    return config, resolved["timings"]


def _cmd_scan(args):
    _check_out_dir(args.out)
    report = run_scan(
        phenotype=args.phenotype,
        genotypes=args.genotypes,
        covariates=args.covariates,
        family=_choice(Family, args.family, "family"),
        scheme=_choice(ResamplingScheme, args.scheme, "scheme"),
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
    simulated = simulate_dataset(_simulation_config(vars(args)))
    with _writing(args.out_dir):
        paths = write_dataset(args.out_dir, simulated.dataset)
    print("simulate: wrote " + ", ".join(str(p) for p in paths))
    return 0


def _cmd_study(args):
    config, timings = _resolve_study_config(args)
    _check_out_dir(args.out)
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
    commands = parser.add_subparsers(dest="command", required=True)
    scan = commands.add_parser("scan", help="score-test a dataset with maxT control")
    scan.add_argument("--phenotype", required=True, help="phenotype CSV (header 'y')")
    scan.add_argument("--genotypes", required=True, help="genotype CSV of 0/1/2 counts")
    scan.add_argument("--covariates", help="covariate CSV (intercept added)")
    scan.add_argument("--family", default="normal", help="normal or binomial")
    scan.add_argument(
        "--scheme",
        default="freedman-lane",
        help=", ".join(s.value for s in ResamplingScheme),
    )
    scan.add_argument("--b", type=int, default=1000, help="number of replicates")
    scan.add_argument("--alpha", type=float, default=0.05, help="target FWER level")
    scan.add_argument("--seed", type=int, default=0, help="master seed")
    scan.add_argument("--out", required=True, help="report path")
    scan.add_argument("--format", choices=("csv", "json"), default="csv")

    simulate = commands.add_parser("simulate", help="write a simulated dataset as CSVs")
    study = commands.add_parser("study", help="run a K x B calibration study")
    study.add_argument("--config", help="key=value config file")
    for key, (cast, default, text) in _STUDY.items():
        flag = "--" + key.replace("_", "-")
        if key in _SCENARIO:
            required = key in ("n", "m")
            simulate.add_argument(
                flag,
                type=cast,
                default=None if required else default,
                required=required,
                help=text,
            )
        # Study flags default to None so that a config-file value can stand.
        if cast is _boolean:
            study.add_argument(flag, action="store_true", default=None, help=text)
        else:
            study.add_argument(flag, type=cast, help=text)
    simulate.add_argument(
        "--out-dir", required=True, help="directory for the three CSVs"
    )
    study.add_argument("--out", required=True, help="table path")
    study.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


# (error class, exit code, message prefix): the first class that matches wins.
_EXIT_CODES = (
    (_UsageError, 5, ""),
    (ParseError, 2, "parse error: "),
    (FitError, 3, "fit error: "),
    (ResamplingError, 4, "resampling error: "),
    (ConfigError, 5, "config error: "),
    (PermscanError, 1, ""),
)


def main(argv=None):
    parser = build_parser()
    commands = {"scan": _cmd_scan, "simulate": _cmd_simulate, "study": _cmd_study}
    try:
        args = parser.parse_args(argv)
        return commands[args.command](args)
    except (_UsageError, PermscanError) as exc:
        for kind, code, prefix in _EXIT_CODES:
            if isinstance(exc, kind):
                print(f"permscan: {prefix}{exc}", file=sys.stderr)
                return code


if __name__ == "__main__":
    raise SystemExit(main())
