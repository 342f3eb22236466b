"""Print one SHA-256 digest per output family of the permscan in SRC_DIR.

    python3 tools/parity.py SRC_DIR

SRC_DIR is the ``src`` directory of a checkout. Run the tool on two
checkouts and compare the lines: where a family's digests agree, the two
produced the same bytes. The families, one line each:

    study      run_study alpha_hat of the benchmark's study-normal and
               study-binomial configurations (n=400, m=100, rho=0.7, K=10,
               B=500, workers=1) at master seeds 1-3
    alpha_loc  alpha_loc_study cutoffs of a normal and a binomial dataset
    simulate   the three CSVs of ``permscan simulate`` (binomial, n=400, m=100)
    scan       ``permscan scan`` JSON reports of those CSVs under all six
               schemes, B=1025, with the seed given to ``simulate``
    mc         mc_mvn_alpha_loc of a compound-symmetry correlation matrix

Exit code 2 when SRC_DIR holds no permscan package.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

SEED = 3
FILES = ("phenotype.csv", "covariates.csv", "genotypes.csv")


def _import(src):
    sys.path.insert(0, str(src))
    import permscan

    if Path(permscan.__file__).resolve().parent != src / "permscan":
        raise ImportError(f"imported permscan from {permscan.__file__}, not {src}")
    return permscan


def _study(ps):
    schemes = ps.ResamplingScheme
    configs = (
        (ps.Family.NORMAL, 0.5, tuple(schemes)),
        (
            ps.Family.BINOMIAL,
            1.5,
            (schemes.STANDARDIZED_RESIDUALS, schemes.RAW_Y, schemes.PARAMETRIC_BOOTSTRAP),
        ),
    )
    for family, beta_e, chosen in configs:
        sim = ps.SimulationConfig(n=400, m=100, family=family, beta_e=beta_e, rho=0.7)
        for seed in (1, 2, 3):
            config = ps.StudyConfig(sim=sim, schemes=chosen, k=10, b=500, master_seed=seed)
            result = ps.run_study(config)
            for scheme in chosen:
                yield result.per_scheme[scheme].alpha_hat.tobytes()


def _alpha_loc(ps):
    schemes = ps.ResamplingScheme
    for family, scheme in (
        (ps.Family.NORMAL, schemes.FREEDMAN_LANE),
        (ps.Family.BINOMIAL, schemes.STANDARDIZED_RESIDUALS),
    ):
        sim = ps.SimulationConfig(
            n=400, m=100, family=family, beta_e=0.5, rho=0.5, seed=SEED
        )
        result = ps.alpha_loc_study(sim, scheme, b=2000)
        cutoff = dataclasses.asdict(result.cutoff)
        yield json.dumps([cutoff, result.observed_max], sort_keys=True).encode()


def _cli(ps, directory):
    """The simulate CSVs and the scan reports, as two lists of bytes."""
    from permscan.cli import main

    data = directory / "data"
    commands = [
        ["simulate", "--family", "binomial", "--n", "400", "--m", "100", "--beta-e",
         "0.5", "--rho", "0.5", "--seed", str(SEED), "--out-dir", str(data)],
    ]
    reports = [directory / f"{scheme.value}.json" for scheme in ps.ResamplingScheme]
    for scheme, report in zip(ps.ResamplingScheme, reports):
        commands.append(
            ["scan", "--phenotype", str(data / "phenotype.csv"),
             "--covariates", str(data / "covariates.csv"),
             "--genotypes", str(data / "genotypes.csv"),
             "--family", "binomial", "--scheme", scheme.value, "--b", "1025",
             "--seed", str(SEED), "--out", str(report), "--format", "json"]
        )
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"permscan {' '.join(argv)} exited {code}")
    return [(data / name).read_bytes() for name in FILES], [p.read_bytes() for p in reports]


def _mc(ps):
    correlation = 0.5 * np.eye(50) + 0.5
    yield repr(tuple(ps.mc_mvn_alpha_loc(correlation, 0.05, 20_000, SEED))).encode()


def _digest(chunks):
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(hashlib.sha256(chunk).digest())
    return digest.hexdigest()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        ps = _import(Path(argv[0]).resolve())
    except ImportError as exc:
        print(f"parity: {exc}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", UserWarning)
    with tempfile.TemporaryDirectory() as tmp:
        simulated, scans = _cli(ps, Path(tmp))
    for family, chunks in (
        ("study", _study(ps)),
        ("alpha_loc", _alpha_loc(ps)),
        ("simulate", simulated),
        ("scan", scans),
        ("mc", _mc(ps)),
    ):
        print(f"{family} {_digest(chunks)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
