"""Print one SHA-256 digest per output family of the permscan in SRC_DIR,
or compare the families of two trees.

    python3 tools/parity.py SRC_DIR
    python3 tools/parity.py OLD_SRC NEW_SRC

SRC_DIR is the ``src`` directory of a checkout. Given one tree, the tool
prints each family's digest: where two trees' digests agree, they produced
the same bytes. Given two trees, it runs each in its own process and
prints ``same`` or ``moved`` per family; a moved family also gets the
largest relative difference between the numbers of its outputs (JSON
true/false read as 1/0), or the two counts of numbers when they differ,
and, for ``study`` and ``scan``, the schemes whose outputs moved (``study
moved 0.13 in modified-model``). The families, one line each:

    study      run_study alpha_hat of the benchmark's study-normal and
               study-binomial configurations (n=400, m=100, rho=0.7, K=10,
               B=500, workers=1) at master seeds 1-3
    alpha_loc  alpha_loc_study cutoffs of a normal and a binomial dataset
    simulate   the three CSVs of ``permscan simulate`` (binomial, n=400, m=100)
    scan       ``permscan scan`` JSON reports of those CSVs under all six
               schemes, B=1025, with the seed given to ``simulate``
    mc         mc_mvn_alpha_loc of a compound-symmetry correlation matrix

Exit code 2 when a tree holds no permscan package.
"""

import contextlib
import dataclasses
import hashlib
import io
import math
import json
import pickle
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

SEED = 3
FILES = ("phenotype.csv", "covariates.csv", "genotypes.csv")
NUMBER = re.compile(
    rb"true|false|null|NaN|-?Infinity|-?inf|nan"
    rb"|[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
)
WORDS = {b"true": 1.0, b"false": 0.0, b"null": math.nan}
# Run by the two-tree mode in a child process: tools dir, SRC_DIR, out path.
CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import parity; sys.exit(parity.dump(*sys.argv[2:]))"


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
                yield scheme.value, result.per_scheme[scheme].alpha_hat


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
        yield None, json.dumps([cutoff, result.observed_max], sort_keys=True).encode()


def _cli(ps, directory):
    """The simulate CSVs and the scan reports, as two lists of (label,
    bytes) pairs; a report's label is its scheme."""
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
    simulated = [(None, (data / name).read_bytes()) for name in FILES]
    return simulated, [(s.value, p.read_bytes()) for s, p in zip(ps.ResamplingScheme, reports)]


def _mc(ps):
    correlation = 0.5 * np.eye(50) + 0.5
    yield None, repr(tuple(ps.mc_mvn_alpha_loc(correlation, 0.05, 20_000, SEED))).encode()


def _bytes(chunk):
    return chunk.tobytes() if isinstance(chunk, np.ndarray) else chunk


def _digest(chunks):
    digest = hashlib.sha256()
    for _, chunk in chunks:
        digest.update(hashlib.sha256(_bytes(chunk)).digest())
    return digest.hexdigest()


def _numbers(chunks):
    """Every number of a family's outputs, in order, as one float array."""
    values = []
    for _, chunk in chunks:
        if isinstance(chunk, np.ndarray):
            values.extend(chunk.ravel().tolist())
        else:
            values.extend(WORDS[t] if t in WORDS else float(t) for t in NUMBER.findall(chunk))
    return np.array(values, dtype=float)


def _families(ps):
    """(family, chunks) pairs; a chunk is a (label, output) pair, whose
    output is bytes or a float array and whose label names the output's
    scheme, or is None."""
    with tempfile.TemporaryDirectory() as tmp:
        simulated, scans = _cli(ps, Path(tmp))
    return [
        ("study", list(_study(ps))),
        ("alpha_loc", list(_alpha_loc(ps))),
        ("simulate", simulated),
        ("scan", scans),
        ("mc", list(_mc(ps))),
    ]


def _load(src):
    try:
        return _import(Path(src).resolve())
    except ImportError as exc:
        print(f"parity: {exc}", file=sys.stderr)
        return None


def dump(src, out):
    """Pickle the families of the permscan in ``src`` to ``out``."""
    ps = _load(src)
    if ps is None:
        return 2
    warnings.simplefilter("ignore", UserWarning)
    Path(out).write_bytes(pickle.dumps(_families(ps)))
    return 0


def _moved(old, new):
    """How far a family's numbers moved between two trees."""
    a, b = _numbers(old), _numbers(new)
    if a.shape != b.shape:
        return f"{a.size} -> {b.size} numbers"
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.where(same, 0.0, np.abs(a - b) / scale)
    return f"{float(rel.max(initial=0.0)):.2g}"


def moved_schemes(old, new):
    """The labels, in order and once each, of the chunks whose outputs
    differ between two runs of a family."""
    moved = (label for (label, a), (_, b) in zip(old, new) if label and _bytes(a) != _bytes(b))
    return list(dict.fromkeys(moved))


def compare(old_src, new_src):
    """Print ``same`` or ``moved`` per family of two trees."""
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "old.pickle", Path(tmp) / "new.pickle"]
        children = [
            subprocess.Popen(
                [sys.executable, "-c", CHILD, str(Path(__file__).resolve().parent), src, str(out)]
            )
            for src, out in zip((old_src, new_src), outs)
        ]
        codes = [child.wait() for child in children]
        if any(codes):
            return max(codes)
        old, new = (pickle.loads(out.read_bytes()) for out in outs)
    for (family, before), (_, after) in zip(old, new):
        if _digest(before) == _digest(after):
            print(f"{family} same", flush=True)
        else:
            line, schemes = f"{family} moved {_moved(before, after)}", moved_schemes(before, after)
            if schemes:
                line += " in " + ", ".join(schemes)
            print(line, flush=True)
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2:
        return compare(*argv)
    if len(argv) != 1:
        usage = __doc__.strip().splitlines()[3:5]
        print("usage:", *(line.strip() for line in usage), sep="\n  ", file=sys.stderr)
        return 2
    ps = _load(argv[0])
    if ps is None:
        return 2
    warnings.simplefilter("ignore", UserWarning)
    for family, chunks in _families(ps):
        print(f"{family} {_digest(chunks)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
