"""CSV ingestion and emission.

Three plain CSV files describe a dataset: a one-column phenotype file with
header ``y``, a covariate file whose columns are the non-intercept
covariates (the intercept is prepended on ingestion), and a genotype file
of 0/1/2 minor-allele counts. Floats are written with ``repr`` so a
write/read round trip is bitwise exact.
"""

import csv
import json
import math

import numpy as np

from .errors import ConsistencyError, ParseError
from .glm import Dataset

__all__ = [
    "read_phenotype",
    "read_covariates",
    "read_genotypes",
    "ingest",
    "write_phenotype",
    "write_covariates",
    "write_genotypes",
    "write_dataset",
    "write_table_csv",
    "write_table_json",
]


def _read_rows(path):
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path} is empty")
    return rows[0], rows[1:]


def _parse_float(value, path, row, col):
    if value is None or value.strip() == "":
        raise ParseError(
            f"{path}: missing value at row {row}, column {col}",
            row=row,
            column=col,
        )
    try:
        number = float(value)
    except ValueError as exc:
        raise ParseError(
            f"{path}: cannot parse {value!r} at row {row}, column {col}",
            row=row,
            column=col,
        ) from exc
    if not math.isfinite(number):
        raise ParseError(
            f"{path}: non-finite value {value!r} at row {row}, column {col}",
            row=row,
            column=col,
        )
    return number


def _parse_matrix(path, expected_cols=None):
    header, body = _read_rows(path)
    ncol = len(header)
    if expected_cols is not None and ncol != expected_cols:
        raise ParseError(f"{path}: expected {expected_cols} columns, got {ncol}")
    if not body:
        raise ParseError(f"{path} has a header but no data rows")
    out = np.empty((len(body), ncol))
    for i, line in enumerate(body, start=1):
        if len(line) != ncol:
            raise ParseError(
                f"{path}: row {i} has {len(line)} fields, expected {ncol}", row=i
            )
        for j, value in enumerate(line, start=1):
            out[i - 1, j - 1] = _parse_float(value, path, i, j)
    return header, out


def read_phenotype(path):
    """Read the one-column phenotype file (header ``y``)."""
    header, values = _parse_matrix(path, expected_cols=1)
    if header[0].strip() != "y":
        raise ParseError(f"{path}: phenotype header must be 'y', got {header[0]!r}")
    return values[:, 0]


def read_covariates(path):
    """Read covariate columns (no intercept). Returns (names, matrix)."""
    header, values = _parse_matrix(path)
    return [name.strip() for name in header], values


def read_genotypes(path):
    """Read the genotype matrix, validating every entry is 0, 1 or 2."""
    header, values = _parse_matrix(path)
    bad = np.argwhere(~np.isin(values, (0.0, 1.0, 2.0)))
    if bad.size:
        row, col = int(bad[0, 0]) + 1, int(bad[0, 1]) + 1
        raise ParseError(
            f"{path}: genotype value {values[row - 1, col - 1]:g} at row {row}, "
            f"column {col} is not 0/1/2",
            row=row,
            column=col,
        )
    return [name.strip() for name in header], values


def ingest(phenotype_path, genotype_path, covariate_path=None):
    """Parse the three files into a validated Dataset.

    The covariate file is optional; without it the design is intercept-only.
    Returns (dataset, marker_names).
    """
    y = read_phenotype(phenotype_path)
    n = y.shape[0]
    if covariate_path is not None:
        _, covariates = read_covariates(covariate_path)
        if covariates.shape[0] != n:
            raise ConsistencyError(
                f"{covariate_path} has {covariates.shape[0]} rows but the "
                f"phenotype has {n}"
            )
        x_e = np.column_stack([np.ones(n), covariates])
    else:
        x_e = np.ones((n, 1))
    marker_names, x_g = read_genotypes(genotype_path)
    if x_g.shape[0] != n:
        raise ConsistencyError(
            f"{genotype_path} has {x_g.shape[0]} rows but the phenotype has {n}"
        )
    return Dataset(y=y, x_e=x_e, x_g=x_g), marker_names


def _format(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_phenotype(path, y):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y"])
        for value in y:
            writer.writerow([_format(value)])


def write_covariates(path, covariates, names=None):
    covariates = np.atleast_2d(np.asarray(covariates, dtype=float))
    if covariates.shape[0] == 1 and covariates.shape[1] > 1:
        covariates = covariates.T
    names = names or [f"x{j + 1}" for j in range(covariates.shape[1])]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for row in covariates:
            writer.writerow([_format(v) for v in row])


def write_genotypes(path, x_g, names=None):
    x_g = np.asarray(x_g)
    names = names or [f"g{j + 1}" for j in range(x_g.shape[1])]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for row in x_g:
            writer.writerow([str(int(v)) for v in row])


def write_dataset(directory, dataset, marker_names=None):
    """Write phenotype.csv, covariates.csv and genotypes.csv under ``directory``.

    The intercept column of ``x_e`` is dropped on output (it is re-added on
    ingestion). Returns the three paths.
    """
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    phenotype = directory / "phenotype.csv"
    covariates = directory / "covariates.csv"
    genotypes = directory / "genotypes.csv"
    write_phenotype(phenotype, dataset.y)
    write_covariates(covariates, dataset.x_e[:, 1:])
    write_genotypes(genotypes, dataset.x_g, marker_names)
    return phenotype, covariates, genotypes


TABLE_FIELDS = [
    "scheme",
    "family",
    "beta_e",
    "n",
    "m",
    "K",
    "B",
    "alpha_tilde",
    "ci_low",
    "ci_high",
    "seconds",
    "config_hash",
]


def _strip_timing(row, include_timings):
    out = dict(row)
    if not include_timings:
        # Wall time is the only nondeterministic field; blank it by default
        # so identical runs produce identical bytes.
        out["seconds"] = None
    return out


def write_table_csv(path, rows, include_timings=False):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TABLE_FIELDS)
        for row in rows:
            row = _strip_timing(row, include_timings)
            writer.writerow(
                ["" if row[f] is None else _format(row[f]) for f in TABLE_FIELDS]
            )


def write_table_json(path, rows, include_timings=False):
    payload = [
        {f: _strip_timing(row, include_timings)[f] for f in TABLE_FIELDS}
        for row in rows
    ]
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
