"""CSV ingestion and emission.

Three plain CSV files describe a dataset: a one-column phenotype file with
header ``y``, a covariate file whose columns are the non-intercept
covariates (the intercept is prepended on ingestion), and a genotype file
of 0/1/2 minor-allele counts. Floats are written with ``repr`` so a
write/read round trip is bitwise exact.

Genotype files are read and written as byte tables. The reader loads the
file with ``np.fromfile`` and, when every body line is m single digits 0-2
separated by commas and every line (the last one included) ends in the
header's terminator (``\n`` or ``\r\n``), reshapes the body into an (n,
2m-1+len(eol)) byte table and checks its digit, comma and terminator
columns with vector compares; the digits become the int8 counts that
``Dataset.x_g`` stores, with no float copy. The header is still parsed by
``csv.reader`` and must be plain ASCII on one line with m fields. Any other
file (quoted or padded cells, ``2.0``, blank lines, ragged rows, a missing
final newline, bad values, no body) is read cell by cell, so every
``ParseError`` message, row and column is the cell-wise path's; its floats
are checked, then narrowed to int8. The writer emits an all-{0, 1, 2}
matrix of any numeric dtype (int8 included) as one uint8 table of digits,
commas and ``\r\n``, the bytes ``csv.writer`` writes for ``str(int(v))``
cells, and rejects any other matrix with a ``ValueError``.
"""

import csv
import json
import math

import numpy as np

from .errors import ConsistencyError, ParseError
from .glm import Dataset, all_counts

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


def _cell_error(path, problem, row, col):
    return ParseError(f"{path}: {problem} at row {row}, column {col}", row=row, column=col)


def _parse_float(value, path, row, col):
    if value is None or value.strip() == "":
        raise _cell_error(path, "missing value", row, col)
    try:
        number = float(value)
    except ValueError as exc:
        raise _cell_error(path, f"cannot parse {value!r}", row, col) from exc
    if not math.isfinite(number):
        raise _cell_error(path, f"non-finite value {value!r}", row, col)
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


_COMMA, _ZERO, _CR, _LF = b",0\r\n"


def _read_count_table(path):
    """(names, int8 matrix) of a genotype file in the byte-table shape, else
    None."""
    try:
        data = np.fromfile(path, np.uint8)
    except OSError:
        return None
    newline = np.flatnonzero(data == _LF)
    if not newline.size:
        return None
    end = int(newline[0]) + 1
    eol = (_CR, _LF) if end > 1 and data[end - 2] == _CR else (_LF,)
    line = data[: end - len(eol)]
    if np.any(line >= 128) or np.any(line == _CR):
        return None
    # Parsed with its terminator, a quoted field left open at the end of the
    # line shows up as a field holding a newline.
    header = next(csv.reader([bytes(data[:end]).decode("ascii")]))
    m = len(header)
    if not m or any("\n" in name for name in header):
        return None
    body = data[end:]
    width = 2 * m - 1 + len(eol)
    if not body.size or body.size % width:
        return None
    table = body.reshape(-1, width)
    # The digits less '0', written as bytes into the int8 matrix returned:
    # any byte but '0', '1' or '2' gives a value above 2 read as uint8.
    counts = np.empty((len(table), m), np.int8)
    np.subtract(table[:, : 2 * m - 1 : 2], np.uint8(_ZERO), out=counts.view(np.uint8))
    if (
        np.any(counts.view(np.uint8) > 2)
        or np.any(table[:, 1 : 2 * m - 1 : 2] != _COMMA)
        or np.any(table[:, 2 * m - 1 :] != eol)
    ):
        return None
    return [name.strip() for name in header], counts


def read_genotypes(path):
    """Read the genotype matrix as int8 counts, validating every entry is 0,
    1 or 2 before it is narrowed."""
    fast = _read_count_table(path)
    if fast is not None:
        return fast
    header, values = _parse_matrix(path)
    if not header:
        raise ParseError(f"{path} has no marker columns")
    bad = np.argwhere(~np.isin(values, (0.0, 1.0, 2.0)))
    if bad.size:
        row, col = int(bad[0, 0]) + 1, int(bad[0, 1]) + 1
        raise ParseError(
            f"{path}: genotype value {values[row - 1, col - 1]:g} at row {row}, "
            f"column {col} is not 0/1/2",
            row=row,
            column=col,
        )
    return [name.strip() for name in header], values.astype(np.int8)


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
    d = x_e.shape[1]
    if n < d + 1:
        raise ConsistencyError(
            f"{phenotype_path} has {n} rows but the intercept and "
            f"{d - 1} covariates need at least {d + 1}"
        )
    marker_names, x_g = read_genotypes(genotype_path)
    if x_g.shape[0] != n:
        raise ConsistencyError(
            f"{genotype_path} has {x_g.shape[0]} rows but the phenotype has {n}"
        )
    # Read-only, the matrix is shared by the dataset, not copied.
    x_g.flags.writeable = False
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
    covariates = np.atleast_1d(np.asarray(covariates, dtype=float))
    if covariates.ndim == 1:
        covariates = covariates[:, None]
    names = names or [f"x{j + 1}" for j in range(covariates.shape[1])]
    if len(names) != covariates.shape[1]:
        raise ValueError(f"{len(names)} names for {covariates.shape[1]} covariates")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for row in covariates:
            writer.writerow([_format(v) for v in row])


def _count_table(x_g):
    """The CSV body of a matrix of 0/1/2 counts as bytes."""
    if x_g.ndim != 2 or not x_g.shape[1]:
        raise ValueError(
            f"genotypes must be a matrix with columns, got shape {x_g.shape}"
        )
    if x_g.dtype.kind not in "biuf":
        raise ValueError(f"genotypes must be numeric, got dtype {x_g.dtype}")
    if not all_counts(x_g):
        bad = np.argwhere(~np.isin(x_g, (0, 1, 2)))
        row, col = int(bad[0, 0]) + 1, int(bad[0, 1]) + 1
        raise ValueError(
            f"genotype value {x_g[row - 1, col - 1]:g} at row {row}, column {col} "
            "is not 0/1/2"
        )
    m = x_g.shape[1]
    table = np.empty((x_g.shape[0], 2 * m + 1), np.uint8)
    table[:, : 2 * m - 1 : 2] = x_g.astype(np.uint8) + np.uint8(_ZERO)
    table[:, 1 : 2 * m - 1 : 2] = _COMMA
    table[:, 2 * m - 1 :] = (_CR, _LF)
    return table.tobytes()


def write_genotypes(path, x_g, names=None):
    """Write a 2-D matrix of 0/1/2 counts; any other matrix is a ValueError."""
    x_g = np.asarray(x_g)
    body = _count_table(x_g)
    names = names or [f"g{j + 1}" for j in range(x_g.shape[1])]
    if len(names) != x_g.shape[1]:
        raise ValueError(f"{len(names)} names for {x_g.shape[1]} genotype columns")
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(names)
        # The body goes past the text layer, so the header leaves it first.
        handle.flush()
        handle.buffer.write(body)


def write_dataset(directory, dataset):
    """Write phenotype.csv, covariates.csv and genotypes.csv under ``directory``.

    The intercept column of ``x_e`` is dropped on output (it is re-added on
    ingestion) and the markers are named g1..gm. Returns the three paths.
    """
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    phenotype = directory / "phenotype.csv"
    covariates = directory / "covariates.csv"
    genotypes = directory / "genotypes.csv"
    write_phenotype(phenotype, dataset.y)
    write_covariates(covariates, dataset.x_e[:, 1:])
    write_genotypes(genotypes, dataset.x_g)
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
