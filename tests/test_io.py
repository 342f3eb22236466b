"""Tests for the genotype byte-table fast paths of ``permscan.io``.

The reader's reference is its own cell-wise path, reached by turning the
byte-table parser off; the writer's reference is a plain ``csv.writer``.
"""

import csv

import numpy as np
import pytest

from permscan import io
from permscan.errors import ParseError

# name: (file bytes, whether the byte-table parser takes the file)
GENOTYPE_FILES = {
    "lf": (b"g1,g2,g3\n0,1,2\n2,0,1\n", True),
    "crlf": (b"g1,g2,g3\r\n0,1,2\r\n2,0,1\r\n", True),
    "one-marker": (b"g1\r\n1\r\n2\r\n0\r\n", True),
    "quoted-comma-header": (b'g1,"g,2"\n0,1\n2,0\n', True),
    "padded-header": (b"g1, g2 \n0,1\n2,0\n", True),
    "no-final-newline": (b"g1,g2\n0,1\n2,0", False),
    "blank-body-line": (b"g1,g2\n0,1\n\n2,0\n", False),
    "quoted-cell": (b'g1,g2\n0,"1"\n2,0\n', False),
    "space-padded-cell": (b"g1,g2\n0, 1\n2,0\n", False),
    "decimal-cell": (b"g1,g2\n0,2.0\n2,0\n", False),
    "exponent-cell": (b"g1,g2\n0,1e0\n2,0\n", False),
    "three": (b"g1,g2\n0,1\n2,3\n", False),
    "minus-one": (b"g1,g2\n0,-1\n2,0\n", False),
    "ragged-row": (b"g1,g2\n0,1\n2\n", False),
    "trailing-comma": (b"g1,g2\n0,1,\n2,0,\n", False),
    "semicolon-separator": (b"g1,g2\n0;1\n2,0\n", False),
    "bad-terminator": (b"g1,g2\n0,1;2,0\n", False),
    "header-only": (b"g1,g2\n", False),
    "empty": (b"", False),
    "mixed-terminators": (b"g1,g2\r\n0,1\n2,0\n", False),
    "open-quote-header": (b'g1,"g2\n0,1\n2,0\n', False),
    "carriage-return-in-header": (b"g1\rx,g2\n0,1\n", False),
    "byte-order-mark": ("\ufeffg1,g2\n0,1\n".encode(), False),
    "leading-blank-line": (b"\n0,1\n", False),
}


def _outcome(path):
    try:
        names, values = io.read_genotypes(path)
    except ParseError as exc:
        return ("error", str(exc), exc.row, exc.column)
    return ("ok", names, values.dtype, values.shape, values.tobytes())


@pytest.mark.parametrize("name", sorted(GENOTYPE_FILES))
def test_reader_matches_cell_wise_path(tmp_path, monkeypatch, name):
    content, fast = GENOTYPE_FILES[name]
    path = tmp_path / "genotypes.csv"
    path.write_bytes(content)
    assert (io._read_count_table(path) is not None) == fast
    outcome = _outcome(path)
    monkeypatch.setattr(io, "_read_count_table", lambda path: None)
    assert outcome == _outcome(path)


def test_reader_missing_file_is_parse_error(tmp_path):
    path = tmp_path / "absent.csv"
    with pytest.raises(ParseError, match="cannot read"):
        io.read_genotypes(path)


def _csv_reference(path, x_g, names):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for row in x_g:
            writer.writerow([str(int(v)) for v in row])


WRITER_CASES = {
    "float-counts": (np.random.default_rng(1).integers(0, 3, (40, 7)).astype(float), None),
    "int-counts": (np.random.default_rng(2).integers(0, 3, (5, 1)), None),
    "bool": (np.array([[True, False], [False, True]]), None),
    "negative-zero": (np.array([[-0.0, 2.0]]), None),
    "no-rows": (np.zeros((0, 3)), None),
    "quoted-names": (np.array([[0, 1, 2], [2, 1, 0]]), ["a,b", 'q"x', " padded"]),
}


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_writer_bytes_match_csv_writer(tmp_path, name):
    x_g, names = WRITER_CASES[name]
    written, reference = tmp_path / "written.csv", tmp_path / "reference.csv"
    io.write_genotypes(written, x_g, names)
    _csv_reference(reference, x_g, names or [f"g{j + 1}" for j in range(x_g.shape[1])])
    assert written.read_bytes() == reference.read_bytes()


REJECTED_MATRICES = {
    "out-of-range": np.array([[0.0, 3.0], [-1.0, 1.7]]),
    "fraction": np.array([[0.0, 1.7]]),
    "three": np.array([[0, 1], [2, 3]]),
    "negative": np.array([[-1.0, 1.0]]),
    "nan": np.array([[0.0, np.nan]]),
    "vector": np.array([0.0, 1.0, 2.0]),
    "no-columns": np.zeros((3, 0)),
    "strings": np.array([["0", "1"]]),
}


@pytest.mark.parametrize("name", sorted(REJECTED_MATRICES))
def test_writer_rejects_matrix_that_is_not_counts(tmp_path, name):
    path = tmp_path / "genotypes.csv"
    with pytest.raises(ValueError):
        io.write_genotypes(path, REJECTED_MATRICES[name])
    assert not path.exists()


@pytest.mark.parametrize(
    "writer, columns",
    [(io.write_genotypes, "4 genotype columns"), (io.write_covariates, "4 covariates")],
)
@pytest.mark.parametrize("names", [["a"], ["a", "b", "c", "d", "e"]])
def test_writer_rejects_names_that_miss_the_columns(tmp_path, writer, columns, names):
    path = tmp_path / "out.csv"
    x = np.ones((3, 4))
    with pytest.raises(ValueError, match=f"{len(names)} names for {columns}"):
        writer(path, x, names)
    assert not path.exists()


@pytest.mark.parametrize("names", [None, ["a", "b"]])
def test_covariates_of_one_row_are_written_as_one_row(tmp_path, names):
    path = tmp_path / "x.csv"
    io.write_covariates(path, np.array([[0.3, 0.5]]), names)
    assert io.read_covariates(path)[0] == (names or ["x1", "x2"])
    assert np.array_equal(io.read_covariates(path)[1], [[0.3, 0.5]])


def test_a_covariate_vector_is_written_as_one_column(tmp_path):
    path = tmp_path / "x.csv"
    io.write_covariates(path, np.array([0.3, 0.5, 0.7]))
    assert io.read_covariates(path)[0] == ["x1"]
    assert np.array_equal(io.read_covariates(path)[1], [[0.3], [0.5], [0.7]])


def test_writer_error_names_first_bad_cell(tmp_path):
    with pytest.raises(ValueError, match="value 3 at row 1, column 2"):
        io.write_genotypes(tmp_path / "g.csv", REJECTED_MATRICES["out-of-range"])


@pytest.mark.parametrize("names", [None, ["a,b", 'q"x', "c"]])
def test_written_genotypes_read_without_cell_parsing(tmp_path, monkeypatch, names):
    x_g = np.random.default_rng(3).integers(0, 3, (25, 3)).astype(float)
    path = tmp_path / "genotypes.csv"
    io.write_genotypes(path, x_g, names)
    calls = []
    parse_float = io._parse_float

    def counting(*args):
        calls.append(args)
        return parse_float(*args)

    monkeypatch.setattr(io, "_parse_float", counting)
    read_names, values = io.read_genotypes(path)
    assert calls == []
    assert read_names == (names or ["g1", "g2", "g3"])
    assert np.array_equal(values, x_g)
