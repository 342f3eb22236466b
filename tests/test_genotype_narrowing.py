"""Tests for int8 genotypes: ``Dataset`` and both genotype readers check the
counts before narrowing them, so no bad value wraps into a valid one, and a
float64 genotype matrix and its int8 form give the same statistics."""

import math

import numpy as np
import pytest

from permscan import (
    Dataset,
    Family,
    ResamplingScheme,
    SimulationConfig,
    fit_null,
    replicate_statistics,
    score_statistics,
    simulate_dataset,
    simulate_genotypes,
)
from permscan import io
from permscan.errors import ParseError

BAD_VALUES = (3, 258, -254, 2.5, math.nan)
# Each dtype with the bad values it holds exactly. As int8, 258 and -254
# would wrap to 2 and uint8 255 to -1.
BAD_CASES = (
    [(np.float64, value) for value in BAD_VALUES]
    + [(np.int64, value) for value in (3, 258, -254)]
    + [(np.uint8, value) for value in (3, 255)]
)


def _case_id(case):
    dtype, value = case
    return f"{np.dtype(dtype).name}-{value}"


def _inputs(n=6):
    x_e = np.column_stack([np.ones(n), np.linspace(-1.0, 1.0, n)])
    return np.linspace(0.0, 1.0, n), x_e


@pytest.mark.parametrize("dtype, value", BAD_CASES, ids=map(_case_id, BAD_CASES))
def test_dataset_rejects_a_bad_count_before_narrowing(dtype, value):
    y, x_e = _inputs()
    x_g = np.array([[0, 1], [1, 2], [2, 0], [0, 1], [1, 2], [2, 0]], dtype=dtype)
    x_g[4, 1] = value
    with pytest.raises(ValueError, match="^genotype entries must be 0, 1 or 2$"):
        Dataset(y=y, x_e=x_e, x_g=x_g)


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint8, np.int8, bool])
def test_dataset_stores_read_only_c_contiguous_int8(dtype):
    y, x_e = _inputs()
    counts = [[0, 1], [1, 0], [1, 1], [0, 1], [1, 0], [0, 0]]
    x_g = np.asfortranarray(np.array(counts, dtype=dtype))
    dataset = Dataset(y=y, x_e=x_e, x_g=x_g)
    assert dataset.x_g.dtype == np.int8
    assert dataset.x_g.flags.c_contiguous and not dataset.x_g.flags.writeable
    assert np.array_equal(dataset.x_g, x_g)


@pytest.mark.parametrize("dtype, value", BAD_CASES, ids=map(_case_id, BAD_CASES))
def test_readers_reject_a_bad_count_with_todays_message(tmp_path, dtype, value):
    # The cell is written as numpy prints the value in its dtype: 3.0 or 3.
    cell = str(np.array(value, dtype=dtype)[()])
    path = tmp_path / "genotypes.csv"
    path.write_text(f"g1,g2\n0,1\n2,{cell}\n1,0\n")
    assert io._read_count_table(path) is None
    with pytest.raises(ParseError) as caught:
        io.read_genotypes(path)
    if math.isnan(float(value)):
        expected = f"{path}: non-finite value {cell!r} at row 2, column 2"
    else:
        expected = f"{path}: genotype value {float(value):g} at row 2, column 2 is not 0/1/2"
    assert str(caught.value) == expected
    assert (caught.value.row, caught.value.column) == (2, 2)


def test_the_byte_table_reader_takes_only_the_digits_0_1_2(tmp_path):
    path = tmp_path / "genotypes.csv"
    taken = []
    for byte in range(256):
        path.write_bytes(b"g1,g2\n0,1\n2," + bytes([byte]) + b"\n")
        if io._read_count_table(path) is not None:
            taken.append(byte)
    assert taken == list(b"012")


def test_readers_return_int8_counts(tmp_path):
    path = tmp_path / "genotypes.csv"
    path.write_bytes(b"g1,g2\n0,1\n2,0\n")
    names, fast = io.read_genotypes(path)
    path.write_bytes(b"g1,g2\n0,1.0\n2,0\n")  # one cell the byte table refuses
    _, cell_wise = io.read_genotypes(path)
    for counts in (fast, cell_wise):
        assert counts.dtype == np.int8 and counts.base is None
        assert np.array_equal(counts, [[0, 1], [2, 0]])
    assert names == ["g1", "g2"]


def test_simulated_genotypes_are_int8():
    config = SimulationConfig(n=30, m=4, family=Family.NORMAL, seed=1)
    assert simulate_genotypes(config)[0].dtype == np.int8
    assert simulate_dataset(config).dataset.x_g.dtype == np.int8


@pytest.mark.filterwarnings("ignore:scheme .* relies on normal:UserWarning")
@pytest.mark.parametrize("family", [Family.NORMAL, Family.BINOMIAL])
def test_float_and_int8_genotypes_give_the_same_bits(family):
    sim = SimulationConfig(n=40, m=6, family=family, beta_e=0.5, rho=0.3, seed=9)
    simulated = simulate_dataset(sim).dataset
    x_g = simulated.x_g.astype(np.float64)
    fits, datasets = [], []
    for genotypes in (x_g, x_g.astype(np.int8)):
        dataset = Dataset(y=simulated.y, x_e=simulated.x_e, x_g=genotypes)
        datasets.append(dataset)
        fits.append(fit_null(family, dataset.y, dataset.x_e))
    (from_float, from_int8), (fit_float, fit_int8) = datasets, fits
    # The int8 Dataset matrix, and the float64 matrix given directly.
    observed = [score_statistics(fit_int8, from_int8.x_g), score_statistics(fit_float, x_g)]
    assert observed[0].t.tobytes() == observed[1].t.tobytes()
    assert observed[0].denom.tobytes() == observed[1].denom.tobytes()
    for scheme in ResamplingScheme:
        first = replicate_statistics(scheme, fit_float, from_float, 300, seed=4)
        second = replicate_statistics(scheme, fit_int8, from_int8, 300, seed=4)
        assert first.max_stats.tobytes() == second.max_stats.tobytes(), scheme
