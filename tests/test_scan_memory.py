"""Tests for tools/scan_memory.py, which measures replicate_statistics."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "scan_memory.py"


def _scan_memory(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True
    )


def test_one_json_line_per_scheme():
    schemes = ["standardized-residuals", "parametric-bootstrap"]
    done = _scan_memory(30, 5, 20, *schemes)
    assert done.returncode == 0, done.stderr
    records = [json.loads(line) for line in done.stdout.splitlines()]
    assert [record["scheme"] for record in records] == schemes
    for record in records:
        assert (record["n"], record["m"], record["b"]) == (30, 5, 20)
        assert record["seconds"] >= 0
        assert record["traced_peak_mib"] >= 0
        assert record["max_rss_mb"] > 0


def test_missing_arguments_print_the_usage():
    done = _scan_memory(30, 5)
    assert done.returncode == 2
    assert not done.stdout and "scan_memory.py N M B SCHEME" in done.stderr


def test_the_score_statistics_peak_is_reported():
    done = _scan_memory(30, 5, 20, "raw-y")
    assert done.returncode == 0, done.stderr
    (record,) = [json.loads(line) for line in done.stdout.splitlines()]
    assert 0 <= record["score_peak_mib"] < 1


def test_the_simulation_peak_is_reported():
    # It covers at least the int8 genotypes that the simulation returns,
    # and less than one n x m float64 draw, which it never holds whole.
    n, m = 400, 2000
    done = _scan_memory(n, m, 20, "raw-y")
    assert done.returncode == 0, done.stderr
    (record,) = [json.loads(line) for line in done.stdout.splitlines()]
    assert n * m / 2**20 < record["simulate_peak_mib"] < n * m * 8 / 2**20
