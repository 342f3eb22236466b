"""Tests for tools/parity.py, which digests every output family of a tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "parity.py"
FAMILIES = ["study", "alpha_loc", "simulate", "scan", "mc"]


def _parity(src):
    return subprocess.run(
        [sys.executable, str(TOOL), str(src)], capture_output=True, text=True
    )


def test_two_runs_on_this_tree_print_the_same_digests():
    first, second = _parity(ROOT / "src"), _parity(ROOT / "src")
    assert first.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    assert [line.split()[0] for line in lines] == FAMILIES
    assert all(len(line.split()[1]) == 64 for line in lines)
    assert second.stdout == first.stdout


def test_a_directory_without_permscan_is_refused(tmp_path):
    done = _parity(tmp_path)
    assert done.returncode == 2
    assert not done.stdout and "parity:" in done.stderr
