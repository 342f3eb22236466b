"""Tests for tools/parity.py, which digests every output family of a tree."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "parity.py"
FAMILIES = ["study", "alpha_loc", "simulate", "scan", "mc"]


def _parity(*srcs):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, srcs)], capture_output=True, text=True
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


def test_two_copies_of_one_tree_compare_all_same(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    done = _parity(ROOT / "src", copy)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"{family} same" for family in FAMILIES]


def test_two_tree_mode_refuses_a_tree_without_permscan(tmp_path):
    done = _parity(ROOT / "src", tmp_path)
    assert done.returncode == 2
    assert not done.stdout and "parity:" in done.stderr


def test_a_moved_family_names_only_the_schemes_whose_outputs_moved():
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    old = [
        ("raw-y", np.array([0.1, 0.2])),
        ("modified-model", np.array([0.3])),
        ("raw-y", np.array([0.4])),
        ("modified-model", b'{"c": 4.1}'),
        (None, b"simulated"),
    ]
    new = [
        ("raw-y", np.array([0.1, 0.2])),
        ("modified-model", np.array([0.35])),
        ("raw-y", np.array([0.4])),
        ("modified-model", b'{"c": 4.2}'),
        (None, b"simulated again"),
    ]
    assert parity.moved_schemes(old, new) == ["modified-model"]
    assert parity.moved_schemes(old, old) == []
