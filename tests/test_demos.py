"""The demo scripts run to completion, and the package source keeps no
``assert`` (``python -O`` strips them, so no invariant may rest on one)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permscan

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(permscan.__file__).resolve().parents[1]


# 03 runs a calibration study (tens of seconds) and 06 drives the installed
# console script, so both stay out of the test run.
@pytest.mark.parametrize(
    "demo",
    [
        "01_single_scan.py",
        "02_scheme_tour.py",
        "04_cutoff_interval.py",
        "05_genotype_simulation.py",
    ],
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_package_source_has_no_assert():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(permscan.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
