"""The demo scripts run to completion, and the package source keeps no
``assert`` (``python -O`` strips them, so no invariant may rest on one),
one parallel layer (the process pool over datasets in ``study.py``) and
numpy as its only third-party dependency: scipy is a test oracle only."""

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


def _source_nodes():
    for path in sorted(Path(permscan.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_package_source_has_no_assert():
    offenders = [
        f"{name}:{node.lineno}"
        for name, node in _source_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def _importers(package):
    return {
        name
        for name, node in _source_nodes()
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(
            module.split(".")[0] == package
            for module in [getattr(node, "module", None) or ""]
            + [alias.name for alias in node.names]
        )
    }


def test_only_study_imports_concurrent_futures():
    assert _importers("concurrent") == {"study.py"}


def test_package_source_imports_no_scipy():
    assert _importers("scipy") == set()


def test_cli_import_loads_no_scipy():
    # A fresh interpreter: the test process itself imports scipy as an oracle.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import sys, permscan.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
