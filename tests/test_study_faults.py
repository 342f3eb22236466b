"""Tests for tools/study_faults.py, and that a study's page faults do not
grow with its number of datasets."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from permscan import resampling, run_study

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "study_faults.py"

spec = importlib.util.spec_from_file_location("study_faults", TOOL)
study_faults = importlib.util.module_from_spec(spec)
spec.loader.exec_module(study_faults)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux ru_minflt")
@pytest.mark.parametrize("name", list(study_faults.STUDIES))
def test_warm_faults_do_not_grow_with_k(name):
    # The replicate buffers are held for the whole study, so six more
    # datasets fault in no more pages.
    run_study(study_faults.study_config(name, 1, m=20))
    faults = {
        k: study_faults.warm_round(study_faults.study_config(name, k, m=20))[0] for k in (4, 10)
    }
    assert faults[10] - faults[4] < 1000
    assert resampling._workspace.get() is None


def test_one_json_line_per_study():
    done = subprocess.run([sys.executable, str(TOOL), "2"], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    *records, pooled = [json.loads(line) for line in done.stdout.splitlines()]
    assert [record["study"] for record in records] == list(study_faults.STUDIES)
    for record in records:
        assert record["k"] == 2
        assert record["minor_faults"] >= 0
        assert record["system_s"] >= 0 and record["wall_s"] > 0
    assert pooled["study"] == "study-binomial"
    assert pooled["k"] == 2 and pooled["workers"] == 2
    assert pooled["cpu_s"] > 0 and pooled["idle_cpu_s"] >= 0


@pytest.mark.parametrize("argv", [[], ["0"], ["ten"], ["1", "2"]])
def test_a_bad_count_prints_the_usage(argv):
    done = subprocess.run([sys.executable, str(TOOL), *argv], capture_output=True, text=True)
    assert done.returncode == 2
    assert not done.stdout and "study_faults.py K" in done.stderr


def test_a_reader_that_closes_the_pipe_gets_no_traceback():
    # The reader takes the first line and closes the pipe, so the tool's
    # next line finds it closed: the tool stops there, quietly.
    proc = subprocess.Popen(
        [sys.executable, str(TOOL), "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    first = json.loads(proc.stdout.readline())
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.wait()
    assert first["study"] == "study-normal"
    assert "Traceback" not in stderr, stderr
    assert proc.returncode != 0  # it stopped at the closed pipe
