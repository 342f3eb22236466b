"""Tests for tools/bench_record.py, which folds benchmark runs into a record."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def _environment(load, numpy="2.4.6"):
    return {
        "nproc": 2,
        "numpy": numpy,
        "thread_variables": {"OMP_NUM_THREADS": None},
        "loadavg_1m_start": load,
        "loadavg_1m_end": load + 0.5,
    }


def _write_result(directory, workload, seed, wall_s, load=1.0, correct=True, failed=0):
    directory.mkdir(parents=True, exist_ok=True)
    record = {
        "environment": _environment(load),
        "detail": {},
        "failed_checks": [],
        "failed_operations": [],
        "result": {
            "correct": correct,
            "attempted": 10,
            "failed": failed,
            "metrics": {
                "wall_s": {"value": wall_s, "unit": "s"},
                "peak_rss_mb": {"value": 50.0 + seed, "unit": "MB"},
            },
        },
    }
    name = f"result-{workload}-seed{seed}-trace0.json"
    (directory / name).write_text(json.dumps(record))


def test_folds_paired_runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, wall_s in ((1, 2.0), (2, 1.0), (3, 4.0), (4, 3.0)):
        _write_result(parent, "study-binomial", seed, wall_s, load=seed)
        _write_result(change, "study-binomial", seed, wall_s / 2)
    # Unpaired seeds, traced runs and unpaired workloads are left out.
    _write_result(parent, "study-binomial", 9, 100.0, correct=False)
    _write_result(change, "cli-wide", 1, 1.0)
    (parent / "result-study-binomial-seed1-trace1.json").write_text("{}")
    commits = {"parent": "abc", "change": "def"}
    record = bench_record.fold(parent, change, commits)

    assert record["commits"] == commits
    assert list(record["workloads"]) == ["study-binomial"]
    workload = record["workloads"]["study-binomial"]
    assert workload["seeds"] == [1, 2, 3, 4] and workload["pairs"] == 4
    side = workload["parent"]
    assert (side["correct"], side["attempted"], side["failed"]) == (True, 40, 0)
    wall = side["metrics"]["wall_s"]
    assert wall == {"unit": "s", "median": 2.5, "iqr": 1.5, "runs": [2.0, 1.0, 4.0, 3.0]}
    assert workload["change"]["metrics"]["wall_s"]["median"] == 1.25
    assert workload["change"]["metrics"]["peak_rss_mb"]["runs"] == [51.0, 52.0, 53.0, 54.0]
    env = record["environment"]["parent"]
    assert env["loadavg_1m_range"] == [1.0, 4.5]
    assert "loadavg_1m_start" not in env and env["numpy"] == "2.4.6"


def test_refuses_mixed_environments_and_unpaired_runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write_result(parent, "study-normal", 1, 1.0)
    _write_result(change, "study-normal", 2, 1.0)
    with pytest.raises(ValueError, match="no workload has a seed run on both sides"):
        bench_record.fold(parent, change, {})
    _write_result(change, "study-normal", 1, 1.0)
    other = json.loads((change / "result-study-normal-seed2-trace0.json").read_text())
    other["environment"]["numpy"] = "1.26.4"
    _write_result(parent, "study-normal", 2, 1.0)
    (change / "result-study-normal-seed2-trace0.json").write_text(json.dumps(other))
    with pytest.raises(ValueError, match="different environments"):
        bench_record.fold(parent, change, {})


def _set_rounds(directory, workload, seed, rounds):
    path = directory / f"result-{workload}-seed{seed}-trace0.json"
    record = json.loads(path.read_text())
    record["detail"]["round_wall_s"] = rounds
    path.write_text(json.dumps(record))


def test_refuses_a_short_run_among_thirty_second_runs(tmp_path):
    # 30 s runs of 0.2 s rounds stop within one round of each other; a
    # 5 s run among them is refused and named.
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(1, 5):
        for side, count in ((parent, 150 + seed % 2), (change, 151 - seed % 2)):
            _write_result(side, "study-normal", seed, 0.2)
            _set_rounds(side, "study-normal", seed, [0.2] * count)
    record = bench_record.fold(parent, change, {})
    assert record["workloads"]["study-normal"]["pairs"] == 4
    _set_rounds(change, "study-normal", 3, [0.2] * 25)
    short = change / "result-study-normal-seed3-trace0.json"
    with pytest.raises(ValueError, match=re.escape(f"unequal length; {short} spans 5.00 s")):
        bench_record.fold(parent, change, {})
