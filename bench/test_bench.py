"""Self-checks of the benchmark: every workload in quick mode, the output
checks against deliberately wrong outputs, and the span bookkeeping.

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from spans import Tracer  # noqa: E402


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def run_bench(bench_dir, *args):
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["study-normal", "study-binomial", "cli-wide"])
def test_quick_run_passes_its_checks(workload, trace):
    proc = run_bench(
        BENCH, "--workload", workload, "--seed", "5", "--seconds", "0.1",
        "--trace", str(trace), "--quick",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == declared(kind)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
        if kind == "end_to_end":
            assert metric["value"] > 0, name


def test_run_without_the_package_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench(
        tmp_path / "bench", "--workload", "study-normal", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _dataset(seed, n=80, m=6):
    gen = np.random.default_rng(seed)
    x_e = np.column_stack([np.ones(n), gen.standard_normal(n)])
    x_g = gen.integers(0, 3, size=(n, m)).astype(float)
    return gen, x_e, x_g


def test_reference_scores_agree_with_permscan():
    from permscan.glm import Family, fit_null
    from permscan.score import score_statistics

    gen, x_e, x_g = _dataset(1)
    y = x_e[:, 1] + gen.standard_normal(len(x_e))
    fit = fit_null(Family.NORMAL, y, x_e)
    checks.scores_match(score_statistics(fit, x_g).t, checks.ols_scores(y, x_e, x_g), 1e-10, "normal")
    checks.q_factor_is_residual_basis(fit.q_factor(), x_e)
    y = (gen.random(len(x_e)) < 1 / (1 + np.exp(-x_e[:, 1]))).astype(float)
    fit = fit_null(Family.BINOMIAL, y, x_e)
    checks.scores_match(
        score_statistics(fit, x_g).t, checks.logistic_scores(y, x_e, x_g), 1e-8, "binomial"
    )


def test_checks_reject_wrong_outputs():
    gen, x_e, x_g = _dataset(2)
    y = gen.standard_normal(len(x_e))
    t = checks.ols_scores(y, x_e, x_g)
    with pytest.raises(checks.CheckFailed):
        checks.scores_match(t + 1e-6, t, 1e-8, "shifted")
    with pytest.raises(checks.CheckFailed):
        checks.q_factor_is_residual_basis(np.eye(len(x_e))[:, : len(x_e) - 2], x_e)
    with pytest.raises(checks.CheckFailed):
        checks.alpha_hats_on_grid([0.505], 99, "off grid")
    checks.alpha_hats_on_grid([1 / 100, 1.0], 99, "on grid")
    x_g[:, 0] = 1.0
    with pytest.raises(checks.CheckFailed):
        checks.genotypes_valid(x_g, len(x_e), x_g.shape[1], (0.05, 0.5))


def test_scan_report_check_catches_each_rule():
    t = np.array([0.5, -3.5, 2.0])
    good = {
        "config": {"n": 10, "m": 3, "b": 99, "scheme": "raw-y"},
        "markers": [
            {"t": float(v), "p_value": math.erfc(abs(v) / math.sqrt(2)), "rejected": bool(abs(v) >= 3.0)}
            for v in t
        ],
        "cutoff": {
            "c": 3.0,
            "alpha_loc": math.erfc(3.0 / math.sqrt(2)),
            "quantile_index": 95,
            "quantile_value": 2.9,
            "ci_low": 2.5,
            "ci_high": 3.2,
        },
    }
    checks.scan_report_valid(good, t, 10, 3, 99, 0.05, "raw-y", 1e-8)
    breakages = [
        lambda r: r["markers"][0].update(rejected=True),
        lambda r: r["markers"][1].update(p_value=0.5),
        lambda r: r["cutoff"].update(alpha_loc=0.01),
        lambda r: r["cutoff"].update(quantile_index=94),
        lambda r: r["cutoff"].update(ci_low=2.95),
        lambda r: r["markers"][2].update(t=2.0 + 1e-6),
    ]
    for breakage in breakages:
        report = json.loads(json.dumps(good))
        breakage(report)
        with pytest.raises(checks.CheckFailed):
            checks.scan_report_valid(report, t, 10, 3, 99, 0.05, "raw-y", 1e-8)


def test_span_totals_and_self_time():
    tracer = Tracer()
    sleep = tracer.wrap("leaf", lambda: time.sleep(0.01))
    with tracer.span("round") as root:
        with tracer.span("entry"):
            sleep()
            sleep()
    with tracer.span("round"):
        sleep()
    seconds, calls, self_seconds = tracer.totals(root)
    assert calls == {"entry": 1, "leaf": 2}
    assert seconds["leaf"] >= 0.02
    assert self_seconds["entry"] == pytest.approx(seconds["entry"] - seconds["leaf"])


def test_installed_wrappers_are_removed():
    import permscan.rng as rng

    original = rng.substream
    tracer = Tracer()
    with tracer.installed([(rng, "substream", "rng", None)]):
        rng.substream(1, 2)
        assert rng.substream is not original
    assert rng.substream is original
    assert len(tracer.spans) == 1
