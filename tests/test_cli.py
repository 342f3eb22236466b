"""Tests for the command-line interface: ingestion, subcommands, exit codes."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import expit, ndtr

import permscan
from permscan import Dataset, Family, SimulationConfig, simulate_dataset
from permscan import cli
from permscan.cli import build_parser, main
from permscan.errors import ConfigError, PermscanError
from permscan.io import ingest, write_dataset, write_genotypes


def _simulate_files(tmp_path, family=Family.NORMAL, n=60, m=4, seed=5, beta_e=0.4):
    config = SimulationConfig(n=n, m=m, family=family, beta_e=beta_e, seed=seed)
    simulated = simulate_dataset(config)
    paths = write_dataset(tmp_path, simulated.dataset)
    return simulated.dataset, [str(p) for p in paths]


def _scan_args(paths, out, fmt="csv", extra=()):
    phenotype, covariates, genotypes = paths
    return [
        "scan",
        "--phenotype",
        phenotype,
        "--covariates",
        covariates,
        "--genotypes",
        genotypes,
        "--b",
        "200",
        "--seed",
        "7",
        "--out",
        str(out),
        "--format",
        fmt,
        *extra,
    ]


class TestIngest:
    def test_round_trip_is_bitwise(self, tmp_path):
        dataset, (phenotype, covariates, genotypes) = _simulate_files(tmp_path)
        loaded, marker_names = ingest(phenotype, genotypes, covariates)
        assert np.array_equal(loaded.y, dataset.y)
        assert np.array_equal(loaded.x_e, dataset.x_e)
        assert np.array_equal(loaded.x_g, dataset.x_g)
        assert marker_names == [f"g{j + 1}" for j in range(dataset.m)]

    def test_round_trip_binomial(self, tmp_path):
        dataset, (phenotype, covariates, genotypes) = _simulate_files(
            tmp_path, family=Family.BINOMIAL, seed=6
        )
        loaded, _ = ingest(phenotype, genotypes, covariates)
        assert np.array_equal(loaded.y, dataset.y)

    def test_smoke_parse_toy_files(self, tmp_path):
        (tmp_path / "y.csv").write_text("y\n0.5\n-1.25\n2.0\n")
        (tmp_path / "g.csv").write_text("g1,g2\n0,1\n1,2\n2,0\n")
        dataset, names = ingest(tmp_path / "y.csv", tmp_path / "g.csv")
        assert dataset.n == 3 and dataset.d == 1 and dataset.m == 2
        assert np.all(dataset.x_e == 1.0)
        assert names == ["g1", "g2"]


class TestScan:
    def test_reports_are_byte_identical_across_reruns(self, tmp_path):
        _, paths = _simulate_files(tmp_path)
        outputs = []
        for name in ("a.csv", "b.csv", "c.csv"):
            out = tmp_path / name
            assert main(_scan_args(paths, out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_json_report_structure(self, tmp_path):
        dataset, paths = _simulate_files(tmp_path, seed=8)
        out = tmp_path / "report.json"
        assert main(_scan_args(paths, out, fmt="json")) == 0
        report = json.loads(out.read_text())
        assert set(report) == {"baselines", "config", "cutoff", "markers"}
        assert report["config"]["seed"] == 7
        assert len(report["markers"]) == dataset.m
        cutoff = report["cutoff"]["c"]
        for marker in report["markers"]:
            assert marker["rejected"] == (abs(marker["t"]) >= cutoff)
            assert 0.0 < marker["p_value"] <= 1.0
            assert_allclose(marker["p_value"], 2 * ndtr(-abs(marker["t"])), rtol=1e-10)

    @staticmethod
    def _marker_lines(path):
        return [line for line in path.read_text().splitlines(True) if line[0] != "#"]

    def test_csv_report_round_trips_marker_names_with_commas(self, tmp_path):
        dataset, paths = _simulate_files(tmp_path, m=2)
        write_genotypes(paths[2], dataset.x_g, names=["rs1,a", "g2"])
        out = tmp_path / "report.csv"
        assert main(_scan_args(paths, out)) == 0
        rows = list(csv.reader(self._marker_lines(out)))
        assert rows[0] == ["marker", "t", "p_value", "rejected"]
        assert [row[0] for row in rows[1:]] == ["rs1,a", "g2"]
        assert all(len(row) == 4 for row in rows)

    def test_csv_report_rows_of_plain_names_are_unquoted(self, tmp_path):
        _, paths = _simulate_files(tmp_path)
        assert main(_scan_args(paths, tmp_path / "r.csv")) == 0
        assert main(_scan_args(paths, tmp_path / "r.json", fmt="json")) == 0
        markers = json.loads((tmp_path / "r.json").read_text())["markers"]
        expected = ["marker,t,p_value,rejected\n"] + [
            f"{m['name']},{m['t']!r},{m['p_value']!r},{int(m['rejected'])}\n"
            for m in markers
        ]
        assert self._marker_lines(tmp_path / "r.csv") == expected

    def test_single_marker_local_level_near_alpha(self, tmp_path):
        _, paths = _simulate_files(tmp_path, m=1, n=200, seed=9)
        out = tmp_path / "single.json"
        args = _scan_args(paths, out, fmt="json")
        args[args.index("--b") + 1] = "2000"
        assert main(args) == 0
        report = json.loads(out.read_text())
        assert report["baselines"]["bonferroni"] == 0.05
        assert abs(report["cutoff"]["alpha_loc"] - 0.05) <= 0.02

    def test_binomial_scan(self, tmp_path):
        _, paths = _simulate_files(tmp_path, family=Family.BINOMIAL, n=100, seed=10)
        out = tmp_path / "binom.csv"
        args = _scan_args(paths, out)
        args += ["--family", "binomial", "--scheme", "standardized-residuals"]
        assert main(args) == 0
        assert out.exists()


class TestExitCodes:
    def test_parse_error_cites_row_and_column(self, tmp_path, capsys):
        _, paths = _simulate_files(tmp_path, n=10, m=3, seed=11)
        genotype_path = tmp_path / "genotypes.csv"
        lines = genotype_path.read_text().splitlines()
        fields = lines[7].split(",")
        fields[1] = "3"
        lines[7] = ",".join(fields)
        genotype_path.write_text("\n".join(lines) + "\n")
        code = main(_scan_args(paths, tmp_path / "r.csv"))
        assert code == 2
        message = capsys.readouterr().err
        assert "row 7" in message and "column 2" in message

    def test_genotypes_without_marker_columns_are_a_parse_error(self, tmp_path, capsys):
        # Eleven blank lines parse as an empty header over ten empty rows.
        _, paths = _simulate_files(tmp_path, n=10, m=2, seed=12)
        genotype_path = tmp_path / "genotypes.csv"
        genotype_path.write_text("\n" * 11)
        assert main(_scan_args(paths, tmp_path / "r.csv")) == 2
        assert f"{genotype_path} has no marker columns" in capsys.readouterr().err

    def test_missing_value_is_parse_error(self, tmp_path, capsys):
        _, paths = _simulate_files(tmp_path, n=10, m=2, seed=12)
        phenotype_path = tmp_path / "phenotype.csv"
        lines = phenotype_path.read_text().splitlines()
        lines[3] = ""
        phenotype_path.write_text("\n".join(lines) + "\n")
        assert main(_scan_args(paths, tmp_path / "r.csv")) == 2

    @pytest.mark.parametrize(
        "name, value",
        [
            ("phenotype.csv", "nan"),
            ("phenotype.csv", "inf"),
            ("covariates.csv", "inf"),
            ("covariates.csv", "-inf"),
        ],
    )
    def test_non_finite_value_is_parse_error(self, tmp_path, capsys, name, value):
        _, paths = _simulate_files(tmp_path, n=10, m=2, seed=14)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[0] = value
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert main(_scan_args(paths, tmp_path / "r.csv")) == 2
        message = capsys.readouterr().err
        assert "row 5" in message and "column 1" in message

    def test_length_mismatch_is_parse_error(self, tmp_path):
        _, paths = _simulate_files(tmp_path, n=10, m=2, seed=13)
        phenotype_path = tmp_path / "phenotype.csv"
        lines = phenotype_path.read_text().splitlines()
        phenotype_path.write_text("\n".join(lines[:-2]) + "\n")
        assert main(_scan_args(paths, tmp_path / "r.csv")) == 2

    def test_fit_error_exit_code(self, tmp_path):
        n = 30
        z = np.linspace(-2, 2, n)
        (tmp_path / "y.csv").write_text(
            "y\n" + "\n".join(str(int(v > 0)) for v in z) + "\n"
        )
        (tmp_path / "x.csv").write_text(
            "x1\n" + "\n".join(repr(float(v)) for v in z) + "\n"
        )
        rng = np.random.default_rng(0)
        genotypes = rng.integers(0, 3, (n, 2))
        (tmp_path / "g.csv").write_text(
            "g1,g2\n" + "\n".join(f"{a},{b}" for a, b in genotypes) + "\n"
        )
        code = main(
            [
                "scan",
                "--phenotype",
                str(tmp_path / "y.csv"),
                "--covariates",
                str(tmp_path / "x.csv"),
                "--genotypes",
                str(tmp_path / "g.csv"),
                "--family",
                "binomial",
                "--scheme",
                "standardized-residuals",
                "--out",
                str(tmp_path / "r.csv"),
            ]
        )
        assert code == 3

    def test_resampling_error_exit_code(self, tmp_path):
        _, paths = _simulate_files(tmp_path, seed=14)
        args = _scan_args(paths, tmp_path / "r.csv")
        args[args.index("--b") + 1] = "1"
        assert main(args) == 4

    @pytest.mark.parametrize(
        "alpha, b, code, message",
        [
            ("1.5", "100000", 5, "alpha must be in (0, 1)"),
            ("0.99", "50", 4, "B=50 replicates cannot resolve the 0.01 quantile"),
        ],
    )
    def test_alpha_is_checked_before_resampling(
        self, tmp_path, capsys, monkeypatch, alpha, b, code, message
    ):
        def replicate_statistics(*args, **kwargs):
            pytest.fail("resampled before checking alpha against B")

        monkeypatch.setattr(cli, "replicate_statistics", replicate_statistics)
        _, paths = _simulate_files(tmp_path, seed=16)
        args = _scan_args(paths, tmp_path / "r.csv", extra=("--alpha", alpha))
        args[args.index("--b") + 1] = b
        assert main(args) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_config_error_exit_codes(self, tmp_path, capsys):
        _, paths = _simulate_files(tmp_path, seed=15)
        args = _scan_args(paths, tmp_path / "r.csv")
        args += ["--scheme", "nonsense"]
        assert main(args) == 5
        assert main(["scan", "--bogus-flag"]) == 5
        assert main(["study", "--out", str(tmp_path / "t.csv"), "--k", "0"]) == 5
        capsys.readouterr()

    def test_scan_has_no_worker_count(self, tmp_path, monkeypatch, capsys):
        # scan runs serially: it takes no --workers and reads no
        # PERMSCAN_WORKERS, not even an invalid one.
        _, paths = _simulate_files(tmp_path, seed=18)
        args = _scan_args(paths, tmp_path / "r.csv", extra=("--workers", "2"))
        assert main(args) == 5
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
        monkeypatch.setenv("PERMSCAN_WORKERS", "-5")
        assert main(_scan_args(paths, tmp_path / "r.csv")) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_study_workers_below_one_is_config_error(self, tmp_path, capsys, workers):
        out = str(tmp_path / "t.csv")
        args = ["study", "--n", "30", "--m", "2", "--k", "1", "--b", "9"]
        assert main([*args, "--workers", workers, "--out", out]) == 5
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
        config_file = tmp_path / "study.cfg"
        config_file.write_text(f"workers = {workers}\n")
        assert main([*args, "--config", str(config_file), "--out", out]) == 5
        capsys.readouterr()
        assert not (tmp_path / "t.csv").exists()

    def test_env_workers_below_one_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PERMSCAN_WORKERS", "-5")
        args = ["study", "--n", "30", "--m", "2", "--k", "1", "--b", "9"]
        assert main([*args, "--out", str(tmp_path / "t.csv")]) == 5
        assert "PERMSCAN_WORKERS must be >= 1, got -5" in capsys.readouterr().err

    def test_full_model_residuals_on_wide_data_is_config_error(self, tmp_path, capsys):
        # The full model has m + d columns, so it needs n > m + d rows.
        data = tmp_path / "data"
        simulate = ["simulate", "--n", "30", "--m", "40", "--out-dir", str(data)]
        assert main(simulate) == 0
        paths = [
            str(data / name)
            for name in ("phenotype.csv", "covariates.csv", "genotypes.csv")
        ]
        extra = ("--scheme", "full-model-residuals")
        args = _scan_args(paths, tmp_path / "r.csv", extra=extra)
        assert main(args) == 5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "config error" in err and "n=30, m=40, d=2" in err

    def test_binomial_family_on_non_binary_phenotype_is_config_error(
        self, tmp_path, capsys
    ):
        dataset, paths = _simulate_files(tmp_path, n=30, m=3, seed=20)
        args = _scan_args(paths, tmp_path / "r.csv", extra=("--family", "binomial"))
        assert main(args) == 5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "config error" in err and f"{dataset.y[0]:g} at row 1" in err

    def test_modified_model_without_residual_room_is_config_error(
        self, tmp_path, capsys
    ):
        # n = 3 rows against an intercept and one covariate leave a
        # one-dimensional residual space, which has no permutations.
        (tmp_path / "y.csv").write_text("y\n0.3\n1.2\n-0.5\n")
        (tmp_path / "x.csv").write_text("x1\n0.0\n1.0\n2.5\n")
        (tmp_path / "g.csv").write_text("g1,g2\n0,1\n2,0\n0,2\n")
        paths = [str(tmp_path / name) for name in ("y.csv", "x.csv", "g.csv")]
        extra = ("--scheme", "modified-model")
        assert main(_scan_args(paths, tmp_path / "r.csv", extra=extra)) == 5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "config error" in err and "modified-model" in err
        assert "n=3, d=2" in err

    def test_fewer_rows_than_design_columns_is_parse_error(self, tmp_path, capsys):
        (tmp_path / "y.csv").write_text("y\n0.3\n1.2\n")
        (tmp_path / "x.csv").write_text("x1,x2\n0.0,1.0\n1.0,0.5\n")
        (tmp_path / "g.csv").write_text("g1\n0\n2\n")
        paths = [str(tmp_path / name) for name in ("y.csv", "x.csv", "g.csv")]
        assert main(_scan_args(paths, tmp_path / "r.csv")) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "parse error" in err and "has 2 rows" in err and "at least 4" in err

    def test_unwritable_scan_report_is_config_error(self, tmp_path, capsys):
        _, paths = _simulate_files(tmp_path, seed=21)
        out = tmp_path / "missing" / "r.csv"
        assert main(_scan_args(paths, out)) == 5
        err = capsys.readouterr().err
        assert "config error" in err and f"cannot write {out}" in err

    def test_unwritable_study_table_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "t.csv"
        args = ["study", "--n", "30", "--m", "2", "--k", "1", "--b", "9"]
        assert main([*args, "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert "config error" in err and f"cannot write {out}" in err

    @pytest.mark.parametrize("parent", ["missing", "file"])
    def test_unwritable_scan_report_fails_before_scanning(
        self, tmp_path, monkeypatch, capsys, parent
    ):
        _, paths = _simulate_files(tmp_path, seed=21)
        (tmp_path / "file").write_text("not a directory\n")
        out = tmp_path / parent / "r.csv"

        def never(**kwargs):
            raise AssertionError("run_scan called before the --out check")

        monkeypatch.setattr("permscan.cli.run_scan", never)
        assert main(_scan_args(paths, out)) == 5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"cannot write {out}: {tmp_path / parent} is not a directory" in err

    @pytest.mark.parametrize("parent", ["missing", "file"])
    def test_unwritable_study_table_fails_before_the_study(
        self, tmp_path, monkeypatch, capsys, parent
    ):
        (tmp_path / "file").write_text("not a directory\n")
        out = tmp_path / parent / "t.csv"

        def never(config):
            raise AssertionError("run_study called before the --out check")

        monkeypatch.setattr("permscan.cli.run_study", never)
        args = ["study", "--n", "30", "--m", "2", "--k", "1", "--b", "9"]
        assert main([*args, "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"cannot write {out}: {tmp_path / parent} is not a directory" in err

    @pytest.mark.parametrize("command", ["scan", "study"])
    def test_an_out_that_is_a_directory_fails_before_computing(
        self, tmp_path, monkeypatch, capsys, command
    ):
        _, paths = _simulate_files(tmp_path, seed=21)
        out = tmp_path / "taken"
        out.mkdir()

        def never(*args, **kwargs):
            raise AssertionError(f"{command} computed before the --out check")

        monkeypatch.setattr("permscan.cli.run_scan", never)
        monkeypatch.setattr("permscan.cli.run_study", never)
        if command == "scan":
            argv = _scan_args(paths, out)
        else:
            argv = ["study", "--n", "30", "--m", "2", "--k", "1", "--b", "9", "--out", str(out)]
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"config error: cannot write {out}: it is a directory" in err
        assert out.is_dir() and not any(out.iterdir())

    def test_simulate_into_a_file_is_config_error(self, tmp_path, capsys):
        out_dir = tmp_path / "taken"
        out_dir.write_text("not a directory\n")
        args = ["simulate", "--n", "30", "--m", "3", "--out-dir", str(out_dir)]
        assert main(args) == 5
        err = capsys.readouterr().err
        assert "config error" in err and f"cannot write {out_dir}" in err

    def test_other_permscan_error_exits_one(self, tmp_path, monkeypatch, capsys):
        def fail(**kwargs):
            raise PermscanError("no such thing")

        monkeypatch.setattr("permscan.cli.run_scan", fail)
        paths = [str(tmp_path / name) for name in ("y.csv", "x.csv", "g.csv")]
        assert main(_scan_args(paths, tmp_path / "r.csv")) == 1
        assert capsys.readouterr().err == "permscan: no such thing\n"

    def test_bad_config_boolean_is_config_error(self, tmp_path, capsys):
        config_file = tmp_path / "study.cfg"
        config_file.write_text("n = 30\nm = 2\nk = 1\nb = 9\ntimings = ture\n")
        out = tmp_path / "t.csv"
        assert main(["study", "--config", str(config_file), "--out", str(out)]) == 5
        assert "bad value for timings: 'ture'" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    def test_writes_three_files(self, tmp_path):
        out_dir = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "--family",
                "binomial",
                "--n",
                "40",
                "--m",
                "3",
                "--beta-e",
                "0.5",
                "--seed",
                "3",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        dataset, _ = ingest(
            out_dir / "phenotype.csv",
            out_dir / "genotypes.csv",
            out_dir / "covariates.csv",
        )
        assert dataset.n == 40 and dataset.m == 3
        assert set(np.unique(dataset.y)) <= {0.0, 1.0}


class TestStudyCommand:
    def test_config_file_with_overrides(self, tmp_path):
        config_file = tmp_path / "study.cfg"
        config_file.write_text(
            "family = normal\n"
            "n = 30\n"
            "m = 3\n"
            "beta_e = 0.4   # overridden below\n"
            "schemes = freedman-lane,parametric-bootstrap\n"
            "k = 4\n"
            "b = 30\n"
            "seed = 99\n"
        )
        out = tmp_path / "table.csv"
        code = main(
            [
                "study",
                "--config",
                str(config_file),
                "--k",
                "3",
                "--out",
                str(out),
                "--format",
                "csv",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "scheme" and "alpha_tilde" in header
        assert len(lines) == 3  # header + two schemes
        row = dict(zip(header, lines[1].split(",")))
        assert row["K"] == "3"  # override wins over the file value
        assert row["seconds"] == ""  # timings off by default
        assert 0.0 <= float(row["alpha_tilde"]) <= 1.0

    def test_study_bytes_identical_across_workers(self, tmp_path):
        config_file = tmp_path / "study.cfg"
        config_file.write_text(
            "n = 30\nm = 3\nschemes = freedman-lane\nk = 4\nb = 25\nseed = 5\n"
        )
        blobs = []
        for name, workers in (("w1.csv", "1"), ("w2.csv", "2")):
            out = tmp_path / name
            code = main(
                [
                    "study",
                    "--config",
                    str(config_file),
                    "--workers",
                    workers,
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_timings_flag_writes_seconds(self, tmp_path):
        config_file = tmp_path / "study.cfg"
        config_file.write_text(
            "n = 30\nm = 3\nschemes = freedman-lane\nk = 2\nb = 20\nseed = 5\n"
        )
        out = tmp_path / "timed.json"
        code = main(
            [
                "study",
                "--config",
                str(config_file),
                "--timings",
                "--out",
                str(out),
                "--format",
                "json",
            ]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert rows[0]["seconds"] > 0.0

    @pytest.mark.parametrize(
        "value, timed",
        [
            ("1", True),
            ("TRUE", True),
            ("Yes", True),
            ("on", True),
            ("0", False),
            ("False", False),
            ("NO", False),
            ("Off", False),
        ],
    )
    def test_config_file_booleans(self, tmp_path, value, timed):
        config_file = tmp_path / "study.cfg"
        config_file.write_text(f"n = 30\nm = 2\nk = 1\nb = 9\ntimings = {value}\n")
        out = tmp_path / "t.json"
        args = ["study", "--config", str(config_file), "--format", "json"]
        assert main([*args, "--out", str(out)]) == 0
        assert (json.loads(out.read_text())[0]["seconds"] is not None) == timed

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config_file = tmp_path / "study.cfg"
        config_file.write_text("bogus = 1\n")
        assert main(["study", "--config", str(config_file), "--out", "x.csv"]) == 5
        capsys.readouterr()


_SMALL_STUDY = ["study", "--n", "30", "--m", "2", "--k", "2", "--b", "9", "--seed", "16"]


class TestWorkersEnvVar:
    def test_env_var_supplies_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PERMSCAN_WORKERS", "2")
        real, workers = cli.run_study, []

        def recording(config):
            workers.append(config.workers)
            return real(config)

        monkeypatch.setattr(cli, "run_study", recording)
        reference = tmp_path / "ref.csv"
        assert main([*_SMALL_STUDY, "--workers", "1", "--out", str(reference)]) == 0
        from_env = tmp_path / "env.csv"
        assert main([*_SMALL_STUDY, "--out", str(from_env)]) == 0
        assert workers == [1, 2]
        assert reference.read_bytes() == from_env.read_bytes()

    def test_invalid_env_var_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PERMSCAN_WORKERS", "many")
        assert main([*_SMALL_STUDY, "--out", str(tmp_path / "t.csv")]) == 5
        assert "PERMSCAN_WORKERS must be an integer, got 'many'" in capsys.readouterr().err


# Every flag of every subcommand: (value type, or "switch" for a flag that
# takes no value; default; required; choices).
FLAGS = {
    "scan": {
        "--phenotype": ("str", None, True, None),
        "--genotypes": ("str", None, True, None),
        "--covariates": ("str", None, False, None),
        "--family": ("str", "normal", False, None),
        "--scheme": ("str", "freedman-lane", False, None),
        "--b": ("int", 1000, False, None),
        "--alpha": ("float", 0.05, False, None),
        "--seed": ("int", 0, False, None),
        "--out": ("str", None, True, None),
        "--format": ("str", "csv", False, ("csv", "json")),
    },
    "simulate": {
        "--family": ("str", "normal", False, None),
        "--n": ("int", None, True, None),
        "--m": ("int", None, True, None),
        "--rho": ("float", 0.0, False, None),
        "--beta-e": ("float", 0.0, False, None),
        "--maf-low": ("float", 0.05, False, None),
        "--maf-high": ("float", 0.5, False, None),
        "--seed": ("int", 0, False, None),
        "--out-dir": ("str", None, True, None),
    },
    # Study flags default to None so that a config-file value can stand.
    "study": {
        "--config": ("str", None, False, None),
        "--family": ("str", None, False, None),
        "--n": ("int", None, False, None),
        "--m": ("int", None, False, None),
        "--rho": ("float", None, False, None),
        "--beta-e": ("float", None, False, None),
        "--maf-low": ("float", None, False, None),
        "--maf-high": ("float", None, False, None),
        "--schemes": ("str", None, False, None),
        "--k": ("int", None, False, None),
        "--b": ("int", None, False, None),
        "--alpha": ("float", None, False, None),
        "--seed": ("int", None, False, None),
        "--workers": ("int", None, False, None),
        "--timings": ("switch", None, False, None),
        "--out": ("str", None, True, None),
        "--format": ("str", "csv", False, ("csv", "json")),
    },
}


def test_subcommand_flags_are_pinned():
    parser = build_parser()
    (commands,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    flags = {}
    for name, subparser in commands.choices.items():
        flags[name] = {}
        for action in subparser._actions:
            if action.dest == "help":
                continue
            # argparse hands an untyped flag its string unchanged.
            kind = "switch" if action.nargs == 0 else (action.type or str).__name__
            flags[name][tuple(action.option_strings)] = (
                kind,
                action.default,
                action.required,
                action.choices,
            )
    expected = {
        name: {(flag,): spec for flag, spec in specs.items()}
        for name, specs in FLAGS.items()
    }
    assert flags == expected



@pytest.fixture
def no_ingest(monkeypatch):
    def ingest(*args, **kwargs):
        pytest.fail("ingested before checking the seed")

    monkeypatch.setattr(cli, "ingest", ingest)


def test_scan_rejects_a_negative_seed_before_ingest(tmp_path, capsys, no_ingest):
    paths = [str(tmp_path / name) for name in ("y.csv", "x.csv", "g.csv")]
    args = _scan_args(paths, tmp_path / "r.csv")
    args[args.index("--seed") + 1] = "-1"
    assert main(args) == 5
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def test_run_scan_rejects_a_non_integer_seed_before_ingest(no_ingest):
    with pytest.raises(ConfigError, match="seed must be an integer, got 1.5"):
        cli.run_scan("y.csv", "g.csv", "x.csv", seed=1.5)


@pytest.mark.parametrize("alpha", ["0.05", None])
def test_run_scan_rejects_an_alpha_that_is_not_a_real_before_ingest(no_ingest, alpha):
    with pytest.raises(ConfigError, match="alpha must be a finite real number"):
        cli.run_scan("y.csv", "g.csv", "x.csv", alpha=alpha)


def test_scan_agrees_across_blas_thread_counts(tmp_path):
    # A scan keeps the default BLAS thread count, whose matmuls may round
    # differently, so the same scan on one and on two threads agrees to
    # rounding, not to the byte. Markers 1 and 4 carry an effect, and every
    # |t| lies at least 5 % from the cutoff, so no move of that size can
    # change the rejected set (the margin is checked below).
    simulated = simulate_dataset(
        SimulationConfig(n=600, m=800, family=Family.BINOMIAL, beta_e=0.5, seed=7)
    )
    x_e, x_g = simulated.dataset.x_e, simulated.dataset.x_g
    effect = (x_g[:, [1, 4]] - x_g[:, [1, 4]].mean(axis=0)).sum(axis=1)
    gen = np.random.default_rng(8)
    y = (gen.random(600) < expit(0.5 * x_e[:, 1] + 0.8 * effect)).astype(float)
    phenotype, covariates, genotypes = write_dataset(tmp_path, Dataset(y, x_e, x_g))
    src = str(Path(permscan.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}.json"
        args = _scan_args([str(phenotype), str(covariates), str(genotypes)], out, "json")
        args += ["--family", "binomial", "--scheme", "standardized-residuals"]
        subprocess.run(
            [sys.executable, "-m", "permscan.cli", *args],
            env=env,
            check=True,
            capture_output=True,
        )
        reports.append(json.loads(out.read_text()))
    one, two = reports
    t_one = np.array([marker["t"] for marker in one["markers"]])
    t_two = np.array([marker["t"] for marker in two["markers"]])
    assert_allclose(t_two, t_one, rtol=1e-12, atol=0)
    for key in ("c", "ci_low", "ci_high"):
        assert_allclose(two["cutoff"][key], one["cutoff"][key], rtol=1e-12, atol=0)
    rejected = [[marker["rejected"] for marker in report["markers"]] for report in reports]
    assert rejected[0] == rejected[1]
    assert np.flatnonzero(rejected[0]).tolist() == [1, 4]
    c = one["cutoff"]["c"]
    assert np.min(np.abs(np.abs(t_one) - c)) > 0.05 * c
