"""Tests for the random-stream layout: no stream is drawn for two purposes."""

import contextlib
import io

import numpy as np
import pytest

from permscan import (
    Family,
    ResamplingScheme,
    SimulationConfig,
    fit_null,
    replicate_matrix,
    score_statistics,
    simulate_dataset,
)
from permscan import cli, resampling, simulate, study
from permscan.rng import substream
from permscan.study import StudyConfig, alpha_loc_study, run_study

ENTRY_POINTS = ("simulate_dataset", "replicate_statistics", "mc_mvn_alpha_loc")


class StreamLog:
    """Every key drawn through ``simulate.substream`` and
    ``resampling.substream``, grouped by the call of an entry point in
    ``owners`` that drew it. A call's purpose is the entry point and the
    dataset it works on: the count of ``simulate_dataset`` calls before it."""

    def __init__(self, monkeypatch, *owners):
        self.calls = []
        self.dataset = -1
        for module in (simulate, resampling):
            monkeypatch.setattr(module, "substream", self._record)
        for owner in owners:
            for name in ENTRY_POINTS:
                if hasattr(owner, name):
                    wrapped = self._entry(name, getattr(owner, name))
                    monkeypatch.setattr(owner, name, wrapped)

    def _record(self, seed, *path):
        self.calls[-1][1].append((seed, *path))
        return substream(seed, *path)

    def _entry(self, name, function):
        def entry(*args, **kwargs):
            self.dataset += name == "simulate_dataset"
            self.calls.append(((name, self.dataset), []))
            return function(*args, **kwargs)

        return entry

    def assert_no_key_repeats(self):
        """No call draws a key twice, and no key serves two purposes; the
        schemes resampling one dataset share its replicate streams."""
        purpose_of = {}
        for purpose, keys in self.calls:
            assert len(set(keys)) == len(keys), f"{purpose} drew a stream twice"
            for key in keys:
                first = purpose_of.setdefault(key, purpose)
                assert first == purpose, f"stream {key} drawn for {first} and {purpose}"
        return purpose_of


@pytest.mark.filterwarnings("ignore:scheme .* relies on normal:UserWarning")
def test_study_streams_never_repeat(monkeypatch):
    log = StreamLog(monkeypatch, study)
    sim = SimulationConfig(n=30, m=3, family=Family.BINOMIAL, beta_e=1.0)
    schemes = tuple(ResamplingScheme)
    run_study(StudyConfig(sim=sim, schemes=schemes, k=2, b=1100, master_seed=4))
    purposes = set(log.assert_no_key_repeats().values())
    assert purposes == {(name, k) for name in ENTRY_POINTS[:2] for k in range(2)}


def test_simulate_then_scan_with_one_seed_never_repeat_a_stream(monkeypatch, tmp_path):
    log = StreamLog(monkeypatch, cli)
    data = tmp_path / "data"
    argv = ["simulate", "--family", "binomial", "--n", "30", "--m", "3"]
    argv += ["--beta-e", "1.5", "--seed", "3", "--out-dir", str(data)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        for scheme in ("raw-y", "parametric-bootstrap"):
            assert cli.main([
                "scan", "--phenotype", str(data / "phenotype.csv"),
                "--genotypes", str(data / "genotypes.csv"),
                "--covariates", str(data / "covariates.csv"),
                "--family", "binomial", "--scheme", scheme, "--b", "1025",
                "--seed", "3", "--out", str(tmp_path / f"{scheme}.json"),
            ]) == 0
    purpose_of = log.assert_no_key_repeats()
    # The bootstrap of 30 Bernoulli responses redraws some replicates.
    assert any(len(key) == 4 for key in purpose_of)


def test_alpha_loc_monte_carlo_with_the_simulation_seed_never_repeats(monkeypatch):
    log = StreamLog(monkeypatch, study)
    sim = SimulationConfig(n=40, m=4, family=Family.NORMAL, beta_e=0.5, seed=2)
    scheme = ResamplingScheme.FREEDMAN_LANE
    alpha_loc_study(sim, scheme, b=99, mc_draws=500, mc_seed=sim.seed)
    purposes = {name for name, _ in log.assert_no_key_repeats().values()}
    assert purposes == set(ENTRY_POINTS)


def test_no_bootstrap_replicate_reproduces_the_observed_statistics():
    # Replicate 3072 opens the fourth block of a lone dataset, whose key
    # would be the phenotype's stream if the resampler had no lane.
    sim = SimulationConfig(n=60, m=5, family=Family.NORMAL, seed=3)
    dataset = simulate_dataset(sim).dataset
    fit = fit_null(Family.NORMAL, dataset.y, dataset.x_e)
    observed = score_statistics(fit, dataset.x_g).t
    matrix = replicate_matrix(
        ResamplingScheme.PARAMETRIC_BOOTSTRAP, fit, dataset, 3073, seed=3
    )
    # Equal up to rounding when the two streams coincide.
    assert np.abs(matrix - observed).max(axis=1).min() > 1e-8
