"""Correlated-genotype and null-phenotype simulation.

Genotypes are generated from a latent multivariate normal: each DNA copy of
an individual draws a standard normal vector, correlates it through the
symmetric square root a I + c J of the compound-symmetry marker correlation
matrix, and dichotomizes at the normal quantile of the minor-allele
frequency. The root is applied in closed form as ``a z + c sum(z)``: O(nm)
time and memory, no m x m matrix, and no BLAS call whose last bits could
follow the thread count. Summing the two independent copies yields additive
0/1/2 genotypes whose marginal allele frequency equals the requested MAF;
realized genotype correlations are an attenuated version of the latent
correlation.

Phenotypes are drawn under the complete null of no marker association:
a single standard-normal environmental covariate acts with effect size
``beta_e`` (identity link plus unit-variance noise for the normal family,
logit link for the binomial family, zero intercept in both).
"""

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, check_integer, check_real
from .glm import Dataset, Family, expit
from .rng import COVARIATE_LANE, GENOTYPE_LANE, MAF_LANE, PHENOTYPE_LANE, substream

__all__ = [
    "SimulationConfig",
    "SimulatedDataset",
    "simulate_genotypes",
    "simulate_phenotype",
    "simulate_dataset",
]

MONOMORPHIC_RETRIES = 100
# Normal draws held at once by ``_draw_alleles`` (1 MiB of float64).
_DRAW_BLOCK = 1 << 17


@dataclass(frozen=True)
class SimulationConfig:
    """Scenario description for one simulated dataset."""

    n: int
    m: int
    family: Family
    beta_e: float = 0.0
    rho: float = 0.0
    maf_range: tuple[float, float] = (0.05, 0.5)
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.family, Family):
            raise ConfigError(f"family must be a Family, got {self.family!r}")
        check_integers(self, n=3, m=1, seed=0)
        if not isinstance(self.maf_range, tuple) or len(self.maf_range) != 2:
            raise ConfigError(f"maf_range must be a 2-tuple, got {self.maf_range!r}")
        check_real("beta_e", self.beta_e)
        check_real("rho", self.rho)
        for bound in self.maf_range:
            check_real("maf_range entry", bound)
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError("latent correlation rho must lie in [0, 1)")
        low, high = self.maf_range
        if not 0.0 < low <= high <= 0.5:
            raise ConfigError("maf_range must satisfy 0 < low <= high <= 0.5")


def check_integers(config, **minimums):
    """Store each named field of the frozen ``config`` as an int; a value
    that is not a Python or numpy integer, or is below the field's minimum,
    is a ConfigError."""
    for name, low in minimums.items():
        object.__setattr__(config, name, check_integer(name, getattr(config, name), low))


@dataclass(frozen=True)
class SimulatedDataset:
    """A complete-null dataset with its simulation ground truth."""

    dataset: Dataset
    true_maf: np.ndarray


def correlation_factor(m, rho):
    """Coefficients ``(a, c)`` of the symmetric square root a I + c J of the
    compound-symmetry correlation matrix (1 - rho) I + rho J (J all ones):
    a = sqrt(1 - rho) and c = (sqrt(1 + (m - 1) rho) - a) / m. ``rho == 0``
    gives (1, 0), the identity.
    """
    if not 0.0 <= rho < 1.0:
        raise ConfigError("compound symmetry requires 0 <= rho < 1")
    a = np.sqrt(1.0 - rho)
    return a, (np.sqrt(1.0 + (m - 1) * rho) - a) / m


def _draw_alleles(gen, root, threshold, counts):
    """Add one DNA copy for all individuals, dichotomized correlated
    normals, into the n x m int8 allele ``counts``.

    ``root`` is the ``(a, c)`` pair of ``correlation_factor``; each row z
    becomes (a I + c J) z = a z + c sum(z), formed in the draws' own buffer.
    The normals are drawn a block of rows at a time into one buffer of
    about ``_DRAW_BLOCK`` values, so no n x m float or bool array is held;
    the stream is consumed in the same order and every row is formed alone,
    so the bits do not depend on the block size.
    """
    a, c = root
    n, m = counts.shape
    block = np.empty((min(n, max(1, _DRAW_BLOCK // m)), m))
    for start in range(0, n, block.shape[0]):
        z = gen.standard_normal(out=block[: n - start])
        shift = c * z.sum(axis=1, keepdims=True)
        z *= a
        z += shift
        counts[start : start + z.shape[0]] += z < threshold


def simulate_genotypes(config, *, stream_path=()):
    """Draw the int8 genotype matrix and its MAF vector.

    Each marker's MAF is drawn once per dataset from ``maf_range``; both DNA
    copies of every individual are dichotomized at the same normal quantile
    of that MAF. Datasets with a monomorphic marker column are redrawn (same
    MAF) up to MONOMORPHIC_RETRIES times before giving up.
    """
    maf = substream(config.seed, *stream_path, MAF_LANE).uniform(
        config.maf_range[0], config.maf_range[1], size=config.m
    )
    root = correlation_factor(config.m, config.rho)
    threshold = np.array([NormalDist().inv_cdf(p) for p in maf])
    genotypes = np.empty((config.n, config.m), dtype=np.int8)
    for attempt in range(MONOMORPHIC_RETRIES):
        gen = substream(config.seed, *stream_path, GENOTYPE_LANE, attempt)
        genotypes.fill(0)
        _draw_alleles(gen, root, threshold, genotypes)
        _draw_alleles(gen, root, threshold, genotypes)
        if np.all(genotypes.min(axis=0) < genotypes.max(axis=0)):
            return genotypes, maf
    raise ConfigError(
        f"dataset kept producing monomorphic markers after "
        f"{MONOMORPHIC_RETRIES} redraws; widen maf_range or increase n"
    )


def simulate_phenotype(config, x_e, *, stream_path=()):
    """Phenotype under the complete null given the covariate column ``x_e``."""
    gen = substream(config.seed, *stream_path, PHENOTYPE_LANE)
    linear = config.beta_e * x_e
    if config.family is Family.NORMAL:
        return linear + gen.standard_normal(config.n)
    return (gen.random(config.n) < expit(linear)).astype(float)


def simulate_dataset(config, *, stream_path=()):
    """Simulate one full dataset: covariate, genotypes and phenotype.

    ``stream_path`` names the dataset inside a larger experiment (see
    ``rng``); identical (seed, stream_path) always reproduce it bitwise.
    """
    gen = substream(config.seed, *stream_path, COVARIATE_LANE)
    covariate = gen.standard_normal(config.n)
    genotypes, maf = simulate_genotypes(config, stream_path=stream_path)
    y = simulate_phenotype(config, covariate, stream_path=stream_path)
    x_e = np.column_stack([np.ones(config.n), covariate])
    # Read-only, the matrix is shared by the dataset, not copied.
    genotypes.flags.writeable = False
    return SimulatedDataset(
        dataset=Dataset(y=y, x_e=x_e, x_g=genotypes),
        true_maf=maf,
    )
