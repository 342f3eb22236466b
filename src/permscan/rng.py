"""Counter-based random streams for reproducible, order-independent Monte Carlo.

Every stochastic unit of work draws from its own Philox stream, keyed by
``(seed, *dataset_path, lane, *unit)``:

* ``dataset_path`` names the dataset: ``(k,)`` for dataset k of a study,
  ``()`` for a lone one (``permscan simulate`` and ``scan``,
  ``alpha_loc_study``). The paths of one experiment share one length;
* ``lane`` is one of the constants below, the package's only lane numbers;
* ``unit`` is a genotype redraw attempt, replicate block ``(j,)``, attempt
  ``(r, a)`` of replicate r (one entry longer than a block), or ``(0,)`` and
  ``(1,)`` for the Monte Carlo draws and their bootstrap.

The simulator and the resampler add their own lane, so callers pass the
dataset path alone and a dataset's replicates never reuse one of its
simulation streams, even when ``simulate`` and ``scan`` share a seed. No
stream depends on execution order or on the split across workers, so
results are bitwise reproducible for any worker count.
"""

import numpy as np

__all__ = ["substream"]

MAF_LANE, COVARIATE_LANE, GENOTYPE_LANE, PHENOTYPE_LANE = 0, 1, 2, 3
RESAMPLING_LANE, MONTE_CARLO_LANE = 4, 5


def substream(seed, *path):
    """Return a fresh ``numpy.random.Generator`` for the stream ``(seed, *path)``.

    ``seed`` and the entries of ``path`` (laid out as above) are non-negative
    integers; identical arguments always produce an identical stream.
    """
    if seed is None:
        raise ValueError("seed must be set for reproducible streams")
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))
