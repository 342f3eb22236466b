"""Counter-based random streams for reproducible, order-independent Monte Carlo.

Every stochastic unit of work (a lane of a simulated dataset, a fixed-size
block of resampling replicates, a retry of a failed replicate) draws from
its own Philox stream keyed by ``(seed, *path)``. Streams never depend on
execution order or on how work is split across workers, so results are
bitwise reproducible for any worker count.
"""

import numpy as np

__all__ = ["substream"]


def substream(seed, *path):
    """Return a fresh ``numpy.random.Generator`` for the stream ``(seed, *path)``.

    ``seed`` is a non-negative integer; ``path`` is a tuple of non-negative
    integers identifying the unit of work (for example ``(k, lane, j)`` for
    replicate block ``j`` of dataset ``k``). Identical arguments always
    produce an identical stream.
    """
    if seed is None:
        raise ValueError("seed must be set for reproducible streams")
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))
