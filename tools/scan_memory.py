"""Memory and time of ``replicate_statistics`` on a simulated binomial dataset.

    python3 tools/scan_memory.py N M B SCHEME...

Each SCHEME (a ``ResamplingScheme`` value such as ``parametric-bootstrap``)
runs in its own process. The process simulates a binomial N x M dataset
under tracemalloc with the benchmark's cli-wide scenario (beta_e 0.5,
rho 0.5, seed 1), fits the null model and takes the observed statistics
under tracemalloc as ``permscan scan`` does, then calls
``replicate_statistics`` with B replicates three times: to warm up, timed,
and under tracemalloc. It prints one JSON line per scheme:

    seconds            wall time of the timed call
    traced_peak_mib    tracemalloc peak of the traced call above what was
                       allocated before it (MiB)
    score_peak_mib     the same for ``score_statistics``, which computes the
                       score denominators (MiB)
    simulate_peak_mib  the same for ``simulate_dataset`` (MiB)
    max_rss_mb         the process's maximum resident set size, simulation
                       included (MB, ru_maxrss / 1024)

The permscan on PYTHONPATH is measured, else the one in this checkout's
``src``, so a second checkout is measured with PYTHONPATH=OTHER/src.
"""

import json
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Run in a child process per scheme: tools dir, src fallback, N, M, B, scheme.
CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); sys.path.append(sys.argv[2]); "
    "import scan_memory; scan_memory.measure(*sys.argv[3:])"
)


def _traced_peak(call):
    """``call()`` and its tracemalloc peak above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def measure(n, m, b, scheme_name):
    """Print the JSON line of one scheme; run in a fresh process."""
    import permscan as ps

    n, m, b = int(n), int(m), int(b)
    scheme = ps.ResamplingScheme(scheme_name)
    config = ps.SimulationConfig(
        n=n, m=m, family=ps.Family.BINOMIAL, beta_e=0.5, rho=0.5, seed=1
    )
    simulated, simulate_peak = _traced_peak(lambda: ps.simulate_dataset(config))
    dataset = simulated.dataset
    fit = ps.fit_null(config.family, dataset.y, dataset.x_e)
    _, score_peak = _traced_peak(lambda: ps.score_statistics(fit, dataset.x_g))
    ps.replicate_statistics(scheme, fit, dataset, b, seed=1)
    start = time.perf_counter()
    ps.replicate_statistics(scheme, fit, dataset, b, seed=1)
    seconds = time.perf_counter() - start
    _, peak = _traced_peak(lambda: ps.replicate_statistics(scheme, fit, dataset, b, seed=1))
    record = {
        "scheme": scheme.value,
        "n": n,
        "m": m,
        "b": b,
        "seconds": round(seconds, 3),
        "traced_peak_mib": round(peak / 2**20, 1),
        "score_peak_mib": round(score_peak / 2**20, 1),
        "simulate_peak_mib": round(simulate_peak / 2**20, 1),
        "max_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    print(json.dumps(record), flush=True)


def main(argv):
    if len(argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    n, m, b, *schemes = argv
    for scheme in schemes:
        child = [sys.executable, "-c", CHILD, str(ROOT / "tools"), str(ROOT / "src")]
        code = subprocess.run([*child, n, m, b, scheme]).returncode
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
