"""Minor page faults, system time and wall time of a warm calibration study.

    python3 tools/study_faults.py K

For each of the benchmark's two study configurations (n=400, m=100,
rho=0.7, B=500, workers=1; normal with beta_e 0.5 and all six schemes,
binomial with beta_e 1.5 and standardized residuals, raw-y and the
bootstrap), the tool runs one warm-up study at K=1 and then a warm round
at K datasets, and prints one JSON line:

    study        the configuration's name
    k            datasets in the warm round
    minor_faults minor page faults of the warm round (ru_minflt)
    system_s     system CPU seconds of the warm round (ru_stime)
    wall_s       wall seconds of the warm round

A study's replicate buffers are held until ``run_study`` returns, so the
faults of a warm round should not grow with K. The counts come from
``getrusage`` of this process alone. The permscan on PYTHONPATH is
measured, else the one in this checkout's ``src``.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from permscan import (  # noqa: E402
    Family,
    ResamplingScheme,
    SimulationConfig,
    StudyConfig,
    run_study,
)

STUDIES = {
    "study-normal": (Family.NORMAL, 0.5, tuple(ResamplingScheme)),
    "study-binomial": (
        Family.BINOMIAL,
        1.5,
        (
            ResamplingScheme.STANDARDIZED_RESIDUALS,
            ResamplingScheme.RAW_Y,
            ResamplingScheme.PARAMETRIC_BOOTSTRAP,
        ),
    ),
}


def study_config(name, k, n=400, m=100, b=500, master_seed=1):
    """The benchmark's ``name`` study at ``k`` datasets, on one worker."""
    family, beta_e, schemes = STUDIES[name]
    sim = SimulationConfig(n=n, m=m, family=family, beta_e=beta_e, rho=0.7)
    return StudyConfig(sim=sim, schemes=schemes, k=k, b=b, master_seed=master_seed)


def warm_round(config):
    """Minor faults, system seconds and wall seconds of ``run_study(config)``."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    run_study(config)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime, wall


def main(argv):
    if len(argv) != 1 or not argv[0].isdigit() or int(argv[0]) < 1:
        print(__doc__, file=sys.stderr)
        return 2
    k = int(argv[0])
    for name in STUDIES:
        run_study(study_config(name, 1))
        faults, system_s, wall_s = warm_round(study_config(name, k))
        record = {
            "study": name,
            "k": k,
            "minor_faults": faults,
            "system_s": round(system_s, 3),
            "wall_s": round(wall_s, 3),
        }
        print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
