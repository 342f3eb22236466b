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
``getrusage`` of this process alone. A last line runs the binomial
configuration at K datasets on a pool of two workers (one when K is 1):

    study        study-binomial
    k            datasets in the round
    workers      the pool's worker count
    cpu_s        user and system CPU seconds of the round, this process
                 and its pool workers together
    idle_cpu_s   CPU seconds of this process during a 0.3 s sleep after
                 the round; a BLAS thread left busy by the study shows here

The permscan on PYTHONPATH is measured, else the one in this checkout's
``src``.
"""

import json
import resource
import signal
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


def study_config(name, k, n=400, m=100, b=500, master_seed=1, workers=1):
    """The benchmark's ``name`` study at ``k`` datasets on ``workers`` processes."""
    family, beta_e, schemes = STUDIES[name]
    sim = SimulationConfig(n=n, m=m, family=family, beta_e=beta_e, rho=0.7)
    return StudyConfig(
        sim=sim, schemes=schemes, k=k, b=b, workers=workers, master_seed=master_seed
    )


def warm_round(config):
    """Minor faults, system seconds and wall seconds of ``run_study(config)``."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    run_study(config)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime, wall


def cpu_seconds(who):
    """User plus system CPU seconds of ``getrusage(who)``."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def pooled_round(config, idle_s=0.3):
    """CPU seconds of ``run_study(config)`` (this process and its pool
    workers), and of this process during an ``idle_s`` sleep after it."""
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    before = [cpu_seconds(w) for w in who]
    run_study(config)
    after = [cpu_seconds(w) for w in who]
    time.sleep(idle_s)
    idle = cpu_seconds(resource.RUSAGE_SELF) - after[0]
    return sum(after) - sum(before), idle


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
    workers = min(2, k)
    cpu_s, idle_cpu_s = pooled_round(study_config("study-binomial", k, workers=workers))
    record = {
        "study": "study-binomial",
        "k": k,
        "workers": workers,
        "cpu_s": round(cpu_s, 3),
        "idle_cpu_s": round(idle_cpu_s, 3),
    }
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    # A reader that closes the pipe early (``| head -1``) ends the tool
    # quietly, as it would any Unix filter, not with a BrokenPipeError.
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main(sys.argv[1:]))
