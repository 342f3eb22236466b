"""Fold benchmark runs of two commits into a committed bench record.

    python3 tools/bench_record.py NUMBER PARENT_OUT CHANGE_OUT PARENT_COMMIT

PARENT_OUT and CHANGE_OUT are the ``bench/out`` directories of a checkout of
the parent commit and of the change, each holding the
``result-<workload>-seed<seed>-trace0.json`` files that ``python3
bench/run.py --trace 0`` wrote. Runs of the same workload and seed on both
sides form a pair. The record, ``BENCH_<NUMBER>.json`` at the repository
root, holds the commits, the environment of each side, and per workload the
paired seeds, the correct/attempted/failed counts and the median,
interquartile range (inclusive quartiles) and runs of every end-to-end
metric. A run's measured span is the sum of its rounds' wall times
(``detail.round_wall_s``); a workload whose paired runs' spans differ by
more than its longest round mixes runs of different ``--seconds`` and is
refused, naming the run farthest from the median span. The change is the
commit that adds the record; it is identified by the tree of ``src/`` in
the git index, so stage the change before running.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RESULT = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json")
WHAT = (
    "End-to-end metrics of python3 bench/run.py --trace 0, parent commit and "
    "this change, paired by workload and seed; median and interquartile range "
    "(inclusive quartiles) of each metric per workload"
)


def _runs(directory):
    """{workload: {seed: (path, record)}} of the untraced result files in
    ``directory``."""
    runs = {}
    for path in sorted(Path(directory).glob("result-*-trace0.json")):
        match = RESULT.fullmatch(path.name)
        if match:
            record = json.loads(path.read_text())
            runs.setdefault(match["workload"], {})[int(match["seed"])] = (path, record)
    return runs


def _check_spans(workload, runs):
    """Refuse ``workload`` when the spans of its (path, record) ``runs``
    differ by more than its longest round. A record without
    ``round_wall_s`` has no span and is not checked."""
    spans, longest = {}, 0.0
    for path, record in runs:
        rounds = record.get("detail", {}).get("round_wall_s")
        if rounds:
            spans[path] = sum(rounds)
            longest = max(longest, max(rounds))
    if spans and max(spans.values()) - min(spans.values()) > longest:
        median = float(np.median(list(spans.values())))
        odd = max(spans, key=lambda path: abs(spans[path] - median))
        raise ValueError(
            f"{workload}: runs of unequal length; {odd} spans {spans[odd]:.2f} s "
            f"against a median of {median:.2f} s, with rounds of at most {longest:.2f} s"
        )


def _environment(records):
    """The one environment of ``records`` with the range of the 1-minute
    load average they saw; records from different environments are refused."""
    envs = [dict(record["environment"]) for record in records]
    loads = []
    for env in envs:
        loads += [env.pop("loadavg_1m_start"), env.pop("loadavg_1m_end")]
    if any(env != envs[0] for env in envs):
        raise ValueError("runs on one side come from different environments")
    return {**envs[0], "loadavg_1m_range": [min(loads), max(loads)]}


def _side(records):
    results = [record["result"] for record in records]
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [result["metrics"][name]["value"] for result in results]
        q1, mid, q3 = np.percentile(values, [25, 50, 75])  # inclusive quartiles
        metrics[name] = {
            "unit": first["unit"],
            "median": round(float(mid), 4),
            "iqr": round(float(q3 - q1), 4),
            "runs": [round(value, 4) for value in values],
        }
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }


def fold(parent_out, change_out, commits):
    """The bench record of the paired runs in ``parent_out`` and ``change_out``."""
    parent, change = _runs(parent_out), _runs(change_out)
    workloads = {}
    used = {"parent": [], "change": []}
    for workload in sorted(parent.keys() & change.keys()):
        seeds = sorted(parent[workload].keys() & change[workload].keys())
        if not seeds:
            continue
        paired = [runs[workload][seed] for runs in (parent, change) for seed in seeds]
        _check_spans(workload, paired)
        sides = {
            "parent": [parent[workload][seed][1] for seed in seeds],
            "change": [change[workload][seed][1] for seed in seeds],
        }
        workloads[workload] = {"seeds": seeds, "pairs": len(seeds)}
        for side, records in sides.items():
            workloads[workload][side] = _side(records)
            used[side] += records
    if not workloads:
        raise ValueError("no workload has a seed run on both sides")
    return {
        "what": WHAT,
        "commits": commits,
        "environment": {side: _environment(records) for side, records in used.items()},
        "workloads": workloads,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("number", type=int, help="record number: writes BENCH_<number>.json")
    parser.add_argument("parent_out", help="bench/out directory of the parent checkout")
    parser.add_argument("change_out", help="bench/out directory of the change checkout")
    parser.add_argument("parent_commit", help="commit the parent runs were made from")
    args = parser.parse_args(argv)
    src_tree = subprocess.run(
        ["git", "-C", str(ROOT), "write-tree", "--prefix=src/"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout.strip()
    commits = {
        "parent": args.parent_commit,
        "change": "the commit that adds this file; its src/ tree is change_src_tree",
        "change_src_tree": src_tree,
    }
    record = fold(args.parent_out, args.change_out, commits)
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"bench_record: wrote {path.name} ({len(record['workloads'])} workloads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
