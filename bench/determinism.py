"""Determinism gate for the benchmark.

    python3 bench/determinism.py [--seed N] [--second-seed M]

For every workload: two traced runs with the same seed must give identical
structural counts and identical call counts and counters, job by job, and
a run with a second seed must answer every job correctly.  Exits 1 on any
difference or failure.
"""

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fingerprint(workload: str, seed: int) -> dict:
    result = run(workload, seed, 1)
    path = os.path.join(BENCH, "out", f"trace-{workload}-seed{seed}.json")
    with open(path) as handle:
        spans = json.load(handle)
    counts = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"}
    return {"correct": result["correct"], "structure": spans["structure"],
            "job_counts": spans["job_counts"], "counts": counts}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--second-seed", type=int, default=2)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        first, second = fingerprint(workload, args.seed), fingerprint(workload, args.seed)
        same = first == second
        other = run(workload, args.second_seed, 0)
        print(f"{workload}: same-seed counts {'identical' if same else 'DIFFER'} "
              f"({sum(len(v) for v in first['job_counts'].values())} counts over "
              f"{len(first['job_counts'])} jobs); seed {args.seed} correct {first['correct']}; "
              f"seed {args.second_seed} correct {other['correct']} "
              f"({other['attempted'] - other['failed']} of {other['attempted']} jobs)")
        if not same:
            for key in ("structure", "counts"):
                if first[key] != second[key]:
                    print(f"  {key}: {first[key]} != {second[key]}")
        ok = ok and same and first["correct"] and other["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
