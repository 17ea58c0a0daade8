"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload NAME --seeds 1-10 --seconds 30 [--out FILE]

Each seed is one run of bench/run.py in its own process, one after another.
For every end-to-end metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and their distance as a share of the
median.  ``--out`` merges the per-seed values and these figures into a JSON
file under the workload's name.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out")
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: wrong answers\n{proc.stdout}")
        runs.append({"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        print(f"seed {seed}: " + ", ".join(f"{k} {v:.6g}" for k, v in runs[-1]["metrics"].items()),
              flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
        print(f"{name:<14} median {median:10.6g}  q1 {q1:10.6g}  q3 {q3:10.6g}  "
              f"spread {(q3 - q1) / median:.3f}")
    if args.out:
        data = {}
        if os.path.exists(args.out):
            with open(args.out) as handle:
                data = json.load(handle)
        data["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                           "cpu": platform.processor() or platform.machine()}
        data.setdefault("workloads", {})[args.workload] = {
            "seconds": args.seconds, "runs": runs, "summary": summary}
        with open(args.out, "w") as handle:
            json.dump(data, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
