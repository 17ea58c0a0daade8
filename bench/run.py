"""The normalvol benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the library is imported from its ``src``.
One workload runs in one single-threaded process as a closed loop with one
client: it sets up (several times, reporting the median), then runs its
fixed job list round and round for ``--seconds``, every job at least once.
Every answer is checked exactly, outside the timed region.  ``--workload
all`` runs each workload in its own process, one after another.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  Job times are given in ``ref`` units, the time of
a reference computation sampled during the same job (see ``refclock.py``),
because the host's speed drifts by more than the metrics' bounds; the wall
times are printed above the JSON line.  With ``--trace 1`` the run does one
untraced pass, then installs the span wrappers, sets up again and does one
traced pass, and reports the per-layer metrics and the tracing overhead in
wall time.  Spans go to ``bench/out/``.
"""

import argparse
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

from refclock import RefClock
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")

# Set-ups per run: at least SETUPS_MIN, and more while they have taken less
# than SETUPS_SPAN_S, up to SETUPS_MAX.  setup_s is their median.
SETUPS_MIN, SETUPS_MAX, SETUPS_SPAN_S = 3, 15, 2.0
# A job running longer is stopped and counted as failed.  With three jobs in
# a list this keeps a run under 180 s; the largest job takes about 15 s.
JOB_BUDGET_S = 45


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded its {JOB_BUDGET_S} s budget")


def import_library():
    """Import normalvol afresh from this checkout's src, and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "normalvol", "__init__.py")):
        sys.exit(f"bench: no library at {src}/normalvol; run from a checkout of the repository")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "normalvol" or m.startswith("normalvol.")]:
        del sys.modules[name]
    import normalvol
    import normalvol.cli

    if os.path.dirname(os.path.abspath(normalvol.__file__)) != os.path.join(src, "normalvol"):
        sys.exit(f"bench: normalvol was imported from {normalvol.__file__}, not from {src}")
    return normalvol


def run_job(job, tracer=None, clock=None) -> tuple[float, float | None, str | None]:
    """Run one job under its budget; returns (wall time, refs or None, failure or None)."""
    if tracer is not None:
        tracer.job, tracer.active = job.name, True
    signal.setitimer(signal.ITIMER_REAL, JOB_BUDGET_S)
    start = time.perf_counter()
    if clock is not None:
        clock.start()
    try:
        answer = job.run()
        error = None
    except Exception as exc:  # a failed job is counted, never dropped
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if clock is not None:
            clock.stop()
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.active = False
    refs = clock.refs(elapsed) if clock is not None else None
    if error is None:
        try:
            error = job.check(answer)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, refs, error


def run_pass(session, tracer=None):
    """One pass over the job list; returns (wall time, [(job, wall, refs, failure)])."""
    start = time.perf_counter()
    results = [(job.name, *run_job(job, tracer)) for job in session.jobs]
    return time.perf_counter() - start, results


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def set_up(workload, seed: int, workdir: str):
    """Import the library and set up, several times; returns the last session
    and every set-up time."""
    setups = []
    while (len(setups) < SETUPS_MIN
           or (len(setups) < SETUPS_MAX and sum(setups) < SETUPS_SPAN_S)):
        start = time.perf_counter()
        session = workload(import_library(), seed, workdir)
        setups.append(time.perf_counter() - start)
    return session, setups


def measure(workload, seed: int, seconds: float, workdir: str):
    """Untraced run: the end-to-end metrics."""
    session, setups = set_up(workload, seed, workdir)
    clock = RefClock()
    # Run the job list round and round: the first round whole, then until
    # the next job, taking as long as it did last time, would end after
    # the deadline.
    deadline = time.perf_counter() + seconds
    results, last = [], {}
    for job in itertools.cycle(session.jobs):
        if job.name in last and time.perf_counter() + last[job.name] > deadline:
            break
        result = run_job(job, clock=clock)
        last[job.name] = result[0]
        results.append((job.name, *result))
    # A pass, the median job and the slowest job all come from each job's
    # median, so a job that ran once more than another weighs no more.
    walls, refs = {}, {}
    for job in session.jobs:
        own = [(t, r) for name, t, r, _ in results if name == job.name]
        walls[job.name] = statistics.median(t for t, _ in own)
        refs[job.name] = statistics.median(r for _, r in own)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "batch_ref": metric(sum(refs.values()), "ref"),
        "job_ref.p50": metric(statistics.median(refs.values()), "ref"),
        "job_ref.max": metric(max(refs.values()), "ref"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    failed = sum(1 for *_, err in results if err is not None)
    n = f"{len(results)} jobs run"
    samples = {"setup_s": f"{len(setups)} set-ups", "batch_ref": n, "job_ref.p50": n,
               "job_ref.max": n, "peak_rss_mib": "1 process"}
    lines = [f"{k:<14} {v['value']:>12.6g} {v['unit']:<5} ({samples[k]})"
             for k, v in metrics.items()]
    lines.append(f"{'fail_frac':<14} {failed / len(results):>12.6g} {'1':<5} "
                 f"({failed} of {len(results)} jobs)")
    lines.append(f"wall clock: batch_s {sum(walls.values()):.6g} s, "
                 f"job_s.p50 {statistics.median(walls.values()):.6g} s, "
                 f"job_s.max {max(walls.values()):.6g} s; "
                 f"one ref took {statistics.median(clock.means) * 1e3:.4g} ms (median over jobs)")
    for job in session.jobs:
        runs = sum(1 for name, *_ in results if name == job.name)
        lines.append(f"{job.name:<24} {refs[job.name]:>10.6g} ref, "
                     f"{walls[job.name]:>8.4g} s median (n={runs})")
    return metrics, results, lines


def measure_traced(workload, nv, seed: int, workdir: str):
    """Traced run: one untraced pass, then a traced set-up and pass."""
    import spans

    untraced_s, results = run_pass(workload(nv, seed, workdir))
    tracer = spans.Tracer()
    tracer.install(nv)
    tracer.job, tracer.active = "setup", True
    session = workload(nv, seed, workdir)
    tracer.active = False
    traced_s, traced_results = run_pass(session, tracer)
    results.extend(traced_results)
    values = tracer.layer_metrics()
    values["trace.overhead_s"] = traced_s - untraced_s
    units = dict(spans.layer_metric_names())
    metrics = {name: metric(values[name], unit) for name, unit in units.items()}
    lines = [f"untraced pass {untraced_s:.6g} s, traced pass {traced_s:.6g} s, "
             f"{len(tracer.spans)} spans"]
    lines += [f"input {name}: {counts}" for name, counts in session.structure.items()]
    lines += [f"{k:<45} {v['value']:>12.6g} {v['unit']}" for k, v in metrics.items()]
    return metrics, results, lines, tracer, session


def run_one(args) -> int:
    nv = import_library()
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if args.trace:
            metrics, results, lines, tracer, session = measure_traced(
                workload, nv, args.seed, workdir)
        else:
            metrics, results, lines = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [(name, err) for name, *_, err in results if err is not None]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {os.cpu_count()}  python {sys.version.split()[0]}")
    for line in lines:
        print("  " + line)
    for name, err in failed:
        print(f"  FAILED {name}: {err}")
    if args.trace:
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "structure": session.structure})
        print(f"  spans written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
