"""Benchmark of tunneltimes: closed forms, deep-well snapshots, Larmor clock.

    python3 perfbench/run.py --workload {pointwise,snapshots,clock}
                             --seed N --seconds S --trace {0,1}

Runs whole closed-loop rounds of one workload in this process until S timed
seconds have passed (at least two rounds, so reruns can be compared), checks
every output against mpmath references or invariants outside the timed
region, and prints one JSON line last: end-to-end metrics with --trace 0,
per-layer metrics from span tracing with --trace 1.  The package is imported
from src/ of the checkout holding this file; nothing is installed.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
TESTS = ROOT / "tests"
SETUP_REPEATS = 3
MIN_ROUNDS = 2

# One BLAS/OpenMP thread.  On a 2-vCPU host shared with other tenants the
# second thread sped `packet` up from 11.3 s to 8.9 s while the host was quiet
# and not at all while it was loaded (13.0 s against 13.1 s), so the thread
# count would add the neighbours' load as a second source of drift.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pointwise", "snapshots", "clock"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds():
    """Median wall time of a fresh interpreter importing the package and CLI."""
    code = ("import sys; sys.path.insert(0, %r); import tunneltimes, tunneltimes.cli"
            % str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tunneltimes" / "__init__.py").is_file() or not (TESTS / "oracles.py").is_file():
        print("perfbench: %s holds no src/tunneltimes or tests/oracles.py to benchmark"
              % ROOT, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]

    import tunneltimes
    if Path(tunneltimes.__file__).resolve().parent != SRC / "tunneltimes":
        print("perfbench: imported tunneltimes from %s, not this checkout"
              % tunneltimes.__file__, file=sys.stderr)
        return 2
    import spans
    import workloads

    out_dir = BENCH / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    setup_s = setup_seconds() if not args.trace else None
    workload = workloads.WORKLOADS[args.workload](str(out_dir), args.seed)
    workload.references()

    tracer = spans.Tracer() if args.trace else None
    uninstall = spans.install(tracer) if tracer else None
    timed = 0.0
    try:
        with spans.runtime_warnings() if tracer else contextlib.nullcontext() as warned:
            while timed < args.seconds or workload.rounds < MIN_ROUNDS:
                spent = workload.round()
                timed += spent
                print("round %d: %.4f s" % (workload.rounds, spent), file=sys.stderr)
    finally:
        if uninstall:
            uninstall()
    # the high-water mark before the final checks, which parse whole CSVs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.finish()

    for check in workload.worst.values():
        print(check.line())
    correct = all(check.ok for check in workload.worst.values())
    attempted = workload.rounds * workload.ops_per_round
    print("workload %s: %d rounds, %d operations attempted, 0 failed, %.2f s timed"
          % (args.workload, workload.rounds, attempted, timed))

    if tracer:
        tracer.write(str(BENCH / "out" / ("trace-%s.csv" % args.workload)))
        metrics = spans.layer_metrics(tracer, workload.rounds, warned)
    else:
        values = dict(workload.end_to_end())
        values["setup_s"] = (setup_s, "s")
        values["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in values.items()}
        for name, value, unit in workload.report():
            print("metric %s = %.6g %s" % (name, value, unit))
    for name, metric in metrics.items():
        print("metric %s = %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
