"""Benchmark of the asymsqueeze CLI sweeps, CHSH maximisation and Fock oracle.

    python3 perfbench/run.py --workload {bell-sweep,surfaces,oracle-verify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Set-up time is measured first, as the
median of several fresh interpreters that import ``asymsqueeze.cli`` and
build its parser; then the workload runs in a fresh worker process
(``worker.py``).  Every process started here gets PYTHONPATH=<checkout>/src
and one BLAS thread.  The last line of standard output is one JSON object:
correct, attempted, failed and the metrics (end-to-end with --trace 0,
per-layer with --trace 1).  Exits non-zero, printing no result, when the
program cannot be imported or the worker fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("bell-sweep", "surfaces", "oracle-verify")
SETUP_RUNS = 9
TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = (
    "import time, asymsqueeze.cli as c; c.build_parser(); "
    "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))"
)


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def setup_seconds(env, deadline):
    """Median time from starting an interpreter to a built CLI parser."""
    times = []
    for k in range(SETUP_RUNS + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        if k:  # the first start compiles the package's bytecode
            times.append(float(proc.stdout.strip()) - t0)
    return statistics.median(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + TIMEOUT_S
    env = child_env()
    metrics = {}
    if not args.trace:
        metrics["setup_s"] = {"value": setup_seconds(env, deadline), "unit": "s"}

    outdir = os.path.join(OUT, f"run-{os.getpid()}")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--outdir", outdir,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    finally:
        shutil.rmtree(outdir, ignore_errors=True)  # sweep outputs; trace files stay
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics.update(result["metrics"])
    result["metrics"] = metrics
    print(json.dumps(result))


if __name__ == "__main__":
    main()
