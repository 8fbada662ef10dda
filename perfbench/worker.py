"""One workload in one process: passes for the run length, then one JSON line.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src`` and
the BLAS thread count fixed; not meant to be run by hand.

Untraced, the line holds pass_s, points_per_s and peak_rss_mb.  Traced, the
first pass runs the memory spans under tracemalloc and only later passes are
timed; the line holds the per-layer metrics.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MB = float(2 ** 20)

# layer metric -> (span names whose self time it sums, in ms per pass)
SELF_MS = {
    "cli.parse_ms": ("cli.parse",),
    "cli.loop_ms": ("cli.loop",),
    "cli.write_ms": ("cli.write",),
    "kernels.bell_values_ms": ("kernels.bell_values",),
    "kernels.teleport_integrand_ms": ("kernels.teleport_integrand",),
    "kernels.fock_series_table_ms": ("kernels.fock_series_table",),
    "state.coefficients_ms": ("state.coefficients",),
    "state.covariance_ms": ("state.covariance",),
    "state.fock_amplitudes_ms": ("state.fock_amplitudes",),
    "gaussian.validate_ms": ("gaussian.validate",),
    "gaussian.log_negativity_ms": ("gaussian.log_negativity",),
    "teleport.closed_ms": ("teleport.closed",),
    "teleport.quadrature_ms": ("teleport.quadrature",),
    "bell.maximize_ms": ("bell.maximize",),
    "fock.build_ms.c30": ("fock.build.c30",),
    "fock.build_ms.c40": ("fock.build.c40",),
    "fock.log_negativity_ms": ("fock.log_negativity",),
    "fock.phase_space_ms": ("fock.phase_space",),
    "fock.covariance_ms": ("fock.covariance",),
}
CALLS = {
    "kernels.bell_values_calls": "kernels.bell_values",
    "state.coefficients_calls": "state.coefficients",
}
PEAK_MB = {"cli.write_peak_mb": "cli.write", "fock.build_peak_mb": "fock.build.c40"}


def layer_metrics(tracer, passes, first):
    """Per-pass medians over the timed passes ``first``.. of a traced run."""
    per_pass = []
    for k in range(first, len(passes)):
        summary = tracer.pass_summary(k)
        get = lambda name, i: summary.get(name, (0.0, 0, 0))[i]  # noqa: E731
        row = {m: 1e3 * sum(get(s, 0) for s in spans) for m, spans in SELF_MS.items()}
        row.update({m: get(s, 1) for m, s in CALLS.items()})
        row["teleport.quadrature_failed"] = get("teleport.quadrature", 2)
        write_s = get("cli.write", 0)
        row["cli.write_mb_per_s"] = passes[k].bytes_written / MB / write_s if write_s else 0.0
        per_pass.append(row)
    metrics = {m: statistics.median(r[m] for r in per_pass) for m in per_pass[0]}
    metrics.update({m: tracer.peaks.get(s, 0) / MB for m, s in PEAK_MB.items()})
    return metrics


def unit_of(metric):
    if metric in CALLS or metric == "teleport.quadrature_failed":
        return "count"
    if metric in PEAK_MB:
        return "MB"
    return "MB/s" if metric == "cli.write_mb_per_s" else "ms"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()

    import asymsqueeze

    src = os.path.join(ROOT, "src", "asymsqueeze")
    if os.path.dirname(os.path.abspath(asymsqueeze.__file__)) != src:
        sys.exit(f"asymsqueeze imported from {asymsqueeze.__file__}, not from {src}")

    os.makedirs(args.outdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.outdir)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.memory = True

    passes = []
    if tracer is not None:
        passes.append(workload.run_pass())
        tracer.end_pass()
        tracer.memory = False
    first = len(passes)
    start = time.perf_counter()
    while len(passes) == first or time.perf_counter() - start < args.seconds:
        passes.append(workload.run_pass())
        if tracer is not None:
            tracer.end_pass()

    errors = [e for p in passes for e in p.errors]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    timed = passes[first:]
    pass_s = statistics.median(p.seconds for p in timed)
    print("pass seconds: " + " ".join(f"{p.seconds:.4f}" for p in passes), file=sys.stderr)
    if tracer is None:
        metrics = {
            "pass_s": (pass_s, "s"),
            "points_per_s": (sum(p.points for p in timed) / sum(p.seconds for p in timed), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        layers = layer_metrics(tracer, passes, first)
        metrics = {m: (v, unit_of(m)) for m, v in layers.items()}
        trace_dir = os.path.join(os.path.dirname(args.outdir), "trace")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"), len(passes) - 1)
        print(f"traced pass_s {pass_s:.6f} s over {len(timed)} passes", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
