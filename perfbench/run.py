"""Benchmark entry point for qundet.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole passes of one workload, one call at a time, until S seconds
have gone by, checks every output against an independent reference,
and prints one JSON object as the last line of standard output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
wraps qundet's public functions in spans and counters and reports the
per-layer metrics instead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("cap-threshold", "oracle-sweep", "qss-mc")
SETUP_PROBES = 5

# one numpy/BLAS thread: the benchmark runs one call at a time
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_qundet():
    """Import qundet from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(ROOT / "src"))
    import qundet

    origin = Path(qundet.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"qundet imported from {origin}, not from {ROOT / 'src'}")


def build_workload(args):
    """The workload's inputs: seeded presentations, validated."""
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed)


def measure_setup(args) -> list[float]:
    """Set-up time of fresh processes, from spawn to the first timed call."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"set-up probe failed with exit code {done.returncode}")
        # perf_counter is CLOCK_MONOTONIC, shared by every process
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def run_passes(workload, seconds: float):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(len(passes)))
        if time.perf_counter() - start >= seconds:
            return passes


def check(workload, passes) -> list[str]:
    """Check errors; calls that raised count as failed, not as wrong."""
    for p in passes:
        for line in p.errors:
            print(f"failed: {line}", file=sys.stderr)
    errors = workload.check(passes[0])
    want = passes[0].digest()
    for i, p in enumerate(passes[1:], start=1):
        if p.digest() != want:
            errors.append(f"pass {i} outputs differ from pass 0")
    return errors


def pass_rate(p) -> float:
    return p.items / p.seconds if p.seconds > 0 else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.setup_probe:
        import_qundet()
        build_workload(args)
        print(time.perf_counter())
        return 0

    setup_times = measure_setup(args)
    import_qundet()
    import spans

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    workload = (tracer.span("codes.catalog", build_workload) if tracer else build_workload)(args)
    catalog_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.counts.clear()  # per-pass counts cover the passes only

    passes = run_passes(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rate = statistics.median(pass_rate(p) for p in passes)
    if tracer is not None:
        values = tracer.layer_values(len(passes))
        values["codes.catalog_s"] = catalog_s
        trace_doc = tracer.dump()
        probe = spans.PeakProbe()
        probe.install()
        extra = workload.run_pass(len(passes))
        values.update(probe.peaks)
        passes.append(extra)

    errors = check(workload, passes)
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    attempted = sum(p.items + p.failed for p in passes)
    failed = sum(p.failed for p in passes)
    if tracer is not None:
        metrics = spans.layer_report(values)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "items_per_s": {"value": rate, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {"args": vars(args), "result": result, "passes": len(passes),
               "items_per_s": rate, "pass_rates": [pass_rate(p) for p in passes],
               "setup_times": setup_times, "errors": errors}
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1))
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(trace_doc))
        print(f"traced items_per_s {rate:.6g} over {len(passes) - 1} passes", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
