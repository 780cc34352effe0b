#!/usr/bin/env python3
"""Benchmark of tropdisk: one workload per run, checked outputs, named metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fixtures|grid|sweep|revalidate \
        --seed N --seconds S --trace 0|1

A run imports ``tropdisk`` from ``src/`` of the checkout, sets the workload up
SETUP_REPEATS times, warms up on one operation of each fixture case and then
makes whole timed passes until ``--seconds`` have gone by, at least
MIN_PASSES of them.  With ``--trace 1`` it then makes one more pass with the
per-layer tracer of ``tracing.py`` installed.  Every pass must give the same
output digest.
Timed intervals are scaled to a reference machine speed (``reference.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code
is 0 when every output check passed, 1 when one failed and 2 when the program
cannot be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("fixtures", "grid", "sweep", "revalidate")
SETUP_REPEATS = 3
MIN_PASSES = 2      # so that every operation is timed at least twice
IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import tropdisk.cli, tropdisk.classify"

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def import_intervals():
    """(start, end) of fresh interpreters that import tropdisk and exit."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        subprocess.run([sys.executable, "-c", IMPORT, str(SRC)], check=True, cwd=ROOT)
        intervals.append((start, clock()))
    return intervals


def run_pass(ops):
    """Run every operation once; returns ((start, end) per operation, results)."""
    intervals, results = [], []
    for op in ops:
        start = clock()
        try:
            result = op.run()
        except Exception as exc:  # a raising operation counts as failed
            result = exc
        intervals.append((start, clock()))
        results.append(result)
    return intervals, results


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tropdisk" / "__init__.py").is_file():
        print(f"error: no tropdisk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tropdisk
    if not Path(tropdisk.__file__).resolve().is_relative_to(SRC):
        print(f"error: tropdisk imported from {tropdisk.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads as W
    from reference import SpeedReference

    problems = []
    speed = SpeedReference()
    speed.start()
    imports = import_intervals()
    builds, fingerprints = [], set()
    for _ in range(SETUP_REPEATS):
        start = clock()
        workload = W.SETUPS[args.workload](args.seed)
        builds.append((start, clock()))
        fingerprints.add(workload.fingerprint())
    if len(fingerprints) != 1:
        problems.append("the same seed gave different inputs")
    if args.workload in W.SEEDED:
        if W.sweep_positions(args.seed) == W.sweep_positions(args.seed + 1):
            problems.append("seeds differing by one gave the same inputs")
    ops = workload.ops

    warm_ops = workload.warm_up_ops()
    _, results = run_pass(warm_ops)
    warm_failed, _ = W.evaluate(warm_ops, results)
    if warm_failed:
        problems.append(f"{warm_failed} operations failed in the warm-up")

    passes, digests, failed, attempted = [], [], 0, 0
    start = clock()
    while len(passes) < MIN_PASSES or clock() - start < args.seconds:
        intervals, results = run_pass(ops)
        pass_failed, pass_digest = W.evaluate(ops, results)
        passes.append(intervals)
        digests.append(pass_digest)
        failed += pass_failed
        attempted += len(ops)
    if len(set(digests)) != 1:
        problems.append("the timed passes gave different digests")
    speed.stop()

    def median_of(intervals, measure):
        return statistics.median(measure(*i) for i in intervals)

    setup_s = median_of(imports, speed.scaled) + median_of(builds, speed.scaled)
    latencies = [speed.scaled(*i) for intervals in passes for i in intervals]
    wall_s = statistics.median(sum(speed.scaled(*i) for i in p) for p in passes)
    raw_wall_s = statistics.median(sum(speed.busy(*i) for i in p) for p in passes)
    raw_setup_s = median_of(imports, speed.busy) + median_of(builds, speed.busy)

    layer_metrics = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            intervals, results = run_pass(ops)
        finally:
            tracer.remove()
        pass_failed, traced_digest = W.evaluate(ops, results)
        failed += pass_failed
        attempted += len(ops)
        if traced_digest != digests[0]:
            problems.append("the traced pass gave another digest than the untraced passes")
        layer_metrics = tracer.metrics()
        traced_wall = sum(end - start for start, end in intervals)
        layer_metrics["trace_overhead_s"] = (traced_wall - raw_wall_s, "s")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}.spans")

    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "op_p50_s": (p50, "s"),
        "op_p90_s": (p90, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }

    seed_note = "drawn positions" if args.workload in W.SEEDED else "not used"
    print(f"workload {args.workload}  seed {args.seed} ({seed_note})")
    print(f"inputs  sha256:{workload.fingerprint()}  ({len(ops)} operations a pass)")
    print(f"digest  sha256:{digests[0]}  ({len(passes)} timed"
          f"{' and 1 traced' if args.trace else ''} passes compared)")
    print(f"unscaled setup_s {raw_setup_s:.6f} s  wall_s {raw_wall_s:.6f} s  "
          f"({len(speed.durations)} reference samples, median "
          f"{statistics.median(speed.durations):.6f} s)")
    print(f"latency samples {len(latencies)} over {len(passes)} passes")
    print(f"failed_share {failed / attempted:.4f} ratio ({failed} of {attempted})")
    for name, (value, unit) in end_to_end.items():
        print(f"{name:14s} {value:.6f} {unit}")
    if layer_metrics is not None:
        for name, (value, unit) in layer_metrics.items():
            print(f"{name:28s} {value:.6f} {unit}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    correct = not problems and failed == 0
    metrics = layer_metrics if args.trace else end_to_end
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
