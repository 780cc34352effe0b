#!/usr/bin/env python3
"""Check that the benchmark's inputs and counts follow from its seed alone.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py --workload sweep --seed 0

Makes three traced runs of one workload, each in a fresh process: two with
``--seed N`` and one with ``--seed N+1``.  The two runs with the same seed
must report the same input fingerprint and the same per-layer counts (every
metric with unit ``count`` or ``ratio``: ``geometry.calls``,
``enumerate.candidates`` and the others) and the same output digest.  The
run with the other seed must report other inputs on a seeded workload
(``sweep``, ``revalidate``) and the same inputs on the others, which do not
use the seed.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDED = ("sweep", "revalidate")


def traced_run(workload, seed):
    """(inputs fingerprint, digest, counts) of one traced run with --seconds 1."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    fields = {line.split()[0]: line.split()[1] for line in lines[:-1] if line.strip()}
    metrics = json.loads(lines[-1])["metrics"]
    counts = {k: m["value"] for k, m in metrics.items() if m["unit"] in ("count", "ratio")}
    return fields["inputs"], fields["digest"], counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    first = traced_run(args.workload, args.seed)
    again = traced_run(args.workload, args.seed)
    other = traced_run(args.workload, args.seed + 1)
    problems = []
    if first != again:
        changed = sorted(k for k in first[2] if first[2][k] != again[2].get(k))
        problems.append(f"same seed, different inputs, digest or counts: {changed}")
    if (other[0] != first[0]) != (args.workload in SEEDED):
        expected = "other" if args.workload in SEEDED else "the same"
        problems.append(f"seed {args.seed + 1} should give {expected} inputs")
    for problem in problems:
        print(f"selfcheck failed: {problem}")
    if not problems:
        print(f"selfcheck passed: {args.workload}, seeds {args.seed} and {args.seed + 1}, "
              f"{len(first[2])} counts compared")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
