#!/usr/bin/env python3
"""Compute every shipped disk potential and compare with the eigenvalue table.

Usage: python scripts/run_potentials.py [--json]
"""

import argparse
import json
import sys
import time
from collections import Counter

from tropdisk.eigentable import eigenvalue_verdict
from tropdisk.enumerate import cancellation_report
from tropdisk.fixtures import SHIPPED_CASES, builtin_fixture


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    rows = []
    for name, case in SHIPPED_CASES:
        fixture = builtin_fixture(name)
        start = time.time()
        result = fixture.run(case)
        elapsed = time.time() - start
        total = result.total()
        counts = Counter(result.contributions())
        breakdown = " + ".join(
            f"{mult}x({value})" for value, mult in sorted(counts.items())
        ) or "none"
        pairs = len(cancellation_report(result))
        rows.append({
            "fixture": f"{name}:{case}",
            "total": [total.numerator, total.denominator],
            "graphs": len(result.graphs),
            "breakdown": breakdown,
            "cancelling_pairs": pairs,
            "verdict": eigenvalue_verdict(name, total),
            "seconds": round(elapsed, 3),
        })
        if not args.json:
            print(f"{name}:{case:14s} W = {str(total):>5s}  "
                  f"[{breakdown}]  {elapsed:5.2f}s")
    if args.json:
        print(json.dumps(rows, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
