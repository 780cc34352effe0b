#!/usr/bin/env python3
"""Compute every shipped disk potential and compare with the eigenvalue table.

Each case's line breaks W down by contribution and its graphs by area
(`DiskGraph.area()`); `--json` gives each graph's area as [num, den], in
result order.

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


def breakdown(values) -> str:
    """The values as `mult x (value)` terms, in increasing value."""
    return " + ".join(
        f"{mult}x({value})" for value, mult in sorted(Counter(values).items())) or "none"


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
        contributions = breakdown(result.contributions())
        areas = [g.graph.area() for g in result.graphs]
        pairs = len(cancellation_report(result))
        rows.append({
            "fixture": f"{name}:{case}",
            "total": [total.numerator, total.denominator],
            "graphs": len(result.graphs),
            "breakdown": contributions,
            "areas": [[a.numerator, a.denominator] for a in areas],
            "cancelling_pairs": pairs,
            "verdict": eigenvalue_verdict(name, total),
            "seconds": round(elapsed, 3),
        })
        if not args.json:
            print(f"{name}:{case:14s} W = {str(total):>5s}  "
                  f"[{contributions}]  areas [{breakdown(areas)}]  {elapsed:5.2f}s")
    if args.json:
        print(json.dumps(rows, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
