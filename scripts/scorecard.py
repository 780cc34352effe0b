#!/usr/bin/env python3
"""Score the engine against oracles that every allowable sphere must meet.

Usage: python scripts/scorecard.py [--out SCORE_n.json]

The inputs are generated from each fixture's default diagram: every segment
between two corners, and every star from (0,0) to three corners, that
`is_allowable` accepts (a GeometryError counts as not allowable).  Each
sphere is sampled at every t of `POSITIONS` on each of its edges, with
`enumerate_disks` under the default `SearchBounds()`, no flags and the
default sign convention.  The oracles are:

* (a) eigenvalue: the W of a sample is an integer eigenvalue of the
  fixture's `EIGENVALUE_TABLE` entry (a sphere's W_L is an eigenvalue of
  quantum multiplication by c1);
* (b) constancy: a sphere has one W over all its samples.

The report has one row per (oracle, input), with the value and the
verdict, and the totals per oracle and per diagram.  It holds no timings,
so two runs write the same file.  Without --out it goes to stdout.
"""

import argparse
import itertools
import json
import sys
from fractions import Fraction

from tropdisk.diskgraph import Constraint
from tropdisk.eigentable import entry_for_fixture
from tropdisk.enumerate import enumerate_disks
from tropdisk.fixtures import FIXTURE_NAMES, builtin_fixture
from tropdisk.geometry import GeometryError, Vec
from tropdisk.lagrangian import segment_graph, star_graph

POSITIONS = tuple(Fraction(n, 8) for n in (2, 3, 4, 5, 6))
ORACLES = ("a", "b")


def _point(v: Vec) -> str:
    return f"({v.x},{v.y})"


def spheres(diagram):
    """(name, Lagrangian) for every allowable corner segment and star from
    (0,0) to three corners, in `itertools.combinations` order."""
    candidates = [(f"segment {_point(a)}-{_point(b)}", segment_graph(a, b))
                  for a, b in itertools.combinations(diagram.polygon, 2)]
    center = Vec(0, 0)
    candidates += [(f"star {_point(center)}-" + "-".join(map(_point, tips)),
                    star_graph(center, list(tips)))
                   for tips in itertools.combinations(diagram.polygon, 3)]
    out = []
    for name, lag in candidates:
        try:
            allowable = lag.is_allowable(diagram) == []
        except GeometryError:
            allowable = False
        if allowable:
            out.append((name, lag))
    return out


def score() -> dict:
    rows = []
    for fixture_name in FIXTURE_NAMES:
        diagram = builtin_fixture(fixture_name).diagram
        eigenvalues = {v for v, _, _ in entry_for_fixture(fixture_name).integer_eigenvalues}
        for sphere, lag in spheres(diagram):
            values = []
            for k, t in itertools.product(range(len(lag.edges)), POSITIONS):
                W = enumerate_disks(diagram, lag, Constraint.on_lagrangian(lag, k, t)).total()
                values.append(W)
                ok = W.denominator == 1 and int(W) in eigenvalues
                rows.append({"oracle": "a", "diagram": fixture_name, "sphere": sphere,
                             "edge": k, "t": str(t), "value": str(W),
                             "verdict": "pass" if ok else "fail"})
            distinct = sorted(set(values))
            rows.append({"oracle": "b", "diagram": fixture_name, "sphere": sphere,
                         "value": [str(W) for W in distinct],
                         "verdict": "pass" if len(distinct) == 1 else "fail"})
    return {"oracles": {"a": "W is an integer eigenvalue of the fixture's table entry",
                        "b": "a sphere has one W over all its samples"},
            "positions": [str(t) for t in POSITIONS],
            "totals": _totals(rows),
            "by_diagram": {name: _totals([r for r in rows if r["diagram"] == name])
                           for name in FIXTURE_NAMES},
            "rows": rows}


def _totals(rows) -> dict:
    out = {}
    for oracle in ORACLES:
        mine = [r for r in rows if r["oracle"] == oracle]
        out[oracle] = {"passed": sum(r["verdict"] == "pass" for r in mine), "rows": len(mine)}
    return out


def _dump(report) -> str:
    """The report as JSON with one row per line, so a diff shows each row that moved."""
    head = json.dumps({key: v for key, v in report.items() if key != "rows"}, indent=1)
    rows = ",\n".join("  " + json.dumps(row) for row in report["rows"])
    return head[:-2] + ',\n "rows": [\n' + rows + "\n ]\n}\n"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", help="write the report here instead of stdout")
    args = parser.parse_args(argv)
    report = score()
    text = _dump(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print("  ".join(f"({oracle}) {t['passed']}/{t['rows']}"
                    for oracle, t in report["totals"].items()), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
