#!/usr/bin/env python3
"""Render every shipped case (diagram, sphere, disk graphs) to SVG files.

Usage: python scripts/render_figures.py [outdir]
"""

import pathlib
import sys

from tropdisk.fixtures import SHIPPED_CASES, builtin_fixture
from tropdisk.render import render_svg


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    outdir = pathlib.Path(argv[0] if argv else "figures")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, case in SHIPPED_CASES:
        fixture = builtin_fixture(name)
        result = fixture.run(case)
        svg = render_svg(fixture.diagram_for(case), fixture.lagrangian_for(case),
                         [g.graph for g in result.graphs], fixture.constraint(case))
        path = outdir / f"{name}_{case}.svg"
        path.write_text(svg)
        print(f"wrote {path} ({len(result.graphs)} disk graphs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
