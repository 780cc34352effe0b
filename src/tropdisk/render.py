"""Deterministic SVG rendering of base diagrams, Lagrangians and disk graphs.

Follows the paper-figure palette: moment polygon grey, Lagrangian graph in
aqua/green, disk graphs dark blue, focus-focus values as purple crosses,
branch cuts dashed, the point constraint as a burgundy dot.  Floats appear
here only (scaled exact rationals); everything upstream is exact.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .diagram import BaseDiagram
from .diskgraph import Constraint, DiskGraph
from .geometry import Vec
from .lagrangian import LagGraph

SCALE = 120
MARGIN = 40

POLYGON_FILL = "#d9d9d9"
POLYGON_EDGE = "#555555"
LAGRANGIAN_COLOR = "#14b8a6"
DISK_COLOR = "#1d4ed8"
FOCUS_COLOR = "#8b5cf6"
CUT_COLOR = "#8b5cf6"
CONSTRAINT_COLOR = "#881337"


def _fmt(x) -> str:
    return f"{float(x):.2f}"


class _Canvas:
    def __init__(self, xmin, xmax, ymin, ymax):
        self.xmin, self.xmax = xmin, xmax
        self.ymin, self.ymax = ymin, ymax
        self.width = _fmt((xmax - xmin) * SCALE + 2 * MARGIN)
        self.height = _fmt((ymax - ymin) * SCALE + 2 * MARGIN)
        self.parts: List[str] = []

    def pt(self, p: Vec) -> str:
        return ",".join(self.xy(p))

    def xy(self, p: Vec):
        x = (p.x - self.xmin) * SCALE + MARGIN
        y = (self.ymax - p.y) * SCALE + MARGIN
        return _fmt(x), _fmt(y)

    def line(self, a: Vec, b: Vec, color: str, width: str = "2", dash: str = "") -> None:
        xa, ya = self.xy(a)
        xb, yb = self.xy(b)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{xa}" y1="{ya}" x2="{xb}" y2="{yb}" '
            f'stroke="{color}" stroke-width="{width}"{dash_attr} />'
        )

    def circle(self, p: Vec, r: str, color: str) -> None:
        x, y = self.xy(p)
        self.parts.append(f'<circle cx="{x}" cy="{y}" r="{r}" fill="{color}" />')

    def cross(self, p: Vec, color: str) -> None:
        x, y = self.xy(p)
        s = 6.0
        self.parts.append(
            f'<path d="M {float(x)-s:.2f} {float(y)-s:.2f} L {float(x)+s:.2f} {float(y)+s:.2f} '
            f'M {float(x)-s:.2f} {float(y)+s:.2f} L {float(x)+s:.2f} {float(y)-s:.2f}" '
            f'stroke="{color}" stroke-width="2.5" />'
        )

    def document(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}">\n{body}\n</svg>\n'
        )


def render_svg(
    diagram: BaseDiagram,
    lagrangian: Optional[LagGraph] = None,
    disk_graphs: Sequence[DiskGraph] = (),
    constraint: Optional[Constraint] = None,
) -> str:
    xs = [v.x for v in diagram.polygon]
    ys = [v.y for v in diagram.polygon]
    canvas = _Canvas(min(xs), max(xs), min(ys), max(ys))

    points = " ".join(canvas.pt(v) for v in diagram.polygon)
    canvas.parts.append(
        f'<polygon points="{points}" fill="{POLYGON_FILL}" '
        f'stroke="{POLYGON_EDGE}" stroke-width="2" />'
    )
    for start, end in diagram.branch_cuts():
        canvas.line(start, end, CUT_COLOR, width="1.5", dash="6,4")
    if lagrangian is not None:
        for e in lagrangian.edges:
            a = lagrangian.position(e.endpoints[0])
            b = lagrangian.position(e.endpoints[1])
            canvas.line(a, b, LAGRANGIAN_COLOR, width="4")
    for graph in disk_graphs:
        for e in graph.edges:
            a = graph.position_of(e.endpoints[0])
            b = graph.position_of(e.endpoints[1])
            canvas.line(a, b, DISK_COLOR, width="2")
        for v in graph.vertices:
            canvas.circle(v.position, "3", DISK_COLOR)
    for ff in diagram.focus_foci:
        canvas.cross(ff.position, FOCUS_COLOR)
    if constraint is not None:
        canvas.circle(constraint.point, "5", CONSTRAINT_COLOR)
    return canvas.document()
