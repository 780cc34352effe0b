"""Disk graph data model: solved tropical graphs of broken Maslov-two disks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .geometry import GeometryError, Vec, frac, from_homogeneous, ray_point
from .multiplicity import CORNER_CAP, Triple, VertexKind


@dataclass(frozen=True)
class Constraint:
    """The point constraint: on Lagrangian edge `edge_index` at parameter `t`,
    or an interior point when `edge_index` is None."""

    point: Vec
    edge_index: Optional[int] = None
    t: Optional[Fraction] = None

    @property
    def triple(self) -> Triple:
        """The point's homogeneous triple, the form the search and the
        rigidity solve read."""
        return self.point.triple

    @classmethod
    def on_lagrangian(cls, lag, edge_index: int, t) -> "Constraint":
        t = frac(t)
        if not (0 < t < 1):
            raise GeometryError("constraint parameter must be strictly inside the edge")
        rows, scale = lag.edge_rows()
        ax, ay, ex, ey = rows[check_edge_index(edge_index, len(lag.edges))]
        # the edge is (a + s e)/scale for s in [0, 1], a ray from a/scale
        # along e that reaches s = t at the ray parameter t/scale
        point = ray_point((ax, ay, scale), (ex, ey), t.numerator, t.denominator * scale)
        return cls(from_homogeneous(point), edge_index, t)

    @classmethod
    def interior_point(cls, point: Vec) -> "Constraint":
        return cls(point)


def check_edge_index(edge_index: Optional[int], edges: int) -> int:
    """`edge_index`, checked to name one of the `edges` edges of an edge
    constraint's Lagrangian; raises GeometryError otherwise."""
    if edge_index is None:
        raise GeometryError("an edge constraint needs an edge index")
    if not 0 <= edge_index < edges:
        raise GeometryError(
            f"constraint edge {edge_index} out of range: the Lagrangian has {edges} edge(s)")
    return edge_index


@dataclass(frozen=True)
class DiskVertex:
    """A solved vertex at `triple`, canonical as `geometry.homogeneous` writes
    it (gcd 1, W > 0); `position` is that point as a Vec, built on first read."""

    id: str
    triple: Triple
    kind: VertexKind
    _position: Optional[Vec] = field(default=None, init=False, repr=False, compare=False)

    @property
    def position(self) -> Vec:
        if self._position is None:
            object.__setattr__(self, "_position", from_homogeneous(self.triple))
        return self._position


@dataclass(frozen=True)
class DiskEdge:
    """A solved edge along the canonical triple of its direction, oriented
    endpoints[0] -> endpoints[1]; `direction` reads it as a Vec, built on first read."""

    endpoints: Tuple[str, str]
    triple: Triple
    open: bool = False
    _direction: Optional[Vec] = field(default=None, init=False, repr=False, compare=False)

    @property
    def direction(self) -> Vec:
        if self._direction is None:
            object.__setattr__(self, "_direction", from_homogeneous(self.triple))
        return self._direction


@dataclass
class DiskGraph:
    """A solved graph."""

    vertices: List[DiskVertex]
    edges: List[DiskEdge]

    def __post_init__(self):
        self._index: Dict[str, int] = {v.id: i for i, v in enumerate(self.vertices)}

    @property
    def corner_mode(self) -> bool:
        """The graph ends in a corner cap (a rim continuation into a corner)."""
        return any(v.kind.tag == CORNER_CAP for v in self.vertices)

    def index_of(self, vid: str) -> int:
        return self._index[vid]

    def vertex(self, vid: str) -> DiskVertex:
        return self.vertices[self._index[vid]]

    def position_of(self, vid: str) -> Vec:
        return self.vertex(vid).position

    def area(self) -> Fraction:
        """The sum over the edges, open strips included, of <d, b - a>: d the
        edge's direction, a and b its end points, in the chart's dot product.
        The terms are summed as integers over one common denominator."""
        num, den = 0, 1
        for e in self.edges:
            (X, Y, W), (U, V, Z) = (self.vertex(vid).triple for vid in e.endpoints)
            dx, dy, dw = e.triple
            term_den = dw * W * Z
            common = math.lcm(den, term_den)
            num = (num * (common // den)
                   + (dx * (U * W - X * Z) + dy * (V * W - Y * Z)) * (common // term_den))
            den = common
        return Fraction(num, den)

    def signature(self):
        """Canonical hashable form for dedup and deterministic ordering:
        `_signature_key` with positions and directions as Fraction pairs."""
        pos = {v.id: _xy(v.position) for v in self.vertices}
        return _signature_key(
            [(pos[v.id], v.kind) for v in self.vertices],
            [(pos[e.endpoints[0]], pos[e.endpoints[1]], _xy(e.direction), e.open)
             for e in self.edges],
            _kind_vector)


def _xy(v: Vec) -> Tuple[Fraction, Fraction]:
    """v's Fraction views, read without the generator of `Vec.__iter__`."""
    return v.x, v.y


def _signature_key(vertices, edges, vector):
    """The fields of `DiskGraph.signature()`, sorted: each vertex as (tag,
    position, ell, d1, d2, e_black), each edge as its two end positions in
    order, then its direction and open flag.

    `vertices` are (position, kind) and `edges` (start, end, direction, open),
    with positions and directions already written as comparable pairs;
    `vector` writes a kind's triple the same way, and None for a missing or
    zero one.  The signature writes them all as Fraction pairs.  The
    enumeration's dedup writes them as integers over one common denominator,
    which keeps the order and equality of the Fractions, so both keys group
    and sort graphs alike.
    """
    verts = [(kind.tag, position, kind.ell,
              vector(kind.d1), vector(kind.d2), vector(kind.e_black))
             for position, kind in vertices]
    verts.sort()
    rows = [(a, b, d, o) if a <= b else (b, a, d, o) for a, b, d, o in edges]
    rows.sort()
    return (tuple(verts), tuple(rows))


def _kind_vector(v: Optional[Triple]) -> Optional[Tuple[Fraction, Fraction]]:
    if v is None or not (v[0] or v[1]):
        return None
    return Fraction(v[0], v[2]), Fraction(v[1], v[2])
