"""Disk-graph vertex kinds, their exact multiplicities, and per-graph weights.

The nine geometric vertex kinds each carry an exact rational multiplicity.
Signs for the holomorphic pant depend on non-canonical choices (relative spin
structures), so they are looked up in a configurable convention table; the
magnitudes are always D/2 where D is the pant determinant.

Three bookkeeping kinds sit alongside the geometric ones: FIBER_ROOT marks
the interior-point constraint end of a Cho-Oh disk, CORNER_CAP ends a rim
continuation in a polygon corner, and FOCUS_COVER_PAIR is the desingularized
partner of a multiple cover of a vanishing sphere (it cancels the
corresponding FOCUS_COVER contribution exactly).  A vertex's kind is the one
record of its multiplicity and its index contribution.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .geometry import GeometryError, primitive_pair

CYLINDER = "cylinder"
PAIR_OF_PANTS = "pair_of_pants"
BOUNDARY_COLLISION = "boundary_collision"
FOCUS_COVER = "focus_cover"
PERP_COLLISION = "perp_collision"
PANT = "holomorphic_pant"
PANT_SEAM = "pant_seam"
TWO_STRIP = "two_ended_strip"
THREE_STRIP = "three_ended_strip"

FIBER_ROOT = "fiber_root"
CORNER_CAP = "corner_cap"
FOCUS_COVER_PAIR = "focus_cover_pair"


class UnclassifiableVertex(GeometryError):
    pass


class HigherValenceVertex(GeometryError):
    pass


# a direction (X/W, Y/W) as the canonical triple of `geometry.homogeneous`
Triple = Tuple[int, int, int]


@dataclass(frozen=True)
class VertexKind:
    tag: str
    ell: int = 1
    d1: Optional[Triple] = None
    d2: Optional[Triple] = None
    e_black: Optional[Triple] = None
    lag_dir: Optional[Triple] = None
    index: Optional[int] = None
    weight: int = 1                # stack size of the focus-focus value

    def label(self) -> str:
        if self.tag in (FOCUS_COVER, PERP_COLLISION):
            return f"{self.tag}(l={self.ell})"
        if self.tag == PANT:
            return f"{self.tag}(D={pant_determinant(self)})"
        if self.tag == PAIR_OF_PANTS:
            return f"{self.tag}(det={Fraction(*_pants_det(self))})"
        return self.tag


def cylinder() -> VertexKind:
    return VertexKind(CYLINDER)


def pair_of_pants(d1: Triple, d2: Triple) -> VertexKind:
    # canonical order: the same split found with swapped legs must compare
    # equal, so the legs are ordered by value, (x, y) = (X/W, Y/W)
    (X1, Y1, W1), (X2, Y2, W2) = d1, d2
    if (X1 * W2, Y1 * W2) > (X2 * W1, Y2 * W1):
        d1, d2 = d2, d1
    return VertexKind(PAIR_OF_PANTS, d1=d1, d2=d2)


def boundary_collision(facet_index: Optional[int] = None) -> VertexKind:
    return VertexKind(BOUNDARY_COLLISION, index=facet_index)


def focus_cover(ell: int, focus_index: Optional[int] = None, weight: int = 1) -> VertexKind:
    return VertexKind(FOCUS_COVER, ell=ell, index=focus_index, weight=weight)


def focus_cover_pair(ell: int, focus_index: Optional[int] = None, weight: int = 1) -> VertexKind:
    return VertexKind(FOCUS_COVER_PAIR, ell=ell, index=focus_index, weight=weight)


def perp_collision(ell: int) -> VertexKind:
    return VertexKind(PERP_COLLISION, ell=ell)


def holomorphic_pant(e_black: Triple, lag_dir: Triple) -> VertexKind:
    return VertexKind(PANT, e_black=e_black, lag_dir=lag_dir)


def pant_seam() -> VertexKind:
    return VertexKind(PANT_SEAM)


def two_ended_strip() -> VertexKind:
    return VertexKind(TWO_STRIP)


def three_ended_strip() -> VertexKind:
    return VertexKind(THREE_STRIP)


def pant_determinant(kind: VertexKind) -> int:
    """D = |det(e_black, lambda)| with lambda the primitive Lagrangian direction,
    truncated to an integer.

    Equivalent to |det(e_black, r(e_black))| once the strip direction is
    normalized to a half-primitive multiple of the edge (the diagonal model);
    this form stays well defined on every edge slope.
    """
    lx, ly, _ = primitive_pair(*kind.lag_dir[:2])
    ex, ey, ew = kind.e_black
    return abs(ex * ly - ey * lx) // ew


def pant_strip_direction(e_black: Triple, lag_dir: Triple) -> Triple:
    """Strip direction forced by the pant balancing 2w + e_black + r(e_black) = 0.

    r is the reflection fixing lag_dir, so w is the projection
    -<e_black, lag_dir>/<lag_dir, lag_dir> lag_dir, returned as its canonical
    triple; it does not depend on the scale of lag_dir, read as an integer pair.
    """
    ex, ey, ew = e_black
    lx, ly, _ = lag_dir
    if not (lx or ly):
        raise GeometryError("the Lagrangian direction of a pant strip must be nonzero")
    dot = ex * lx + ey * ly
    sx, sy, sw = -dot * lx, -dot * ly, ew * (lx * lx + ly * ly)
    g = math.gcd(sx, sy, sw)
    return sx // g, sy // g, sw // g


@dataclass
class SignConvention:
    """Pant sign table, D -> +/-1, over the default rule: +1 when D = 3 mod 4, else -1."""

    pant_signs: Dict[int, int] = field(default_factory=dict)

    def pant_sign(self, d: int) -> int:
        if d in self.pant_signs:
            return self.pant_signs[d]
        return 1 if d % 4 == 3 else -1

    def merged(self, overrides) -> "SignConvention":
        """This table with each (D, sign) of overrides set: D >= 1, sign +/-1."""
        table = dict(self.pant_signs)
        for i, (d, sign) in enumerate(overrides):
            if d < 1 or sign not in (1, -1):
                raise GeometryError(f"pant_sign entry {i} {[d, sign]} is not [D >= 1, +/-1]")
            table[d] = sign
        return SignConvention(table)


DEFAULT_CONVENTION = SignConvention()


_UNIT_KINDS = frozenset((CYLINDER, BOUNDARY_COLLISION, PANT_SEAM, TWO_STRIP, THREE_STRIP,
                         FIBER_ROOT, CORNER_CAP))


def _pants_det(kind: VertexKind) -> Tuple[int, int]:
    """|det(d1, d2)| of a pair of pants as integers (numerator, denominator)."""
    (X1, Y1, W1), (X2, Y2, W2) = kind.d1, kind.d2
    return abs(X1 * Y2 - Y1 * X2), W1 * W2


def _ratio(kind: VertexKind, convention: SignConvention) -> Tuple[int, int]:
    """The multiplicity of a kind as integers (numerator, denominator > 0),
    not necessarily in lowest terms."""
    tag = kind.tag
    if tag in _UNIT_KINDS:
        return 1, 1
    if tag == PAIR_OF_PANTS:
        det, den = _pants_det(kind)
        if det == 0:
            raise GeometryError("degenerate pair of pants (parallel directions)")
        return det, den
    if tag == FOCUS_COVER:
        ell = kind.ell
        return kind.weight * (-1) ** (ell - 1), ell * ell
    if tag == FOCUS_COVER_PAIR:
        ell = kind.ell
        return -kind.weight * (-1) ** (ell - 1), ell * ell
    if tag == PERP_COLLISION:
        return (-1) ** kind.ell, 1
    if tag == PANT:
        d = pant_determinant(kind)
        if d == 0:
            raise GeometryError("pant with closed edge along the Lagrangian")
        return convention.pant_sign(d) * d, 2
    raise HigherValenceVertex(f"no multiplicity known for kind {tag!r}")


def multiplicity(kind: VertexKind, convention: SignConvention = DEFAULT_CONVENTION) -> Fraction:
    return Fraction(*_ratio(kind, convention))


# -- graph-level weights ------------------------------------------------------


def aut_order(graph) -> int:
    """Order of the automorphism group of a solved disk graph.

    An automorphism keeps each vertex's position, and the vertices of a disk
    graph sit at distinct points, so it fixes every vertex and can only
    permute literally identical parallel edges (same endpoints, direction
    and open/closed flag): the order is the product of the factorials of
    their multiplicities, each edge keyed by the lesser of its readings a ->
    b along d and b -> a along -d.  Two vertices at one point raise
    GeometryError.
    """
    seen = set()
    for v in graph.vertices:
        if v.triple in seen:
            raise GeometryError(f"two graph vertices at {v.position!r}")
        seen.add(v.triple)
    keys = []
    for e in graph.edges:
        a, b = e.endpoints
        X, Y, W = e.triple
        keys.append((a, b, X, Y, W, e.open) if a < b or a == b and (X, Y) <= (-X, -Y)
                    else (b, a, -X, -Y, W, e.open))
    if len(set(keys)) == len(keys):
        return 1
    return math.prod(map(math.factorial, Counter(keys).values()))


def graph_weights(graph, convention: SignConvention = DEFAULT_CONVENTION
                  ) -> Tuple[int, Tuple[Tuple[int, int], ...], Fraction]:
    """The automorphism order, the vertex multiplicities (in vertex order),
    each as integers (numerator, denominator > 0) in lowest terms, and the
    contribution: the product of the multiplicities over the order,
    multiplied out in integers into one Fraction, the graph's only one."""
    aut = aut_order(graph)
    num, den = 1, aut
    weights = []
    for v in graph.vertices:
        n, d = _ratio(v.kind, convention)
        num, den = num * n, den * d
        g = math.gcd(n, d)
        weights.append((n // g, d // g))
    return aut, tuple(weights), Fraction(num, den)


def graph_contribution(graph, convention: SignConvention = DEFAULT_CONVENTION) -> Fraction:
    return graph_weights(graph, convention)[2]


def index_diagnostic(kind: VertexKind) -> int:
    """Index contribution of one vertex (diagnostic only; never gates the search).

    Closed univalent ends (boundary collisions, corner caps, focus covers and
    their desingularized partners) count +2, since their moduli are
    two-dimensional; pairs of pants and three-ended strips count -2; every
    other kind counts 0.  A counted graph should total exactly 2; the
    enumerator warns about one that does not.
    """
    tag = kind.tag
    if tag in (BOUNDARY_COLLISION, CORNER_CAP, FOCUS_COVER, FOCUS_COVER_PAIR):
        return 2
    if tag in (PAIR_OF_PANTS, THREE_STRIP):
        return -2
    if tag in (CYLINDER, PERP_COLLISION, PANT, PANT_SEAM, TWO_STRIP, FIBER_ROOT):
        return 0
    raise HigherValenceVertex(f"no index contribution known for kind {tag!r}")


def graph_index_diagnostic(graph) -> int:
    return sum(index_diagnostic(v.kind) for v in graph.vertices)
