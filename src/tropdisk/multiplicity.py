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

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .geometry import GeometryError, Vec, det2, primitive

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


@dataclass(frozen=True)
class VertexKind:
    tag: str
    ell: int = 1
    d1: Optional[Vec] = None
    d2: Optional[Vec] = None
    e_black: Optional[Vec] = None
    lag_dir: Optional[Vec] = None
    index: Optional[int] = None
    weight: int = 1                # stack size of the focus-focus value

    def label(self) -> str:
        if self.tag in (FOCUS_COVER, PERP_COLLISION):
            return f"{self.tag}(l={self.ell})"
        if self.tag == PANT:
            return f"{self.tag}(D={pant_determinant(self)})"
        if self.tag == PAIR_OF_PANTS:
            return f"{self.tag}(det={abs(det2(self.d1, self.d2))})"
        return self.tag


def cylinder() -> VertexKind:
    return VertexKind(CYLINDER)


def pair_of_pants(d1: Vec, d2: Vec) -> VertexKind:
    # canonical order: the same split found with swapped legs must compare equal
    if (d1.x, d1.y) > (d2.x, d2.y):
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


def holomorphic_pant(e_black: Vec, lag_dir: Vec) -> VertexKind:
    return VertexKind(PANT, e_black=e_black, lag_dir=lag_dir)


def pant_seam() -> VertexKind:
    return VertexKind(PANT_SEAM)


def two_ended_strip() -> VertexKind:
    return VertexKind(TWO_STRIP)


def three_ended_strip() -> VertexKind:
    return VertexKind(THREE_STRIP)


def pant_determinant(kind: VertexKind) -> int:
    """D = |det(e_black, lambda)| with lambda the primitive Lagrangian direction.

    Equivalent to |det(e_black, r(e_black))| once the strip direction is
    normalized to a half-primitive multiple of the edge (the diagonal model);
    this form stays well defined on every edge slope.
    """
    lam = primitive(kind.lag_dir)
    return abs(int(det2(kind.e_black, lam)))


def pant_strip_direction(e_black: Vec, lag_dir: Vec) -> Vec:
    """Strip direction forced by the pant balancing 2w + e_black + r(e_black) = 0."""
    from .geometry import reflect_over

    mirrored = reflect_over(e_black, lag_dir)
    return -(e_black + mirrored) / 2


@dataclass
class SignConvention:
    """Pant sign table, D -> +/-1; defaults follow the worked potentials."""

    pant_signs: Dict[int, int] = field(default_factory=lambda: {1: -1, 2: -1, 3: 1})

    def pant_sign(self, d: int) -> int:
        if d in self.pant_signs:
            return self.pant_signs[d]
        return 1 if d % 4 == 3 else -1

    def merged(self, overrides) -> "SignConvention":
        table = dict(self.pant_signs)
        for d, sign in overrides:
            if sign not in (1, -1):
                raise GeometryError(f"pant sign must be +/-1, got {sign}")
            table[int(d)] = int(sign)
        return SignConvention(table)


DEFAULT_CONVENTION = SignConvention()


def multiplicity(kind: VertexKind, convention: SignConvention = DEFAULT_CONVENTION) -> Fraction:
    tag = kind.tag
    if tag == CYLINDER:
        return Fraction(1)
    if tag == PAIR_OF_PANTS:
        value = abs(det2(kind.d1, kind.d2))
        if value == 0:
            raise GeometryError("degenerate pair of pants (parallel directions)")
        return Fraction(value)
    if tag == BOUNDARY_COLLISION:
        return Fraction(1)
    if tag == FOCUS_COVER:
        ell = kind.ell
        return kind.weight * Fraction((-1) ** (ell - 1), ell * ell)
    if tag == FOCUS_COVER_PAIR:
        ell = kind.ell
        return -kind.weight * Fraction((-1) ** (ell - 1), ell * ell)
    if tag == PERP_COLLISION:
        return Fraction((-1) ** kind.ell)
    if tag == PANT:
        d = pant_determinant(kind)
        if d == 0:
            raise GeometryError("pant with closed edge along the Lagrangian")
        return Fraction(convention.pant_sign(d) * d, 2)
    if tag in (PANT_SEAM, TWO_STRIP, THREE_STRIP, FIBER_ROOT, CORNER_CAP):
        return Fraction(1)
    raise HigherValenceVertex(f"no multiplicity known for kind {tag!r}")


# -- graph-level weights ------------------------------------------------------


def aut_order(graph) -> int:
    """Order of the automorphism group of a solved disk graph.

    A vertex bijection preserving position and kind permutes each class of
    vertices with equal (kind, position) within itself, so only products of
    permutations of those classes are tried; a bijection counts when it maps
    the edge multiset (with directions and the open/closed flags) to itself.
    Literally identical parallel edges (same endpoints, same data) contribute
    a factorial of their multiplicity on top.
    """
    verts = graph.vertices

    def edge_key(a_id: str, b_id: str, e) -> tuple:
        fwd = (a_id, b_id, tuple(e.direction), e.open)
        rev = (b_id, a_id, tuple(-e.direction), e.open)
        return min(fwd, rev)

    base: Dict[tuple, int] = {}
    for e in graph.edges:
        key = edge_key(e.endpoints[0], e.endpoints[1], e)
        base[key] = base.get(key, 0) + 1

    classes: Dict[tuple, List[int]] = {}
    for i, v in enumerate(verts):
        classes.setdefault((v.kind, v.position), []).append(i)
    groups = list(classes.values())
    ends = [(graph.index_of(e.endpoints[0]), graph.index_of(e.endpoints[1]), e)
            for e in graph.edges]
    count = 0
    for images in itertools.product(*(itertools.permutations(g) for g in groups)):
        perm: Dict[int, int] = {}
        for group, image in zip(groups, images):
            perm.update(zip(group, image))
        mapped: Dict[tuple, int] = {}
        for ia, ib, e in ends:
            key = edge_key(verts[perm[ia]].id, verts[perm[ib]].id, e)
            mapped[key] = mapped.get(key, 0) + 1
        if mapped == base:
            count += 1
    extra = 1
    for m in base.values():
        for k in range(2, m + 1):
            extra *= k
    return count * extra


def graph_weights(graph, convention: SignConvention = DEFAULT_CONVENTION
                  ) -> Tuple[int, Tuple[Fraction, ...], Fraction]:
    """The automorphism order, the vertex multiplicities (in vertex order)
    and the contribution: the product of the multiplicities over the order."""
    aut = aut_order(graph)
    weights = tuple(multiplicity(v.kind, convention) for v in graph.vertices)
    total = Fraction(1, aut)
    for m in weights:
        total *= m
    return aut, weights, total


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
