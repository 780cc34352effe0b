"""Re-derivation of disk-vertex kinds from solved graph data.

The enumerator tags vertices as it builds them; this module recomputes the
kind of each vertex from scratch (positions, adjacent edge directions, the
diagram and the Lagrangian), which is how result graphs are re-validated.

Every decision is an integer test on homogeneous triples: the vertex is a
homogeneous (X, Y, W) point, each adjacent direction an (X, Y, W) triple
oriented away from the vertex, both as the graph stores them, and the
diagram and the Lagrangian are read through the integer tables they cache
(facet normals and rows, cut rows, homogeneous foci, edge rows and
primitive edge directions).  Parallel tests are cross products, which a
positive scale does not change.  No Vec is built: a kind carries its
vectors as the same triples.  Where the search applies a rule, this module
calls the same method: `BaseDiagram.collision_facet` for a boundary
collision, `LagGraph.edge_normal` for a perpendicular one,
`BaseDiagram.cross_cut` across a cut and `multiplicity.pant_strip_direction`
for the pant balancing.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from .diagram import BaseDiagram
from .diskgraph import DiskEdge, DiskGraph, Triple
from .geometry import GeometryError, from_homogeneous, primitive_pair
from .lagrangian import LagGraph
from .multiplicity import (
    HigherValenceVertex,
    UnclassifiableVertex,
    VertexKind,
    boundary_collision,
    cylinder,
    focus_cover,
    holomorphic_pant,
    pair_of_pants,
    pant_seam,
    pant_strip_direction,
    perp_collision,
    three_ended_strip,
    two_ended_strip,
)


def _legs(graph: DiskGraph, vid: str) -> List[Tuple[DiskEdge, Triple]]:
    """The edges at vid, each with its direction oriented away from vid as
    the homogeneous triple the edge stores, in edge order."""
    legs = []
    for e in graph.edges:
        X, Y, W = e.triple
        if e.endpoints[0] == vid:
            legs.append((e, (X, Y, W)))
        elif e.endpoints[1] == vid:
            legs.append((e, (-X, -Y, W)))
    return legs


def _lattice_length(leg: Triple) -> int:
    """gcd(X, Y) of an integer direction; a zero or non-integral one (a
    canonical triple with W > 1) raises GeometryError."""
    X, Y, W = leg
    if W != 1:
        raise GeometryError(f"{from_homogeneous(leg)!r} is not an integer vector")
    return primitive_pair(X, Y)[2]


def _parallel(leg: Triple, d) -> bool:
    return leg[0] * d[1] - leg[1] * d[0] == 0


def _trivalent_legs(lag: Optional[LagGraph], point) -> Optional[List[Tuple[int, int]]]:
    """The primitive legs of the Lagrangian vertex at the point, as integer
    pairs, when it is trivalent; else None."""
    v = None if lag is None else lag.vertex_at(point)
    if v is None or lag.valence(v.id) != 3:
        return None
    return lag.leg_directions(v.id)


def _cylinder_across_cut(diagram: BaseDiagram, point, d1: Triple, d2: Triple) -> bool:
    """Whether a path arriving along -d1 leaves along d2 once it crosses the
    cut through the homogeneous point (`BaseDiagram.cut_through`).

    The shear keeps det(pi, .), so this holds exactly when a path arriving
    along -d2 leaves along d1.
    """
    j = diagram.cut_through(point)
    if j is None:
        return False
    X, Y, W = d1
    X2, Y2 = diagram.cross_cut(j, (-X, -Y))
    g = math.gcd(X2, Y2, W)
    return (X2 // g, Y2 // g, W // g) == d2


def classify_vertex(graph: DiskGraph, vid: str, diagram: BaseDiagram,
                    lag: Optional[LagGraph]) -> VertexKind:
    """Classify one solved vertex into its multiplicity kind.

    Raises UnclassifiableVertex when no case of the decision table applies and
    HigherValenceVertex for valences outside the computed range.  The
    diagram must pass `validate()`: then a focus lies strictly inside the
    convex polygon, a point on a facet row lies on its boundary, and each
    shear is integral and unipotent.
    """
    v = graph.vertex(vid)
    legs = _legs(graph, vid)
    valence = len(legs)
    if valence > 3:
        raise HigherValenceVertex(f"valence {valence} at {vid}")
    if valence == 0:
        raise UnclassifiableVertex(f"isolated vertex at {v.position!r} matches no case")
    point = v.triple

    if valence == 1:
        ((edge, leg),) = legs
        foci = diagram.homogeneous_points()[0]
        if point in foci:
            # homogeneous triples are canonical, so equal points have equal triples
            j = foci.index(point)
            ell = _lattice_length(leg)
            if not diagram.along_shear(j, leg[:2]):
                raise UnclassifiableVertex("focus leg not along the shear direction")
            return focus_cover(ell, j, diagram.focus_foci[j].weight())
        if not edge.open:
            # on the boundary of a convex polygon: at a corner or on a facet
            facets = diagram.facets_through(point)
            if facets:
                i = diagram.collision_facet(facets, leg[:2]) if leg[2] == 1 else None
                if i is not None:
                    return boundary_collision(i)
                raise UnclassifiableVertex("boundary leg not along a primitive inward normal")
            k = None if lag is None else lag.edge_through(point)
            if k is not None and _parallel(leg, lag.edge_normal(k)):
                return perp_collision(_lattice_length(leg))
        else:
            lam_legs = _trivalent_legs(lag, point)
            if lam_legs is not None and any(_parallel(leg, d) for d in lam_legs):
                return pant_seam()
        raise UnclassifiableVertex(f"univalent vertex at {v.position!r} matches no case")

    if valence == 2:
        (e1, d1), (e2, d2) = legs
        if not e1.open and not e2.open:
            if d1 == (-d2[0], -d2[1], d2[2]):
                return cylinder()
            if _cylinder_across_cut(diagram, point, d1, d2):
                return cylinder()
            raise HigherValenceVertex("bivalent vertex with two closed edges")
        if e1.open != e2.open:
            k = None if lag is None else lag.edge_through(point)
            if k is not None:
                open_d, black_d = (d1, d2) if e1.open else (d2, d1)
                lam_dir = (*lag.edge_direction(k), 1)
                if pant_strip_direction(black_d, lam_dir) == open_d:
                    return holomorphic_pant(black_d, lam_dir)
                raise UnclassifiableVertex("bivalent open/closed vertex fails pant balancing")
        else:
            lam_legs = _trivalent_legs(lag, point)
            if lam_legs is not None and all(any(_parallel(d, leg) for leg in lam_legs)
                                            for d in (d1, d2)):
                return two_ended_strip()
        raise UnclassifiableVertex(f"bivalent vertex at {v.position!r} matches no case")

    # valence 3
    (e1, (X1, Y1, W1)), (e2, (X2, Y2, W2)), (e3, (X3, Y3, W3)) = legs
    if not (e1.open or e2.open or e3.open):
        # the sum over the common denominator W1 W2 W3
        if (X1 * W2 * W3 + X2 * W1 * W3 + X3 * W1 * W2 == 0
                and Y1 * W2 * W3 + Y2 * W1 * W3 + Y3 * W1 * W2 == 0):
            return pair_of_pants(legs[0][1], legs[1][1])
        raise UnclassifiableVertex("unbalanced trivalent closed vertex")
    if e1.open and e2.open and e3.open:
        lam_legs = _trivalent_legs(lag, point)
        if lam_legs is not None and all(any(_parallel(d, leg) for leg in lam_legs)
                                        for _, d in legs):
            return three_ended_strip()
    raise UnclassifiableVertex(f"trivalent vertex at {v.position!r} matches no case")
