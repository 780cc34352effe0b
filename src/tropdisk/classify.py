"""Re-derivation of disk-vertex kinds from solved graph data.

The enumerator tags vertices as it builds them; this module recomputes the
kind of each vertex from scratch (positions, adjacent edge directions, the
diagram and the Lagrangian), which is how result graphs are re-validated.
"""

from __future__ import annotations

from typing import Optional

from .diagram import AT_FOCUS_FOCUS, BaseDiagram, ON_FACET, ON_POLYGON_VERTEX
from .diskgraph import DiskGraph
from .geometry import Vec, det2, homogeneous, point_on_row, primitive_and_length
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


def _cylinder_across_cut(diagram: BaseDiagram, point, d1: Vec, d2: Vec) -> bool:
    """Directions equal once one side is transported through a cut through
    the homogeneous point."""
    rows, scale = diagram.cut_rows()
    for j, row in enumerate(rows):
        if not point_on_row(point, row, scale):
            continue
        arriving = -d1
        cut_dir = diagram.focus_foci[j].cut_direction()
        if det2(cut_dir, arriving) == 0:
            continue
        side = 1 if det2(cut_dir, arriving) > 0 else -1
        if diagram.cross_branch_cut(j, arriving, side) == d2:
            return True
        arriving = -d2
        side = 1 if det2(cut_dir, arriving) > 0 else -1
        if diagram.cross_branch_cut(j, arriving, side) == d1:
            return True
    return False


def classify_vertex(graph: DiskGraph, vid: str, diagram: BaseDiagram,
                    lag: Optional[LagGraph]) -> VertexKind:
    """Classify one solved vertex into its multiplicity kind.

    Raises UnclassifiableVertex when no case of the decision table applies and
    HigherValenceVertex for valences outside the computed range.
    """
    v = graph.vertex(vid)
    adjacent = graph.adjacent(vid)
    valence = len(adjacent)
    if valence > 3:
        raise HigherValenceVertex(f"valence {valence} at {vid}")
    point = homogeneous(v.position)
    cls = diagram._classify_point(point)
    lam_edge = None if lag is None else lag._edge_through(point)
    lam_dir = None if lam_edge is None else lag.edge_direction(lag.edges[lam_edge])
    lam_vertex = None if lag is None else lag._vertex_at(point)

    if valence == 1:
        edge, d = adjacent[0]
        if cls.kind == AT_FOCUS_FOCUS:
            ff = diagram.focus_foci[cls.index]
            prim, ell = primitive_and_length(d)
            if det2(prim, ff.pi) != 0:
                raise UnclassifiableVertex("focus leg not along the shear direction")
            return focus_cover(ell, cls.index, ff.weight())
        if cls.kind in (ON_FACET, ON_POLYGON_VERTEX) and not edge.open:
            normals = diagram.normals()
            leg = homogeneous(d)
            for i in diagram._facets_through(point):
                if leg == (*normals[i], 1):
                    return boundary_collision(i)
            raise UnclassifiableVertex("boundary leg not along a primitive inward normal")
        if lam_dir is not None and not edge.open:
            if d.dot(lam_dir) == 0:
                _, ell = primitive_and_length(d)
                return perp_collision(ell)
        if lam_vertex is not None and lag.valence(lam_vertex.id) == 3 and edge.open:
            legs = lag.leg_directions(lam_vertex.id)
            if any(det2(d, leg) == 0 for leg in legs):
                return pant_seam()
        raise UnclassifiableVertex(f"univalent vertex at {v.position!r} matches no case")

    if valence == 2:
        (e1, d1), (e2, d2) = adjacent
        if not e1.open and not e2.open:
            if d1 == -d2:
                return cylinder()
            if _cylinder_across_cut(diagram, point, d1, d2):
                return cylinder()
            raise HigherValenceVertex("bivalent vertex with two closed edges")
        if e1.open != e2.open and lam_dir is not None:
            (open_d,) = [d for e, d in adjacent if e.open]
            (black_d,) = [d for e, d in adjacent if not e.open]
            if open_d == pant_strip_direction(black_d, lam_dir):
                return holomorphic_pant(black_d, lam_dir)
            raise UnclassifiableVertex("bivalent open/closed vertex fails pant balancing")
        if e1.open and e2.open and lam_vertex is not None and lag.valence(lam_vertex.id) == 3:
            legs = lag.leg_directions(lam_vertex.id)
            if all(any(det2(d, leg) == 0 for leg in legs) for d in (d1, d2)):
                return two_ended_strip()
        raise UnclassifiableVertex(f"bivalent vertex at {v.position!r} matches no case")

    # valence 3
    if all(not e.open for e, _ in adjacent):
        total = adjacent[0][1] + adjacent[1][1] + adjacent[2][1]
        if not total:
            return pair_of_pants(adjacent[0][1], adjacent[1][1])
        raise UnclassifiableVertex("unbalanced trivalent closed vertex")
    if lam_vertex is not None and lag.valence(lam_vertex.id) == 3 and all(e.open for e, _ in adjacent):
        legs = lag.leg_directions(lam_vertex.id)
        if all(any(det2(d, leg) == 0 for leg in legs) for _, d in adjacent):
            return three_ended_strip()
    raise UnclassifiableVertex(f"trivalent vertex at {v.position!r} matches no case")
