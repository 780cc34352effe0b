"""The integer vertex classifier against its Fraction reference.

`reference_classify_vertex` is `classify_vertex` as it was written on Vecs:
Fraction `det2`, `dot` and Vec equality on the adjacent directions.  The
integer classifier must return the same kind, or raise the same exception
class with the same message, on every vertex it is given.  The reference
checks the pant balancing with `reference_pant_strip_direction` and hands
its kinds the homogeneous triples of its Vecs.
"""

from fractions import Fraction as F
from typing import Optional

import pytest

from tropdisk.classify import classify_vertex
from tropdisk.diagram import AT_FOCUS_FOCUS, BaseDiagram, ON_FACET, ON_POLYGON_VERTEX
from tropdisk.diskgraph import DiskEdge, DiskGraph, DiskVertex
from tropdisk.fixtures import builtin_fixture
from tropdisk.geometry import (
    GeometryError,
    Vec,
    det2,
    homogeneous,
    point_on_row,
    primitive_and_length,
    shear_apply,
)
from test_lagrangian import reference_edge_direction, reference_leg_directions
from test_multiplicity import reference_pant_strip_direction
from tropdisk.lagrangian import LagEdge, LagGraph, LagVertex
from tropdisk.multiplicity import (
    HigherValenceVertex,
    UnclassifiableVertex,
    VertexKind,
    boundary_collision,
    cylinder,
    focus_cover,
    holomorphic_pant,
    pair_of_pants,
    pant_seam,
    perp_collision,
    three_ended_strip,
    two_ended_strip,
)


# -- the Fraction reference ---------------------------------------------------


def reference_adjacent(graph: DiskGraph, vid: str):
    """The edges at vid, each with its Vec direction oriented away from vid."""
    out = []
    for e in graph.edges:
        if e.endpoints[0] == vid:
            out.append((e, e.direction))
        elif e.endpoints[1] == vid:
            out.append((e, -e.direction))
    return out


def _reference_cylinder_across_cut(diagram: BaseDiagram, point, d1: Vec, d2: Vec) -> bool:
    rows, scale = diagram.cut_rows()
    for j, row in enumerate(rows):
        if not point_on_row(point, row, scale):
            continue
        ff = diagram.focus_foci[j]
        arriving = -d1
        cut_dir = ff.cut_direction()
        if det2(cut_dir, arriving) == 0:
            continue
        side = 1 if det2(cut_dir, arriving) > 0 else -1
        if shear_apply(ff.sigma * side, ff.pi, arriving) == d2:
            return True
        arriving = -d2
        side = 1 if det2(cut_dir, arriving) > 0 else -1
        if shear_apply(ff.sigma * side, ff.pi, arriving) == d1:
            return True
    return False


def reference_classify_vertex(graph: DiskGraph, vid: str, diagram: BaseDiagram,
                              lag: Optional[LagGraph]) -> VertexKind:
    v = graph.vertex(vid)
    adjacent = reference_adjacent(graph, vid)
    valence = len(adjacent)
    if valence > 3:
        raise HigherValenceVertex(f"valence {valence} at {vid}")
    point = homogeneous(v.position)
    cls = diagram.classify_point(point)
    lam_edge = None if lag is None else lag.edge_through(point)
    lam_dir = None if lam_edge is None else reference_edge_direction(lag, lag.edges[lam_edge])
    lam_vertex = None if lag is None else lag.vertex_at(point)

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
            for i in diagram.facets_through(point):
                if leg == (*normals[i], 1):
                    return boundary_collision(i)
            raise UnclassifiableVertex("boundary leg not along a primitive inward normal")
        if lam_dir is not None and not edge.open:
            if d.dot(lam_dir) == 0:
                _, ell = primitive_and_length(d)
                return perp_collision(ell)
        if lam_vertex is not None and lag.valence(lam_vertex.id) == 3 and edge.open:
            legs = reference_leg_directions(lag, lam_vertex.id)
            if any(det2(d, leg) == 0 for leg in legs):
                return pant_seam()
        raise UnclassifiableVertex(f"univalent vertex at {v.position!r} matches no case")

    if valence == 2:
        (e1, d1), (e2, d2) = adjacent
        if not e1.open and not e2.open:
            if d1 == -d2:
                return cylinder()
            if _reference_cylinder_across_cut(diagram, point, d1, d2):
                return cylinder()
            raise HigherValenceVertex("bivalent vertex with two closed edges")
        if e1.open != e2.open and lam_dir is not None:
            (open_d,) = [d for e, d in adjacent if e.open]
            (black_d,) = [d for e, d in adjacent if not e.open]
            if open_d == reference_pant_strip_direction(black_d, lam_dir):
                return holomorphic_pant(homogeneous(black_d), homogeneous(lam_dir))
            raise UnclassifiableVertex("bivalent open/closed vertex fails pant balancing")
        if e1.open and e2.open and lam_vertex is not None and lag.valence(lam_vertex.id) == 3:
            legs = reference_leg_directions(lag, lam_vertex.id)
            if all(any(det2(d, leg) == 0 for leg in legs) for d in (d1, d2)):
                return two_ended_strip()
        raise UnclassifiableVertex(f"bivalent vertex at {v.position!r} matches no case")

    # valence 3
    if all(not e.open for e, _ in adjacent):
        total = adjacent[0][1] + adjacent[1][1] + adjacent[2][1]
        if not total:
            return pair_of_pants(homogeneous(adjacent[0][1]), homogeneous(adjacent[1][1]))
        raise UnclassifiableVertex("unbalanced trivalent closed vertex")
    if lam_vertex is not None and lag.valence(lam_vertex.id) == 3 and all(e.open for e, _ in adjacent):
        legs = reference_leg_directions(lag, lam_vertex.id)
        if all(any(det2(d, leg) == 0 for leg in legs) for _, d in adjacent):
            return three_ended_strip()
    raise UnclassifiableVertex(f"trivalent vertex at {v.position!r} matches no case")


def _outcome(classify, graph, vid, diagram, lag):
    """The kind, or (exception class, message)."""
    try:
        return classify(graph, vid, diagram, lag)
    except GeometryError as exc:
        return type(exc), str(exc)


def classify_agrees(graph, vid, diagram, lag):
    """Assert that both classifiers agree on vertex vid; returns the outcome."""
    got = _outcome(classify_vertex, graph, vid, diagram, lag)
    assert got == _outcome(reference_classify_vertex, graph, vid, diagram, lag), (vid, graph)
    return got


# -- hand-built vertices --------------------------------------------------------


def _star(center: Vec, legs, kind=VertexKind("test")):
    """A vertex "c" at center with one edge per (direction, open, incoming)
    leg; an incoming edge is stored from its tip, so that its direction
    away from "c" is still `direction`."""
    vertices = [DiskVertex("c", homogeneous(center), kind)]
    edges = []
    for i, (d, is_open, incoming) in enumerate(legs):
        tip = f"t{i}"
        vertices.append(DiskVertex(tip, homogeneous(center + d), kind))
        if incoming:
            edges.append(DiskEdge((tip, "c"), homogeneous(-d), is_open))
        else:
            edges.append(DiskEdge(("c", tip), homogeneous(d), is_open))
    return DiskGraph(vertices, edges)


def _closed(*directions, incoming=False):
    return [(d, False, incoming) for d in directions]


DP5 = builtin_fixture("dp5")
DP6 = builtin_fixture("dp6")
DP3 = builtin_fixture("dp3")


def _raises(graph, diagram, lag, exc, match):
    outcome = classify_agrees(graph, "c", diagram, lag)
    assert outcome[0] is exc and match in outcome[1], outcome


def test_focus_leg_off_the_shear_line():
    # dp5's focus at (1/2, 1/4) shears along (0, 1)
    diagram, focus = DP5.diagram, DP5.diagram.focus_foci[0].position
    for incoming in (False, True):
        graph = _star(focus, _closed(Vec(1, 0), incoming=incoming))
        _raises(graph, diagram, None, UnclassifiableVertex, "not along the shear direction")
        graph = _star(focus, _closed(Vec(0, -3), incoming=incoming))
        assert classify_agrees(graph, "c", diagram, None) == focus_cover(3, 0, 1)


def test_non_integral_legs_raise_the_primitive_error():
    # a focus end and a perp end read the lattice length of their leg
    diagram, focus = DP5.diagram, DP5.diagram.focus_foci[0].position
    half = Vec(0, F(-1, 2))
    for incoming in (False, True):
        graph = _star(focus, _closed(half, incoming=incoming))
        _raises(graph, diagram, None, GeometryError, "is not an integer vector")
    lag = DP6.lagrangian_for("segment")  # the antidiagonal (1, -1) -> (-1, 1)
    on_edge = Vec(F(1, 4), F(-1, 4))
    assert classify_agrees(_star(on_edge, _closed(Vec(2, 2))), "c", DP6.diagram, lag) \
        == perp_collision(2)
    graph = _star(on_edge, _closed(Vec(F(1, 2), F(1, 2)), incoming=True))
    _raises(graph, DP6.diagram, lag, GeometryError, "is not an integer vector")
    graph = _star(focus, _closed(Vec(0, 0)))
    _raises(graph, diagram, None, GeometryError, "zero vector has no primitive direction")


def test_boundary_leg_that_is_not_a_normal():
    # the facet from (1, 0) to (0, 1) has inward normal (-1, -1)
    on_facet = Vec(F(1, 2), F(1, 2))
    assert classify_agrees(_star(on_facet, _closed(Vec(-1, -1))), "c", DP6.diagram, None) \
        == boundary_collision(0)
    for d in (Vec(-2, -2), Vec(-1, 0), Vec(1, 1)):
        _raises(_star(on_facet, _closed(d)), DP6.diagram, None, UnclassifiableVertex,
                "not along a primitive inward normal")
    # at the corner (1, 0) either facet's normal is a collision
    corner = Vec(1, 0)
    assert classify_agrees(_star(corner, _closed(Vec(-1, 0))), "c", DP6.diagram, None) \
        == boundary_collision(5)
    _raises(_star(corner, _closed(Vec(-1, 1))), DP6.diagram, None, UnclassifiableVertex,
            "not along a primitive inward normal")


def test_bivalent_closed_pair_with_no_cut():
    graph = _star(Vec(0, F(1, 7)), _closed(Vec(1, 0), Vec(-1, 1)))
    _raises(graph, DP6.diagram, None, HigherValenceVertex, "two closed edges")
    graph = _star(Vec(0, F(1, 7)), _closed(Vec(1, 2), Vec(-1, -2)))
    assert classify_agrees(graph, "c", DP6.diagram, None) == cylinder()


def test_failed_pant_balancing():
    # the strip w of a closed leg e balances 2 w + e + r(e) = 0, with r the
    # reflection fixing the Lagrangian edge
    lag = DP6.lagrangian_for("segment")  # along (-1, 1)
    point = Vec(F(1, 4), F(-1, 4))
    black = Vec(1, -3)
    strip = reference_pant_strip_direction(black, Vec(-1, 1))
    for incoming in (False, True):
        legs = [(black, False, incoming), (strip, True, not incoming)]
        assert classify_agrees(_star(point, legs), "c", DP6.diagram, lag) \
            == holomorphic_pant((1, -3, 1), (-1, 1, 1))
        for off in (Vec(1, 0), Vec(0, F(-1, 2))):
            legs = [(strip + off, True, incoming), (black, False, not incoming)]
            _raises(_star(point, legs), DP6.diagram, lag, UnclassifiableVertex,
                    "fails pant balancing")


def test_unbalanced_trivalent_vertex():
    point = Vec(0, F(1, 7))
    graph = _star(point, [(Vec(1, 0), False, False), (Vec(0, 1), False, True),
                          (Vec(-1, -1), False, False)])
    assert classify_agrees(graph, "c", DP6.diagram, None) == pair_of_pants((0, 1, 1), (1, 0, 1))
    graph = _star(point, _closed(Vec(1, 0), Vec(0, 1), Vec(-1, -2)))
    _raises(graph, DP6.diagram, None, UnclassifiableVertex, "unbalanced trivalent")
    graph = _star(point, _closed(Vec(F(1, 2), 0), Vec(0, F(1, 3)), Vec(F(-1, 2), F(-1, 3))))
    assert classify_agrees(graph, "c", DP6.diagram, None).tag == "pair_of_pants"


def test_isolated_vertex_is_unclassifiable():
    # a vertex with no edges: the reference unpacks no legs and fails with
    # an IndexError, so only the integer classifier is asked
    for p in (Vec(0, F(1, 7)), DP5.diagram.focus_foci[0].position, Vec(1, 0)):
        graph = DiskGraph([DiskVertex("c", homogeneous(p), VertexKind("test"))], [])
        with pytest.raises(UnclassifiableVertex, match="isolated vertex .* matches no case"):
            classify_vertex(graph, "c", DP5.diagram, None)


def test_valence_four():
    graph = _star(Vec(0, 0), _closed(Vec(1, 0), Vec(-1, 0), Vec(0, 1), Vec(0, -1)))
    _raises(graph, DP6.diagram, None, HigherValenceVertex, "valence 4 at c")


def test_strips_at_a_trivalent_lagrangian_vertex():
    lag = DP6.lagrangian_for("trivalent")  # legs (1, 0), (-1, 1), (0, -1) at the origin
    origin = Vec(0, 0)
    opened = [(Vec(2, 0), True, False), (Vec(F(1, 2), F(-1, 2)), True, True),
              (Vec(0, 1), True, False)]
    assert classify_agrees(_star(origin, opened[:1]), "c", DP6.diagram, lag) == pant_seam()
    assert classify_agrees(_star(origin, opened[:2]), "c", DP6.diagram, lag) \
        == two_ended_strip()
    assert classify_agrees(_star(origin, opened), "c", DP6.diagram, lag) == three_ended_strip()
    skew = [(Vec(1, 1), True, False)] + opened[1:]
    for k in (1, 2, 3):
        _raises(_star(origin, skew[:k]), DP6.diagram, lag, UnclassifiableVertex,
                "matches no case")
    # a Lagrangian leg of zero length has no direction
    stub = LagGraph(lag.vertices + (LagVertex("z", origin),),
                    lag.edges[:2] + (LagEdge(("c", "z")),))
    for k in (1, 2, 3):
        _raises(_star(origin, opened[:k]), DP6.diagram, stub, GeometryError,
                "zero vector has no primitive direction")


def _on_cut(diagram, j, s):
    focus, end = diagram.branch_cuts()[j]
    return focus + (end - focus) * s


def test_cylinder_across_a_cut_with_a_zero_determinant_on_either_side():
    # dp5's cut runs up from (1/2, 1/4); its monodromy is v -> v + side v.x (0, 1)
    diagram = DP5.diagram
    ff = diagram.focus_foci[0]
    point = _on_cut(diagram, 0, F(1, 2))
    for arriving in (Vec(1, 1), Vec(-1, 1)):
        side = 1 if det2(Vec(0, 1), arriving) > 0 else -1
        d2 = shear_apply(ff.sigma * side, ff.pi, arriving)
        assert classify_agrees(_star(point, _closed(-arriving, d2)), "c", diagram, None) \
            == cylinder()
    # one side arrives along the cut, where the shear is the identity, and
    # the other leaves off it: no crossing joins them, either way round
    graph = _star(point, _closed(Vec(0, -1), Vec(1, 2)))
    _raises(graph, diagram, None, HigherValenceVertex, "two closed edges")
    graph = _star(point, _closed(Vec(1, 2), Vec(0, -1)))
    _raises(graph, diagram, None, HigherValenceVertex, "two closed edges")
    graph = _star(point, _closed(Vec(1, 2), Vec(0, 1)))
    _raises(graph, diagram, None, HigherValenceVertex, "two closed edges")
    # half-integral legs: the sheared triple is compared in lowest terms
    arriving = Vec(F(1, 2), F(1, 2))
    d2 = shear_apply(ff.sigma * -1, ff.pi, arriving)
    assert classify_agrees(_star(point, _closed(-arriving, d2)), "c", diagram, None) \
        == cylinder()


# -- stars at the special points of shipped cases ------------------------------


def _special_points(diagram, lag):
    """Foci, corners, facet points, cut points, Lagrangian vertices and edge
    points, and an interior point."""
    points = [ff.position for ff in diagram.focus_foci] + list(diagram.polygon)
    n = len(diagram.polygon)
    for i in range(n):
        a, b = diagram.polygon[i], diagram.polygon[(i + 1) % n]
        points += [a + (b - a) * s for s in (F(1, 4), F(1, 2))]
    for focus, end in diagram.branch_cuts():
        points += [focus + (end - focus) * s for s in (F(1, 3), F(1, 2))]
    if lag is not None:
        points += [v.position for v in lag.vertices]
        for e in lag.edges:
            a, b = (lag.position(vid) for vid in e.endpoints)
            points += [a + (b - a) * s for s in (F(1, 3), F(1, 2), F(3, 4))]
    return points + [Vec(F(1, 11), F(-1, 13))]


def _cuts_at(diagram, p):
    """The cuts through p, its focus included."""
    rows, scale = diagram.cut_rows()
    return [j for j, row in enumerate(rows) if point_on_row(homogeneous(p), row, scale)]


def _directions_at(diagram, lag, p):
    """The directions that can end or turn a leg at p: the normals of the
    facets through p, the shear directions of the focus or cuts at p, the
    Lagrangian edge through p and its perpendicular, the Lagrangian legs at
    p, and their negatives."""
    found = [Vec(*diagram.normals()[i]) for i in diagram.facets_through(homogeneous(p))]
    found += [diagram.focus_foci[j].pi for j in _cuts_at(diagram, p)]
    if lag is not None:
        k = lag.edge_through(homogeneous(p))
        if k is not None:
            lam = reference_edge_direction(lag, lag.edges[k])
            found += [lam, Vec(-lam.y, lam.x)]
        found += [reference_edge_direction(lag, e, from_id=v.id) for v in lag.vertices
                  if v.position == p for e in lag.adjacent_edges(v.id)]
    return found + [-d for d in found]


CASES = [(DP6, "trivalent"), (DP6, "segment"), (DP5, "segment"), (DP3, "trivalent"),
         (builtin_fixture("dp4"), "sphere"), (DP6, "fiber")]


def _vertices_at(diagram, lag, p):
    """Stars at p: a univalent leg along each direction that matters at p
    or one of two generic ones, each scaled by 1, 2 and 1/2, open or closed;
    pairs whose second leg runs straight on, along (1, 0), across each cut at
    p either way, or along the pant strip of the first; and trivalent stars,
    balanced or not.  Incoming and outgoing edges alternate."""
    dirs = _directions_at(diagram, lag, p) + [Vec(1, 0), Vec(1, 2)]
    legs = list({d * k: None for d in dirs for k in (1, 2, F(1, 2))})
    cuts = _cuts_at(diagram, p)
    k = None if lag is None else lag.edge_through(homogeneous(p))
    lam = None if k is None else reference_edge_direction(lag, lag.edges[k])
    flags = [(False, False), (False, True), (True, False), (True, True)]
    stars = [[(d, o, n % 2)] for n, d in enumerate(legs) for o in (False, True)]
    for n, d1 in enumerate(legs):
        seconds = [-d1, Vec(1, 0)] + [
            shear_apply(diagram.focus_foci[j].sigma * side, diagram.focus_foci[j].pi, -d1)
            for j in cuts for side in (1, -1)]
        if lam is not None:
            seconds.append(reference_pant_strip_direction(d1, lam))
        for m, d2 in enumerate(seconds):
            stars += [[(d1, o1, n % 2), (d2, o2, m % 2)] for o1, o2 in flags]
    for n, d1 in enumerate(dirs):
        for d2 in dirs[n + 1:]:
            for d3 in (-(d1 + d2), d1, -d1):
                stars += [[(d1, o, 0), (d2, o, 1), (d3, o, 0)] for o in (False, True)]
                stars.append([(d1, False, 1), (d2, True, 0), (d3, True, 1)])
    return stars


@pytest.mark.parametrize("fixture,case", CASES, ids=[f"{fx.name}:{c}" for fx, c in CASES])
def test_vertices_at_special_points_agree_with_fraction_reference(fixture, case):
    diagram, lag = fixture.diagram_for(case), fixture.lagrangian_for(case)
    for p in _special_points(diagram, lag):
        for legs in _vertices_at(diagram, lag, p):
            for graph_lag in (lag, None) if lag is not None else (None,):
                classify_agrees(_star(p, legs), "c", diagram, graph_lag)
