import itertools
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_geometry import apply_matrix, rational_length, reference_primitive
from tropdisk.diagram import BaseDiagram, FocusFocus
from tropdisk.diskgraph import Constraint
from tropdisk.enumerate import enumerate_disks
from tropdisk.fixtures import FIXTURE_NAMES, builtin_fixture
from tropdisk.geometry import GeometryError, Vec, det2, homogeneous
from tropdisk.lagrangian import (
    ANCHOR_FOCUS,
    LagEdge,
    LagGraph,
    LagVertex,
    segment_graph,
    star_graph,
)


def reference_edge_vector(lag, edge, from_id=None):
    """The former `LagGraph.edge_vector`: the edge's end minus its start,
    oriented away from from_id, in Fractions."""
    a, b = edge.endpoints
    if from_id == b:
        a, b = b, a
    return lag.position(b) - lag.position(a)


def reference_edge_direction(lag, edge, from_id=None):
    """The former Vec `LagGraph.edge_direction`: the primitive edge vector."""
    return reference_primitive(reference_edge_vector(lag, edge, from_id))


def reference_leg_directions(lag, vid):
    return [reference_edge_direction(lag, e, vid) for e in lag.adjacent_edges(vid)]


def tripod(legs, center=Vec(0, 0)):
    """Trivalent vertex with given integral leg directions (weights kept)."""
    from tropdisk.geometry import primitive_and_length

    vertices = [LagVertex("c", center)]
    edges = []
    for i, leg in enumerate(legs):
        prim, length = primitive_and_length(leg)
        vertices.append(LagVertex(f"t{i}", center + prim))
        edges.append(LagEdge(("c", f"t{i}"), length))
    return LagGraph(vertices, edges)


def test_is_balanced_examples():
    g = tripod([Vec(1, 0), Vec(0, 1), Vec(-1, -1)])
    assert g.is_balanced("c")
    seg = LagGraph(
        [LagVertex("a", Vec(-1, -1)), LagVertex("b", Vec(0, 0)), LagVertex("c", Vec(1, 1))],
        [LagEdge(("a", "b")), LagEdge(("b", "c"))],
    )
    assert seg.is_balanced("b")
    bad = tripod([Vec(1, 0), Vec(0, 1), Vec(-1, 0)])
    assert not bad.is_balanced("c")


def test_is_balanced_univalent_error():
    g = segment_graph(Vec(0, 0), Vec(1, 0))
    with pytest.raises(GeometryError):
        g.is_balanced("v0")


def test_mikhalkin_det_examples():
    assert tripod([Vec(1, 0), Vec(0, 1), Vec(-1, -1)]).mikhalkin_det("c") == 1
    assert tripod([Vec(1, 0), Vec(1, 2), Vec(-2, -2)]).mikhalkin_det("c") == 2
    assert tripod([Vec(2, 1), Vec(-1, 1), Vec(-1, -2)]).mikhalkin_det("c") == 3


def test_mikhalkin_det_leg_permutation_invariance():
    legs = [Vec(1, 0), Vec(1, 2), Vec(-2, -2)]
    values = {tripod(list(p)).mikhalkin_det("c") for p in itertools.permutations(legs)}
    assert values == {2}


def test_genus_and_self_intersection():
    seg = segment_graph(Vec(0, 0), Vec(1, 0))
    assert seg.genus() == 0
    assert seg.tropical_double_points() == 0
    tri = tripod([Vec(1, 0), Vec(0, 1), Vec(-1, -1)])
    assert tri.genus() == 0
    assert tri.tropical_double_points() == 0
    assert tripod([Vec(2, 1), Vec(-1, 1), Vec(-1, -2)]).tropical_double_points() == 1
    cycle = LagGraph(
        [LagVertex("a", Vec(0, 0)), LagVertex("b", Vec(1, 0)), LagVertex("c", Vec(0, 1))],
        [LagEdge(("a", "b")), LagEdge(("b", "c")), LagEdge(("c", "a"))],
    )
    assert cycle.genus() == 1


def test_is_primitive():
    fx = builtin_fixture("dp7")
    assert fx.lagrangians["trivalent"].is_primitive()
    doubled = LagGraph(
        [LagVertex("a", Vec(0, 0)), LagVertex("b", Vec(2, 0))],
        [LagEdge(("a", "b"), weight=2)],
    )
    assert not doubled.is_primitive()
    four = star_graph(Vec(0, 0), [Vec(1, 0), Vec(0, 1), Vec(-1, 0), Vec(0, -1)])
    assert not four.is_primitive()


def test_dp6_segment_allowable():
    fx = builtin_fixture("dp6")
    assert fx.lagrangians["segment"].is_allowable(fx.diagram) == []


def test_dp7_trivalent_allowable_and_invariants():
    fx = builtin_fixture("dp7")
    lag = fx.lagrangians["trivalent"]
    assert lag.is_allowable(fx.diagram) == []
    assert lag.is_primitive()
    assert lag.genus() == 0
    assert lag.tropical_double_points() == 0
    assert lag.mikhalkin_det("c") == 1


def test_univalent_on_facet_rejected():
    fx = builtin_fixture("dp6")
    mid = segment_graph(Vec(0, 0), Vec(F(1, 2), F(1, 2)))
    violations = mid.is_allowable(fx.diagram)
    assert any("univalent" in v for v in violations)


def test_non_bisectrice_corner_rejected():
    fx = builtin_fixture("dp6")
    # (0,-1) -> (1,0) heads into the corner (1,0) along a non-bisectrice
    bad = segment_graph(Vec(0, -1), Vec(1, 0))
    violations = bad.is_allowable(fx.diagram)
    assert any("bisectrice" in v for v in violations)


ALLOWABILITY_CODES = [
    # a segment between two corners off both bisectrices
    pytest.param("dp6", segment_graph(Vec(0, -1), Vec(1, 0)),
                 ["not_bisectrice:v0", "not_bisectrice:v1"], id="not_bisectrice"),
    # the focus's leg runs to a corner along (2, -1), not along the
    # shear direction (0, 1); no corner bisectrice runs through the focus
    pytest.param("dp5", segment_graph(Vec(F(1, 2), F(1, 4)), Vec(1, 0)),
                 ["focus_leg_not_along_shear:v0", "not_bisectrice:v1"],
                 id="focus_leg_not_along_shear"),
    # balanced with weights 2, 1, 1 along bisectrices: det((2, 0), (-1, 1)) = 2
    pytest.param("dp7", LagGraph(
        [LagVertex("c", Vec(0, 0)), LagVertex("t0", Vec(1, 0)),
         LagVertex("t1", Vec(-1, 1)), LagVertex("t2", Vec(-1, -1))],
        [LagEdge(("c", "t0"), 2), LagEdge(("c", "t1")), LagEdge(("c", "t2"))]),
        ["mikhalkin_det_not_one:c", "edge_weight_not_one:0"], id="mikhalkin_det_not_one"),
    # the dp6 segment written with weight 2: the search reads every edge as
    # primitive, and counted W = -2 on it
    pytest.param("dp6", LagGraph(
        [LagVertex("v0", Vec(1, -1)), LagVertex("v1", Vec(-1, 1))], [LagEdge(("v0", "v1"), 2)]),
        ["edge_weight_not_one:0"], id="edge_weight_not_one"),
    # the dp6 segment with a second vertex at its end: edge 1 has no
    # direction, so no balancing or bisectrice check runs
    pytest.param("dp6", LagGraph(
        [LagVertex("v0", Vec(1, -1)), LagVertex("v1", Vec(-1, 1)), LagVertex("v2", Vec(-1, 1))],
        [LagEdge(("v0", "v1")), LagEdge(("v1", "v2"))]),
        ["zero_length_edge:1"], id="zero_length_edge"),
    # four balanced legs to the corners on the axes
    pytest.param("dp6", star_graph(Vec(0, 0), [Vec(1, 0), Vec(0, 1), Vec(-1, 0), Vec(0, -1)]),
                 ["valence_exceeds_three:c"], id="valence_exceeds_three"),
    # three bisectrice legs that sum to (0, 2)
    pytest.param("dp6", star_graph(Vec(0, 0), [Vec(1, 0), Vec(0, 1), Vec(-1, 1)]),
                 ["unbalanced:c"], id="unbalanced"),
    # one vertex and no edges: connected, but no sphere
    pytest.param("dp6", LagGraph([LagVertex("v0", Vec(0, 0))], []),
                 ["isolated_vertex:v0"], id="isolated_vertex"),
]


@pytest.mark.parametrize("name,lag,codes", ALLOWABILITY_CODES)
def test_allowability_codes(name, lag, codes):
    assert lag.is_allowable(builtin_fixture(name).diagram) == codes


def test_all_sphere_fixtures_allowable_genus_zero():
    for name in ("p1xp1", "dp7", "dp6", "dp5", "dp4", "dp3", "dp2", "dp1"):
        fx = builtin_fixture(name)
        for case_name, case in fx.cases.items():
            if case.lagrangian is None:
                continue
            lag = fx.lagrangians[case.lagrangian]
            diagram = fx.diagram_for(case_name)
            assert lag.is_allowable(diagram) == [], (name, case_name)
            assert lag.genus() == 0
            assert lag.is_primitive()


SIGNED_PERMS = [
    (Vec(1, 0), Vec(0, 1)), (Vec(0, 1), Vec(-1, 0)),
    (Vec(-1, 0), Vec(0, -1)), (Vec(0, -1), Vec(1, 0)),
    (Vec(0, 1), Vec(1, 0)), (Vec(1, 0), Vec(0, -1)),
    (Vec(-1, 0), Vec(0, 1)), (Vec(0, -1), Vec(-1, 0)),
]


def shear_matrices():
    def build(ops):
        m = (Vec(1, 0), Vec(0, 1))
        for kind, k in ops:
            step = (Vec(1, 0), Vec(k, 1)) if kind == 0 else (Vec(1, k), Vec(0, 1))
            m = (apply_matrix(step, m[0]), apply_matrix(step, m[1]))
        return m

    return st.lists(
        st.tuples(st.integers(0, 1), st.integers(-2, 2)), min_size=0, max_size=4
    ).map(build)


def _transform_fixture(fx, lag, m):
    from tropdisk.diagram import BaseDiagram, FocusFocus
    from tropdisk.geometry import det2

    det = det2(m[0], m[1])
    polygon = [apply_matrix(m, v) for v in fx.polygon]
    if det < 0:
        polygon = list(reversed(polygon))
    # covectors transform by the inverse transpose ~ adjugate over +-1
    inv_t = (Vec(m[1].y, -m[0].y) * det, Vec(-m[1].x, m[0].x) * det)
    foci = [
        FocusFocus(apply_matrix(m, ff.position), apply_matrix(m, ff.pi),
                   apply_matrix(inv_t, ff.sigma), ff.cut_sign)
        for ff in fx.focus_foci
    ]
    diagram = BaseDiagram(fx.name, polygon, foci)
    vertices = [
        LagVertex(v.id, apply_matrix(m, v.position), v.anchor, v.anchor_index)
        for v in lag.vertices
    ]
    return diagram, LagGraph(vertices, list(lag.edges))


@given(shear_matrices())
@settings(max_examples=200, deadline=None)
def test_allowability_invariant_under_unimodular_maps(m):
    fx = builtin_fixture("dp7")
    lag = fx.lagrangians["trivalent"]
    diagram2, lag2 = _transform_fixture(fx.diagram, lag, m)
    assert diagram2.validate() == []
    assert lag2.is_allowable(diagram2) == []
    assert lag2.is_primitive()
    assert lag2.genus() == lag.genus()
    assert lag2.tropical_double_points() == lag.tropical_double_points()


def test_mutate_nodal_slide_adds_spur():
    fx = builtin_fixture("dp5")
    lag = fx.lagrangians["segment"]
    diagram = fx.diagram
    ff = diagram.focus_foci[0]
    # slide along -pi across the segment: from (1/2, 1/4) down to (1/2, -3/4)
    target = Vec(F(1, 2), F(-3, 4))
    mutated, new_diagram = lag.mutate_nodal_slide(diagram, 0, target)
    assert new_diagram.focus_foci[0].position == target
    assert len(mutated.edges) == len(lag.edges) + 2
    assert mutated.genus() == lag.genus()
    spur = [v for v in mutated.vertices if v.position == target]
    assert len(spur) == 1


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the spur's third leg leaves slide0 unbalanced (ROADMAP item 14)"))
def test_slide_across_the_segment_stays_allowable():
    fx = builtin_fixture("dp5")
    mutated, new_diagram = fx.lagrangians["segment"].mutate_nodal_slide(
        fx.diagram, 0, Vec(F(1, 2), F(-3, 4)))
    assert mutated.is_allowable(new_diagram) == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a slide back leaves the spur at the old focus (ROADMAP item 14)"))
def test_slide_back_stays_allowable():
    fx = builtin_fixture("dp5")
    focus = fx.diagram.focus_foci[0].position
    mutated, new_diagram = fx.lagrangians["segment"].mutate_nodal_slide(
        fx.diagram, 0, Vec(F(1, 2), F(-3, 4)))
    back, back_diagram = mutated.mutate_nodal_slide(new_diagram, 0, focus)
    assert back.is_allowable(back_diagram) == []


def test_mutate_nodal_slide_without_crossing():
    fx = builtin_fixture("dp5")
    lag = fx.lagrangians["segment"]
    target = Vec(F(1, 2), F(3, 8))
    mutated, new_diagram = lag.mutate_nodal_slide(fx.diagram, 0, target)
    assert len(mutated.edges) == len(lag.edges)
    assert new_diagram.focus_foci[0].position == target


def test_mutate_nodal_slide_refuses_an_invalid_diagram():
    # down the shear line past the bottom facet: the focus leaves the polygon
    fx = builtin_fixture("dp5")
    lag = fx.lagrangians["segment"]
    with pytest.raises(GeometryError, match="focus_not_interior:0"):
        lag.mutate_nodal_slide(fx.diagram, 0, Vec(F(1, 2), -5))


def test_mutate_rejects_off_axis_slide():
    fx = builtin_fixture("dp5")
    lag = fx.lagrangians["segment"]
    with pytest.raises(GeometryError):
        lag.mutate_nodal_slide(fx.diagram, 0, Vec(0, 0))


def test_file_round_trip(tmp_path):
    fx = builtin_fixture("dp7")
    lag = fx.lagrangians["trivalent"]
    path = tmp_path / "trivalent.lag.json"
    lag.save(path)
    loaded = LagGraph.load(path)
    assert [v.position for v in loaded.vertices] == [v.position for v in lag.vertices]
    assert [e.endpoints for e in loaded.edges] == [e.endpoints for e in lag.edges]


def test_flat_position_loads_the_same_graph(tmp_path):
    # a Lagrangian position may be written [num, den, num, den], as a
    # diagram point is, as well as [[num, den], [num, den]]
    lag = builtin_fixture("dp7").lagrangians["trivalent"]
    data = lag.to_json_dict()
    for entry in data["vertices"]:
        entry["position"] = entry["position"][0] + entry["position"][1]
    path = tmp_path / "flat.lag.json"
    path.write_text(json.dumps(data))
    assert LagGraph.load(path).to_json_dict() == lag.to_json_dict()


def _fixture_lagrangians():
    return [lag for name in FIXTURE_NAMES for lag in builtin_fixture(name).lagrangians.values()]


def test_cached_edge_directions_match_primitive_edge_vectors():
    for lag in _fixture_lagrangians():
        for k, e in enumerate(lag.edges):
            for end in e.endpoints:
                assert lag.edge_direction(k, from_id=end) == \
                    reference_edge_direction(lag, e, end).as_int_pair()
            assert lag.edge_direction(k) == reference_edge_direction(lag, e).as_int_pair()
        for v in lag.vertices:
            assert lag.leg_directions(v.id) == [
                d.as_int_pair() for d in reference_leg_directions(lag, v.id)]


# the constraint positions that scripts/compare_outputs.py runs on every edge
EDGE_POSITIONS = (F(3, 16), F(1, 2), F(13, 16))


def test_edge_constraint_point_is_the_fraction_point(monkeypatch):
    # Constraint.on_lagrangian finds the point on the edge row in integers and
    # builds the one Vec of its point: a + (b - a) t in Fractions
    built = []
    init = Vec.__init__

    def counted(self, x, y):
        built.append((x, y))
        init(self, x, y)

    for lag in _fixture_lagrangians():
        for k, e in enumerate(lag.edges):
            a, b = (lag.position(vid) for vid in e.endpoints)
            for t in EDGE_POSITIONS:
                monkeypatch.setattr(Vec, "__init__", counted)
                constraint = Constraint.on_lagrangian(lag, k, t)
                monkeypatch.undo()
                assert constraint.point == a + (b - a) * t
                assert (constraint.edge_index, constraint.t) == (k, t)
                assert constraint.triple == homogeneous(constraint.point)
                assert len(built) == 1
                built.clear()


def test_zero_length_edge_still_has_no_direction():
    g = LagGraph([LagVertex("a", Vec(0, 0)), LagVertex("b", Vec(0, 0)),
                  LagVertex("c", Vec(1, 0))],
                 [LagEdge(("a", "b")), LagEdge(("a", "c"))])
    assert g.edge_direction(1, from_id="c") == (-1, 0)
    with pytest.raises(GeometryError):
        g.edge_direction(0)


def test_vertex_lookup_finds_the_vertex_at_each_position_only():
    for lag in _fixture_lagrangians():
        for v in lag.vertices:
            assert lag.vertex_at(homogeneous(v.position)) is v
        for e in lag.edges:
            a, b = (lag.position(x) for x in e.endpoints)
            assert lag.vertex_at(homogeneous((a + b) / 2)) is None


# -- the integer crossings against their former Fraction bodies -----------------


def _lines_intersect(p, d, q, e):
    """Intersection of the lines p + t d and q + s e, or None if parallel."""
    denom = det2(d, e)
    if denom == 0:
        return None
    return p + d * (det2(q - p, e) / denom)


def _segment_parameter(p, a, b):
    """Parameter t with p = a + t(b-a), or None if p is off the line."""
    ab, ap = b - a, p - a
    if not ab or det2(ab, ap) != 0:
        return None
    return rational_length(ap, ab)


def reference_edges_cross(lag, e1, e2):
    """The former Fraction body of `LagGraph._edges_cross`."""
    if set(e1.endpoints) & set(e2.endpoints):
        return False
    a, b = (lag.position(x) for x in e1.endpoints)
    c, d = (lag.position(x) for x in e2.endpoints)
    hit = _lines_intersect(a, b - a, c, d - c)
    if hit is None:
        return False
    t = _segment_parameter(hit, a, b)
    s = _segment_parameter(hit, c, d)
    return t is not None and s is not None and 0 < t < 1 and 0 < s < 1


def reference_slide_crossings(lag, start, end):
    """The former Fraction crossing search of `mutate_nodal_slide`: (k, point)
    for each edge k that the closed slide [start, end] meets inside the open
    edge, parallel edges excluded."""
    slide = end - start
    crossings = []
    for k, e in enumerate(lag.edges):
        a = lag.position(e.endpoints[0])
        b = lag.position(e.endpoints[1])
        hit = _lines_intersect(a, b - a, start, slide) if slide else None
        if hit is None:
            continue
        t = _segment_parameter(hit, a, b)
        s = _segment_parameter(hit, start, end)
        if t is not None and s is not None and 0 < t < 1 and 0 <= s <= 1:
            crossings.append((k, hit))
    return crossings


small = st.fractions(min_value=-3, max_value=3, max_denominator=6)
unit = st.fractions(min_value=0, max_value=1, max_denominator=6)
inner = st.fractions(min_value=F(1, 6), max_value=F(5, 6), max_denominator=6)
directions = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda d: Vec(*d))
shear_directions = st.sampled_from(
    [Vec(x, y) for x in range(-3, 4) for y in range(-3, 4) if math.gcd(x, y) == 1])


def _vecs():
    return st.builds(Vec, small, small)


@st.composite
def edge_pairs(draw):
    """A graph with edges 0 = (a, b) and 1 = (c, d), drawing on purpose
    crossings, shared endpoints, parallel and collinear edges and T-junctions."""
    a, b, c, d = (draw(_vecs()) for _ in range(4))
    kind = draw(st.sampled_from(
        ["generic", "crossing", "shared", "same_point", "parallel", "collinear",
         "t_junction", "point"]))
    ids = ("a", "b", "c", "d")
    if kind == "crossing":
        # through an inner point of edge 0, in a drawn direction
        p, e = a + (b - a) * draw(inner), draw(directions)
        c, d = p - e * draw(inner), p + e * draw(inner)
    elif kind == "shared":
        ids, c = ("a", "b", "a", "d"), a  # one vertex shared by both edges
    elif kind == "same_point":
        c = draw(st.sampled_from([a, b]))  # a common position, two vertices
    elif kind == "parallel":
        d = c + (b - a) * draw(small)
    elif kind == "collinear":
        c, d = a + (b - a) * draw(small), a + (b - a) * draw(small)
    elif kind == "t_junction":
        c = a + (b - a) * draw(unit)  # c on edge 0, its ends included
    elif kind == "point":
        d = c
    positions = dict(zip(ids, (a, b, c, d)))
    edges = [LagEdge(ids[:2]), LagEdge(ids[2:])]
    if draw(st.booleans()):
        edges.reverse()
    return LagGraph([LagVertex(vid, p) for vid, p in positions.items()], edges)


@settings(max_examples=500, deadline=None)
@given(edge_pairs())
def test_edges_cross_agrees_with_fraction_reference(lag):
    for k, m in ((0, 1), (1, 0)):
        assert lag._edges_cross(k, m) == reference_edges_cross(lag, lag.edges[k], lag.edges[m])


@st.composite
def slide_cases(draw):
    """(graph, diagram, new focus position): a slide along the focus's shear
    line against a graph drawn to include edges crossing the slide, edges
    through either end of it, edges ending on it, and edges parallel to or
    along it.  The shear direction is primitive and both ends of the slide
    lie inside the square (|start| <= 3, |end| <= 12 in each coordinate),
    so every slide gives a valid diagram."""
    pi = draw(shear_directions)
    start = draw(_vecs())
    end = start + pi * draw(small)
    edges = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(_vecs()), draw(_vecs())
        kind = draw(st.sampled_from(
            ["generic", "crossing", "through_start", "through_end", "ends_on_slide",
             "parallel", "along"]))
        if kind == "crossing":
            p, e = start + (end - start) * draw(inner), draw(directions)
            a, b = p - e * draw(inner), p + e * draw(inner)
        elif kind == "through_start":
            a, b = start - (b - start) * draw(unit), b
        elif kind == "through_end":
            a, b = end - (b - end) * draw(unit), b
        elif kind == "ends_on_slide":
            a = start + (end - start) * draw(unit)
        elif kind == "parallel":
            b = a + pi * draw(small)
        elif kind == "along":
            a, b = start + pi * draw(small), start + pi * draw(small)
        edges.append((a, b))
    vertices = [LagVertex(f"v{i}", p) for i, p in enumerate(q for e in edges for q in e)]
    lag = LagGraph(vertices, [LagEdge((f"v{2 * i}", f"v{2 * i + 1}")) for i in range(len(edges))])
    focus = FocusFocus(start, pi=pi, sigma=Vec(-pi.y, pi.x), cut_sign=1)
    diagram = BaseDiagram("slide", [Vec(-13, -13), Vec(13, -13), Vec(13, 13), Vec(-13, 13)],
                          [focus])
    return lag, diagram, end


@settings(max_examples=500, deadline=None)
@given(slide_cases())
def test_mutate_nodal_slide_agrees_with_fraction_reference(case):
    lag, diagram, end = case
    crossings = reference_slide_crossings(lag, diagram.focus_foci[0].position, end)
    if len(crossings) > 1:
        with pytest.raises(GeometryError, match="more than one edge"):
            lag.mutate_nodal_slide(diagram, 0, end)
        return
    mutated, new_diagram = lag.mutate_nodal_slide(diagram, 0, end)
    assert new_diagram.focus_foci[0].position == end
    vertices, edges = list(lag.vertices), list(lag.edges)
    if crossings:
        (k, point), = crossings
        a_id, b_id = edges.pop(k).endpoints
        vertices += [LagVertex("slide0", point), LagVertex("focus0", end, ANCHOR_FOCUS, 0)]
        edges += [LagEdge((a_id, "slide0")), LagEdge(("slide0", b_id)),
                  LagEdge(("slide0", "focus0"))]
    assert mutated.vertices == tuple(vertices)
    assert mutated.edges == tuple(edges)


def test_weight_codes_are_built_at_construction_and_copied():
    # each call returns a copy of the codes the graph built, so a caller's
    # edit reaches neither the next call nor the refusals that read them
    diagram = builtin_fixture("dp6").diagram
    segment = builtin_fixture("dp6").lagrangians["segment"]
    heavy = LagGraph(list(segment.vertices), [LagEdge(segment.edges[0].endpoints, 2)])
    for lag, codes in ((heavy, {0: "edge_weight_not_one:0"}), (segment, {})):
        mine = lag.weight_violations()
        assert mine == codes
        mine.clear()
        mine[7] = "edge_weight_not_one:7"
        assert lag.weight_violations() == codes
    assert heavy.is_allowable(diagram) == ["edge_weight_not_one:0"]
    with pytest.raises(GeometryError) as raised:
        enumerate_disks(diagram, heavy, Constraint.on_lagrangian(heavy, 0, F(1, 2)))
    assert str(raised.value) == ("the search reads every Lagrangian edge as primitive: "
                                 "edge_weight_not_one:0")
