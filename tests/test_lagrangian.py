import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropdisk.fixtures import FIXTURE_NAMES, builtin_fixture
from tropdisk.geometry import GeometryError, Vec, apply_matrix, homogeneous, primitive
from tropdisk.lagrangian import LagEdge, LagGraph, LagVertex, segment_graph, star_graph


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
    assert seg.self_intersection() == 0
    tri = tripod([Vec(1, 0), Vec(0, 1), Vec(-1, -1)])
    assert tri.genus() == 0
    assert tri.self_intersection() == 0
    assert tripod([Vec(2, 1), Vec(-1, 1), Vec(-1, -2)]).self_intersection() == 1
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
    assert lag.self_intersection() == 0
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
    assert lag2.self_intersection() == lag.self_intersection()


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


def test_mutate_nodal_slide_without_crossing():
    fx = builtin_fixture("dp5")
    lag = fx.lagrangians["segment"]
    target = Vec(F(1, 2), F(3, 8))
    mutated, new_diagram = lag.mutate_nodal_slide(fx.diagram, 0, target)
    assert len(mutated.edges) == len(lag.edges)
    assert new_diagram.focus_foci[0].position == target


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


def _fixture_lagrangians():
    return [lag for name in FIXTURE_NAMES for lag in builtin_fixture(name).lagrangians.values()]


def test_cached_edge_directions_match_primitive_edge_vectors():
    for lag in _fixture_lagrangians():
        for e in lag.edges:
            for end in e.endpoints:
                assert lag.edge_direction(e, from_id=end) == primitive(lag.edge_vector(e, end))
            assert lag.edge_direction(e) == primitive(lag.edge_vector(e))
        for v in lag.vertices:
            assert lag.leg_directions(v.id) == [
                primitive(lag.edge_vector(e, v.id)) for e in lag.adjacent_edges(v.id)]


def test_zero_length_edge_still_has_no_direction():
    g = LagGraph([LagVertex("a", Vec(0, 0)), LagVertex("b", Vec(0, 0)),
                  LagVertex("c", Vec(1, 0))],
                 [LagEdge(("a", "b")), LagEdge(("a", "c"))])
    assert g.edge_direction(g.edges[1], from_id="c") == Vec(-1, 0)
    with pytest.raises(GeometryError):
        g.edge_direction(g.edges[0])


def test_vertex_lookup_finds_the_vertex_at_each_position_only():
    for lag in _fixture_lagrangians():
        for v in lag.vertices:
            assert lag._vertex_at(homogeneous(v.position)) is v
        for e in lag.edges:
            a, b = (lag.position(x) for x in e.endpoints)
            assert lag._vertex_at(homogeneous((a + b) / 2)) is None
