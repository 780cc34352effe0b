import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropdisk.diagram import (
    AT_FOCUS_FOCUS,
    INTERIOR,
    ON_BRANCH_CUT,
    ON_FACET,
    ON_POLYGON_VERTEX,
    OUTSIDE,
    BaseDiagram,
    FocusFocus,
)
from tropdisk.fixtures import FIXTURE_NAMES, builtin_fixture
from tropdisk.geometry import (
    Ray,
    Vec,
    primitive,
    primitive_and_length,
    ray_segment_intersect,
)


@pytest.fixture
def hexagon():
    return builtin_fixture("dp6").diagram


def test_hexagon_fixture_valid(hexagon):
    assert hexagon.validate() == []


def test_nonprimitive_shear_direction_flagged(hexagon):
    bad = BaseDiagram(
        "bad", list(hexagon.polygon),
        [FocusFocus(Vec(0, 0), pi=Vec(2, 0), sigma=Vec(0, 1))],
    )
    assert any(v.startswith("shear_direction_not_primitive") for v in bad.validate())


def test_zero_shear_direction_flagged(hexagon):
    bad = BaseDiagram(
        "bad", list(hexagon.polygon),
        [FocusFocus(Vec(0, 0), pi=Vec(0, 0), sigma=Vec(0, 1))],
    )
    problems = bad.validate()
    assert "shear_direction_zero:0" in problems
    assert not any(v.startswith("shear_direction_not_integral") for v in problems)


def test_focus_on_facet_flagged(hexagon):
    bad = BaseDiagram(
        "bad", list(hexagon.polygon),
        [FocusFocus(Vec(F(1, 2), F(1, 2)), pi=Vec(1, 0), sigma=Vec(0, 1))],
    )
    assert any(v.startswith("focus_not_interior") for v in bad.validate())


def test_zero_cut_sign_flagged(hexagon):
    # a zero sign gives a zero cut direction: flagged, with no cut traced
    bad = BaseDiagram(
        "bad", list(hexagon.polygon),
        [FocusFocus(Vec(0, 0), pi=Vec(1, 0), sigma=Vec(0, 1), cut_sign=0)],
    )
    assert bad.validate() == ["branch_cut_sign_invalid:0"]


def test_classify_point_examples(hexagon):
    assert hexagon.classify_point(Vec(0, 0)).kind == INTERIOR
    assert hexagon.classify_point(Vec(1, -1)).kind == ON_POLYGON_VERTEX
    onfacet = hexagon.classify_point(Vec(F(1, 2), F(1, 2)))
    assert onfacet.kind == ON_FACET
    facet = hexagon.facets()[onfacet.index]
    assert facet.endpoints == (Vec(1, 0), Vec(0, 1))
    assert hexagon.classify_point(Vec(5, 5)).kind == OUTSIDE


def test_classify_point_focus_and_cut():
    diagram = builtin_fixture("dp5").diagram
    ff = diagram.focus_foci[0]
    assert diagram.classify_point(ff.position).kind == AT_FOCUS_FOCUS
    on_cut = ff.position + ff.cut_direction() * F(1, 8)
    assert diagram.classify_point(on_cut).kind == ON_BRANCH_CUT


def test_builtin_fixture_unknown_name():
    from tropdisk.geometry import GeometryError

    with pytest.raises(GeometryError):
        builtin_fixture("dp99")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_all_fixture_diagrams_valid(name):
    fx = builtin_fixture(name)
    diagrams = [fx.diagram] + list(fx.diagram_variants.values())
    for diagram in diagrams:
        assert diagram.validate() == []
        # facet normals primitive, consecutive facets share a vertex
        facets = diagram.facets()
        for i, facet in enumerate(facets):
            prim, length = primitive_and_length(facet.inward_normal)
            assert length == 1
            nxt = facets[(i + 1) % len(facets)]
            assert facet.endpoints[1] == nxt.endpoints[0]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_branch_cuts_pairwise_disjoint(name):
    fx = builtin_fixture(name)
    for diagram in [fx.diagram] + list(fx.diagram_variants.values()):
        cuts = diagram.branch_cuts()
        assert len(cuts) == len(diagram.focus_foci)
        for i in range(len(cuts)):
            for j in range(i + 1, len(cuts)):
                a, b = cuts[i]
                c, d = cuts[j]
                seg1 = (a, b)
                seg2 = (c, d)
                inter = _segment_intersection(seg1, seg2)
                if inter is not None:
                    # only boundary contact is tolerated
                    assert not diagram.contains(inter, strict=True)


FIXTURE_DIAGRAMS = [
    diagram
    for fx in map(builtin_fixture, FIXTURE_NAMES)
    for diagram in [fx.diagram, *fx.diagram_variants.values()]
]


def reference_contains(diagram, p, strict):
    """BaseDiagram.contains in Fractions, kept as the reference."""
    for facet in diagram.facets():
        v = facet.inward_normal.dot(p) - facet.line_value()
        if v < 0 or (strict and v == 0):
            return False
    return True


def reference_cut_exit(diagram, ff):
    """First hit of the cut ray over the facets, by the Fraction front end."""
    ray = Ray(ff.position, ff.cut_direction())
    hits = [ray_segment_intersect(ray, *facet.endpoints) for facet in diagram.facets()]
    return min((hit for hit in hits if hit is not None), key=lambda hit: hit[0])[1]


offsets = st.just(0) | st.fractions(-2, 2, max_denominator=12)


def _shifted(data, diagram):
    """The polygon moved by a drawn rational shift, so its rows need a scale."""
    shift = Vec(data.draw(offsets), data.draw(offsets))
    return BaseDiagram("shifted", [v + shift for v in diagram.polygon])


def _interior_point(data, polygon):
    # all weights positive: strictly inside the convex polygon
    weights = data.draw(st.lists(st.integers(1, 8), min_size=len(polygon),
                                 max_size=len(polygon)))
    return sum((v * w for v, w in zip(polygon, weights)), Vec(0, 0)) / sum(weights)


@given(st.data())
def test_contains_agrees_with_fraction_reference(data):
    diagram = _shifted(data, data.draw(st.sampled_from(FIXTURE_DIAGRAMS)))
    facet = data.draw(st.sampled_from(diagram.facets()))
    a, b = facet.endpoints
    where = data.draw(st.sampled_from(["corner", "facet", "interior"]))
    if where == "corner":
        base = a
    elif where == "facet":
        base = a + (b - a) * data.draw(st.fractions(0, 1, max_denominator=12))
    else:
        base = _interior_point(data, diagram.polygon)
    # pushed off the base point along the facet normal: in, on or out
    p = base + facet.inward_normal * data.draw(offsets)
    for strict in (False, True):
        assert diagram.contains(p, strict) == reference_contains(diagram, p, strict)


@given(st.data())
def test_cut_exits_agree_with_fraction_reference(data):
    diagram = data.draw(st.sampled_from(FIXTURE_DIAGRAMS))
    for ff, (start, end) in zip(diagram.focus_foci, diagram.branch_cuts()):
        assert start == ff.position and end == reference_cut_exit(diagram, ff)
    # a fresh focus anywhere inside, its cut aimed anywhere or at a corner
    diagram = _shifted(data, diagram)
    position = _interior_point(data, diagram.polygon)
    corner = data.draw(st.none() | st.sampled_from(diagram.polygon))
    if corner is None:
        pi = primitive(Vec(*data.draw(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any))))
    else:
        pi = primitive(corner - position)
    ff = FocusFocus(position, pi=pi, sigma=Vec(pi.y, -pi.x),
                    cut_sign=data.draw(st.sampled_from([1, -1])))
    diagram.focus_foci.append(ff)
    assert diagram.branch_cuts() == [(position, reference_cut_exit(diagram, ff))]


def _segment_intersection(s1, s2):
    from tropdisk.geometry import lines_intersect, segment_parameter

    a, b = s1
    c, d = s2
    hit = lines_intersect(a, b - a, c, d - c)
    if hit is None:
        return None
    t = segment_parameter(hit, a, b)
    s = segment_parameter(hit, c, d)
    if t is None or s is None:
        return None
    if 0 <= t <= 1 and 0 <= s <= 1:
        return hit
    return None


def test_cross_branch_cut_round_trip():
    diagram = builtin_fixture("dp5").diagram
    v = Vec(3, -2)
    once = diagram.cross_branch_cut(0, v, 1)
    assert diagram.cross_branch_cut(0, once, -1) == v


def test_cross_branch_cut_fixes_shear_direction():
    diagram = builtin_fixture("dp5").diagram
    pi = diagram.focus_foci[0].pi
    assert diagram.cross_branch_cut(0, pi, 1) == pi


def test_cross_branch_cut_worked_example():
    diagram = BaseDiagram(
        "shear", [Vec(2, -2), Vec(2, 2), Vec(-2, 2), Vec(-2, -2)],
        [FocusFocus(Vec(0, 0), pi=Vec(0, 1), sigma=Vec(1, 0), cut_sign=1)],
    )
    assert diagram.validate() == []
    assert diagram.cross_branch_cut(0, Vec(1, 1), 1) == Vec(1, 2)


@given(st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=1000)
def test_cross_branch_cut_round_trip_property(x, y):
    diagram = builtin_fixture("dp4").diagram
    v = Vec(x, y)
    for j in range(len(diagram.focus_foci)):
        for side in (1, -1):
            assert diagram.cross_branch_cut(
                j, diagram.cross_branch_cut(j, v, side), -side
            ) == v


def test_serialization_round_trip(tmp_path):
    diagram = builtin_fixture("dp4").diagram
    path = tmp_path / "dp4.diagram.json"
    diagram.save(path)
    loaded = BaseDiagram.load(path)
    assert loaded.polygon == diagram.polygon
    assert loaded.focus_foci == diagram.focus_foci
    # rationals stored as exact integer pairs (num, den, num, den), no decimals
    raw = json.loads(path.read_text())
    for vertex in raw["polygon"]:
        assert len(vertex) == 4 and all(isinstance(c, int) for c in vertex)
    for ff in raw["focus_foci"]:
        for pair in ff["position"]:
            assert len(pair) == 2 and all(isinstance(c, int) for c in pair)


def test_load_rejects_invalid(tmp_path):
    from tropdisk.geometry import GeometryError

    path = tmp_path / "bad.diagram.json"
    path.write_text(json.dumps({
        "name": "bad",
        "polygon": [[0, 1, 0, 1], [1, 1, 0, 1], [0, 1, 1, 1]],
        "focus_foci": [{
            "position": [[0, 1], [0, 1]],
            "shear_direction": [2, 0],
            "shear_covector": [0, 1],
            "branch_cut_sign": 1,
        }],
    }))
    with pytest.raises(GeometryError):
        BaseDiagram.load(path)


def test_focus_weight_from_covector():
    ff = FocusFocus(Vec(0, 0), pi=Vec(1, -1), sigma=Vec(15, 15))
    assert ff.weight() == 15
    ff1 = FocusFocus(Vec(0, 0), pi=Vec(0, 1), sigma=Vec(1, 0))
    assert ff1.weight() == 1
