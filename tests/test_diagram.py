import copy
import json
from fractions import Fraction as F
from functools import partial
from typing import NamedTuple, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_geometry import reference_point_on_segment, reference_primitive, reference_ray_segment
from tropdisk.diagram import (
    AT_FOCUS_FOCUS,
    INTERIOR,
    ON_BRANCH_CUT,
    ON_FACET,
    ON_POLYGON_VERTEX,
    OUTSIDE,
    BaseDiagram,
    FocusFocus,
    PointClass,
)
from tropdisk.fixtures import FIXTURE_NAMES, builtin_fixture
from tropdisk.geometry import (
    GeometryError,
    Vec,
    det2,
    from_homogeneous,
    homogeneous,
    primitive,
    primitive_and_length,
    ray_segment_hit,
    shear_apply,
)
from tropdisk.lagrangian import LagGraph, LagVertex


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


def test_repeated_vertex_flagged():
    # the zero edge has no facet normal: named, and no focus check reads it
    bad = BaseDiagram(
        "bad", [Vec(0, 0), Vec(0, 0), Vec(2, 0), Vec(0, 2)],
        [FocusFocus(Vec(F(1, 2), F(1, 2)), pi=Vec(1, 0), sigma=Vec(0, 1))],
    )
    problems = bad.validate()
    assert "polygon_repeats_vertex:1" in problems
    assert not any(v.startswith(("focus_not_interior", "branch_cut")) for v in problems)
    with pytest.raises(GeometryError, match="zero vector has no primitive direction"):
        bad.normals()


def test_classify_point_examples(hexagon):
    assert hexagon.classify_point((0, 0, 1)).kind == INTERIOR
    assert hexagon.classify_point((1, -1, 1)).kind == ON_POLYGON_VERTEX
    onfacet = hexagon.classify_point((1, 1, 2))
    assert onfacet.kind == ON_FACET
    facet = reference_facets(hexagon)[onfacet.index]
    assert facet.endpoints == (Vec(1, 0), Vec(0, 1))
    assert hexagon.classify_point((5, 5, 1)).kind == OUTSIDE


def test_classify_point_focus_and_cut():
    diagram = builtin_fixture("dp5").diagram
    ff = diagram.focus_foci[0]
    assert diagram.classify_point(homogeneous(ff.position)).kind == AT_FOCUS_FOCUS
    on_cut = ff.position + ff.cut_direction() * F(1, 8)
    assert diagram.classify_point(homogeneous(on_cut)).kind == ON_BRANCH_CUT


def test_builtin_fixture_unknown_name():
    with pytest.raises(GeometryError):
        builtin_fixture("dp99")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_all_fixture_diagrams_valid(name):
    fx = builtin_fixture(name)
    diagrams = [fx.diagram] + list(fx.diagram_variants.values())
    for diagram in diagrams:
        assert diagram.validate() == []
        # facet normals primitive, consecutive facets share a vertex
        facets = reference_facets(diagram)
        for i, facet in enumerate(facets):
            prim, length = primitive_and_length(Vec(*diagram.normals()[i]))
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
                    assert not diagram.contains(homogeneous(inter), strict=True)


FIXTURE_DIAGRAMS = [
    diagram
    for fx in map(builtin_fixture, FIXTURE_NAMES)
    for diagram in [fx.diagram, *fx.diagram_variants.values()]
]


def test_inputs_of_the_cached_tables_are_tuples():
    # the tables are built once from the polygon, the foci and the
    # Lagrangian's vertices and edges, so none of them can be edited in place
    lags = [lag for fx in map(builtin_fixture, FIXTURE_NAMES) for lag in fx.lagrangians.values()]
    held = ([d.polygon for d in FIXTURE_DIAGRAMS] + [d.focus_foci for d in FIXTURE_DIAGRAMS]
            + [lag.vertices for lag in lags] + [lag.edges for lag in lags])
    for items in held:
        assert type(items) is tuple
        with pytest.raises(AttributeError):
            items.append(items[0] if items else None)


class ReferenceFacet(NamedTuple):
    """A facet in Fractions, as `BaseDiagram` once held it: its two corners
    and its primitive inward normal from `reference_normals`."""

    endpoints: Tuple[Vec, Vec]
    inward_normal: Vec

    def line_value(self):
        """c with the facet on <normal, x> = c and the interior on > c."""
        return self.inward_normal.dot(self.endpoints[0])


def reference_facets(diagram):
    polygon, n = diagram.polygon, len(diagram.polygon)
    return [ReferenceFacet((polygon[i], polygon[(i + 1) % n]), Vec(*normal))
            for i, normal in enumerate(reference_normals(diagram))]


def reference_contains(diagram, p, strict):
    """BaseDiagram.contains in Fractions, kept as the reference."""
    for facet in reference_facets(diagram):
        v = facet.inward_normal.dot(p) - facet.line_value()
        if v < 0 or (strict and v == 0):
            return False
    return True


def reference_cut_exit(diagram, ff):
    """First hit of the cut ray over the facets, by the Fraction reference."""
    hits = [reference_ray_segment(ff.position, ff.cut_direction(), *facet.endpoints)
            for facet in reference_facets(diagram)]
    return min((hit for hit in hits if hit is not None), key=lambda hit: hit[0])[1]


NODED_DIAGRAMS = [diagram for diagram in FIXTURE_DIAGRAMS if diagram.focus_foci]

offsets = st.just(0) | st.fractions(-2, 2, max_denominator=12)


def _shifted(data, diagram):
    """The polygon moved by a drawn rational shift, so its rows need a scale."""
    shift = Vec(data.draw(offsets), data.draw(offsets))
    return BaseDiagram("shifted", [v + shift for v in diagram.polygon])


def _moved(diagram, shift):
    """A fresh copy of the diagram moved by `shift`, foci and all."""
    return BaseDiagram(diagram.name, [v + shift for v in diagram.polygon], [
        FocusFocus(ff.position + shift, ff.pi, ff.sigma, ff.cut_sign)
        for ff in diagram.focus_foci
    ])


def _interior_point(data, polygon):
    # all weights positive: strictly inside the convex polygon
    weights = data.draw(st.lists(st.integers(1, 8), min_size=len(polygon),
                                 max_size=len(polygon)))
    return sum((v * w for v, w in zip(polygon, weights)), Vec(0, 0)) / sum(weights)


@given(st.data())
def test_contains_agrees_with_fraction_reference(data):
    diagram = _shifted(data, data.draw(st.sampled_from(FIXTURE_DIAGRAMS)))
    facet = data.draw(st.sampled_from(reference_facets(diagram)))
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
        assert diagram.contains(homogeneous(p), strict) == reference_contains(diagram, p, strict)


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
    diagram = BaseDiagram(diagram.name, diagram.polygon, [ff])
    assert diagram.branch_cuts() == [(position, reference_cut_exit(diagram, ff))]


def test_validate_builds_no_vec(monkeypatch):
    # building and validating a fresh copy of every fixture diagram traces
    # its cuts on triples; the Vec cuts are built on the first read of
    # branch_cuts()
    built = []
    init = Vec.__init__

    def counted(self, x, y):
        built.append((x, y))
        init(self, x, y)

    for diagram in FIXTURE_DIAGRAMS:
        monkeypatch.setattr(Vec, "__init__", counted)
        fresh = BaseDiagram(diagram.name, diagram.polygon, diagram.focus_foci)
        problems = fresh.validate()
        fresh.cut_rows()
        monkeypatch.undo()
        assert problems == [] and built == [], diagram.name
        assert fresh.branch_cuts() == [(ff.position, reference_cut_exit(fresh, ff))
                                       for ff in fresh.focus_foci]


def reference_boundary_hit(diagram, origin, d):
    """The former body of BaseDiagram.boundary_hit, kept as the reference:
    `ray_segment_hit` on every facet row, keeping the least parameter and
    every facet hit there.  An origin outside the polygon, found by the
    Fraction `reference_contains`, gives None, as the integer pass documents."""
    if not reference_contains(diagram, from_homogeneous(origin), False):
        return None
    rows, scale = diagram.facet_rows()
    best, facets = None, []
    for i, row in enumerate(rows):
        hit = ray_segment_hit(origin, d, row, scale)
        if hit is None:
            continue
        if best is None or hit[0] * best[1] < best[0] * hit[1]:
            best, facets = hit, [i]
        elif hit[0] * best[1] == best[0] * hit[1]:
            facets.append(i)
    if best is None:
        return None
    return best[0], best[1], facets


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_boundary_hit_agrees_with_per_row_reference(data):
    # origins inside, on a facet, at a corner or just outside, and directions
    # drawn evenly, along the facet or aimed at a corner, so that rays leave
    # from the boundary, run along a facet and exit through corners
    diagram = _shifted(data, data.draw(st.sampled_from(FIXTURE_DIAGRAMS)))
    facet = data.draw(st.sampled_from(reference_facets(diagram)))
    a, b = facet.endpoints
    where = data.draw(st.sampled_from(["corner", "facet", "interior", "outside"]))
    if where == "corner":
        p = a
    elif where == "facet":
        p = a + (b - a) * data.draw(st.fractions(0, 1, max_denominator=12))
    elif where == "outside":
        p = a + (b - a) * data.draw(st.fractions(0, 1, max_denominator=12)) - \
            facet.inward_normal * data.draw(st.fractions(F(1, 12), 2, max_denominator=12))
    else:
        p = _interior_point(data, diagram.polygon)
    aims = [q - p for q in diagram.polygon if q != p] + [b - a, a - b]
    d = data.draw(st.sampled_from(aims).map(lambda v: primitive(v).as_int_pair())
                  | st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any))
    origin = homogeneous(p)
    hit, expected = diagram.boundary_hit(origin, d), reference_boundary_hit(diagram, origin, d)
    if expected is None:
        assert hit is None
    else:
        assert hit is not None and hit[2] == expected[2]
        assert F(hit[0], hit[1]) == F(expected[0], expected[1])
    normals = [reference_facets(diagram)[i].inward_normal for i in diagram.facets_through(origin)]
    if any(n.dot(Vec(*d)) < 0 for n in normals):
        assert hit is None  # leaves the polygon at once from a facet or a corner


def _segment_intersection(s1, s2):
    """The meeting point of two closed segments in Fractions, or None when
    they are parallel or miss each other."""
    a, b = s1
    c, d = s2
    denom = det2(b - a, d - c)
    if denom == 0:
        return None
    t = det2(c - a, d - c) / denom
    s = det2(c - a, b - a) / denom
    if 0 <= t <= 1 and 0 <= s <= 1:
        return a + (b - a) * t
    return None


def test_cross_branch_cut_round_trip():
    # dp5's cut runs up from its focus; pi = (0, 1), sigma = (1, 0).
    # det((0, 1), (3, -2)) = -3 < 0: side -1, so (3, -2) - 3 (0, 1)
    diagram = builtin_fixture("dp5").diagram
    once = diagram.cross_cut(0, (3, -2))
    assert once == (3, -5)
    # back along -(3, -5): det((0, 1), (-3, 5)) = 3 > 0, side +1
    assert diagram.cross_cut(0, (-3, 5)) == (-3, 2)


def test_cross_branch_cut_fixes_shear_direction():
    diagram = builtin_fixture("dp5").diagram
    pi = diagram.focus_foci[0].pi.as_int_pair()
    assert diagram.cross_cut(0, pi) == pi
    assert diagram.cross_cut(0, (-pi[0], -pi[1])) == (-pi[0], -pi[1])


def test_cross_branch_cut_worked_example():
    # pi = (0, 1), sigma = (1, 0): d -> d + side d.x (0, 1)
    up, down = (BaseDiagram(
        "shear", [Vec(2, -2), Vec(2, 2), Vec(-2, 2), Vec(-2, -2)],
        [FocusFocus(Vec(0, 0), pi=Vec(0, 1), sigma=Vec(1, 0), cut_sign=sign)],
    ) for sign in (1, -1))
    assert up.validate() == [] and down.validate() == []
    # the cut runs along (0, 1): det((0, 1), (1, 1)) = -1, side -1
    assert up.cross_cut(0, (1, 1)) == (1, 0)
    # det((0, 1), (-1, -1)) = 1, side +1
    assert up.cross_cut(0, (-1, -1)) == (-1, -2)
    # the cut runs along (0, -1): det((0, -1), (1, 1)) = 1, side +1
    assert down.cross_cut(0, (1, 1)) == (1, 2)


@given(st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=1000)
def test_cross_branch_cut_round_trip_property(x, y):
    # every cut of every fixture diagram against the Fraction shear, with
    # the side taken from d, and crossing back undoes the crossing
    d = (x, y)
    for diagram in NODED_DIAGRAMS:
        for j, ff in enumerate(diagram.focus_foci):
            side = 1 if det2(ff.cut_direction(), Vec(x, y)) > 0 else -1
            crossed = diagram.cross_cut(j, d)
            assert Vec(*crossed) == shear_apply(ff.sigma * side, ff.pi, Vec(x, y))
            assert diagram.cross_cut(j, (-crossed[0], -crossed[1])) == (-x, -y)


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


# -- integer point location against the Fraction reference ------------------------


def reference_facets_through(diagram, p):
    return [i for i, facet in enumerate(reference_facets(diagram))
            if reference_point_on_segment(p, *facet.endpoints)]


def reference_cut_through(diagram, p):
    cuts = enumerate(diagram.branch_cuts())
    return next((j for j, (a, b) in cuts if reference_point_on_segment(p, a, b)), None)


def reference_classify_point(diagram, p):
    """The former body of BaseDiagram.classify_point, on Fraction incidence."""
    for j, ff in enumerate(diagram.focus_foci):
        if p == ff.position:
            return PointClass(AT_FOCUS_FOCUS, j)
    for i, v in enumerate(diagram.polygon):
        if p == v:
            return PointClass(ON_POLYGON_VERTEX, i)
    if not reference_contains(diagram, p, False):
        return PointClass(OUTSIDE)
    facets = reference_facets_through(diagram, p)
    if facets:
        return PointClass(ON_FACET, facets[0])
    j = reference_cut_through(diagram, p)
    if j is not None:
        return PointClass(ON_BRANCH_CUT, j)
    return PointClass(INTERIOR)


def reference_edge_through(lag, p):
    """The first Lagrangian edge whose open segment holds p, in Fractions."""
    for i, e in enumerate(lag.edges):
        a, b = (lag.position(v) for v in e.endpoints)
        if reference_point_on_segment(p, a, b, closed=False):
            return i
    return None


LOCATED_CASES = [(name, case) for name in FIXTURE_NAMES for case in builtin_fixture(name).cases]

# rationals built from integers: cheaper to draw than st.fractions
small_rationals = st.builds(F, st.integers(-24, 24), st.integers(1, 12))
unit_rationals = st.integers(0, 12).map(lambda k: F(k, 12)) | st.just(F(1, 3))


def _located_case(data):
    """A fixture case's diagram and Lagrangian moved by a drawn rational."""
    name, case = data.draw(st.sampled_from(LOCATED_CASES))
    fx = builtin_fixture(name)
    shift = Vec(data.draw(st.just(F(0)) | small_rationals),
                data.draw(st.just(F(0)) | small_rationals))
    moved = _moved(fx.diagram_for(case), shift)
    lag = fx.lagrangian_for(case)
    if lag is not None:
        lag = LagGraph([LagVertex(v.id, v.position + shift, v.anchor, v.anchor_index)
                        for v in lag.vertices], list(lag.edges))
    return moved, lag


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_point_location_agrees_with_fraction_reference(data):
    diagram, lag = _located_case(data)
    where = ["corner", "facet", "interior", "outside"]
    if diagram.focus_foci:
        where += ["focus", "cut"]
    if lag is not None:
        where += ["lagrangian"]
    where = data.draw(st.sampled_from(where))
    facet = data.draw(st.sampled_from(reference_facets(diagram)))
    a, b = facet.endpoints
    if where == "corner":
        p = a
    elif where == "facet":
        p = a + (b - a) * data.draw(unit_rationals)
    elif where == "outside":
        p = a + (b - a) * data.draw(unit_rationals) - facet.inward_normal * data.draw(
            small_rationals.filter(lambda x: x > 0))
    elif where == "focus":
        p = data.draw(st.sampled_from(diagram.focus_foci)).position
    elif where == "cut":
        start, end = data.draw(st.sampled_from(diagram.branch_cuts()))
        p = start + (end - start) * data.draw(unit_rationals)
    elif where == "lagrangian":
        # on an edge, at its ends or beyond them on its line
        edge = data.draw(st.sampled_from(lag.edges))
        a, b = (lag.position(v) for v in edge.endpoints)
        p = a + (b - a) * (data.draw(unit_rationals) * 2 - F(1, 2))
    else:
        p = _interior_point(data, diagram.polygon)
    point = homogeneous(p)
    assert diagram.facets_through(point) == reference_facets_through(diagram, p)
    assert diagram.cut_through(point) == reference_cut_through(diagram, p)
    assert diagram.classify_point(point) == reference_classify_point(diagram, p)
    if lag is not None:
        assert lag.edge_through(point) == reference_edge_through(lag, p)
    for q in [*diagram.polygon, *(ff.position for ff in diagram.focus_foci)]:
        if p != q:
            assert primitive(p - q) == reference_primitive(p - q)


# -- validation on integers against the Fraction reference ---------------------------


def reference_facet_line_exit(diagram, ff):
    """Where the cut of ff first crosses a facet line outward, in Fractions:
    the exit that `boundary_hit` defines (t = slack / -n.d over the facets
    with n.d < 0), or None."""
    d = primitive(ff.cut_direction())
    ts = [(facet.inward_normal.dot(ff.position) - facet.line_value()) / -facet.inward_normal.dot(d)
          for facet in reference_facets(diagram) if facet.inward_normal.dot(d) < 0]
    return ff.position + d * min(ts) if ts else None


def reference_validate(diagram):
    """The former body of BaseDiagram.validate, on Fraction and Vec arithmetic,
    kept as the reference; the cut exit and the point tests are the Fraction
    references above."""
    violations = []
    n = len(diagram.polygon)
    if n < 3:
        violations.append("polygon_too_small")
        return violations
    area2 = sum(
        det2(diagram.polygon[i], diagram.polygon[(i + 1) % n]) for i in range(n)
    )
    if area2 <= 0:
        violations.append("polygon_not_counterclockwise")
    for i in range(n):
        a = diagram.polygon[i]
        b = diagram.polygon[(i + 1) % n]
        c = diagram.polygon[(i + 2) % n]
        if det2(b - a, c - b) <= 0:
            violations.append(f"polygon_not_convex_at:{i}")
    # a repeated vertex leaves a facet without a normal: skip the focus
    # checks that read the facets
    repeats = [i for i in range(n) if diagram.polygon[i] in diagram.polygon[:i]]
    violations += [f"polygon_repeats_vertex:{i}" for i in repeats]
    positions = []
    for j, ff in enumerate(diagram.focus_foci):
        prim_ok = True
        if not ff.pi:
            violations.append(f"shear_direction_zero:{j}")
            prim_ok = False
        elif not ff.pi.is_integral():
            violations.append(f"shear_direction_not_integral:{j}")
            prim_ok = False
        else:
            _, length = primitive_and_length(ff.pi)
            if length != 1:
                violations.append(f"shear_direction_not_primitive:{j}")
        if not ff.sigma.is_integral():
            violations.append(f"shear_covector_not_integral:{j}")
        if not ff.sigma:
            violations.append(f"shear_covector_zero:{j}")
        if ff.sigma.dot(ff.pi) != 0:
            violations.append(f"shear_not_unipotent:{j}")
        if ff.cut_sign not in (1, -1):
            violations.append(f"branch_cut_sign_invalid:{j}")
            prim_ok = False
        if repeats:
            prim_ok = False
        elif not reference_contains(diagram, ff.position, True):
            violations.append(f"focus_not_interior:{j}")
            prim_ok = False
        if ff.position in positions:
            violations.append(f"focus_positions_not_distinct:{j}")
        positions.append(ff.position)
        if prim_ok:
            hit = reference_facet_line_exit(diagram, ff)
            if hit is None:
                violations.append(f"branch_cut_misses_boundary:{j}")
            else:
                for k, other in enumerate(diagram.focus_foci):
                    if k != j and reference_point_on_segment(other.position, ff.position, hit):
                        violations.append(f"branch_cut_crosses_focus:{j}:{k}")
    return violations


def _with_focus(diagram, j, **changes):
    foci = list(diagram.focus_foci)
    ff = foci[j]
    foci[j] = FocusFocus(changes.get("position", ff.position), changes.get("pi", ff.pi),
                         changes.get("sigma", ff.sigma), changes.get("cut_sign", ff.cut_sign))
    return BaseDiagram(diagram.name, list(diagram.polygon), foci)


def _reflex(data, polygon, i):
    """Corner i moved onto the chord of its neighbours or past it, inward."""
    n = len(polygon)
    mid = (polygon[i - 1] + polygon[(i + 1) % n]) / 2
    centre = sum(polygon, Vec(0, 0)) / n
    return mid + (centre - mid) * data.draw(st.fractions(0, F(9, 10), max_denominator=10))


# Each mutation breaks one rule (and may break others as a consequence) and
# names the code that must appear.  No mutation reaches
# branch_cut_misses_boundary: a cut is traced only from a focus strictly inside
# every facet half-plane, and the normals of a closed polygon with no repeated
# corner sum to zero with positive weights, so some normal always runs against
# the cut's direction and `boundary_hit` finds a facet line.
POLYGON_MUTATIONS = ["clockwise", "too_small", "not_convex", "repeated_corner"]
FOCUS_MUTATIONS = ["pi_zero", "pi_not_integral", "pi_not_primitive", "sigma_zero",
                   "sigma_not_integral", "not_unipotent", "cut_sign", "focus_on_facet",
                   "focus_outside", "foci_coincide", "cut_through_focus"]


def _mutate(data, diagram, kind):
    """(mutated copy, code prefix) for one mutation kind."""
    polygon, n = diagram.polygon, len(diagram.polygon)
    if kind == "clockwise":
        return BaseDiagram(diagram.name, polygon[::-1], list(diagram.focus_foci)), \
            "polygon_not_counterclockwise"
    if kind == "too_small":
        return BaseDiagram(diagram.name, polygon[:data.draw(st.integers(0, 2))],
                           list(diagram.focus_foci)), "polygon_too_small"
    i = data.draw(st.integers(0, n - 1))
    if kind == "not_convex":
        corners = list(polygon)
        corners[i] = _reflex(data, polygon, i)
        return BaseDiagram(diagram.name, corners, list(diagram.focus_foci)), \
            f"polygon_not_convex_at:{(i - 1) % n}"
    if kind == "repeated_corner":
        corners = list(polygon)
        corners.insert(i + 1, polygon[data.draw(st.integers(0, n - 1))])
        return BaseDiagram(diagram.name, corners, list(diagram.focus_foci)), \
            "polygon_repeats_vertex:"
    j = data.draw(st.integers(0, len(diagram.focus_foci) - 1))
    ff = diagram.focus_foci[j]
    perp = Vec(-ff.pi.y, ff.pi.x)
    if kind == "pi_zero":
        return _with_focus(diagram, j, pi=Vec(0, 0)), f"shear_direction_zero:{j}"
    if kind == "pi_not_integral":
        return _with_focus(diagram, j, pi=ff.pi / 2), f"shear_direction_not_integral:{j}"
    if kind == "pi_not_primitive":
        return _with_focus(diagram, j, pi=ff.pi * data.draw(st.integers(2, 3))), \
            f"shear_direction_not_primitive:{j}"
    if kind == "sigma_zero":
        return _with_focus(diagram, j, sigma=Vec(0, 0)), f"shear_covector_zero:{j}"
    if kind == "sigma_not_integral":
        return _with_focus(diagram, j, sigma=perp * F(1, data.draw(st.integers(2, 3)))), \
            f"shear_covector_not_integral:{j}"
    if kind == "not_unipotent":
        return _with_focus(diagram, j, sigma=ff.sigma + ff.pi * data.draw(
            st.sampled_from([1, -1, F(1, 2)]))), f"shear_not_unipotent:{j}"
    if kind == "cut_sign":
        return _with_focus(diagram, j, cut_sign=data.draw(st.sampled_from([0, 2, -2]))), \
            f"branch_cut_sign_invalid:{j}"
    a, b = polygon[i], polygon[(i + 1) % n]
    on_facet = a + (b - a) * data.draw(st.fractions(0, 1, max_denominator=12))
    if kind == "focus_on_facet":
        return _with_focus(diagram, j, position=on_facet), f"focus_not_interior:{j}"
    if kind == "focus_outside":
        out = reference_facets(diagram)[i].inward_normal * data.draw(
            st.fractions(F(1, 12), 2, max_denominator=12))
        return _with_focus(diagram, j, position=on_facet - out), f"focus_not_interior:{j}"
    # a new focus with its cut along an axis: at focus j, or on j's cut
    start, end = diagram.branch_cuts()[j]
    k = len(diagram.focus_foci)
    if kind == "foci_coincide":
        position, code = start, f"focus_positions_not_distinct:{k}"
    else:
        position = start + (end - start) * data.draw(st.fractions(F(1, 16), F(15, 16),
                                                                  max_denominator=16))
        code = f"branch_cut_crosses_focus:{j}:{k}"
    # its shear data valid or not, so that its codes come before this one
    axis = data.draw(st.sampled_from([Vec(1, 0), Vec(0, 1)]))
    pi = axis * data.draw(st.sampled_from([1, 1, 2, 0, F(1, 2)]))
    sigma = Vec(-axis.y, axis.x) * data.draw(st.sampled_from([1, 1, 0, F(1, 3)])) + \
        axis * data.draw(st.sampled_from([0, 0, 1]))
    extra = FocusFocus(position, pi, sigma, cut_sign=data.draw(st.sampled_from([1, -1, 0])))
    return BaseDiagram(diagram.name, list(polygon), [*diagram.focus_foci, extra]), code


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_agrees_with_fraction_reference(data):
    kind = data.draw(st.sampled_from(POLYGON_MUTATIONS + FOCUS_MUTATIONS))
    diagrams = FIXTURE_DIAGRAMS if kind in POLYGON_MUTATIONS else NODED_DIAGRAMS
    diagram = _moved(data.draw(st.sampled_from(diagrams)),
                     Vec(data.draw(offsets), data.draw(offsets)))
    assert diagram.validate() == reference_validate(diagram) == []
    bad, code = _mutate(data, diagram, kind)
    problems = bad.validate()
    assert problems == reference_validate(bad)
    assert any(p.startswith(code) for p in problems), (code, problems)
    # the cuts construction kept, if any, are those a fresh copy traces
    fresh = BaseDiagram(bad.name, list(bad.polygon), list(bad.focus_foci))
    assert _cuts_or_none(bad) == _cuts_or_none(fresh)


def reference_normals(diagram):
    """The facets' inward normals in Fractions: each edge rotated left, made primitive."""
    polygon, n = diagram.polygon, len(diagram.polygon)
    edges = [polygon[(i + 1) % n] - polygon[i] for i in range(n)]
    return [reference_primitive(Vec(-e.y, e.x)).as_int_pair() for e in edges]


@pytest.mark.parametrize("diagram", FIXTURE_DIAGRAMS)
def test_normals_match_the_facets(diagram):
    assert diagram.normals() == reference_normals(diagram) == [
        facet.inward_normal.as_int_pair() for facet in reference_facets(diagram)]


@given(st.data())
def test_normals_agree_with_fraction_reference(data):
    diagram = _moved(data.draw(st.sampled_from(FIXTURE_DIAGRAMS)),
                     Vec(data.draw(offsets), data.draw(offsets)))
    kind = data.draw(st.sampled_from(["moved", "clockwise", "not_convex", "repeated_corner"]))
    if kind != "moved":
        diagram, _ = _mutate(data, diagram, kind)
    if kind == "repeated_corner":
        assert any(p.startswith("polygon_repeats_vertex:") for p in diagram.validate())
    polygon = diagram.polygon
    if any(a == b for a, b in zip(polygon, polygon[1:] + polygon[:1])):
        # a zero edge has no normal, as `primitive` says
        with pytest.raises(GeometryError, match="zero vector has no primitive direction"):
            diagram.normals()
    else:
        assert diagram.normals() == reference_normals(diagram) == [
            facet.inward_normal.as_int_pair() for facet in reference_facets(diagram)]


# a pentagon whose first two facets lie on one line: both have the normal (0, 1)
COLLINEAR = BaseDiagram("collinear", [Vec(0, 0), Vec(1, 0), Vec(2, 0), Vec(2, 2), Vec(0, 2)])


@pytest.mark.parametrize("diagram", FIXTURE_DIAGRAMS + [COLLINEAR])
def test_collision_facet_agrees_with_a_linear_scan(diagram):
    # d over +- every normal and pairs that are no normal; facets as a range,
    # in order, reversed and as a subset
    normals = reference_normals(diagram)
    n = len(normals)
    pairs = {p for nx, ny in normals for p in ((nx, ny), (-nx, -ny))}
    others = {(0, 0), (2, 0), (1, 2), (-3, 1), (2, -2), (1, -1)} - set(normals)
    assert others
    orders = [range(n), list(range(n)), list(range(n))[::-1], list(range(1, n, 2)), []]
    for d in sorted(pairs | others):
        for facets in orders:
            assert diagram.collision_facet(facets, d) == next(
                (i for i in facets if normals[i] == d), None), (d, facets)


def test_collision_facet_takes_the_first_of_two_collinear_facets():
    assert COLLINEAR.normals()[:2] == [(0, 1), (0, 1)]
    assert COLLINEAR.collision_facet(range(5), (0, 1)) == 0
    assert COLLINEAR.collision_facet([1, 0], (0, 1)) == 1
    assert COLLINEAR.collision_facet([4, 3, 1, 0], (0, 1)) == 1
    assert COLLINEAR.collision_facet([2, 3, 4], (0, 1)) is None
    assert COLLINEAR.collision_facet([0, 1], (0, -1)) is None


def _cuts_or_none(diagram):
    try:
        return diagram.branch_cuts(), diagram.cut_rows()
    except GeometryError:
        return None


def test_validated_cuts_match_a_fresh_diagram(monkeypatch):
    # construction keeps the exits it found as the cuts: no second tracing
    for diagram in FIXTURE_DIAGRAMS:
        validated, fresh = _moved(diagram, Vec(F(1, 3), 0)), _moved(diagram, Vec(F(1, 3), 0))
        assert validated.validate() == []

        def traced_again(j):
            raise AssertionError("cut exit traced again after validate()")

        monkeypatch.setattr(validated, "_cut_exit", traced_again)
        assert validated.branch_cuts() == fresh.branch_cuts()
        assert validated.cut_rows() == fresh.cut_rows()



def _read_everything(diagram):
    """Call every public reader that applies, each refusal included."""
    foci, corners = diagram.homogeneous_points()
    points = [*foci, *corners, (0, 0, 1), (1, 1, 3)]
    facets = range(len(diagram.polygon))
    readers = [diagram.validate, diagram.facet_rows, diagram.normals, diagram.cut_rows,
               diagram.branch_cuts, diagram.shears, diagram.to_json_dict,
               partial(diagram.collision_facet, facets, (0, 1))]
    for p in points:
        readers += [partial(diagram.facet_slacks, p), partial(diagram.contains, p),
                    partial(diagram.contains, p, True), partial(diagram.cut_through, p),
                    partial(diagram.classify_point, p), partial(diagram.facets_through, p)]
        for d in [(1, 0), (-1, 2)]:
            readers += [partial(diagram.boundary_hit, p, d), partial(diagram.facet_rates, d)]
    for j in range(len(diagram.focus_foci)):
        readers += [partial(diagram.cross_cut, j, (1, 0)), partial(diagram.along_shear, j, (0, 1))]
    for read in readers:
        try:
            read()
        except GeometryError:
            pass


# a repeated corner, a non-integral shear covector and a focus outside the
# polygon; the cut is traced on the second only
INVALID_DIAGRAMS = [
    BaseDiagram("repeated", [Vec(0, 0), Vec(0, 0), Vec(2, 0), Vec(0, 2)],
                [FocusFocus(Vec(F(1, 2), F(1, 2)), pi=Vec(1, 0), sigma=Vec(0, 1))]),
    BaseDiagram("covector", [Vec(2, -2), Vec(2, 2), Vec(-2, 2), Vec(-2, -2)],
                [FocusFocus(Vec(0, 0), pi=Vec(0, 1), sigma=Vec(F(1, 2), 0))]),
    BaseDiagram("outside", [Vec(2, -2), Vec(2, 2), Vec(-2, 2), Vec(-2, -2)],
                [FocusFocus(Vec(3, 0), pi=Vec(0, 1), sigma=Vec(1, 0))]),
]


@pytest.mark.parametrize("diagram", FIXTURE_DIAGRAMS + INVALID_DIAGRAMS)
def test_readers_leave_the_diagram_as_construction_built_it(diagram):
    fresh = BaseDiagram(diagram.name, diagram.polygon, diagram.focus_foci)
    built = copy.deepcopy(vars(fresh))
    _read_everything(fresh)
    _read_everything(fresh)
    # only branch_cuts() fills a view, and only where the cuts were traced
    read = dict(vars(fresh))
    assert built.pop("_cuts") is None
    assert (read.pop("_cuts") is None) == (diagram.name in ("repeated", "outside"))
    assert read == built


def test_construction_traces_each_cut_once(monkeypatch):
    traced = []
    cut_exit = BaseDiagram._cut_exit

    def counted(self, j, px, py):
        traced.append(j)
        return cut_exit(self, j, px, py)

    monkeypatch.setattr(BaseDiagram, "_cut_exit", counted)
    for diagram in FIXTURE_DIAGRAMS:
        traced.clear()
        fresh = BaseDiagram(diagram.name, diagram.polygon, diagram.focus_foci)
        assert traced == list(range(len(diagram.focus_foci))), diagram.name
        fresh.validate(), fresh.cut_rows(), fresh.branch_cuts()
        assert traced == list(range(len(diagram.focus_foci))), diagram.name
