import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropdisk.classify import classify_vertex
from tropdisk.diagram import BaseDiagram, FocusFocus
from tropdisk.diskgraph import Constraint, DiskEdge, DiskGraph, DiskVertex
from tropdisk.enumerate import (
    NO_FLAGS,
    FixtureFlags,
    SearchBounds,
    _row_reduce,
    _Tracer,
    cancellation_report,
    corner_projection,
    enumerate_disks,
    enumerate_maslov4,
    rigidity_dimension,
)
from tropdisk.fixtures import FIXTURE_NAMES, SHIPPED_CASES, builtin_fixture
from tropdisk.geometry import Vec, apply_matrix, det2, homogeneous, primitive
from tropdisk.lagrangian import LagGraph, LagVertex
from tropdisk.multiplicity import (
    CORNER_CAP,
    FIBER_ROOT,
    FOCUS_COVER_PAIR,
    boundary_collision,
    focus_cover,
    pair_of_pants,
    perp_collision,
    graph_index_diagnostic,
)


# -- rigidity ---------------------------------------------------------------


def test_rigidity_single_boundary_edge_is_rigid():
    fx = builtin_fixture("dp6")
    lag = fx.lagrangians["segment"]
    constraint = Constraint.on_lagrangian(lag, 0, F(1, 2))
    g = DiskGraph(
        [DiskVertex("r", Vec(0, 0), perp_collision(1)),
         DiskVertex("b", Vec(F(1, 2), F(1, 2)), boundary_collision(0))],
        [DiskEdge(("r", "b"), Vec(1, 1))],
        constraint,
    )
    assert rigidity_dimension(g, fx.diagram, lag, constraint) == 0


def test_rigidity_free_trivalent_vertex_deformable():
    # interior pair of pants with three mid-facet legs and no constraint:
    # the vertex slides in a two-parameter family (each leaf stays on its
    # facet line), so the exact solution space has dimension two
    fx = builtin_fixture("dp6")
    g = DiskGraph(
        [DiskVertex("c", Vec(F(1, 8), F(1, 4)), pair_of_pants(Vec(1, 1), Vec(-1, 0))),
         DiskVertex("a", Vec(F(7, 16), F(9, 16)), boundary_collision(0)),
         DiskVertex("b", Vec(-1, F(1, 4)), boundary_collision(2)),
         DiskVertex("d", Vec(F(1, 8), -1), boundary_collision(4))],
        [DiskEdge(("c", "a"), Vec(1, 1)), DiskEdge(("c", "b"), Vec(-1, 0)),
         DiskEdge(("c", "d"), Vec(0, -1))],
    )
    assert rigidity_dimension(g, fx.diagram, None, None) == 2


def test_rigidity_inconsistent_system():
    fx = builtin_fixture("dp6")
    lag = fx.lagrangians["segment"]
    constraint = Constraint.on_lagrangian(lag, 0, F(1, 2))
    # edge direction cannot reach the claimed focus anchor: inconsistent rows
    g = DiskGraph(
        [DiskVertex("r", Vec(0, 0), perp_collision(1)),
         DiskVertex("f", Vec(F(1, 2), F(1, 2)), focus_cover(1, 0))],
        [DiskEdge(("r", "f"), Vec(1, 0))],
        constraint,
    )
    diagram = BaseDiagram(
        "one-focus", list(fx.diagram.polygon),
        [FocusFocus(Vec(F(1, 4), F(1, 8)), pi=Vec(1, 0), sigma=Vec(0, 1))],
    )
    assert rigidity_dimension(g, diagram, lag, constraint) == -1


def _minor_rank(rows, cols):
    """Brute-force rank: largest nonsingular square submatrix."""

    def determinant(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        total = F(0)
        for j in range(n):
            sub = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * determinant(sub)
        return total

    best = 0
    n_rows = len(rows)
    for size in range(1, min(n_rows, cols) + 1):
        found = False
        for row_idx in itertools.combinations(range(n_rows), size):
            for col_idx in itertools.combinations(range(cols), size):
                mat = [[rows[r][c] for c in col_idx] for r in row_idx]
                if determinant(mat) != 0:
                    best = size
                    found = True
                    break
            if found:
                break
        if not found:
            break
    return best


def test_row_reduce_rank_matches_brute_force_minors():
    rng = random.Random(20260808)
    for _ in range(1000):
        n_rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        rows = [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(n_rows)]
        rank, consistent = _row_reduce([r[:] for r in rows], [F(0)] * n_rows, cols)
        assert consistent
        assert rank == _minor_rank(rows, cols)


def test_enumerated_graphs_are_rigid_and_revalidate():
    for name, case in SHIPPED_CASES:
        fx = builtin_fixture(name)
        diagram = fx.diagram_for(case)
        lag = fx.lagrangian_for(case)
        constraint = fx.constraint(case)
        for g in fx.run(case).graphs:
            assert g.rigidity == 0
            assert rigidity_dimension(g.graph, diagram, lag, constraint) == 0
            assert graph_index_diagnostic(g.graph) == 2
            if g.graph.corner_mode:
                continue
            for v in g.graph.vertices:
                if v.kind.tag in (FIBER_ROOT, CORNER_CAP, FOCUS_COVER_PAIR):
                    continue
                rederived = classify_vertex(g.graph, v.id, diagram, lag)
                assert rederived.tag == v.kind.tag, (name, case, v)
                if v.kind.tag == "focus_cover":
                    assert rederived.ell == v.kind.ell
                    assert rederived.weight == v.kind.weight


# -- boundary hits ------------------------------------------------------------


BOUNDARY_TRACERS = [
    _Tracer(diagram, None, SearchBounds(), NO_FLAGS)
    for fx in map(builtin_fixture, FIXTURE_NAMES)
    for diagram in [fx.diagram, *fx.diagram_variants.values()]
]


@given(st.data())
def test_boundary_hit_facets_are_facets_through_the_hit(data):
    # a ray from an interior point leaves the polygon once, so the facets hit
    # at the smallest parameter are every facet through the exit point
    tracer = data.draw(st.sampled_from(BOUNDARY_TRACERS))
    polygon = tracer.diagram.polygon
    weights = data.draw(st.lists(st.integers(1, 8), min_size=len(polygon),
                                 max_size=len(polygon)))
    # all weights positive: strictly inside the convex polygon
    origin = sum((v * w for v, w in zip(polygon, weights)), Vec(0, 0)) / sum(weights)
    corner = data.draw(st.none() | st.sampled_from(polygon))
    if corner is None:
        d = data.draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any))
    else:
        d = primitive(corner - origin).as_int_pair()  # exits through a corner
    _t, point, facets = tracer._boundary_hit(homogeneous(origin), d)
    assert facets == tracer.diagram.facets_through(point)
    if corner is not None:
        assert point == corner and len(facets) == 2


# -- fixture enumerations -----------------------------------------------------


def test_dp6_segment_graphs():
    res = builtin_fixture("dp6").run("segment")
    assert res.contributions() == [F(-1), F(-1)]
    assert res.total() == -2


def test_dp6_trivalent_graphs():
    res = builtin_fixture("dp6").run("trivalent")
    assert sorted(res.contributions()) == [F(-1), F(-1), F(-1, 2), F(-1, 2)]


def test_dp6_fiber_cho_oh_disks():
    res = builtin_fixture("dp6").run("fiber")
    assert res.contributions() == [F(1)] * 6
    # each disk heads along the outward primitive normal of its facet
    facets = builtin_fixture("dp6").diagram.facets()
    hit_facets = set()
    for g in res.graphs:
        ends = [v for v in g.graph.vertices if v.kind.tag == "boundary_collision"]
        assert len(ends) == 1
        hit_facets.add(ends[0].kind.index)
    assert hit_facets == set(range(6))


def test_dp7_leg_two_half_pants():
    res = builtin_fixture("dp7").run("leg")
    assert sorted(res.contributions()) == [F(-1, 2), F(-1, 2)]
    kinds = sorted(
        tuple(sorted(v.kind.tag for v in g.graph.vertices)) for g in res.graphs
    )
    for k in kinds:
        assert "holomorphic_pant" in k


def test_dp7_diag_total():
    res = builtin_fixture("dp7").run("diag")
    assert res.total() == -1


def test_dp5_three_disks():
    res = builtin_fixture("dp5").run()
    assert res.contributions() == [F(-1)] * 3
    split = [g for g in res.graphs
             if any(v.kind.tag == "pair_of_pants" for v in g.graph.vertices)]
    assert len(split) == 1


def test_dp4_exactly_four():
    res = builtin_fixture("dp4").run()
    assert res.contributions() == [F(-1)] * 4


def test_dp3_multiset():
    res = builtin_fixture("dp3").run()
    counts = Counter(res.contributions())
    assert counts == {F(-1): 6, F(-1, 2): 6, F(3, 2): 2}


def test_dp2_breakdowns():
    res1 = builtin_fixture("dp2").run("l1")
    assert res1.total() == -12
    res2 = builtin_fixture("dp2").run("l2")
    assert res2.total() == -12
    by_root = {1: F(0), 2: F(0)}
    for g in res2.graphs:
        root = next(v for v in g.graph.vertices if v.kind.tag == "perp_collision")
        by_root[root.kind.ell] += g.contribution
    assert by_root[2] == 4
    assert by_root[1] == -16


def test_dp1_total_and_cancellation():
    res = builtin_fixture("dp1").run()
    assert res.total() == -60
    pairs = cancellation_report(res)
    assert pairs
    for a, b in pairs:
        assert a.contribution + b.contribution == 0
        foci_a = {(tuple(v.position), v.kind.ell) for v in a.graph.vertices
                  if v.kind.tag.startswith("focus_cover")}
        foci_b = {(tuple(v.position), v.kind.ell) for v in b.graph.vertices
                  if v.kind.tag.startswith("focus_cover")}
        assert foci_a == foci_b


def test_cancellation_report_empty_without_covers():
    assert cancellation_report(builtin_fixture("dp6").run("segment")) == []
    assert cancellation_report(builtin_fixture("dp4").run()) == []


def test_p1xp1_no_disks():
    res = builtin_fixture("p1xp1").run()
    assert res.graphs == []
    assert res.total() == 0


# -- stability properties -----------------------------------------------------


@pytest.mark.parametrize("name,case", SHIPPED_CASES)
def test_bounds_saturation(name, case):
    fx = builtin_fixture(name)
    base = fx.run(case)
    bumped = fx.run(case, fx.case(case).bounds.bumped())
    assert base.total() == bumped.total()


@pytest.mark.parametrize("name,case", SHIPPED_CASES)
def test_determinism(name, case):
    r1 = builtin_fixture(name).run(case)
    r2 = builtin_fixture(name).run(case)
    assert [g.graph.signature() for g in r1.graphs] == [
        g.graph.signature() for g in r2.graphs
    ]
    assert r1.contributions() == r2.contributions()


def test_constraint_position_independence_dp6_segment():
    fx = builtin_fixture("dp6")
    assert fx.run("segment").total() == fx.run("segment_alt").total()


def test_constraint_position_independence_dp7():
    fx = builtin_fixture("dp7")
    assert fx.run("leg").total() == -1
    assert fx.run("leg_alt").total() == -1
    assert fx.run("diag").total() == -1


def test_constraint_position_independence_dp5_dp4():
    dp5, dp4 = builtin_fixture("dp5"), builtin_fixture("dp4")
    assert dp5.run().total() == dp5.run("segment_alt").total()
    assert dp4.run().total() == dp4.run("sphere_alt").total()


SIGNED_PERMS = [
    (Vec(0, 1), Vec(-1, 0)), (Vec(-1, 0), Vec(0, -1)), (Vec(0, -1), Vec(1, 0)),
    (Vec(0, 1), Vec(1, 0)), (Vec(1, 0), Vec(0, -1)), (Vec(-1, 0), Vec(0, 1)),
    (Vec(0, -1), Vec(-1, 0)),
]


def _transform_all(diagram, lag, constraint, flags, m):
    det = det2(m[0], m[1])
    polygon = [apply_matrix(m, v) for v in diagram.polygon]
    if det < 0:
        polygon = list(reversed(polygon))
    inv_t = (Vec(m[1].y, -m[0].y) * det, Vec(-m[1].x, m[0].x) * det)
    foci = [
        FocusFocus(apply_matrix(m, ff.position), apply_matrix(m, ff.pi),
                   apply_matrix(inv_t, ff.sigma), ff.cut_sign)
        for ff in diagram.focus_foci
    ]
    diagram2 = BaseDiagram(diagram.name, polygon, foci)
    lag2 = None
    if lag is not None:
        lag2 = LagGraph(
            [LagVertex(v.id, apply_matrix(m, v.position), v.anchor, v.anchor_index)
             for v in lag.vertices],
            list(lag.edges),
        )
    constraint2 = Constraint(constraint.kind, apply_matrix(m, constraint.point),
                             constraint.edge_index, constraint.t)
    flags2 = FixtureFlags(
        corner_caps=tuple(apply_matrix(m, c) for c in flags.corner_caps),
        corner_limit=(apply_matrix(m, flags.corner_limit)
                      if flags.corner_limit is not None else None),
    )
    return diagram2, lag2, constraint2, flags2


@pytest.mark.parametrize("name,case", [
    ("dp6", "segment"), ("dp6", "trivalent"), ("dp6", "fiber"),
    ("dp7", "leg"), ("dp5", None), ("dp4", None), ("dp2", "l2"), ("dp1", None),
])
def test_enumeration_equivariance_under_signed_permutations(name, case):
    fx = builtin_fixture(name)
    c = fx.case(case)
    diagram = fx.diagram_for(case)
    lag = fx.lagrangian_for(case)
    constraint = fx.constraint(case)
    reference = sorted(fx.run(case).contributions())
    for m in SIGNED_PERMS:
        d2, l2, c2, f2 = _transform_all(diagram, lag, constraint, c.flags, m)
        assert d2.validate() == []
        result = enumerate_disks(d2, l2, c2, c.bounds, flags=f2)
        assert sorted(result.contributions()) == reference, m


# -- auxiliary operations -------------------------------------------------------


def test_corner_projection_examples():
    # project (-1,-2) along the non-divisor normal (0,1) onto the rim (1,0)
    assert corner_projection(Vec(-1, -2), Vec(0, 1), Vec(1, 0)) == Vec(-1, 0)
    # direction parallel to the normal projects to zero: the edge terminates
    assert corner_projection(Vec(0, 3), Vec(0, 1), Vec(1, 0)) == Vec(0, 0)
    assert corner_projection(Vec(2, 1), Vec(1, -1), Vec(1, 1)) == Vec(F(3, 2), F(3, 2))


def test_maslov_four_counts():
    fx = builtin_fixture("dp7")
    lag = fx.lagrangians["trivalent"]
    three = [Constraint.on_lagrangian(lag, i, F(1, 2)) for i in range(3)]
    assert enumerate_maslov4(fx.diagram, lag, three) == 1
    two_on_same_leg = [
        Constraint.on_lagrangian(lag, 0, F(1, 4)),
        Constraint.on_lagrangian(lag, 0, F(1, 2)),
        Constraint.on_lagrangian(lag, 1, F(1, 2)),
    ]
    assert enumerate_maslov4(fx.diagram, lag, two_on_same_leg) == 0
    seg_fx = builtin_fixture("dp6")
    seg = seg_fx.lagrangians["segment"]
    seg_constraints = [Constraint.on_lagrangian(seg, 0, F(i + 1, 5)) for i in range(3)]
    assert enumerate_maslov4(seg_fx.diagram, seg, seg_constraints) == 0
