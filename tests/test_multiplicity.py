"""Vertex multiplicities, automorphisms and graph weights.

`reference_multiplicity`, `reference_pant_determinant` and
`reference_graph_weights` are the weights as they were written in
Fractions: `det2` on Vecs and a running Fraction product.  The integer
weights must give the same values, or raise the same exception class with
the same message.  `reference_pant_strip_direction` is the pant balancing
as it was written in Fractions, on Vecs.  Kinds carry their vectors as
homogeneous triples, so the references read them back as Vecs.
"""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_geometry import apply_matrix
from tropdisk.diskgraph import DiskEdge, DiskGraph, DiskVertex
from tropdisk.fixtures import FIXTURE_NAMES, SHIPPED_CASES, builtin_fixture
from tropdisk.geometry import GeometryError, Vec, det2, from_homogeneous, homogeneous, primitive
from tropdisk.multiplicity import (
    BOUNDARY_COLLISION,
    CORNER_CAP,
    CYLINDER,
    DEFAULT_CONVENTION,
    FIBER_ROOT,
    FOCUS_COVER,
    FOCUS_COVER_PAIR,
    PAIR_OF_PANTS,
    PANT,
    PANT_SEAM,
    PERP_COLLISION,
    THREE_STRIP,
    TWO_STRIP,
    HigherValenceVertex,
    SignConvention,
    VertexKind,
    aut_order,
    boundary_collision,
    cylinder,
    focus_cover,
    focus_cover_pair,
    graph_contribution,
    graph_weights,
    holomorphic_pant,
    index_diagnostic,
    multiplicity,
    pair_of_pants,
    pant_determinant,
    pant_seam,
    pant_strip_direction,
    perp_collision,
    three_ended_strip,
    two_ended_strip,
)


# -- the Fraction reference ---------------------------------------------------


def reference_pant_determinant(kind: VertexKind) -> int:
    lam = primitive(from_homogeneous(kind.lag_dir))
    return abs(int(det2(from_homogeneous(kind.e_black), lam)))


def reference_pant_strip_direction(e_black: Vec, lag_dir: Vec) -> Vec:
    """-<e_black, lag_dir>/<lag_dir, lag_dir> lag_dir with one Fraction
    coefficient, lag_dir read as an integer pair."""
    ex, ey, ew = homogeneous(e_black)
    lx, ly, _ = homogeneous(lag_dir)
    if not (lx or ly):
        raise GeometryError("the Lagrangian direction of a pant strip must be nonzero")
    coeff = F(-(ex * lx + ey * ly), ew * (lx * lx + ly * ly))
    return Vec(coeff * lx, coeff * ly)


def reference_multiplicity(kind: VertexKind, convention=DEFAULT_CONVENTION) -> F:
    tag = kind.tag
    if tag == CYLINDER:
        return F(1)
    if tag == PAIR_OF_PANTS:
        value = abs(det2(from_homogeneous(kind.d1), from_homogeneous(kind.d2)))
        if value == 0:
            raise GeometryError("degenerate pair of pants (parallel directions)")
        return F(value)
    if tag == BOUNDARY_COLLISION:
        return F(1)
    if tag == FOCUS_COVER:
        ell = kind.ell
        return kind.weight * F((-1) ** (ell - 1), ell * ell)
    if tag == FOCUS_COVER_PAIR:
        ell = kind.ell
        return -kind.weight * F((-1) ** (ell - 1), ell * ell)
    if tag == PERP_COLLISION:
        return F((-1) ** kind.ell)
    if tag == PANT:
        d = reference_pant_determinant(kind)
        if d == 0:
            raise GeometryError("pant with closed edge along the Lagrangian")
        return F(convention.pant_sign(d) * d, 2)
    if tag in (PANT_SEAM, TWO_STRIP, THREE_STRIP, FIBER_ROOT, CORNER_CAP):
        return F(1)
    raise HigherValenceVertex(f"no multiplicity known for kind {tag!r}")


def reference_graph_weights(graph, convention=DEFAULT_CONVENTION):
    aut = aut_order(graph)
    weights = tuple(reference_multiplicity(v.kind, convention) for v in graph.vertices)
    total = F(1, aut)
    for m in weights:
        total *= m
    return aut, weights, total


def _outcome(function, *args):
    """The value, or (exception class, message)."""
    try:
        return function(*args)
    except GeometryError as exc:
        return type(exc), str(exc)


def weights_agree(kind, convention=DEFAULT_CONVENTION):
    """Assert that the integer multiplicity is the reference's, a Fraction
    whenever it is a value; returns the outcome."""
    got = _outcome(multiplicity, kind, convention)
    assert got == _outcome(reference_multiplicity, kind, convention), kind
    assert isinstance(got, (F, tuple))
    if kind.tag == PANT:
        assert _outcome(pant_determinant, kind) == _outcome(reference_pant_determinant, kind)
    return got


def test_nine_branch_values():
    assert multiplicity(cylinder()) == 1
    assert multiplicity(pair_of_pants((1, 0, 1), (0, 1, 1))) == 1
    assert multiplicity(pair_of_pants((1, 1, 1), (-2, 1, 1))) == 3
    assert multiplicity(boundary_collision(0)) == 1
    assert multiplicity(focus_cover(1)) == 1
    assert multiplicity(focus_cover(2)) == F(-1, 4)
    assert multiplicity(focus_cover(3)) == F(1, 9)
    assert multiplicity(perp_collision(1)) == -1
    assert multiplicity(perp_collision(2)) == 1
    assert multiplicity(pant_seam()) == 1
    assert multiplicity(two_ended_strip()) == 1
    assert multiplicity(three_ended_strip()) == 1


def test_pant_values_by_determinant():
    diag = (1, 1, 1)
    d1 = holomorphic_pant((1, 0, 1), diag)
    d2 = holomorphic_pant((1, -1, 1), diag)
    d3 = holomorphic_pant((2, -1, 1), diag)
    assert (pant_determinant(d1), multiplicity(d1)) == (1, F(-1, 2))
    assert (pant_determinant(d2), multiplicity(d2)) == (2, F(-1))
    assert (pant_determinant(d3), multiplicity(d3)) == (3, F(3, 2))


def test_pant_strip_direction_balancing():
    # 2 w + e_black + r(e_black) = 0, w parallel to the edge
    w = pant_strip_direction((0, -1, 1), (1, 1, 1))
    assert w == homogeneous(Vec(F(1, 2), F(1, 2)))
    w2 = pant_strip_direction((1, 1, 1), (0, 1, 1))
    assert w2 == homogeneous(Vec(0, -1))


def reference_reflect(v, axis):
    """Linear reflection of v fixing the span of a nonzero `axis`, in
    Fractions: r(v) = 2 <v,a>/<a,a> a - v."""
    return axis * (2 * v.dot(axis) / axis.dot(axis)) - v


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_pant_strip_direction_is_the_reflect_form(name):
    # the projection equals -(e + r(e)) / 2 with r the reflection fixing the
    # edge, for every e in [-4, 4]^2 and every edge of the fixture, read as
    # its primitive direction and as its (rational) span
    fx = builtin_fixture(name)
    directions = set()
    for lag in fx.lagrangians.values():
        for k, edge in enumerate(lag.edges):
            a, b = edge.endpoints
            directions |= {Vec(*lag.edge_direction(k)), lag.position(b) - lag.position(a)}
    for lam in directions:
        for e in itertools.product(range(-4, 5), repeat=2):
            e_black = Vec(*e)
            assert pant_strip_direction(homogeneous(e_black), homogeneous(lam)) \
                == homogeneous(-(e_black + reference_reflect(e_black, lam)) / 2)


def _triples(draw_pair, denominators):
    """A strategy for the canonical triple of (X/W, Y/W), with (X, Y) from
    `draw_pair` and W from `denominators`."""
    return st.tuples(draw_pair, st.sampled_from(denominators)).map(
        lambda t: homogeneous(Vec(F(t[0][0], t[1]), F(t[0][1], t[1]))))


_small = st.integers(-6, 6)
_nonzero = st.integers(-6, 6).filter(bool)


@given(e=_triples(st.tuples(_small, _small), (1, 2)),
       lam=st.one_of(st.tuples(_small, _small).filter(any),   # primitive or not
                     st.tuples(_nonzero, st.just(0)),           # along an axis
                     st.tuples(st.just(0), _nonzero)))
@settings(max_examples=500)
def test_pant_strip_direction_is_the_fraction_form(e, lam):
    # the one integer strip is the reduced triple of the former Fraction body,
    # for e with W = 1 and W = 2 and any nonzero integer lam
    lam = (*lam, 1)
    expected = homogeneous(reference_pant_strip_direction(from_homogeneous(e), Vec(*lam[:2])))
    assert pant_strip_direction(e, lam) == expected
    message = "the Lagrangian direction of a pant strip must be nonzero"
    with pytest.raises(GeometryError, match=message):
        pant_strip_direction(e, (0, 0, 1))
    with pytest.raises(GeometryError, match=message):
        reference_pant_strip_direction(from_homogeneous(e), Vec(0, 0))


@given(st.lists(_triples(st.tuples(_small, _small), (1, 2, 3)), min_size=2, max_size=2))
def test_pair_of_pants_orders_its_legs_by_value(legs):
    # the leg with the smaller (x, y) comes first, whichever way round the
    # legs are given, with mixed denominators compared exactly
    values = sorted((tuple(from_homogeneous(d)), d) for d in legs)
    for d1, d2 in (legs, legs[::-1]):
        kind = pair_of_pants(d1, d2)
        assert (kind.d1, kind.d2) == (values[0][1], values[1][1])


def test_kind_labels():
    # the labels `--json` and the text report print for each vertex
    assert holomorphic_pant((1, 0, 1), (1, 1, 1)).label() == "holomorphic_pant(D=1)"
    assert holomorphic_pant((1, -1, 1), (1, 1, 1)).label() == "holomorphic_pant(D=2)"
    assert holomorphic_pant((2, -1, 1), (-3, -3, 1)).label() == "holomorphic_pant(D=3)"
    assert holomorphic_pant((3, -2, 2), (1, 1, 1)).label() == "holomorphic_pant(D=2)"
    assert pair_of_pants((1, 0, 1), (0, 1, 1)).label() == "pair_of_pants(det=1)"
    assert pair_of_pants((1, 1, 1), (-2, 1, 1)).label() == "pair_of_pants(det=3)"
    assert pair_of_pants((-2, 1, 1), (1, 1, 1)).label() == "pair_of_pants(det=3)"
    # half-integral legs: the determinant prints as a fraction
    assert pair_of_pants((1, 2, 2), (2, -1, 2)).label() == "pair_of_pants(det=5/4)"
    assert pair_of_pants((1, 0, 2), (0, 3, 1)).label() == "pair_of_pants(det=3/2)"
    assert focus_cover(2).label() == "focus_cover(l=2)"
    assert perp_collision(1).label() == "perp_collision(l=1)"
    assert cylinder().label() == "cylinder"


def test_pant_sign_override():
    convention = DEFAULT_CONVENTION.merged([[3, -1]])
    kind = holomorphic_pant((2, -1, 1), (1, 1, 1))
    assert multiplicity(kind, convention) == F(-3, 2)
    assert multiplicity(kind) == F(3, 2)


def test_focus_cover_bryan_pandharipande_identity():
    for ell in range(1, 11):
        assert multiplicity(focus_cover(ell)) * ell * ell == (-1) ** (ell - 1)


def test_focus_cover_pair_cancels():
    for ell in (2, 3):
        assert multiplicity(focus_cover(ell)) + multiplicity(focus_cover_pair(ell)) == 0


def test_weighted_focus_cover():
    assert multiplicity(focus_cover(1, weight=15)) == 15
    assert multiplicity(focus_cover(2, weight=6)) == F(-6, 4)


def test_multiplicity_determinism():
    kind = holomorphic_pant((1, 0, 1), (1, 1, 1))
    assert multiplicity(kind) == multiplicity(kind)


def test_degenerate_pair_of_pants_rejected():
    from tropdisk.geometry import GeometryError

    with pytest.raises(GeometryError):
        multiplicity(pair_of_pants((1, 0, 1), (2, 0, 1)))


def test_maslov_contributions():
    # closed univalent ends count +2, focus covers and their partners included
    for kind in (boundary_collision(0), VertexKind(CORNER_CAP), focus_cover(1),
                 focus_cover(2), focus_cover_pair(2)):
        assert index_diagnostic(kind) == 2
    assert index_diagnostic(three_ended_strip()) == -2
    assert index_diagnostic(pair_of_pants((1, 0, 1), (0, 1, 1))) == -2
    for kind in (cylinder(), perp_collision(1), holomorphic_pant((1, 0, 1), (1, 1, 1)),
                 pant_seam(), two_ended_strip(), VertexKind(FIBER_ROOT)):
        assert index_diagnostic(kind) == 0
    with pytest.raises(HigherValenceVertex):
        index_diagnostic(VertexKind("mystery"))


def shear_matrices():
    def build(ops):
        m = (Vec(1, 0), Vec(0, 1))
        for kind, k in ops:
            step = (Vec(1, 0), Vec(k, 1)) if kind == 0 else (Vec(1, k), Vec(0, 1))
            m = (apply_matrix(step, m[0]), apply_matrix(step, m[1]))
        return m

    return st.lists(
        st.tuples(st.integers(0, 1), st.integers(-3, 3)), min_size=0, max_size=5
    ).map(build)


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
       shear_matrices())
@settings(max_examples=1000)
def test_pair_of_pants_unimodular_invariance(ax, ay, bx, by, m):
    a, b = Vec(ax, ay), Vec(bx, by)
    from tropdisk.geometry import det2

    if det2(a, b) == 0:
        return
    assert multiplicity(pair_of_pants(homogeneous(a), homogeneous(b))) == multiplicity(
        pair_of_pants(homogeneous(apply_matrix(m, a)), homogeneous(apply_matrix(m, b)))
    )


# -- automorphisms ------------------------------------------------------------


def _graph(vertices, edges):
    return DiskGraph(
        [DiskVertex(f"v{i}", homogeneous(pos), kind) for i, (pos, kind) in enumerate(vertices)],
        [DiskEdge((f"v{a}", f"v{b}"), homogeneous(d), open_) for a, b, d, open_ in edges],
    )


def test_aut_order_trivial():
    g = _graph(
        [(Vec(0, 0), perp_collision(1)), (Vec(1, 1), boundary_collision(0)),
         (Vec(-1, 0), boundary_collision(1))],
        [(0, 1, Vec(1, 1), False), (0, 2, Vec(-1, 0), False)],
    )
    assert aut_order(g) == 1


def test_aut_order_doubled_edge():
    # two focus vertices at one point are no disk graph; one focus vertex
    # with the same two legs has order 2
    legs = [(0, 1, Vec(1, 0), False), (0, 2, Vec(1, 0), False)]
    g = _graph(
        [(Vec(0, 0), perp_collision(1)), (Vec(1, 0), focus_cover(1)),
         (Vec(1, 0), focus_cover(1))], legs)
    with pytest.raises(GeometryError, match="two graph vertices at"):
        aut_order(g)
    g = _graph([(Vec(0, 0), perp_collision(1)), (Vec(1, 0), focus_cover(1))],
               [(0, 1, d, open_) for _, _, d, open_ in legs])
    assert aut_order(g) == 2


def test_aut_order_symmetric_star():
    # three focus vertices at one point are no disk graph; one focus vertex
    # with the same three legs has order 3! = 6
    star = (Vec(0, 0), pair_of_pants((1, 0, 1), (0, 1, 1)))
    legs = [(0, k, Vec(1, 0), False) for k in (1, 2, 3)]
    g = _graph([star] + [(Vec(1, 0), focus_cover(1))] * 3, legs)
    with pytest.raises(GeometryError, match="two graph vertices at"):
        aut_order(g)
    g = _graph([star, (Vec(1, 0), focus_cover(1))],
               [(0, 1, d, open_) for _, _, d, open_ in legs])
    assert aut_order(g) == 6


def test_aut_order_parallel_edges_between_distinct_positions():
    # the order is the factorial of each class of identical parallel edges;
    # an edge listed reversed is the same edge
    def doubled(edges):
        return _graph([(Vec(0, 0), perp_collision(1)), (Vec(1, 0), focus_cover(1))], edges)

    assert aut_order(doubled([(0, 1, Vec(1, 0), False)])) == 1
    assert aut_order(doubled([(0, 1, Vec(1, 0), False), (1, 0, Vec(-1, 0), False)])) == 2
    assert aut_order(doubled([(0, 1, Vec(1, 0), False)] * 3)) == 6
    assert aut_order(doubled([(0, 1, Vec(1, 0), False), (0, 1, Vec(1, 0), True)])) == 1


def test_aut_order_keys_each_edge_once():
    # a -> b along d and b -> a along -d are one key, as are a loop's two
    # readings; when every key differs the order is 1
    def graph(edges):
        return _graph([(Vec(0, 0), perp_collision(1)), (Vec(1, 0), focus_cover(1)),
                       (Vec(0, 1), focus_cover(1))], edges)

    ab, ba = (0, 1, Vec(1, 0), False), (1, 0, Vec(-1, 0), False)
    assert aut_order(graph([ab, ba])) == 2
    assert aut_order(graph([ab, ba, ab])) == 6
    assert aut_order(graph([ab, ba, (0, 2, Vec(0, 1), False), (2, 0, Vec(0, -1), True)])) == 2
    distinct = [ab, (0, 1, Vec(2, 0), False), (1, 0, Vec(1, 0), False),
                (0, 1, Vec(1, 0), True), (0, 2, Vec(0, 1), False), (1, 2, Vec(-1, 1), False)]
    assert aut_order(graph(distinct)) == 1
    assert aut_order(graph([(0, 0, Vec(1, 0), False), (0, 0, Vec(-1, 0), False)])) == 2
    assert aut_order(graph([(0, 0, Vec(1, 0), False), (0, 0, Vec(0, 1), False)])) == 1


def _aut_reference(graph):
    # independent brute force: try all vertex permutations, demand the edge
    # multiset is preserved exactly
    import itertools

    verts = graph.vertices
    n = len(verts)
    base = {}
    for e in graph.edges:
        pa = tuple(graph.position_of(e.endpoints[0]))
        pb = tuple(graph.position_of(e.endpoints[1]))
        key = (min((pa, pb), (pb, pa)), e.open)
        base[key] = base.get(key, 0) + 1
    count = 0
    for perm in itertools.permutations(range(n)):
        ok = all(
            (verts[perm[i]].kind, verts[perm[i]].position)
            == (verts[i].kind, verts[i].position)
            for i in range(n)
        )
        if not ok:
            continue
        mapped = {}
        for e in graph.edges:
            ia = graph.index_of(e.endpoints[0])
            ib = graph.index_of(e.endpoints[1])
            pa = tuple(verts[perm[ia]].position)
            pb = tuple(verts[perm[ib]].position)
            key = (min((pa, pb), (pb, pa)), e.open)
            mapped[key] = mapped.get(key, 0) + 1
        if mapped == base:
            count += 1
    return count


def test_aut_order_matches_reference_on_fixture_graphs():
    from tropdisk.fixtures import builtin_fixture

    checked = 0
    for name, case in (("dp6", "trivalent"), ("dp4", None), ("dp1", None)):
        for g in builtin_fixture(name).run(case).graphs:
            assert aut_order(g.graph) == _aut_reference(g.graph)
            checked += 1
    assert checked > 10


def test_graph_contribution_uses_aut():
    # one focus vertex and two identical legs: -1 * 1 over an order of 2
    g = _graph(
        [(Vec(0, 0), perp_collision(1)), (Vec(1, 0), focus_cover(1))],
        [(0, 1, Vec(1, 0), False), (0, 1, Vec(1, 0), False)],
    )
    assert graph_contribution(g) == F(-1, 2)


def test_higher_valence_is_structured_error():
    with pytest.raises(HigherValenceVertex):
        from tropdisk.multiplicity import VertexKind

        multiplicity(VertexKind("mystery"))


# -- integer weights against the Fraction reference ---------------------------


def test_weights_agree_with_fraction_reference_on_shipped_graphs():
    # every solved graph of every shipped case, under the default convention
    # and one that flips the sign of every determinant up to 5
    flipped = SignConvention({d: -DEFAULT_CONVENTION.pant_sign(d) for d in range(1, 6)})
    tags = set()
    for name, case in SHIPPED_CASES:
        for g in builtin_fixture(name).run(case).graphs:
            graph = g.graph
            for convention in (DEFAULT_CONVENTION, flipped):
                aut, weights, total = graph_weights(graph, convention)
                assert all(type(w) is tuple and len(w) == 2 for w in weights), weights
                assert ((aut, tuple(F(*w) for w in weights), total)
                        == reference_graph_weights(graph, convention))
                assert type(total) is F
                for v in graph.vertices:
                    weights_agree(v.kind, convention)
            assert (g.aut_order, g.weights, g.contribution) == graph_weights(graph)
            tags |= {v.kind.tag for v in graph.vertices}
    assert {PAIR_OF_PANTS, PANT, FOCUS_COVER, PERP_COLLISION} <= tags, tags


def test_weight_one_kinds_share_one_fraction():
    # the unit kinds weigh 1, and `graph_weights` writes each as (1, 1)
    kinds = (cylinder(), boundary_collision(0), pant_seam(), two_ended_strip(),
             three_ended_strip(), VertexKind(FIBER_ROOT), VertexKind(CORNER_CAP))
    assert all(multiplicity(kind) == 1 for kind in kinds)
    graph = _graph([(Vec(i, 0), kind) for i, kind in enumerate(kinds)], [])
    assert graph_weights(graph) == (1, ((1, 1),) * len(kinds), 1)


def test_graph_weights_are_reduced_integer_pairs():
    # `_ratio` leaves a pant's (sign * D, 2) and a stacked focus cover's
    # (w * (-1)^(l - 1), l^2) unreduced; the weights are in lowest terms
    diag = (1, 1, 1)
    kinds = (holomorphic_pant((1, -1, 1), diag),   # D = 2: (-2, 2)
             holomorphic_pant((4, -2, 1), diag),   # D = 6: (-6, 2)
             focus_cover(2, 0, weight=2))          # w = 2, l = 2: (-2, 4)
    assert [pant_determinant(kind) for kind in kinds[:2]] == [2, 6]
    graph = _graph([(Vec(i, 0), kind) for i, kind in enumerate(kinds)], [])
    aut, weights, total = graph_weights(graph)
    assert weights == ((-1, 1), (-3, 1), (-1, 2))
    for n, d in weights:
        assert math.gcd(n, d) == 1 and d > 0
    assert (aut, tuple(F(*w) for w in weights), total) == reference_graph_weights(graph)


def test_pair_of_pants_agrees_with_fraction_reference():
    # integral, half- and third-integral legs, zero and parallel ones included
    values = [F(n, 2) for n in range(-3, 4)] + [F(n, 3) for n in (-2, 1, 4)]
    legs = [Vec(x, y) for x in values for y in values]
    for d1 in legs:
        for d2 in legs:
            weights_agree(pair_of_pants(homogeneous(d1), homogeneous(d2)))


def test_pant_edge_cases_agree_with_fraction_reference():
    diag = Vec(1, 1)
    # a zero Lagrangian direction has no primitive direction
    for e_black in (Vec(1, 0), Vec(F(1, 2), 3)):
        kind = holomorphic_pant(homogeneous(e_black), homogeneous(Vec(0, 0)))
        expected = (GeometryError, "zero vector has no primitive direction")
        assert _outcome(pant_determinant, kind) == expected
        assert weights_agree(kind) == expected
    # a non-integral e_black: the determinant is truncated towards zero
    for e_black, d in ((Vec(F(3, 2), -1), 2), (Vec(F(-3, 2), 1), 2),
                       (Vec(F(1, 3), F(5, 3)), 1), (Vec(F(7, 4), 0), 1)):
        kind = holomorphic_pant(homogeneous(e_black), homogeneous(diag))
        assert pant_determinant(kind) == d
        assert weights_agree(kind) == F(DEFAULT_CONVENTION.pant_sign(d) * d, 2)
    # D = 0: along the edge, or truncated to 0
    for e_black in (Vec(2, 2), Vec(-1, -1), Vec(F(1, 2), 0), Vec(F(-1, 3), F(1, 3))):
        kind = holomorphic_pant(homogeneous(e_black), homogeneous(diag))
        assert pant_determinant(kind) == 0
        assert weights_agree(kind) == (GeometryError,
                                       "pant with closed edge along the Lagrangian")
    # a non-primitive, rational Lagrangian direction reads as its primitive one
    for lam in (Vec(3, 3), Vec(F(1, 2), F(1, 2)), Vec(F(-2, 3), F(-2, 3))):
        for e in itertools.product(range(-3, 4), repeat=2):
            weights_agree(holomorphic_pant(homogeneous(Vec(*e)), homogeneous(lam)))
