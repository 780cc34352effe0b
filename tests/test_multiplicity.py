from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropdisk.diskgraph import DiskEdge, DiskGraph, DiskVertex
from tropdisk.geometry import Vec, apply_matrix
from tropdisk.multiplicity import (
    CORNER_CAP,
    DEFAULT_CONVENTION,
    FIBER_ROOT,
    HigherValenceVertex,
    VertexKind,
    aut_order,
    boundary_collision,
    cylinder,
    focus_cover,
    focus_cover_pair,
    graph_contribution,
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


def test_nine_branch_values():
    assert multiplicity(cylinder()) == 1
    assert multiplicity(pair_of_pants(Vec(1, 0), Vec(0, 1))) == 1
    assert multiplicity(pair_of_pants(Vec(1, 1), Vec(-2, 1))) == 3
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
    diag = Vec(1, 1)
    d1 = holomorphic_pant(Vec(1, 0), diag)
    d2 = holomorphic_pant(Vec(1, -1), diag)
    d3 = holomorphic_pant(Vec(2, -1), diag)
    assert (pant_determinant(d1), multiplicity(d1)) == (1, F(-1, 2))
    assert (pant_determinant(d2), multiplicity(d2)) == (2, F(-1))
    assert (pant_determinant(d3), multiplicity(d3)) == (3, F(3, 2))


def test_pant_strip_direction_balancing():
    # 2 w + e_black + r(e_black) = 0, w parallel to the edge
    w = pant_strip_direction(Vec(0, -1), Vec(1, 1))
    assert w == Vec(F(1, 2), F(1, 2))
    w2 = pant_strip_direction(Vec(1, 1), Vec(0, 1))
    assert w2 == Vec(0, -1)


def test_pant_sign_override():
    convention = DEFAULT_CONVENTION.merged([[3, -1]])
    kind = holomorphic_pant(Vec(2, -1), Vec(1, 1))
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
    kind = holomorphic_pant(Vec(1, 0), Vec(1, 1))
    assert multiplicity(kind) == multiplicity(kind)


def test_degenerate_pair_of_pants_rejected():
    from tropdisk.geometry import GeometryError

    with pytest.raises(GeometryError):
        multiplicity(pair_of_pants(Vec(1, 0), Vec(2, 0)))


def test_maslov_contributions():
    # closed univalent ends count +2, focus covers and their partners included
    for kind in (boundary_collision(0), VertexKind(CORNER_CAP), focus_cover(1),
                 focus_cover(2), focus_cover_pair(2)):
        assert index_diagnostic(kind) == 2
    assert index_diagnostic(three_ended_strip()) == -2
    assert index_diagnostic(pair_of_pants(Vec(1, 0), Vec(0, 1))) == -2
    for kind in (cylinder(), perp_collision(1), holomorphic_pant(Vec(1, 0), Vec(1, 1)),
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
    assert multiplicity(pair_of_pants(a, b)) == multiplicity(
        pair_of_pants(apply_matrix(m, a), apply_matrix(m, b))
    )


# -- automorphisms ------------------------------------------------------------


def _graph(vertices, edges):
    return DiskGraph(
        [DiskVertex(f"v{i}", pos, kind) for i, (pos, kind) in enumerate(vertices)],
        [DiskEdge((f"v{a}", f"v{b}"), d, open_) for a, b, d, open_ in edges],
    )


def test_aut_order_trivial():
    g = _graph(
        [(Vec(0, 0), perp_collision(1)), (Vec(1, 1), boundary_collision(0)),
         (Vec(-1, 0), boundary_collision(1))],
        [(0, 1, Vec(1, 1), False), (0, 2, Vec(-1, 0), False)],
    )
    assert aut_order(g) == 1


def test_aut_order_doubled_edge():
    g = _graph(
        [(Vec(0, 0), perp_collision(1)), (Vec(1, 0), focus_cover(1)),
         (Vec(1, 0), focus_cover(1))],
        [(0, 1, Vec(1, 0), False), (0, 2, Vec(1, 0), False)],
    )
    assert aut_order(g) == 2


def test_aut_order_symmetric_star():
    g = _graph(
        [(Vec(0, 0), pair_of_pants(Vec(1, 0), Vec(0, 1))),
         (Vec(1, 0), focus_cover(1)), (Vec(1, 0), focus_cover(1)),
         (Vec(1, 0), focus_cover(1))],
        [(0, 1, Vec(1, 0), False), (0, 2, Vec(1, 0), False),
         (0, 3, Vec(1, 0), False)],
    )
    assert aut_order(g) == 6


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
    g = _graph(
        [(Vec(0, 0), perp_collision(1)), (Vec(1, 0), focus_cover(1)),
         (Vec(1, 0), focus_cover(1))],
        [(0, 1, Vec(1, 0), False), (0, 2, Vec(1, 0), False)],
    )
    assert graph_contribution(g) == F(-1, 2)


def test_higher_valence_is_structured_error():
    with pytest.raises(HigherValenceVertex):
        from tropdisk.multiplicity import VertexKind

        multiplicity(VertexKind("mystery"))
