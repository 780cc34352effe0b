import gc
import itertools
import math
import pathlib
import random
import re
import runpy
import weakref
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_classify import classify_agrees
from test_diagram import reference_boundary_hit, reference_facets, reference_facets_through
from test_geometry import apply_matrix, ray_point_param
from test_lagrangian import ALLOWABILITY_CODES
from tropdisk.classify import classify_vertex
from tropdisk.diagram import BaseDiagram, FocusFocus
from tropdisk.diskgraph import (
    Constraint,
    DiskEdge,
    DiskGraph,
    DiskVertex,
)
import tropdisk.enumerate as enumerate_module
from tropdisk.enumerate import (
    NO_FLAGS,
    FixtureFlags,
    SearchBounds,
    _build_graph,
    _candidate_graphs,
    _cap_admits,
    _Completion,
    _direction_pairs,
    _echelon_rank,
    _EdgeSpec,
    _Origin,
    _pant_root_directions,
    _Ray,
    _rigidity_rows,
    _Tracer,
    _unique_graphs,
    _VertexSpec,
    cancellation_report,
    enumerate_disks,
    potential,
    rigidity_dimension,
)
from tropdisk.fixtures import FIXTURE_NAMES, SHIPPED_CASES, builtin_fixture
from tropdisk.geometry import (
    GeometryError,
    Vec,
    det2,
    from_homogeneous,
    homogeneous,
    primitive,
    primitive_and_length,
    primitive_pair,
    ray_point,
    ray_segment_hit,
    shear_apply,
)
from tropdisk.lagrangian import LagEdge, LagGraph, LagVertex, segment_graph
from tropdisk.multiplicity import (
    BOUNDARY_COLLISION,
    CORNER_CAP,
    CYLINDER,
    FIBER_ROOT,
    FOCUS_COVER,
    FOCUS_COVER_PAIR,
    PANT,
    PANT_SEAM,
    PERP_COLLISION,
    THREE_STRIP,
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
    graph_index_diagnostic,
)


# -- rigidity ---------------------------------------------------------------


def test_rigidity_single_boundary_edge_is_rigid():
    fx = builtin_fixture("dp6")
    lag = fx.lagrangians["segment"]
    constraint = Constraint.on_lagrangian(lag, 0, F(1, 2))
    g = DiskGraph(
        [DiskVertex("r", homogeneous(Vec(0, 0)), perp_collision(1)),
         DiskVertex("b", homogeneous(Vec(F(1, 2), F(1, 2))), boundary_collision(0))],
        [DiskEdge(("r", "b"), homogeneous(Vec(1, 1)))],
    )
    assert rigidity_dimension(g, fx.diagram, lag, constraint) == 0


def test_rigidity_free_trivalent_vertex_deformable():
    # interior pair of pants with three mid-facet legs and no constraint:
    # the vertex slides in a two-parameter family (each leaf stays on its
    # facet line), so the exact solution space has dimension two
    fx = builtin_fixture("dp6")
    g = DiskGraph(
        [DiskVertex("c", homogeneous(Vec(F(1, 8), F(1, 4))), pair_of_pants((1, 1, 1), (-1, 0, 1))),
         DiskVertex("a", homogeneous(Vec(F(7, 16), F(9, 16))), boundary_collision(0)),
         DiskVertex("b", homogeneous(Vec(-1, F(1, 4))), boundary_collision(2)),
         DiskVertex("d", homogeneous(Vec(F(1, 8), -1)), boundary_collision(4))],
        [DiskEdge(("c", "a"), homogeneous(Vec(1, 1))),
         DiskEdge(("c", "b"), homogeneous(Vec(-1, 0))),
         DiskEdge(("c", "d"), homogeneous(Vec(0, -1)))],
    )
    assert rigidity_dimension(g, fx.diagram, None, None) == 2


def test_rigidity_inconsistent_system():
    fx = builtin_fixture("dp6")
    lag = fx.lagrangians["segment"]
    constraint = Constraint.on_lagrangian(lag, 0, F(1, 2))
    # edge direction cannot reach the claimed focus anchor: inconsistent rows
    g = DiskGraph(
        [DiskVertex("r", homogeneous(Vec(0, 0)), perp_collision(1)),
         DiskVertex("f", homogeneous(Vec(F(1, 2), F(1, 2))), focus_cover(1, 0))],
        [DiskEdge(("r", "f"), homogeneous(Vec(1, 0)))],
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


def _integer_system(rows, rhs):
    """The rational system rows . x = rhs as `_echelon_rank` reads it: each
    row with its right-hand side appended, scaled by the lcm of its
    denominators to integers."""
    matrix = []
    for row, b in zip(rows, rhs):
        entries = [F(x) for x in (*row, b)]
        den = math.lcm(*(x.denominator for x in entries))
        matrix.append([x.numerator * (den // x.denominator) for x in entries])
    return matrix


def test_row_reduce_rank_matches_brute_force_minors():
    rng = random.Random(20260808)
    for _ in range(1000):
        n_rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        rows = [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(n_rows)]
        rank, consistent = _echelon_rank(_integer_system(rows, [F(0)] * n_rows), cols)
        assert consistent
        assert rank == _minor_rank(rows, cols)


def _row_reduce_reference(rows, rhs, cols):
    """Fraction Gauss-Jordan elimination, the reference for `_echelon_rank`."""
    matrix = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(matrix)):
            if matrix[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        pv = matrix[rank][col]
        matrix[rank] = [x / pv for x in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
        if rank == len(matrix):
            break
    consistent = all(
        row[-1] == 0 or any(x != 0 for x in row[:-1]) for row in matrix
    )
    return rank, consistent


@st.composite
def linear_systems(draw):
    """(rows, rhs, cols, drifted) with rational entries and right-hand sides.

    Some appended rows combine two earlier rows, with the right-hand side
    combined the same way plus a drift; a nonzero drift makes the system
    inconsistent on purpose.
    """
    entry = st.just(F(0)) | st.fractions(min_value=-4, max_value=4, max_denominator=4)
    cols = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(n)]
    rhs = [draw(entry) for _ in range(n)]
    drifted = False
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        s, t, drift = draw(entry), draw(entry), draw(entry)
        rows.append([s * x + t * y for x, y in zip(rows[i], rows[j])])
        rhs.append(s * rhs[i] + t * rhs[j] + drift)
        drifted = drifted or drift != 0
    return rows, rhs, cols, drifted


@given(linear_systems())
def test_row_reduce_agrees_with_fraction_reference(system):
    rows, rhs, cols, drifted = system
    rank, consistent = _echelon_rank(_integer_system(rows, rhs), cols)
    assert (rank, consistent) == _row_reduce_reference(rows, rhs, cols)
    if drifted:
        assert not consistent


def _reference_rigidity_rows(graph, diagram, lag, constraint):
    """The former row builder of `rigidity_dimension`: (rows, rhs) in
    Fractions from the Vec directions, cut segments and facet lines."""
    cols = 2 * len(graph.vertices)
    rows, rhs = [], []

    def add_row(coeffs, b):
        row = [F(0)] * cols
        for c, val in coeffs.items():
            row[c] = F(val)
        rows.append(row)
        rhs.append(F(b))

    for e in graph.edges:
        ia = graph.index_of(e.endpoints[0])
        ib = graph.index_of(e.endpoints[1])
        d = e.direction
        add_row({2 * ib: d.y, 2 * ib + 1: -d.x, 2 * ia: -d.y, 2 * ia + 1: d.x}, 0)

    def add_facet(i, fi):
        facet = reference_facets(diagram)[fi]
        nrm = facet.inward_normal
        add_row({2 * i: nrm.x, 2 * i + 1: nrm.y}, facet.line_value())

    def add_line(i, a, d):
        add_row({2 * i: d.y, 2 * i + 1: -d.x}, d.y * a.x - d.x * a.y)

    def add_pin(i, p):
        add_row({2 * i: 1}, p.x)
        add_row({2 * i + 1: 1}, p.y)

    for v in graph.vertices:
        i = graph.index_of(v.id)
        tag = v.kind.tag
        if tag in (FOCUS_COVER, FOCUS_COVER_PAIR):
            add_pin(i, diagram.focus_foci[v.kind.index].position
                    if v.kind.index is not None else v.position)
        elif tag == BOUNDARY_COLLISION:
            for fi in diagram.facets_through(homogeneous(v.position)):
                add_facet(i, fi)
        elif tag == CYLINDER:
            j = diagram.cut_through(homogeneous(v.position))
            if j is not None:
                start, end = diagram.branch_cuts()[j]
                add_line(i, start, end - start)
            else:
                for fi in diagram.facets_through(homogeneous(v.position))[:1]:
                    add_facet(i, fi)
        elif tag in (PERP_COLLISION, PANT):
            if lag is not None and constraint is not None and constraint.edge_index is not None:
                edge = lag.edges[constraint.edge_index]
                a, b = (lag.position(x) for x in edge.endpoints)
                add_line(i, a, b - a)
        elif tag in (CORNER_CAP, PANT_SEAM, THREE_STRIP):
            add_pin(i, v.position)

    if _pinned_root(graph, constraint):
        root = next(v for v in graph.vertices if v.kind.tag in ROOT_KINDS)
        add_pin(graph.index_of(root.id), constraint.point)
    return rows, rhs


ROOT_KINDS = (PERP_COLLISION, PANT, FIBER_ROOT, THREE_STRIP)


def _pinned_root(graph, constraint):
    """Whether the constraint pins a vertex of the graph: its first of a
    root kind."""
    return constraint is not None and any(v.kind.tag in ROOT_KINDS for v in graph.vertices)


@pytest.fixture(scope="module")
def solved_graphs():
    """(diagram, lag, constraint, graph) for every graph of every shipped case,
    of every shipped case moved by a rational shift (so that the facet, cut
    and Lagrangian rows need a scale) and of the seed-0 sweep positions of
    perfbench/workloads.py."""
    workloads = runpy.run_path(str(pathlib.Path(__file__).resolve().parent.parent
                                   / "perfbench" / "workloads.py"))
    shift = Vec(F(1, 3), F(-1, 5))
    runs = []
    for name, case in SHIPPED_CASES:
        fx = builtin_fixture(name)
        spec, constraint = fx.case(case), fx.constraint(case)
        runs.append((fx.diagram_for(case), fx.lagrangian_for(case), constraint,
                     spec.bounds, spec.flags))
        diagram, lag, flags = _shifted_case(fx, case, shift)
        if constraint.edge_index is not None:
            moved = Constraint.on_lagrangian(lag, constraint.edge_index, constraint.t)
        else:
            moved = Constraint.interior_point(constraint.point + shift)
        runs.append((diagram, lag, moved, spec.bounds, flags))
    for name, case, edge, k in workloads["sweep_positions"](0):
        fx = builtin_fixture(name)
        lag, spec = fx.lagrangian_for(case), fx.case(case)
        t = F(k, workloads["SWEEP_DENOMINATOR"])
        runs.append((fx.diagram_for(case), lag, Constraint.on_lagrangian(lag, edge, t),
                     spec.bounds, spec.flags))
    out = []
    for diagram, lag, constraint, bounds, flags in runs:
        result = enumerate_disks(diagram, lag, constraint, bounds, flags=flags)
        out.extend((diagram, lag, constraint, g.graph) for g in result.graphs)
    return out


def test_solved_graphs_cover_every_row_kind(solved_graphs):
    # cylinders on a cut and on a facet, half-integral open strip directions,
    # corner caps and scaled rows, so that every row the rigidity solve
    # writes is checked
    on_cut = on_facet = half = corner = scaled = 0
    for diagram, lag, _, graph in solved_graphs:
        scaled += diagram.facet_rows()[1] > 1 and diagram.cut_rows()[1] > 1 and (
            lag is None or lag.edge_rows()[1] > 1)
        for v in graph.vertices:
            if v.kind.tag == CYLINDER:
                if diagram.cut_through(homogeneous(v.position)) is None:
                    on_facet += 1
                else:
                    on_cut += 1
            corner += v.kind.tag == CORNER_CAP
        half += sum(not e.direction.is_integral() for e in graph.edges)
    assert on_cut and on_facet and half and corner and scaled


def _pin_variant(variant, constraint, lag):
    """The constraint as solved, dropped, or with its point shifted: off the
    constraint edge's line for a Lagrangian constraint."""
    if variant == "solved":
        return constraint
    if variant == "unpinned":
        return None
    if constraint.edge_index is not None:
        a, b = (lag.position(x) for x in lag.edges[constraint.edge_index].endpoints)
        shift = Vec(a.y - b.y, b.x - a.x) * F(1, 7)
    else:
        shift = Vec(F(1, 7), F(1, 11))
    return Constraint(constraint.point + shift, constraint.edge_index, constraint.t)


def _frame_positions(frame, origin):
    """Vertex i's x and y as rows over the frame's unknowns and a constant:
    dx, dy at the column of each entry of its path, which starts with a
    free root's x and y, and the origin's x and y, the constraint's point
    when it pins the root, else (0, 0)."""
    positions = []
    for path in frame.paths:
        x, y = [0] * frame.cols + [origin.x], [0] * frame.cols + [origin.y]
        for col, dx, dy in path:
            x[col], y[col] = dx, dy
        positions.append((x, y))
    return positions


def _composed(ref_row, b, positions):
    """A reference row over the 2n vertex coordinates, with its right-hand
    side b, composed with the frame's vertex positions: their constant
    moves to the right-hand side."""
    *coeffs, const = [sum(ref_row[2 * i] * x[c] + ref_row[2 * i + 1] * y[c]
                          for i, (x, y) in enumerate(positions))
                      for c in range(len(positions[0][0]))]
    return coeffs + [b - const]


def _reference_dimension(graph, diagram, lag, constraint):
    ref_rows, ref_rhs = _reference_rigidity_rows(graph, diagram, lag, constraint)
    cols = 2 * len(graph.vertices)
    rank, consistent = _row_reduce_reference(ref_rows, ref_rhs, cols)
    return cols - rank if consistent else -1


def _assert_rows_compose_reference(graph, diagram, lag, constraint):
    """Row by row: each anchor row is a nonzero multiple of the reference's
    Fraction row, with its right-hand side, composed with the frame's
    vertex positions (a zero row of a zero one).  A constraint that pins
    the root fixes it at its point: the lengths are the only unknowns, and
    the reference's two pin rows compose to 0 = 0.  Composed, the
    reference's row of an edge on the tree vanishes, since the tree puts
    the edge along its direction whatever its length; for an edge a -> b
    off the tree, with direction (dx, dy)/W, it is dy times its x closing
    row less dx times its y closing row, over W."""
    rows, frame = _rigidity_rows(graph, diagram, lag, constraint)
    ref_rows, ref_rhs = _reference_rigidity_rows(graph, diagram, lag, constraint)
    n_edges, n_closing = len(graph.edges), 2 * len(frame.closing)
    pinned = _pinned_root(graph, constraint)
    assert frame.cols == n_edges + (0 if pinned else 2)
    positions = _frame_positions(frame, constraint.point if pinned else Vec(0, 0))
    composed = [_composed(r, b, positions) for r, b in zip(ref_rows, ref_rhs)]
    n_anchors = len(ref_rows) - n_edges - (2 if pinned else 0)
    assert len(rows) == n_anchors + n_closing
    for pin in composed[n_edges + n_anchors:]:
        assert not any(pin)
    for row, ref in zip(rows, composed[n_edges:n_edges + n_anchors]):
        k = next((k for k, x in enumerate(ref) if x), None)
        if k is None:
            assert not any(row)
        else:
            assert row == [x * row[k] / ref[k] for x in ref] and row[k]
    edges = [(graph.index_of(e.endpoints[0]), graph.index_of(e.endpoints[1]),
              *homogeneous(e.direction)) for e in graph.edges]
    tree = set(range(n_edges))
    closing_rows = rows[len(rows) - n_closing:]
    for (col, *end), x_row, y_row in zip(frame.closing, closing_rows[::2], closing_rows[1::2]):
        k = min(k for k in tree if list(edges[k][:4]) == end)
        tree.remove(k)
        dx, dy, w = edges[k][2:]
        assert x_row[col] == -dx and y_row[col] == -dy
        assert [w * x for x in composed[k]] == [dy * x - dx * y for x, y in zip(x_row, y_row)]
    for k in tree:
        assert not any(composed[k])


@pytest.mark.parametrize("variant", ["solved", "unpinned", "shifted"])
def test_rigidity_agrees_with_fraction_reference(solved_graphs, variant):
    # the rows compose the reference's, and the dimensions agree
    for diagram, lag, constraint, graph in solved_graphs:
        pin = _pin_variant(variant, constraint, lag)
        _assert_rows_compose_reference(graph, diagram, lag, pin)
        dim = rigidity_dimension(graph, diagram, lag, pin)
        assert dim == _reference_dimension(graph, diagram, lag, pin)
        if variant == "solved":
            assert dim == 0
        elif variant == "unpinned":
            # dropping rows keeps the system solvable; only a pant seam's pin
            # and the pant's edges can fix the root without the constraint
            assert dim > 0 or (dim == 0 and any(v.kind.tag == PANT_SEAM
                                                for v in graph.vertices))
        elif constraint.edge_index is not None:
            assert dim == -1  # a fiber root moves with its graph instead


@settings(max_examples=20, deadline=None)
@given(st.fractions(min_value=-2, max_value=2, max_denominator=12), st.booleans())
def test_rigidity_with_a_moved_constraint_agrees_with_fraction_reference(solved_graphs, s, off):
    # the constraint moved along its edge's line or off it, for an interior
    # one along (1, 0) or (0, 1): the root moves with it
    for diagram, lag, constraint, graph in solved_graphs:
        if constraint.edge_index is not None:
            a, b = (lag.position(x) for x in lag.edges[constraint.edge_index].endpoints)
            along = b - a
        else:
            along = Vec(1, 0)
        step = Vec(-along.y, along.x) if off else along
        moved = Constraint(constraint.point + step * s, constraint.edge_index, constraint.t)
        assert rigidity_dimension(graph, diagram, lag, moved) \
            == _reference_dimension(graph, diagram, lag, moved)


def _hand_built_graphs():
    """(graph, lag, constraint, dimension) on dp6, of shapes no search
    reaches: cycles (one with a half-integral edge, one of two parallel
    edges), no constraint, and anchors that the pinned root cannot meet.
    An edge with a zero direction and two components are no disk graph:
    for them `dimension` is the text of the GeometryError the solve
    raises, pinned or not."""
    lag = builtin_fixture("dp6").lagrangians["segment"]
    on_segment = Constraint.on_lagrangian(lag, 0, F(1, 2))  # at the origin
    at_origin = Constraint.interior_point(Vec(0, 0))
    free = pair_of_pants((1, 1, 1), (-1, 0, 1))

    def edge(a, b, x, y):
        return DiskEdge((a, b), homogeneous(Vec(x, y)))

    zero = DiskGraph(
        [DiskVertex("r", homogeneous(Vec(0, 0)), perp_collision(1)),
         DiskVertex("b", homogeneous(Vec(F(1, 2), F(1, 2))), boundary_collision(0)),
         DiskVertex("z", homogeneous(Vec(F(1, 4), F(-1, 4))), free)],
        [edge("r", "b", 1, 1), edge("r", "z", 0, 0)])
    cycle = DiskGraph(
        [DiskVertex("c", homogeneous(Vec(0, 0)), VertexKind(FIBER_ROOT)),
         DiskVertex("p", homogeneous(Vec(F(1, 4), 0)), free),
         DiskVertex("q", homogeneous(Vec(0, F(1, 4))), free)],
        [edge("c", "p", F(1, 2), 0), edge("p", "q", -1, 1), edge("q", "c", 0, -1)])
    parallel = DiskGraph(
        [DiskVertex("c", homogeneous(Vec(0, 0)), VertexKind(FIBER_ROOT)),
         DiskVertex("p", homogeneous(Vec(F(1, 4), 0)), free)],
        [edge("c", "p", 1, 0), edge("p", "c", -1, 0)])
    two = DiskGraph(
        [DiskVertex("r", homogeneous(Vec(0, 0)), perp_collision(1)),
         DiskVertex("b", homogeneous(Vec(F(1, 2), F(1, 2))), boundary_collision(0)),
         DiskVertex("s", homogeneous(Vec(F(-1, 2), 0)), pant_seam()),
         DiskVertex("f", homogeneous(Vec(-1, 0)), boundary_collision(2))],
        [edge("r", "b", 1, 1), edge("s", "f", -1, 0)])
    trivalent = DiskGraph(
        [DiskVertex("c", homogeneous(Vec(F(1, 8), F(1, 4))), free),
         DiskVertex("a", homogeneous(Vec(F(7, 16), F(9, 16))), boundary_collision(0)),
         DiskVertex("b", homogeneous(Vec(-1, F(1, 4))), boundary_collision(2)),
         DiskVertex("d", homogeneous(Vec(F(1, 8), -1)), boundary_collision(4))],
        [edge("c", "a", 1, 1), edge("c", "b", -1, 0), edge("c", "d", 0, -1)])
    # the shifted constraint pins the pant root off the segment's line, so
    # its anchor row has zero coefficients and a nonzero right-hand side
    pant_root = DiskGraph(
        [DiskVertex("r", homogeneous(Vec(0, 0)), holomorphic_pant((1, 1, 1), (-1, 1, 1))),
         DiskVertex("b", homogeneous(Vec(F(1, 2), F(1, 2))), boundary_collision(0))],
        [edge("r", "b", 1, 1)])
    off_segment = Constraint(Vec(F(1, 8), F(1, 8)), 0, F(1, 2))
    # from the root at the origin no length reaches the seam's pin
    seam = DiskGraph(
        [DiskVertex("r", homogeneous(Vec(0, 0)), perp_collision(1)),
         DiskVertex("s", homogeneous(Vec(F(-1, 2), F(1, 4))), pant_seam())],
        [edge("r", "s", -1, 0)])
    return [
        pytest.param(pant_root, lag, off_segment, -1, id="pant root off its line"),
        pytest.param(seam, lag, on_segment, -1, id="seam pin against the constraint"),
        pytest.param(zero, lag, on_segment, "has no direction", id="zero direction"),
        pytest.param(zero, lag, None, "has no direction", id="zero direction, unpinned"),
        pytest.param(cycle, None, at_origin, 1, id="cycle"),
        pytest.param(cycle, None, None, 3, id="cycle, unpinned"),
        pytest.param(parallel, None, at_origin, 1, id="parallel edges"),
        pytest.param(two, lag, on_segment, "is not joined to the others", id="two components"),
        pytest.param(two, lag, None, "is not joined to the others",
                     id="two components, unpinned"),
        pytest.param(trivalent, None, None, 2, id="no constraint"),
    ]


@pytest.mark.parametrize("graph, lag, constraint, dimension", _hand_built_graphs())
def test_rigidity_of_hand_built_graphs(graph, lag, constraint, dimension):
    diagram = builtin_fixture("dp6").diagram
    if isinstance(dimension, str):
        # a disk graph is connected and each of its edges has a direction
        with pytest.raises(GeometryError, match=dimension):
            rigidity_dimension(graph, diagram, lag, constraint)
        return
    _assert_rows_compose_reference(graph, diagram, lag, constraint)
    assert rigidity_dimension(graph, diagram, lag, constraint) \
        == _reference_dimension(graph, diagram, lag, constraint) == dimension


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


def test_solved_vertices_classify_as_the_fraction_reference(solved_graphs):
    # every vertex, the kinds and the corner-mode graphs that re-validation
    # skips included: the same kind, or the same exception and message
    kinds = Counter()
    for diagram, lag, _, graph in solved_graphs:
        for v in graph.vertices:
            outcome = classify_agrees(graph, v.id, diagram, lag)
            kinds[outcome.tag if isinstance(outcome, VertexKind) else outcome[0].__name__] += 1
    # fiber roots match no case; a corner cap's rim piece is a bivalent
    # vertex with two closed edges
    assert set(kinds) == {CYLINDER, BOUNDARY_COLLISION, FOCUS_COVER, PANT, PANT_SEAM,
                          PERP_COLLISION, "pair_of_pants", "UnclassifiableVertex",
                          "HigherValenceVertex"}, kinds


def _candidate_vertices(fx, case, tag):
    """(graph, vertex, leg) for every vertex of the tag among the graphs of
    the case's completions, leg the triple of its first edge oriented away
    from it."""
    c = fx.case(case)
    completions = _candidate_graphs(fx.diagram_for(case), fx.lagrangian_for(case),
                                    fx.constraint(case), c.bounds, c.flags)
    out = []
    for g in (_build_graph(c) for c in completions):
        for v in g.vertices:
            if v.kind.tag == tag:
                e = next(e for e in g.edges if v.id in e.endpoints)
                X, Y, W = e.triple
                out.append((g, v, (X, Y, W) if e.endpoints[0] == v.id else (-X, -Y, W)))
    return out


def test_search_and_classifier_follow_one_collision_rule(monkeypatch):
    # under a rule where every boundary hit collides with its first facet,
    # the search ends legs off the normals and the classifier accepts them
    fx = builtin_fixture("p1xp1")
    diagram = fx.diagram_for("fiber")
    normals = diagram.normals()
    monkeypatch.setattr(BaseDiagram, "collision_facet", lambda self, facets, d: facets[0])
    found = _candidate_vertices(fx, "fiber", BOUNDARY_COLLISION)
    off_normal = [(g, v) for g, v, leg in found if leg != (*normals[v.kind.index], 1)]
    assert off_normal
    for g, v in off_normal:
        assert classify_vertex(g, v.id, diagram, None) == v.kind
    monkeypatch.undo()
    found = _candidate_vertices(fx, "fiber", BOUNDARY_COLLISION)
    assert found and all(leg == (*normals[v.kind.index], 1) for _, v, leg in found)
    for g, v in off_normal:
        with pytest.raises(UnclassifiableVertex, match="not along a primitive inward normal"):
            classify_vertex(g, v.id, diagram, None)


def test_search_classifier_and_allowability_follow_one_focus_leg_rule(monkeypatch):
    # under a rule where every direction runs along the shear, the search
    # ends a fiber's leg at dp5's focus along (1, 2), off its shear (0, 1),
    # the classifier accepts it, and allowability stops reporting the
    # Lagrangian whose leg leaves the focus off the shear line
    diagram = builtin_fixture("dp5").diagram
    assert [ff.pi for ff in diagram.focus_foci] == [Vec(0, 1)]
    constraint = Constraint.interior_point(Vec(F(1, 4), F(-1, 4)))

    def focus_legs(graphs):
        return [(g, v, e.direction) for g in graphs for v in g.vertices
                if v.kind.tag == FOCUS_COVER for e in g.edges if v.id in e.endpoints]

    (param,) = [p for p in ALLOWABILITY_CODES if p.id == "focus_leg_not_along_shear"]
    name, lag, codes = param.values
    assert name == "dp5" and "focus_leg_not_along_shear:v0" in codes
    monkeypatch.setattr(BaseDiagram, "along_shear", lambda self, j, d: True)
    graphs = [eg.graph for eg in enumerate_disks(diagram, None, constraint).graphs]
    assert len(graphs) == 6
    off_shear = [(g, v, d) for g, v, d in focus_legs(graphs) if d.x != 0]
    assert [d for _, _, d in off_shear] == [Vec(1, 2)]
    for g, v, _ in off_shear:
        assert classify_vertex(g, v.id, diagram, None) == v.kind
    assert lag.is_allowable(diagram) == [c for c in codes if not c.startswith("focus_leg")]
    monkeypatch.undo()
    graphs = [eg.graph for eg in enumerate_disks(diagram, None, constraint).graphs]
    assert len(graphs) == 5
    assert all(d.x == 0 for _, _, d in focus_legs(graphs))
    for g, v, _ in off_shear:
        with pytest.raises(UnclassifiableVertex, match="focus leg not along the shear"):
            classify_vertex(g, v.id, diagram, None)
    assert lag.is_allowable(diagram) == codes


def test_along_shear_is_the_cross_product_with_pi():
    # every focus of every fixture diagram, every nonzero pair in [-4, 4]^2
    diagrams = []
    for name in FIXTURE_NAMES:
        fx = builtin_fixture(name)
        diagrams += [fx.diagram, *fx.diagram_variants.values()]
    assert sum(len(d.focus_foci) for d in diagrams) > 5
    pairs = [d for d in itertools.product(range(-4, 5), repeat=2) if d != (0, 0)]
    for diagram in diagrams:
        for j, ff in enumerate(diagram.focus_foci):
            assert [diagram.along_shear(j, d) for d in pairs] == [
                det2(Vec(*d), ff.pi) == 0 for d in pairs]


REFUSED_CONSTRAINTS = [
    pytest.param(Vec(F(1, 2), F(1, 4)), "constraint point:1/2,1/4 is a focus-focus value: "
                 "its fiber is nodal, not a Lagrangian torus", id="focus"),
    pytest.param(Vec(1, 0), "constraint point:1,0 is not strictly inside the polygon",
                 id="corner"),
    pytest.param(Vec(5, 5), "constraint point:5,5 is not strictly inside the polygon",
                 id="outside"),
]


@pytest.mark.parametrize("point,text", REFUSED_CONSTRAINTS)
def test_library_calls_refuse_a_point_off_a_regular_fiber(point, text):
    # on dp5, with no Lagrangian: the search would count 4 graphs at the
    # focus and 5 at the corner, and W = 0 outside the polygon
    fx = builtin_fixture("dp5")
    constraint = Constraint.interior_point(point)
    runs = [partial(enumerate_disks, fx.diagram, None), partial(potential, fx.diagram, None),
            partial(fx.run, "segment", None)]
    for run in runs:
        with pytest.raises(GeometryError) as raised:
            run(constraint)
        assert str(raised.value) == text


def test_library_calls_refuse_an_edge_constraint_with_no_lagrangian():
    fx = builtin_fixture("dp5")
    for run in (enumerate_disks, potential):
        with pytest.raises(GeometryError) as raised:
            run(fx.diagram, None, fx.constraint("segment"))
        assert str(raised.value) == "edge constraints need a Lagrangian"


def test_library_calls_refuse_an_edge_constraint_off_its_lagrangian():
    # dp6's segment constraint at t = 1/3 lies on no edge of the trivalent
    # Lagrangian (the search would return W = 0 as complete) and the segment
    # has no edge 2 (the search would raise IndexError); a constraint with
    # no edge index is an interior point, so an edge constraint is refused
    # one when it is built
    fx = builtin_fixture("dp6")
    segment, trivalent = fx.lagrangians["segment"], fx.lagrangians["trivalent"]
    at_third = Constraint.on_lagrangian(segment, 0, F(1, 3))
    cases = [
        (trivalent, "trivalent", at_third,
         "constraint point:1/3,-1/3 is not on edge 0 of the Lagrangian"),
        (segment, "segment", replace(at_third, edge_index=2),
         "constraint edge 2 out of range: the Lagrangian has 1 edge(s)"),
    ]
    with pytest.raises(GeometryError, match="^an edge constraint needs an edge index$"):
        Constraint.on_lagrangian(segment, None, F(1, 3))
    for lag, case, constraint, text in cases:
        runs = [partial(enumerate_disks, fx.diagram, lag), partial(potential, fx.diagram, lag),
                partial(fx.run, case, None)]
        for run in runs:
            with pytest.raises(GeometryError) as raised:
                run(constraint)
            assert str(raised.value) == text


SQUARE = [Vec(2, -2), Vec(2, 2), Vec(-2, 2), Vec(-2, -2)]

INVALID_DIAGRAMS = [
    # without the check the search gives W = 4 at (1/2, 1/3) and W = 3 at (-1, 1/5)
    pytest.param(BaseDiagram("shear", SQUARE, [FocusFocus(Vec(0, 0), Vec(0, 2), Vec(1, 0))]),
                 Vec(F(1, 2), F(1, 3)), "shear_direction_not_primitive:0", id="pi=(0,2)"),
    # without the check the search gives W = 4
    pytest.param(BaseDiagram("twin", SQUARE, [FocusFocus(Vec(0, 0), Vec(0, 1), Vec(1, 0)),
                                              FocusFocus(Vec(0, 0), Vec(1, 0), Vec(0, 1))]),
                 Vec(F(1, 2), F(1, 3)), "branch_cut_crosses_focus:0:1", id="foci_coincide"),
    # without the check the point is refused as not strictly inside the polygon
    pytest.param(BaseDiagram("dent", [Vec(0, 0), Vec(2, 0), Vec(1, F(1, 4)), Vec(2, 2),
                                      Vec(0, 2)]),
                 Vec(F(1, 2), F(3, 2)), "polygon_not_convex_at:1", id="not_convex"),
    # without the check the search raises "not a valid shear" at the crossing
    pytest.param(BaseDiagram("shear", SQUARE, [FocusFocus(Vec(0, 0), Vec(0, 1), Vec(1, 1))]),
                 Vec(F(1, 2), F(1, 3)), "shear_not_unipotent:0", id="not_unipotent"),
]


@pytest.mark.parametrize("diagram,point,code", INVALID_DIAGRAMS)
def test_library_calls_refuse_an_invalid_diagram_before_any_search(
        monkeypatch, diagram, point, code):
    def searched(*args):
        raise AssertionError("the search ran on an invalid diagram")

    monkeypatch.setattr("tropdisk.enumerate._candidate_graphs", searched)
    assert diagram.validate()[0] == code
    fx = replace(builtin_fixture("dp6"), diagram=diagram)
    constraint = Constraint.interior_point(point)
    runs = [partial(enumerate_disks, diagram, None), partial(potential, diagram, None),
            partial(fx.run, "fiber", None)]
    for run in runs:
        with pytest.raises(GeometryError, match=f"invalid diagram {diagram.name}: \\['{code}'"):
            run(constraint)


REFUSED_BOUNDS = [
    pytest.param(SearchBounds(6, 0, 2, 3), "search bound max_lattice_length is 0, below 1",
                 id="L=0"),
    pytest.param(SearchBounds(6, -2, 2, 3), "search bound max_lattice_length is -2, below 1",
                 id="L=-2"),
    pytest.param(SearchBounds(0, 3, 2, 3), "search bound max_vertices is 0, below 1",
                 id="V=0"),
    pytest.param(SearchBounds(6, 3, -1, 3), "search bound max_cut_crossings is -1, below 0",
                 id="C=-1"),
    pytest.param(SearchBounds(6, 3, 2, -1), "search bound max_splits is -1, below 0",
                 id="S=-1"),
]


@pytest.mark.parametrize("bounds,text", REFUSED_BOUNDS)
def test_library_calls_refuse_a_bound_the_cli_refuses(bounds, text):
    # on dp6's segment the search would return W = 0 as complete for L <= 0
    # or V <= 0, where no root has room for a vertex, and read a negative C
    # or S as 0
    fx = builtin_fixture("dp6")
    diagram, lag, constraint = fx.diagram, fx.lagrangian_for("segment"), fx.constraint("segment")
    runs = [partial(enumerate_disks, diagram, lag, constraint),
            partial(potential, diagram, lag, constraint), partial(fx.run, "segment")]
    for run in runs:
        with pytest.raises(GeometryError) as raised:
            run(bounds)
        assert str(raised.value) == text
    assert fx.run("segment", SearchBounds(1, 1, 0, 0)).complete


def test_library_calls_refuse_a_lagrangian_edge_of_weight_two():
    # the search reads every Lagrangian edge as primitive: through it, dp6's
    # segment with its edge of weight 2 would give W = -2 as complete.  A
    # zero-length edge off the constraint never enters the search.
    fx = builtin_fixture("dp6")
    segment = fx.lagrangians["segment"]
    heavy = LagGraph(list(segment.vertices), [replace(segment.edges[0], weight=2)])
    assert heavy.is_allowable(fx.diagram) == ["edge_weight_not_one:0"]
    heavy_fx = replace(fx, lagrangians={**fx.lagrangians, "segment": heavy})
    text = "the search reads every Lagrangian edge as primitive: edge_weight_not_one:0"
    for constraint in (Constraint.on_lagrangian(heavy, 0, F(1, 2)),
                       Constraint.interior_point(Vec(F(1, 3), F(1, 5)))):
        runs = [partial(enumerate_disks, fx.diagram, heavy),
                partial(potential, fx.diagram, heavy), partial(heavy_fx.run, "segment", None)]
        for run in runs:
            with pytest.raises(GeometryError) as raised:
                run(constraint)
            assert str(raised.value) == text
    end = segment.vertices[1]
    zero = LagGraph([*segment.vertices, replace(end, id="v2")],
                    [*segment.edges, LagEdge((end.id, "v2"))])
    assert zero.is_allowable(fx.diagram) == ["zero_length_edge:1"]
    assert potential(fx.diagram, zero, Constraint.on_lagrangian(zero, 0, F(1, 2))) == -2


def test_search_and_classifier_follow_one_perpendicular(monkeypatch):
    # under a rule that calls (1, 0) the antidiagonal's normal, the search
    # roots its collisions along (+-1, 0) and the classifier accepts them
    fx = builtin_fixture("p1xp1")
    diagram, lag = fx.diagram_for("antidiagonal"), fx.lagrangian_for("antidiagonal")
    assert lag.edge_normal(0) == (1, 1)
    monkeypatch.setattr(LagGraph, "edge_normal", lambda self, k: (1, 0))
    found = _candidate_vertices(fx, "antidiagonal", PERP_COLLISION)
    assert sorted(leg for _, _, leg in found) == [(-1, 0, 1), (1, 0, 1)]
    for g, v, _ in found:
        assert classify_vertex(g, v.id, diagram, lag) == v.kind == perp_collision(1)
    monkeypatch.undo()
    # along (+-1, +-1) the legs meet corners, where no collision ends them
    assert _candidate_vertices(fx, "antidiagonal", PERP_COLLISION) == []
    for g, v, _ in found:
        with pytest.raises(UnclassifiableVertex, match="matches no case"):
            classify_vertex(g, v.id, diagram, lag)


def test_node_free_search_casts_only_directions_that_can_end(monkeypatch):
    # with no focus nothing redirects a ray, so the search casts a direction
    # only where it can end: head-on on a facet, or at a flagged corner
    # whose cap admits it (dp7 leg)
    cast, casts = _Tracer._cast, []

    def recorded(self, origin, table, prim):
        casts.append((self, prim))
        return cast(self, origin, table, prim)

    monkeypatch.setattr(_Tracer, "_cast", recorded)
    for name, case in SHIPPED_CASES:
        fx = builtin_fixture(name)
        c = fx.case(case)
        diagram = fx.diagram_for(case)
        if diagram.focus_foci:
            continue
        casts.clear()
        enumerate_disks(diagram, fx.lagrangian_for(case), fx.constraint(case), c.bounds,
                        flags=c.flags)
        # the antidiagonal's perpendiculars run into corners and it has no seam
        assert casts or (name, case) == ("p1xp1", "antidiagonal")
        facets = range(len(diagram.normals()))
        for tracer, (px, py) in casts:
            offsets = [offset for caps in tracer.cap_table.values() for _, offset in caps]
            assert (diagram.collision_facet(facets, (-px, -py)) is not None
                    or any(_cap_admits(offset, (px, py)) for offset in offsets)), (case, px, py)


def _reference_can_end(tracer, prim, ell):
    """`_Tracer._can_end` as a scan of every focus, every facet's normal and
    every corner of `cap_table`, kept as the reference."""
    diagram = tracer.diagram
    if any(diagram.along_shear(j, prim) for j in range(len(tracer.foci))):
        return True
    return ell == 1 and (
        (-prim[0], -prim[1]) in diagram.normals()
        or any(_cap_admits(offset, prim)
               for caps in tracer.cap_table.values() for _, offset in caps))


def test_can_end_agrees_with_a_reference_scan():
    # every shipped case with its own flags, and with two hand-built caps on
    # its first corners: one whose corner is the limit (offset (0, 0), which
    # admits every direction) and two with no limit (offset None)
    offsets = set()
    for name, case in SHIPPED_CASES:
        fx = builtin_fixture(name)
        c = fx.case(case)
        diagram, lag = fx.diagram_for(case), fx.lagrangian_for(case)
        corners = diagram.polygon
        at_limit = FixtureFlags(corner_caps=(corners[0],), corner_limit=corners[0])
        no_limit = FixtureFlags(corner_caps=tuple(corners[:2]))
        bound = c.bounds.max_lattice_length
        prims = {primitive_pair(*d)[:2] for d in _direction_pairs(bound)}
        if lag is not None:
            for k in range(len(lag.edges)):
                nx, ny = lag.edge_normal(k)
                prims |= {(nx, ny), (-nx, -ny)}
        for flags in (c.flags, at_limit, no_limit):
            tracer = _fresh_tracer(diagram, lag, c.bounds, flags)
            offsets |= {offset for caps in tracer.cap_table.values() for _, offset in caps}
            for prim in sorted(prims):
                for ell in range(1, bound + 1):
                    assert tracer._can_end(prim, ell) == _reference_can_end(tracer, prim, ell), \
                        (name, case, flags, prim, ell)
    assert {(0, 0), None} <= offsets


def test_fixture_flags_store_their_triples():
    # the triples are derived fields: equal to `homogeneous` of each Vec,
    # outside ==, hash and repr, and rebuilt by `replace`
    caps, limit = (Vec(-1, 1), Vec(F(1, 2), F(-1, 3))), Vec(F(1, 3), 0)
    flags = FixtureFlags(corner_caps=caps, corner_limit=limit)
    assert flags.cap_triples == ((-1, 1, 1), (3, -2, 6))
    assert flags.limit_triple == homogeneous(limit) == (1, 0, 3)
    assert (NO_FLAGS.cap_triples, NO_FLAGS.limit_triple) == ((), None)
    for name, case in SHIPPED_CASES:
        shipped = builtin_fixture(name).case(case).flags
        assert shipped.cap_triples == tuple(homogeneous(c) for c in shipped.corner_caps)
        assert shipped.limit_triple == (None if shipped.corner_limit is None
                                        else homogeneous(shipped.corner_limit))
    assert [f.name for f in fields(FixtureFlags) if f.compare or f.repr or f.init] == [
        "corner_caps", "corner_limit"]
    same = FixtureFlags(corner_caps=tuple(caps), corner_limit=Vec(F(2, 6), 0))
    assert same == flags and hash(same) == hash(flags) == hash((caps, limit))
    assert flags != FixtureFlags(corner_caps=caps)
    assert repr(flags) == f"FixtureFlags(corner_caps={caps!r}, corner_limit={limit!r})"
    moved = replace(flags, corner_caps=(Vec(2, -3),), corner_limit=None)
    assert (moved.cap_triples, moved.limit_triple) == (((2, -3, 1),), None)
    assert replace(flags).cap_triples == flags.cap_triples
    assert replace(NO_FLAGS, corner_limit=limit).limit_triple == (1, 0, 3)


def test_tracer_builds_no_vec(monkeypatch):
    # building a tracer and tracing every root direction of every shipped
    # case builds no Vec
    built = []
    init = Vec.__init__

    def counted(self, x, y):
        built.append((x, y))
        init(self, x, y)

    for name, case in SHIPPED_CASES:
        fx = builtin_fixture(name)
        c = fx.case(case)
        diagram, lag = fx.diagram_for(case), fx.lagrangian_for(case)
        origin = homogeneous(fx.constraint(case).point)
        monkeypatch.setattr(Vec, "__init__", counted)
        tracer = _fresh_tracer(diagram, lag, c.bounds, c.flags)
        traced = [tracer._trace(origin, d, c.bounds.max_cut_crossings, c.bounds.max_splits,
                                c.bounds.max_vertices - 1)
                  for d in _direction_pairs(c.bounds.max_lattice_length)]
        monkeypatch.undo()
        assert any(traced) and not hasattr(tracer, "vecs")
    assert built == []


def test_enumeration_builds_no_vec(monkeypatch):
    # a whole enumeration of every shipped case, from its checks of the
    # constraint to the weights of its graphs, builds no Vec: the graphs
    # store the search's triples
    built, graphs = [], 0
    init = Vec.__init__

    def counted(self, x, y):
        built.append((x, y))
        init(self, x, y)

    for name, case in SHIPPED_CASES:
        fx = builtin_fixture(name)
        c = fx.case(case)
        diagram, lag, constraint = (fx.diagram_for(case), fx.lagrangian_for(case),
                                    fx.constraint(case))
        monkeypatch.setattr(Vec, "__init__", counted)
        result = enumerate_disks(diagram, lag, constraint, c.bounds, flags=c.flags)
        monkeypatch.undo()
        graphs += len(result.graphs)
    assert graphs and built == []


def test_enumeration_builds_one_fraction_per_counted_graph(monkeypatch):
    # the weights of a counted graph are integer pairs: its contribution is
    # the one Fraction a whole enumeration of each shipped case builds for it
    built = []
    new = F.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    for name, case in SHIPPED_CASES:
        fx = builtin_fixture(name)
        c = fx.case(case)
        diagram, lag, constraint = (fx.diagram_for(case), fx.lagrangian_for(case),
                                    fx.constraint(case))
        built.clear()
        monkeypatch.setattr(F, "__new__", counted)
        result = enumerate_disks(diagram, lag, constraint, c.bounds, flags=c.flags)
        monkeypatch.undo()
        assert len(built) == len(result.graphs), (name, case, built)


def test_search_hands_each_graph_its_canonical_triples():
    # every vertex and edge triple of every searched graph is canonical:
    # gcd(X, Y, W) = 1 and W > 0, as `homogeneous` writes it, so equal
    # points and directions have equal triples
    for name, case in SHIPPED_CASES:
        for g in builtin_fixture(name).run(case).graphs:
            triples = [v.triple for v in g.graph.vertices] + [e.triple for e in g.graph.edges]
            for X, Y, W in triples:
                assert W > 0 and math.gcd(X, Y, W) == 1, (name, case, (X, Y, W))


def test_corner_mode_reads_the_corner_cap_kind():
    root = DiskVertex("v0", homogeneous(Vec(0, 0)), perp_collision(1))
    plain = DiskGraph(
        [root, DiskVertex("v1", homogeneous(Vec(1, 0)), boundary_collision(0))],
        [DiskEdge(("v0", "v1"), homogeneous(Vec(1, 0)))],
    )
    corner = DiskGraph(
        [root, DiskVertex("v1", homogeneous(Vec(1, 0)), cylinder()),
         DiskVertex("v2", homogeneous(Vec(1, 1)), VertexKind(CORNER_CAP))],
        [DiskEdge(("v0", "v1"), homogeneous(Vec(1, 0))),
         DiskEdge(("v1", "v2"), homogeneous(Vec(0, 1)))],
    )
    assert plain.corner_mode is False
    assert corner.corner_mode is True


# -- boundary hits ------------------------------------------------------------


BOUNDARY_DIAGRAMS = [
    diagram
    for fx in map(builtin_fixture, FIXTURE_NAMES)
    for diagram in [fx.diagram, *fx.diagram_variants.values()]
]


@given(st.data())
def test_boundary_hit_facets_are_facets_through_the_hit(data):
    # a ray from an interior point leaves the polygon once, so the facets hit
    # at the smallest parameter are every facet through the exit point
    diagram = data.draw(st.sampled_from(BOUNDARY_DIAGRAMS))
    polygon = diagram.polygon
    weights = data.draw(st.lists(st.integers(1, 8), min_size=len(polygon),
                                 max_size=len(polygon)))
    # all weights positive: strictly inside the convex polygon
    origin = sum((v * w for v, w in zip(polygon, weights)), Vec(0, 0)) / sum(weights)
    corner = data.draw(st.none() | st.sampled_from(polygon))
    if corner is None:
        d = data.draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any))
    else:
        d = primitive(corner - origin).as_int_pair()  # exits through a corner
    t_num, t_den, facets = diagram.boundary_hit(homogeneous(origin), d)
    point = from_homogeneous(ray_point(homogeneous(origin), d, t_num, t_den))
    # both sides read the integer facet rows: the Fraction reference checks them
    assert facets == diagram.facets_through(homogeneous(point))
    assert facets == reference_facets_through(diagram, point)
    if corner is not None:
        assert point == corner and len(facets) == 2


# a vertex budget that no trace reaches, so that it never binds
NO_CAP = 64


def _trace_vec(tracer, p, d, crossings, splits, room):
    """`_Tracer._trace` from the point p along the Vec d, or [] when d is
    not integral."""
    if not d.is_integral():
        return []
    return tracer._trace(homogeneous(p), d.as_int_pair(), crossings, splits, room)


def _square_with_focus(sigma):
    return BaseDiagram(
        "shear", [Vec(2, -2), Vec(2, 2), Vec(-2, 2), Vec(-2, -2)],
        [FocusFocus(Vec(0, 0), pi=Vec(0, 1), sigma=sigma, cut_sign=1)],
    )


def test_tracer_rejects_a_non_unipotent_shear_at_the_crossing():
    # <sigma, pi> = 1: the ray from (-1, 1) along (1, 0) crosses the cut at (0, 1)
    tracer = _fresh_tracer(_square_with_focus(Vec(1, 1)), None, SearchBounds(), NO_FLAGS)
    assert len(_trace_vec(tracer, Vec(-1, 1), Vec(0, -1), 2, 0, NO_CAP)) == 1  # crosses no cut
    with pytest.raises(GeometryError, match="not a valid shear"):
        _trace_vec(tracer, Vec(-1, 1), Vec(1, 0), 2, 0, NO_CAP)


def test_tracer_rejects_a_non_integral_shear_covector():
    with pytest.raises(GeometryError):
        _fresh_tracer(_square_with_focus(Vec(F(1, 2), 0)), None, SearchBounds(), NO_FLAGS)


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
    facets = reference_facets(builtin_fixture("dp6").diagram)
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


# -- the area of a counted graph (ROADMAP item 10) ----------------------------


def _area(graph):
    """The reference of `DiskGraph.area()`: the sum over the graph's edges,
    open strips included, of <d, b - a> in Fractions, d the edge's
    direction, a and b its end points."""
    point = {v.id: from_homogeneous(v.triple) for v in graph.vertices}
    total = F(0)
    for e in graph.edges:
        a, b = (point[vid] for vid in e.endpoints)
        total += from_homogeneous(e.triple).dot(b - a)
    return total


CORNER_CAP_AREA = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 15: the corner-cap graph has area 2")
NODE_FREE_SPHERES = [
    ("p1xp1", "antidiagonal"),
    pytest.param("dp7", "leg", marks=CORNER_CAP_AREA),
    pytest.param("dp7", "leg_alt", marks=CORNER_CAP_AREA),
    ("dp7", "diag"), ("dp6", "segment"), ("dp6", "segment_alt"), ("dp6", "trivalent"),
]


@pytest.mark.parametrize("name,case", NODE_FREE_SPHERES)
def test_node_free_sphere_graphs_have_area_one(name, case):
    # on a monotone diagram every Maslov-two disk on a sphere has the area of
    # the central fiber's Cho-Oh disks, 1 on p1xp1, dp7 and dp6
    assert [g.graph.area() for g in builtin_fixture(name).run(case).graphs
            if g.graph.area() != 1] == []


FIBER_POINTS = [Vec(0, 0), Vec(F(1, 16), F(1, 32)), Vec(F(-1, 5), F(1, 7)),
                Vec(F(1, 7), F(-1, 5)), Vec(F(1, 3), F(1, 5)), Vec(F(-1, 3), F(-1, 9))]


@pytest.mark.parametrize("name", ["p1xp1", "dp7", "dp6"])
def test_fiber_graphs_have_the_area_of_their_facet_distance(name):
    # a fiber disk ending on facet i has area l_i(p), the lattice distance
    # from the constraint point p to facet i
    diagram = builtin_fixture(name).diagram
    facets = reference_facets(diagram)
    counted = 0
    for p in FIBER_POINTS:
        for g in enumerate_disks(diagram, None, Constraint.interior_point(p)).graphs:
            (end,) = [v for v in g.graph.vertices if v.kind.tag == BOUNDARY_COLLISION]
            facet = facets[end.kind.index]
            assert g.graph.area() == facet.inward_normal.dot(p) - facet.line_value()
            counted += 1
    assert counted >= len(FIBER_POINTS)


# -- stability properties -----------------------------------------------------


@pytest.mark.parametrize("name,case", SHIPPED_CASES)
def test_bounds_saturation(name, case):
    fx = builtin_fixture(name)
    base = fx.run(case)
    bumped = fx.run(case, fx.case(case).bounds.bumped())
    assert base.total() == bumped.total()


# the totals each of these cases reaches at its own bounds, then with every
# bound raised, splits included: the search is not saturated (ROADMAP item 2)
UNSATURATED_IN_SPLITS = {
    ("dp3", "trivalent"): (-6, -36),
    ("dp2", "l2"): (-12, -48),
    ("dp1", "vertical"): (-60, -240),
}


@pytest.mark.parametrize("name,case", [
    pytest.param(name, case, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="{} -> {} with one more split (ROADMAP item 2)".format(
            *UNSATURATED_IN_SPLITS[name, case])))
    if (name, case) in UNSATURATED_IN_SPLITS else (name, case)
    for name, case in SHIPPED_CASES])
def test_bounds_saturation_with_one_more_split(name, case):
    fx = builtin_fixture(name)
    bounds = fx.case(case).bounds
    base = fx.run(case)
    bumped = fx.run(case, replace(bounds.bumped(), max_splits=bounds.max_splits + 1))
    totals = (base.total(), bumped.total())
    # a known-unsaturated case whose totals move fails outright, not as the xfail
    if totals != UNSATURATED_IN_SPLITS.get((name, case), totals):
        pytest.fail(f"totals moved from {UNSATURATED_IN_SPLITS[name, case]} to {totals}")
    assert totals[0] == totals[1]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="no graph completes: W = 0 (ROADMAP item 13)")
@pytest.mark.parametrize("t", [F(1, 4), F(3, 8), F(1, 2), F(5, 8), F(3, 4)])
def test_dp7_diagonal_sphere_gives_minus_one(t):
    # the segment (1, -1) -> (-1, 1) in dp7, with no flag: -1 is the only
    # integer eigenvalue of c1 quantum multiplication on dp7 = Bl2 P2
    diagram = builtin_fixture("dp7").diagram
    lag = segment_graph(Vec(1, -1), Vec(-1, 1))
    assert lag.is_allowable(diagram) == []
    result = enumerate_disks(diagram, lag, Constraint.on_lagrangian(lag, 0, t))
    assert result.total() == -1


@pytest.mark.parametrize("name,case", SHIPPED_CASES)
def test_determinism(name, case):
    r1 = builtin_fixture(name).run(case)
    r2 = builtin_fixture(name).run(case)
    assert [g.graph.signature() for g in r1.graphs] == [
        g.graph.signature() for g in r2.graphs
    ]
    assert r1.contributions() == r2.contributions()


def _kind_vec(triple):
    """A kind's homogeneous triple read back as the Vec it was built from."""
    return None if triple is None else from_homogeneous(triple)


def _reference_signature(g):
    """The former body of `DiskGraph.signature()`, field by field on Fractions."""
    verts = sorted(
        (v.kind.tag, tuple(v.position), v.kind.ell,
         tuple(_kind_vec(v.kind.d1)) if _kind_vec(v.kind.d1) else None,
         tuple(_kind_vec(v.kind.d2)) if _kind_vec(v.kind.d2) else None,
         tuple(_kind_vec(v.kind.e_black)) if _kind_vec(v.kind.e_black) else None)
        for v in g.vertices
    )
    edges = sorted(
        tuple(sorted([tuple(g.position_of(e.endpoints[0])),
                      tuple(g.position_of(e.endpoints[1]))]))
        + (tuple(e.direction), e.open)
        for e in g.edges
    )
    return (tuple(verts), tuple(edges))


def test_signature_agrees_with_former_body(solved_graphs):
    # the repr is the benchmark's digest, so it must not move either; the
    # hand-made graph has a zero and a half-integral kind vector and an edge
    # written from its larger end
    odd = DiskGraph(
        [DiskVertex("a", homogeneous(Vec(F(1, 3), 0)),
                    VertexKind(PANT, e_black=homogeneous(Vec(0, 0)))),
         DiskVertex("b", homogeneous(Vec(0, 1)),
                    VertexKind(THREE_STRIP, d1=homogeneous(Vec(F(1, 2), 1)),
                               d2=homogeneous(Vec(2, -1))))],
        [DiskEdge(("a", "b"), homogeneous(Vec(F(-1, 3), 1)), True)])
    for g in [odd] + [g for _, _, _, g in solved_graphs]:
        assert g.signature() == _reference_signature(g)
        assert repr(g.signature()) == repr(_reference_signature(g))


def _unique_graphs_reference(completions):
    """The former dedup of enumerate_disks: a dict keyed by the former
    signature of each completion's graph that keeps the first completion,
    then its items in signature order."""
    unique = {}
    for c in completions:
        unique.setdefault(_reference_signature(_build_graph(c)), c)
    return [c for _, c in sorted(unique.items())]


@pytest.mark.parametrize("name,case,length,splits,counts", [
    ("dp1", "vertical", 4, 2, (44, 34)),
    ("dp2", "l2", 4, 1, (26, 16)),
])
def test_unique_graphs_agree_with_dict_reference(name, case, length, splits, counts):
    # searches whose candidates repeat: the same representative of each
    # signature, in the same order
    fx = builtin_fixture(name)
    c = fx.case(case)
    bounds = replace(c.bounds, max_lattice_length=length, max_splits=splits)
    assert _unique_graphs_agree(fx.diagram_for(case), fx.lagrangian_for(case),
                                fx.constraint(case), bounds, c.flags) == counts


def _unique_graphs_agree(diagram, lag, constraint, bounds, flags):
    """Assert that `_unique_graphs` keeps the reference's representative of
    each signature, in the reference's order; returns the numbers of
    completions and of unique graphs."""
    completions = _candidate_graphs(diagram, lag, constraint, bounds, flags)
    unique = _unique_graphs(completions)
    expected = _unique_graphs_reference(completions)
    assert len(unique) == len(expected)
    assert all(c is d for c, d in zip(unique, expected))
    return len(completions), len(unique)


def test_enumeration_builds_only_the_graphs_it_solves(monkeypatch):
    # of the 44 completions and 34 unique graphs of the dedup test above,
    # a graph is built for each one that is counted or dropped as non-rigid
    built = []
    post_init = DiskGraph.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    fx = builtin_fixture("dp1")
    c = fx.case("vertical")
    bounds = replace(c.bounds, max_lattice_length=4, max_splits=2)
    monkeypatch.setattr(DiskGraph, "__post_init__", counted)
    result = fx.run("vertical", bounds)
    monkeypatch.undo()
    dropped = [w for w in result.warnings if w.startswith("dropped non-rigid")]
    assert result.graphs
    assert len(built) == len(result.graphs) + len(dropped) < 44


GRID_CELLS = [(name, case, length, splits)
              for name, case in (("dp1", "vertical"), ("dp2", "l2"), ("dp3", "trivalent"))
              for length in (3, 4) for splits in (1, 2)]


@pytest.mark.parametrize("name,case,length,splits",
                         [(name, case, None, None) for name, case in SHIPPED_CASES] + GRID_CELLS)
def test_unique_graphs_agree_with_dict_reference_on_every_case(name, case, length, splits):
    # every shipped case under its own bounds, then the long searches of the
    # L x S grid, at bounds the shipped cases never reach
    fx = builtin_fixture(name)
    c = fx.case(case)
    bounds = c.bounds if length is None else replace(
        c.bounds, max_lattice_length=length, max_splits=splits)
    _unique_graphs_agree(fx.diagram_for(case), fx.lagrangian_for(case),
                         fx.constraint(case), bounds, c.flags)


def test_area_agrees_with_fraction_reference(solved_graphs):
    # every graph of every shipped case, moved by a shift and at the sweep
    # positions, then every graph of the grid cells
    graphs = [graph for _, _, _, graph in solved_graphs]
    for name, case, length, splits in GRID_CELLS:
        bounds = replace(builtin_fixture(name).case(case).bounds,
                         max_lattice_length=length, max_splits=splits)
        graphs += [g.graph for g in builtin_fixture(name).run(case, bounds).graphs]
    assert graphs
    for graph in graphs:
        assert graph.area() == _area(graph)


def _budget_inputs():
    """(id, diagram, lag, constraint, bounds, flags) of the searches whose
    vertex budget is pinned: every shipped case at its own bounds and at
    V = 1, 2 and 3, the grid cells, the dp3 and dp1 fibers at two of the
    five points, and dp3's trivalent sphere at V = 2 and t = 5/8 on edge 0,
    where one perpendicular side ends at once and the other only past a
    cut, so the root counts by a side that does not fit."""
    out = []
    for name, case in SHIPPED_CASES:
        fx = builtin_fixture(name)
        c = fx.case(case)
        for v in (c.bounds.max_vertices, 1, 2, 3):
            out.append((f"{name}-{case}-V{v}", fx.diagram_for(case), fx.lagrangian_for(case),
                        fx.constraint(case), replace(c.bounds, max_vertices=v), c.flags))
    for name, case, length, splits in GRID_CELLS:
        fx = builtin_fixture(name)
        c = fx.case(case)
        out.append((f"{name}-{case}-L{length}S{splits}", fx.diagram_for(case),
                    fx.lagrangian_for(case), fx.constraint(case),
                    replace(c.bounds, max_lattice_length=length, max_splits=splits), c.flags))
    for name in ("dp3", "dp1"):
        for p in (Vec(F(1, 16), F(1, 32)), Vec(F(1, 7), F(-1, 5))):
            out.append((f"{name}-fiber-{p.x},{p.y}", builtin_fixture(name).diagram, None,
                        Constraint.interior_point(p), SearchBounds(), NO_FLAGS))
    fx = builtin_fixture("dp3")
    lag = fx.lagrangian_for("trivalent")
    out.append(("dp3-trivalent-edge0@5/8-V2", fx.diagram_for("trivalent"), lag,
                Constraint.on_lagrangian(lag, 0, F(5, 8)),
                replace(fx.case("trivalent").bounds, max_vertices=2), NO_FLAGS))
    return [pytest.param(*entry[1:], id=entry[0]) for entry in out]


@pytest.mark.parametrize("diagram,lag,constraint,bounds,flags", _budget_inputs())
def test_vertex_budget_drops_only_graphs_over_the_cap(diagram, lag, constraint, bounds, flags):
    # the search under the cap V gives, in order, the completions of at most
    # V vertices of the search whose vertex budget never binds
    v = bounds.max_vertices
    capped = _candidate_graphs(diagram, lag, constraint, bounds, flags)
    lifted = _candidate_graphs(diagram, lag, constraint,
                               replace(bounds, max_vertices=NO_CAP), flags)
    assert capped == [c for c in lifted if len(c.vertices) <= v]
    assert all(len(c.vertices) <= v for c in capped)


@pytest.mark.parametrize(
    "name,case,length,splits",
    [(name, case, None, None) for name, case in SHIPPED_CASES
     if builtin_fixture(name).constraint(case).edge_index is not None] + GRID_CELLS)
def test_perpendicular_side_is_traced_again_only_when_its_room_can_bind(
        monkeypatch, name, case, length, splits):
    # the perpendicular root traces each side along +-ell n at the room
    # V - 1, and an empty side once more, at the room that never binds, only
    # when V - 1 is below it: C + 2S + 2 with foci, 2 (a corner cap) without.
    # The pant root skips these directions, for <n, lambda> = 0.
    fx = builtin_fixture(name)
    c = fx.case(case)
    bounds = c.bounds if length is None else replace(
        c.bounds, max_lattice_length=length, max_splits=splits)
    diagram, lag, constraint = fx.diagram_for(case), fx.lagrangian_for(case), fx.constraint(case)
    nx, ny = lag.edge_normal(constraint.edge_index)
    sides = {(s * ell * nx, s * ell * ny)
             for ell in range(1, bounds.max_lattice_length + 1) for s in (1, -1)}
    traced = {}
    trace = _Tracer._trace

    def recording(tracer, origin, d, crossings, splits, room):
        out = trace(tracer, origin, d, crossings, splits, room)
        if origin == constraint.triple and d in sides:
            traced.setdefault(d, []).append((room, bool(out)))
        return out

    monkeypatch.setattr(_Tracer, "_trace", recording)
    _candidate_graphs(diagram, lag, constraint, bounds, c.flags)
    room = bounds.max_vertices - 1
    unbounded = (bounds.max_cut_crossings + 2 * bounds.max_splits
                 if diagram.focus_foci else 0) + 2
    assert traced
    for d, calls in traced.items():
        assert calls[0][0] == room, d
        assert len(calls) <= 2, d
        if len(calls) == 2:
            assert not calls[0][1] and room < unbounded and calls[1][0] == unbounded, d
    if not diagram.focus_foci:  # p1xp1, dp7 and dp6
        assert all(len(calls) == 1 for calls in traced.values())


# (fixture, diagram variant, point): the fibers that built a completion
# with two vertices at one focus before the vertex budget pruned the search;
# each such completion had 7 to 10 vertices against the cap of 6
NODED_FIBERS = (
    [("dp3", None, p) for p in FIBER_POINTS[1:]]
    + [("dp1", None, p) for p in FIBER_POINTS[1:]]
    + [("dp2", "l1", p) for p in FIBER_POINTS[4:]])


@pytest.mark.parametrize("name,variant,point", NODED_FIBERS)
def test_noded_fibers_finish_under_the_default_bounds(name, variant, point):
    fx = builtin_fixture(name)
    diagram = fx.diagram if variant is None else fx.diagram_variants[variant]
    result = enumerate_disks(diagram, None, Constraint.interior_point(point))
    assert result.graphs and result.complete


@pytest.mark.xfail(strict=True, raises=GeometryError,
                   reason="two graph vertices at (1/8, 3/8) (ROADMAP item 5)")
def test_dp3_fiber_finishes_at_seven_vertices():
    # one vertex more than the default cap builds a completion that reaches
    # a focus twice
    diagram = builtin_fixture("dp3").diagram
    try:
        enumerate_disks(diagram, None, Constraint.interior_point(Vec(F(1, 16), F(1, 32))),
                        SearchBounds(max_vertices=7))
    except GeometryError as error:
        assert str(error).startswith("two graph vertices")
        raise


LAGRANGIAN_CASES = [(name, case) for name, case in SHIPPED_CASES
                    if builtin_fixture(name).lagrangian_for(case) is not None]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_unique_graphs_agree_with_dict_reference_at_sweep_positions(data):
    # the constraint at t = k/64 on any edge of any Lagrangian case
    name, case = data.draw(st.sampled_from(LAGRANGIAN_CASES))
    fx = builtin_fixture(name)
    c = fx.case(case)
    lag = fx.lagrangian_for(case)
    edge = data.draw(st.integers(0, len(lag.edges) - 1))
    t = F(data.draw(st.integers(1, 63)), 64)
    _unique_graphs_agree(fx.diagram_for(case), lag, Constraint.on_lagrangian(lag, edge, t),
                         c.bounds, c.flags)


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
    # covectors go by the inverse transpose; det is +1 or -1, so / det = * det
    inv_t = (Vec(m[1].y, -m[1].x) * det, Vec(-m[0].y, m[0].x) * det)
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
    constraint2 = Constraint(apply_matrix(m, constraint.point), constraint.edge_index,
                             constraint.t)
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


# A change of chart M in SL(2, Z) (columns, as `apply_matrix` reads them) gives
# the same manifold and Lagrangian, so W_L must not move (ROADMAP item 9).
CHARTS = {
    "R": (Vec(0, 1), Vec(-1, 0)),  # rotation by 90 degrees
    "S": (Vec(1, 0), Vec(1, 1)),   # [[1, 1], [0, 1]]
    "T": (Vec(1, 1), Vec(0, 1)),   # [[1, 0], [1, 1]]
}

# (fixture, case, chart) -> W_L in that chart, where it differs from the
# fixture chart's; the engine pairs vectors with covectors by the chart's dot
# product (ROADMAP item 9)
CHART_KNOWN_RED = {
    ("dp7", "leg", "T"): "-1/2",
    ("dp7", "diag", "S"): "1/2", ("dp7", "diag", "T"): "1/2",
    ("dp6", "trivalent", "S"): "-1/2", ("dp6", "trivalent", "T"): "-1/2",
    ("dp5", "segment", "S"): "0", ("dp5", "segment", "T"): "0",
    ("dp4", "sphere", "S"): "-2", ("dp4", "sphere", "T"): "-2",
    ("dp3", "trivalent", "S"): "-1", ("dp3", "trivalent", "T"): "-1",
    ("dp2", "l1", "S"): "-2", ("dp2", "l1", "T"): "-2",
    ("dp2", "l2", "S"): "0", ("dp2", "l2", "T"): "-2",
    ("dp1", "vertical", "S"): "0", ("dp1", "vertical", "T"): "-2",
}

CHART_CASES = [(name, case, chart) for name, case in SHIPPED_CASES for chart in CHARTS]


def _in_chart(name, case, chart):
    """The case's diagram, Lagrangian, constraint and flags in the chart."""
    fx = builtin_fixture(name)
    return _transform_all(fx.diagram_for(case), fx.lagrangian_for(case),
                          fx.constraint(case), fx.case(case).flags, CHARTS[chart])


@pytest.mark.parametrize("name,case,chart", CHART_CASES)
def test_chart_change_keeps_inputs_valid(name, case, chart):
    diagram, lag, _, _ = _in_chart(name, case, chart)
    assert diagram.validate() == []
    assert lag is None or lag.is_allowable(diagram) == []


@pytest.mark.parametrize("name,case,chart", [
    pytest.param(name, case, chart, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=f"W_L = {CHART_KNOWN_RED[name, case, chart]} in chart {chart}"))
    if (name, case, chart) in CHART_KNOWN_RED else (name, case, chart)
    for name, case, chart in CHART_CASES])
def test_potential_is_chart_invariant(name, case, chart):
    diagram, lag, constraint, flags = _in_chart(name, case, chart)
    bounds = builtin_fixture(name).case(case).bounds
    total = enumerate_disks(diagram, lag, constraint, bounds, flags=flags).total()
    assert total == builtin_fixture(name).run(case).total()


# -- the integer tracer against its Fraction reference ---------------------------


def _ray_at(origin, d, t_num, t_den):
    """(t, origin + t d) in Fractions, the former `geometry.ray_at`."""
    X, Y, W = origin
    den = W * t_den
    return F(t_num, t_den), Vec(F(X * t_den + d[0] * t_num * W, den),
                                F(Y * t_den + d[1] * t_num * W, den))


def _edge(p, q, d):
    """The completion spec of an edge between two Vec points, along the Vec d."""
    return _EdgeSpec(homogeneous(p), homogeneous(q), homogeneous(d))


def _fresh_tracer(diagram, lag, bounds, flags):
    """A tracer of its own, which no search shares, with its bounds set as a
    search sets them."""
    tracer = _Tracer(diagram, lag, flags)
    tracer.bounds = bounds
    return tracer


class _ReferenceTracer(_Tracer):
    """The tracer whose recursion builds Fractions and Vecs at every event,
    kept as the reference: the former bodies of `trace` and its helpers,
    writing the same specs as the tracer (homogeneous triples), testing
    split legs with `_reference_leg_clear` and capping corners on the
    diagram's Fraction facets and the flags it was given.  Its recursion
    knows no vertex budget: `trace` keeps the completions that fit in the
    room, which is what the tracer's pruning must give."""

    def __init__(self, diagram, lag, bounds, flags):
        super().__init__(diagram, lag, flags)
        self.bounds = bounds
        self.facets = reference_facets(diagram)

    def _lambda_hit(self, origin, prim, limit):
        best = None
        for row in self.lag_rows:
            hit = ray_segment_hit(origin, prim, row, self.lag_scale)
            if hit is None or hit[0] * limit.denominator > limit.numerator * hit[1]:
                continue
            t = F(hit[0], hit[1])
            if best is None or t < best:
                best = t
        return best

    def _boundary_hit(self, origin, prim):
        hit = reference_boundary_hit(self.diagram, origin, prim)
        return None if hit is None else _ray_at(origin, prim, hit[0], hit[1]) + (hit[2],)

    def _cut_events(self, origin, prim):
        events = []
        for j, row in enumerate(self.cut_rows):
            if prim[0] * row[3] - prim[1] * row[2] == 0:
                continue
            hit = ray_segment_hit(origin, prim, row, self.cut_scale)
            if hit is None or hit[2] == 0:
                continue
            t, point = _ray_at(origin, prim, hit[0], hit[1])
            events.append((t, j, point))
        return events

    def _focus_events(self, origin, prim):
        events = []
        for j, row in enumerate(self.cut_rows):
            t = ray_point_param(origin, prim, row[:2], self.cut_scale)
            if t is not None and t[0] > 0:
                events.append((F(*t), j))
        return events

    def trace(self, p, dirval, crossings, splits, room):
        return [c for c in self._trace_all(p, dirval, crossings, splits)
                if len(c.vertices) <= room]

    def _trace_all(self, p, dirval, crossings, splits):
        if not dirval.is_integral():
            return []
        dx, dy = dirval.as_int_pair()
        ell = math.gcd(dx, dy)
        prim = (dx // ell, dy // ell)
        origin = homogeneous(p)

        boundary = self._boundary_hit(origin, prim)
        if boundary is None:
            return []
        t_boundary = boundary[0]

        focus_events = [e for e in self._focus_events(origin, prim) if e[0] <= t_boundary]
        cut_events = [e for e in self._cut_events(origin, prim) if e[0] <= t_boundary]
        t_focus = min((e[0] for e in focus_events), default=None)
        t_cut = min((e[0] for e in cut_events), default=None)

        horizon = t_boundary
        for t in (t_focus, t_cut):
            if t is not None and t < horizon:
                horizon = t
        if self._lambda_hit(origin, prim, horizon) is not None:
            return []

        completions = []
        completions.extend(
            self._split_completions(p, origin, prim, dirval, horizon, crossings, splits)
        )

        if t_focus is not None and t_focus <= (t_cut if t_cut is not None else t_boundary):
            if t_cut is not None and t_cut == t_focus:
                return completions
            j = next(j for (t, j) in focus_events if t == t_focus)
            completions.extend(self._focus_end(p, dirval, prim, ell, j))
            return completions

        if t_cut is not None and t_cut < t_boundary:
            t, j, point = min(cut_events)
            if crossings <= 0:
                return completions
            _, _, cx, cy = self.cut_rows[j]
            side = 1 if cx * prim[1] - cy * prim[0] > 0 else -1
            ff = self.diagram.focus_foci[j]
            new_dir = shear_apply(ff.sigma * side, ff.pi, dirval)
            rest = self._trace_all(point, new_dir, crossings - 1, splits)
            for completion in rest:
                completions.append(
                    completion.prepend(
                        [_VertexSpec(homogeneous(point), cylinder())],
                        [_edge(p, point, dirval)],
                    )
                )
            return completions

        completions.extend(self._boundary_end(p, dirval, boundary[1], boundary[2]))
        return completions

    def _focus_end(self, p, dirval, prim, ell, j):
        ff = self.diagram.focus_foci[j]
        pix, piy = self.shear_table[j]
        if prim[0] * piy - prim[1] * pix != 0:
            return []
        leg = (_edge(p, ff.position, dirval),)
        return [_Completion((fv,), leg) for fv in self._focus_vertices(j, ell)]

    def _boundary_end(self, p, dirval, point, facet_ids):
        for i in facet_ids:
            if dirval == -self.facets[i].inward_normal:
                return [
                    _Completion(
                        (_VertexSpec(homogeneous(point), boundary_collision(i)),),
                        (_edge(p, point, dirval),),
                    )
                ]
        if not self.flags.corner_caps:
            return []
        prim, ell = primitive_and_length(dirval)
        if ell != 1:
            return []  # rim continuations carry primitive directions only
        return self._corner_cap(p, prim, point, facet_ids)

    def _corner_cap(self, p, dirval, hit, facet_ids):
        out = []
        for i in facet_ids:
            facet = self.facets[i]
            for corner in facet.endpoints:
                if corner not in self.flags.corner_caps or corner == hit:
                    continue
                if self.lag is not None and self.lag.vertex_at(homogeneous(corner)) is not None:
                    continue
                if self.flags.corner_limit is not None:
                    if det2(corner - self.flags.corner_limit, dirval) != 0:
                        continue
                tangent = primitive(corner - hit)
                # rim component of the incoming direction must aim at the corner
                rim = det2(dirval, facet.inward_normal)
                aim = det2(tangent, facet.inward_normal)
                if rim == 0 or (rim > 0) != (aim > 0):
                    continue
                out.append(
                    _Completion(
                        (
                            _VertexSpec(homogeneous(hit), cylinder()),
                            _VertexSpec(homogeneous(corner), VertexKind(CORNER_CAP)),
                        ),
                        (_edge(p, hit, dirval), _edge(hit, corner, tangent)),
                    )
                )
        return out

    def _split_completions(self, p, origin, prim, dirval, horizon, crossings, splits):
        if splits <= 0:
            return []
        X, Y, W = origin
        scale = self.cut_scale
        dx, dy = dirval.as_int_pair()
        out = []
        for j, ff in enumerate(self.diagram.focus_foci):
            pix, piy = self.shear_table[j]
            cross = prim[0] * piy - prim[1] * pix
            if cross == 0:
                continue
            fx, fy, _, _ = self.cut_rows[j]
            rx, ry = fx * W - X * scale, fy * W - Y * scale
            t_num = rx * piy - ry * pix
            u_num = rx * prim[1] - ry * prim[0]
            if cross < 0:
                cross, t_num, u_num = -cross, -t_num, -u_num
            t_den = scale * W * cross
            if t_num <= 0 or t_num * horizon.denominator >= horizon.numerator * t_den:
                continue
            if u_num == 0:
                continue
            sign = -1 if u_num > 0 else 1
            w_origin = (X * t_den + prim[0] * t_num * W, Y * t_den + prim[1] * t_num * W,
                        W * t_den)
            if not _reference_leg_clear(self, w_origin, j):
                continue
            w = Vec(F(w_origin[0], w_origin[2]), F(w_origin[1], w_origin[2]))
            for sub_ell in range(1, self.bounds.max_lattice_length + 1):
                m = sub_ell * sign
                arrival = Vec(pix * m, piy * m)
                d2 = Vec(dx - pix * m, dy - piy * m)
                rest = self._trace_all(w, d2, crossings, splits - 1)
                if not rest:
                    continue
                pants = _VertexSpec(homogeneous(w),
                                    pair_of_pants(homogeneous(arrival), homogeneous(d2)))
                legs = [_edge(p, w, dirval), _edge(w, ff.position, arrival)]
                focus_vertices = self._focus_vertices(j, sub_ell)
                for completion in rest:
                    for fv in focus_vertices:
                        out.append(completion.prepend([pants, fv], legs))
        return out


TRACED_CASES = [(name, case) for name in FIXTURE_NAMES
                for case in builtin_fixture(name).cases]


def _shifted_case(fx, case, shift):
    """The case's diagram, Lagrangian and flags moved by `shift`."""
    diagram = fx.diagram_for(case)
    moved = BaseDiagram(diagram.name, [v + shift for v in diagram.polygon], [
        FocusFocus(ff.position + shift, ff.pi, ff.sigma, ff.cut_sign)
        for ff in diagram.focus_foci
    ])
    lag = fx.lagrangian_for(case)
    if lag is not None:
        lag = LagGraph([LagVertex(v.id, v.position + shift, v.anchor, v.anchor_index)
                        for v in lag.vertices], list(lag.edges))
    flags = fx.case(case).flags
    flags = FixtureFlags(
        tuple(c + shift for c in flags.corner_caps),
        None if flags.corner_limit is None else flags.corner_limit + shift,
    )
    return moved, lag, flags


NODED_CASES = [(name, case) for name, case in TRACED_CASES
               if builtin_fixture(name).diagram_for(case).focus_foci]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_trace_agrees_with_fraction_reference(data):
    where = data.draw(st.sampled_from(["interior", "lagrangian", "vertex", "focus", "cut"]))
    cases = NODED_CASES if where in ("focus", "cut") else TRACED_CASES
    name, case = data.draw(st.sampled_from(cases))
    fx = builtin_fixture(name)
    # a rational shift, so that the rows need a scale other than 1
    offset = st.just(F(0)) | st.fractions(-2, 2, max_denominator=12)
    shift = Vec(data.draw(offset), data.draw(offset))
    diagram, lag, flags = _shifted_case(fx, case, shift)
    bounds = fx.case(case).bounds
    ff = data.draw(st.sampled_from(diagram.focus_foci)) if diagram.focus_foci else None
    # nonzero directions in [-4, 4]^2, drawn evenly or as a multiple of an
    # outward facet normal plus a multiple of pi: the directions that end on a
    # facet directly, after a split or after a cut crossing
    evenly = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    normal = st.sampled_from([-facet.inward_normal for facet in reference_facets(diagram)])
    pi = Vec(0, 0) if ff is None else ff.pi
    combined = st.builds(lambda n, a, b: tuple(n * a + pi * b),
                         normal, st.integers(0, 2), st.integers(-2, 2))
    d = Vec(*data.draw((evenly | combined).filter(lambda v: any(v) and max(map(abs, v)) <= 4)))
    step = F(1, data.draw(st.integers(4, 64)))
    if where == "cut":
        # just before a point of the cut, aimed so that the sheared direction
        # past the cut is an outward facet normal (possibly outside [-4, 4]^2)
        j = diagram.focus_foci.index(ff)
        start, end = diagram.branch_cuts()[j]
        past = -data.draw(st.sampled_from(reference_facets(diagram))).inward_normal
        side = 1 if det2(ff.cut_direction(), past) > 0 else -1
        d = shear_apply(ff.sigma * -side, ff.pi, past)
        p = start + (end - start) * F(data.draw(st.integers(1, 15)), 16) - d * step
    elif where == "vertex" and lag is not None:
        # one step before a vertex of the Lagrangian: the ray meets it, often
        # where it also meets the boundary or a focus
        p = data.draw(st.sampled_from(lag.vertices)).position - d * step
    elif where == "lagrangian" and lag is not None:
        edge = data.draw(st.sampled_from(lag.edges))
        a, b = (lag.position(v) for v in edge.endpoints)
        p = a + (b - a) * data.draw(st.fractions(0, 1, max_denominator=16))
    elif where == "focus":
        # on the focus's shear line, where a ray along pi meets the focus, or
        # beside it, where a ray may cross the focus's cut
        along = data.draw(st.fractions(-2, 2, max_denominator=16))
        beside = data.draw(st.just(F(0)) | st.fractions(-1, 1, max_denominator=16))
        p = ff.position + ff.pi * along + Vec(-ff.pi.y, ff.pi.x) * beside
    else:
        polygon = diagram.polygon
        # all weights positive: strictly inside the convex polygon
        weights = data.draw(st.lists(st.integers(1, 8), min_size=len(polygon),
                                     max_size=len(polygon)))
        p = sum((v * w for v, w in zip(polygon, weights)), Vec(0, 0)) / sum(weights)
    # a step past the boundary leaves both tracers with no ray to trace
    assume(diagram.contains(homogeneous(p)))
    crossings, splits = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    # from no room to what a trace of these budgets adds at most: a vertex
    # per crossing, two per split and two at a corner cap
    room = data.draw(st.integers(0, 8))
    tracer = _fresh_tracer(diagram, lag, bounds, flags)
    reference = _ReferenceTracer(diagram, lag, bounds, flags)
    assert (_trace_vec(tracer, p, d, crossings, splits, room)
            == reference.trace(p, d, crossings, splits, room))


@pytest.mark.parametrize("name,case", SHIPPED_CASES)
def test_trace_agrees_with_fraction_reference_at_the_constraint(name, case):
    # every direction a root may take from the case's own constraint point,
    # under the case's own bounds and the room of a one-vertex root (the
    # traces the search itself makes), then with no crossing or split left,
    # where nothing redirects a ray and the tracer casts only the directions
    # that can end
    fx = builtin_fixture(name)
    c = fx.case(case)
    diagram, lag = fx.diagram_for(case), fx.lagrangian_for(case)
    tracer = _fresh_tracer(diagram, lag, c.bounds, c.flags)
    reference = _ReferenceTracer(diagram, lag, c.bounds, c.flags)
    q = fx.constraint(case).point
    room = c.bounds.max_vertices - 1
    found = []
    for crossings, splits in ((c.bounds.max_cut_crossings, c.bounds.max_splits), (0, 0)):
        found.append(0)
        for d in itertools.product(range(-4, 5), repeat=2):
            if any(d):
                d = Vec(*d)
                completions = _trace_vec(tracer, q, d, crossings, splits, room)
                assert completions == reference.trace(q, d, crossings, splits, room), (d, splits)
                found[-1] += len(completions)
    assert all(found), found


@pytest.mark.parametrize("tracer_class", [pytest.param(_fresh_tracer, id="_Tracer"),
                                          _ReferenceTracer])
def test_corner_cap_follows_the_rim_towards_the_corner(tracer_class):
    # dp7 without a Lagrangian, (-1, 1) flagged and no corner limit: both rays
    # from (-1/2, 0) meet the top facet, which ends at the corner (-1, 1)
    diagram = builtin_fixture("dp7").diagram_for("leg")
    tracer = tracer_class(diagram, None, SearchBounds(),
                          FixtureFlags(corner_caps=(Vec(-1, 1),)))
    p = Vec(F(-1, 2), 0)
    trace = tracer.trace if tracer_class is _ReferenceTracer else partial(_trace_vec, tracer)
    # the rim component of (1, 3) points away from the corner
    assert trace(p, Vec(1, 3), 2, 3, NO_CAP) == []
    # that of (-1, 3) points towards it: the rim runs on to the corner, with
    # two vertices, so not within the room of one
    assert trace(p, Vec(-1, 3), 2, 3, 1) == []
    hit, corner = Vec(F(-5, 6), 1), Vec(-1, 1)
    assert trace(p, Vec(-1, 3), 2, 3, 2) == [_Completion(
        (_VertexSpec(homogeneous(hit), cylinder()),
         _VertexSpec(homogeneous(corner), VertexKind(CORNER_CAP))),
        (_edge(p, hit, Vec(-1, 3)), _edge(hit, corner, Vec(-1, 0))))]


@pytest.mark.parametrize("name,case", SHIPPED_CASES)
def test_one_tracer_agrees_with_a_fresh_tracer_per_call(name, case):
    # one tracer keeps its rays across every direction, lattice length and
    # budget a search may ask for from the constraint, the vertex budget of
    # each root included: no state may leak
    fx = builtin_fixture(name)
    c = fx.case(case)
    diagram, lag = fx.diagram_for(case), fx.lagrangian_for(case)
    q = fx.constraint(case).point
    shared = _fresh_tracer(diagram, lag, c.bounds, c.flags)
    bound = c.bounds.max_lattice_length
    found = 0
    for splits in reversed(range(c.bounds.max_splits + 1)):
        for crossings in range(c.bounds.max_cut_crossings + 1):
            for room in (c.bounds.max_vertices - 1, c.bounds.max_vertices - 2):
                for d in itertools.product(range(-bound, bound + 1), repeat=2):
                    if any(d):
                        completions = _trace_vec(shared, q, Vec(*d), crossings, splits, room)
                        fresh = _fresh_tracer(diagram, lag, c.bounds, c.flags)
                        assert completions == _trace_vec(fresh, q, Vec(*d), crossings, splits,
                                                         room), d
                        found += len(completions)
    assert found or name == "p1xp1"


def _ray_record(tracer, origin, prim):
    """The `_Ray` of (origin, prim) as (horizon, focus, cut, ends, splits),
    its split points found as a trace that may split finds them, or None."""
    ray = tracer._ray(origin, prim)
    if ray is None:
        return None
    if ray.splits is None:
        ray.splits = tracer._split_points(origin, prim, ray.horizon)
    return ray.horizon, ray.focus, ray.cut, ray.ends, ray.splits


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_tracer_casts_from_many_origins_as_fresh_tracers_do(data):
    # one tracer keeps a table per origin: interleaved casts from origins
    # inside, on a facet, at a corner and outside the polygon must each give
    # the ray a fresh tracer gives, and the table's boundary exit must be
    # the per-row reference, which gives None outside the polygon and for a
    # ray that leaves it at once
    name, case = data.draw(st.sampled_from(TRACED_CASES))
    fx = builtin_fixture(name)
    offset = st.just(F(0)) | st.fractions(-2, 2, max_denominator=12)
    diagram, lag, flags = _shifted_case(fx, case, Vec(data.draw(offset), data.draw(offset)))
    bounds = fx.case(case).bounds
    facets = reference_facets(diagram)
    origins = []
    for where in data.draw(st.lists(st.sampled_from(["interior", "facet", "corner", "outside"]),
                                    min_size=2, max_size=4)):
        facet = data.draw(st.sampled_from(facets))
        a, b = facet.endpoints
        along = data.draw(st.fractions(0, 1, max_denominator=12))
        if where == "interior":
            weights = data.draw(st.lists(st.integers(1, 8), min_size=len(diagram.polygon),
                                         max_size=len(diagram.polygon)))
            p = sum((v * w for v, w in zip(diagram.polygon, weights)), Vec(0, 0)) / sum(weights)
        elif where == "facet":
            p = a + (b - a) * along
        elif where == "corner":
            p = a
        else:
            p = a + (b - a) * along - facet.inward_normal * data.draw(
                st.fractions(F(1, 12), 2, max_denominator=12))
        origins.append(homogeneous(p))
    bound = bounds.max_lattice_length
    prims = sorted({(dx // math.gcd(dx, dy), dy // math.gcd(dx, dy))
                    for dx, dy in _direction_pairs(bound)})
    shared = _fresh_tracer(diagram, lag, bounds, flags)
    for prim in prims:
        for origin in origins:
            record = _ray_record(shared, origin, prim)
            fresh = _fresh_tracer(diagram, lag, bounds, flags)
            assert record == _ray_record(fresh, origin, prim)
            table = shared._origins[origin]
            hit = None if table.slacks is None else diagram.boundary_exit(
                table.slacks, shared._rates[prim])
            expected = reference_boundary_hit(diagram, origin, prim)
            if expected is None:
                assert hit is None and record is None
            else:
                assert hit is not None and hit[2] == expected[2]
                assert F(hit[0], hit[1]) == F(expected[0], expected[1])


def _reference_leg_clear(tracer, origin, focus_j):
    """The former body of `_Tracer._leg_clear`: `ray_point_param` on every
    other focus, then `ray_segment_hit` on every cut and Lagrangian row."""
    X, Y, W = origin
    scale = tracer.cut_scale
    fx, fy, _, _ = tracer.cut_rows[focus_j]
    d = (fx * W - X * scale, fy * W - Y * scale)
    reach = scale * W
    for k, row in enumerate(tracer.cut_rows):
        if k == focus_j:
            continue
        t = ray_point_param(origin, d, row[:2], scale)
        if t is not None and 0 <= t[0] and t[0] * reach <= t[1]:
            return False
    for row in tracer.cut_rows:
        if d[0] * row[3] - d[1] * row[2] == 0:
            continue
        hit = ray_segment_hit(origin, d, row, scale)
        if hit is not None and hit[0] * reach < hit[1]:
            return False
    for row in tracer.lag_rows:
        hit = ray_segment_hit(origin, d, row, tracer.lag_scale)
        if hit is not None and hit[0] * reach <= hit[1]:
            return False
    return True


def _shear_line_blockers(diagram, lag, j):
    """Every v at which focus j's shear line F + v pi meets another focus, a
    branch cut or a Lagrangian edge (both ends of one that runs along the
    line), in Fractions."""
    ff = diagram.focus_foci[j]
    focus, pi = ff.position, ff.pi
    out = [(other.position - focus).dot(pi) / pi.dot(pi)
           for other in diagram.focus_foci if det2(other.position - focus, pi) == 0]
    segments = list(diagram.branch_cuts())
    if lag is not None:
        segments += [tuple(map(lag.position, e.endpoints)) for e in lag.edges]
    for a, b in segments:
        e, g = b - a, focus - a
        den = det2(e, pi)
        if den != 0:
            # a + s e = F + v pi
            if 0 <= det2(g, pi) / den <= 1:
                out.append(det2(g, e) / den)
        elif det2(g, pi) == 0:
            out += [(q - focus).dot(pi) / pi.dot(pi) for q in (a, b)]
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_leg_clear_agrees_with_ray_kernel_reference(data):
    # w on focus j's shear line, where `_split_points` puts every split point:
    # at, just before or just past where the line meets another focus, a cut
    # or the Lagrangian, on either side of the focus, or anywhere on the line
    name, case = data.draw(st.sampled_from(NODED_CASES))
    fx = builtin_fixture(name)
    offset = st.just(F(0)) | st.fractions(-2, 2, max_denominator=12)
    diagram, lag, flags = _shifted_case(fx, case, Vec(data.draw(offset), data.draw(offset)))
    j = data.draw(st.integers(0, len(diagram.focus_foci) - 1))
    blockers = _shear_line_blockers(diagram, lag, j)
    anywhere = st.fractions(-4, 4, max_denominator=16)
    # the blockers nearest the focus on each side are the ones that decide
    nearest = (sorted(b for b in blockers if b >= 0)[:2]
               + sorted((b for b in blockers if b <= 0), reverse=True)[:2])
    v = data.draw(st.sampled_from(nearest) | st.sampled_from(blockers)
                  if blockers else anywhere)
    nudge = F(data.draw(st.sampled_from([-1, 0, 0, 1])), data.draw(st.integers(1, 64)))
    v = data.draw(st.sampled_from([1, 1, 1, -1])) * (v + nudge)
    if data.draw(st.integers(0, 3)) == 0:
        v = data.draw(anywhere)
    if v == 0:
        return
    ff = diagram.focus_foci[j]
    origin = homogeneous(ff.position + ff.pi * v)
    tracer = _fresh_tracer(diagram, lag, fx.case(case).bounds, flags)
    assert tracer._leg_clear(j, v.numerator, v.denominator) == _reference_leg_clear(
        tracer, origin, j)


def test_leg_clear_along_a_lagrangian_edge_on_the_shear_line():
    # dp2 `l2`: the Lagrangian runs along focus 1's shear line from the
    # focus, at v = 0, to focus 0, at v = 1.  A w on the edge is clear; the
    # edge blocks from beyond its farther end, and on the other side of the
    # focus from its end at the focus.  The test above draws this case only
    # by chance.
    fx = builtin_fixture("dp2")
    c = fx.case("l2")
    diagram, lag = fx.diagram_for("l2"), fx.lagrangian_for("l2")
    ff = diagram.focus_foci[1]
    assert (ff.position, ff.pi) == (Vec(0, F(-1, 2)), Vec(0, 1))
    assert [tuple(map(lag.position, e.endpoints)) for e in lag.edges] == [
        (Vec(0, F(-1, 2)), Vec(0, F(1, 2)))]
    tracer = _fresh_tracer(diagram, lag, c.bounds, c.flags)
    for v, clear in [(F(1, 2), True), (F(1, 4), True),
                     (F(-1, 2), False), (F(3, 2), False), (F(1), False)]:
        assert tracer._leg_clear(1, v.numerator, v.denominator) is clear, v
        origin = homogeneous(ff.position + ff.pi * v)
        assert _reference_leg_clear(tracer, origin, 1) is clear, v


# -- the tracer, reused across searches ----------------------------------------

LAGRANGIAN_CASES = [(name, case) for name, case in SHIPPED_CASES
                    if builtin_fixture(name).case(case).lagrangian is not None]


def _search_record(fx, case, edge, t):
    """(total, sorted signatures) of the case's search with its constraint at
    t on the edge, or the GeometryError it raises."""
    lag = fx.lagrangian_for(case)
    try:
        result = fx.run(case, None, Constraint.on_lagrangian(lag, edge, t))
    except GeometryError as error:
        return "raised", str(error)
    return result.total(), sorted(repr(g.graph.signature()) for g in result.graphs)


def _counted_tracers(monkeypatch):
    """The (diagram, lag, flags) of every `_Tracer` built from now on."""
    built = []
    init = _Tracer.__init__

    def counted(self, diagram, lag, flags):
        built.append((diagram, lag, flags))
        init(self, diagram, lag, flags)

    monkeypatch.setattr(_Tracer, "__init__", counted)
    return built


def test_reused_objects_enumerate_as_fresh_ones(monkeypatch):
    # every edge of every shipped Lagrangian case at t = k/16, on one fixture
    # object per name, against freshly built objects per search.  The cases
    # are interleaved, in reverse order on every other t, so that dp7 leg and
    # diag (one diagram and Lagrangian, other flags) and dp2 l1 and l2 (a
    # variant diagram) follow each other both ways
    runs = []
    for k in range(1, 16):
        for name, case in (LAGRANGIAN_CASES if k % 2 else LAGRANGIAN_CASES[::-1]):
            edges = len(builtin_fixture(name).lagrangian_for(case).edges)
            runs += [(name, case, edge, F(k, 16)) for edge in range(edges)]
    expected = [_search_record(builtin_fixture(name), case, edge, t)
                for name, case, edge, t in runs]
    shared = {name: builtin_fixture(name) for name, _ in LAGRANGIAN_CASES}
    built = _counted_tracers(monkeypatch)
    for run, record in zip(runs, expected):
        name, case, edge, t = run
        assert _search_record(shared[name], case, edge, t) == record, run
    # a tracer per run of consecutive searches on one case
    cases = [key for key, _ in itertools.groupby(runs, key=lambda run: run[:2])]
    assert len(built) == len(cases) < len(runs)


def test_tracer_is_built_once_per_diagram_lagrangian_and_flags(monkeypatch):
    # a run of searches on one triple builds one tracer, whatever the
    # position, the bounds and whether the flags are the same object; a new
    # flags value, a Lagrangian or a diagram that is another object (though
    # equal) builds another
    dp7 = builtin_fixture("dp7")
    diagram, lag = dp7.diagram, dp7.lagrangians["trivalent"]
    leg, diag = dp7.case("leg").flags, dp7.case("diag").flags
    same_leg = FixtureFlags(corner_caps=tuple(leg.corner_caps), corner_limit=leg.corner_limit)
    assert same_leg == leg and same_leg is not leg and diag != leg
    again = builtin_fixture("dp7")
    other_diagram, other_lag = again.diagram, again.lagrangians["trivalent"]
    assert other_diagram == diagram and other_lag == lag

    def search(diagram, lag, flags, t=F(1, 8), bounds=SearchBounds()):
        enumerate_disks(diagram, lag, Constraint.on_lagrangian(lag, 1, t), bounds, flags=flags)

    built = _counted_tracers(monkeypatch)
    for t in (F(1, 8), F(1, 4), F(3, 8)):
        search(diagram, lag, leg, t)
    search(diagram, lag, same_leg)
    search(diagram, lag, leg, bounds=SearchBounds(max_lattice_length=2))
    assert built == [(diagram, lag, leg)]
    search(diagram, lag, diag)
    search(diagram, lag, diag, F(1, 4))
    search(diagram, other_lag, diag)
    search(other_diagram, other_lag, diag)
    search(other_diagram, other_lag, diag, F(1, 4))
    search(diagram, lag, leg)
    assert [(d is diagram, l is lag, f) for d, l, f in built] == [
        (True, True, leg), (True, True, diag), (True, False, diag), (False, False, diag),
        (True, True, leg)]


@pytest.mark.parametrize("name,case", LAGRANGIAN_CASES)
def test_second_pass_adds_no_standing_entry(name, case):
    # the memos are keyed by directions, foci and edges, never by a point: a
    # second pass over the positions of the first fills nothing new
    fx = builtin_fixture(name)
    lag = fx.lagrangian_for(case)
    positions = [(edge, F(k, 16)) for edge in range(len(lag.edges)) for k in range(1, 16)]

    def one_pass():
        for edge, t in positions:
            _search_record(fx, case, edge, t)
        tracer = enumerate_module._last_tracer
        return tracer, (len(tracer._rates), len(tracer._ends),
                        sum(leg is not None for leg in tracer._legs), len(tracer._roots))

    first, counts = one_pass()
    second, again = one_pass()
    assert second is first and first.diagram is fx.diagram_for(case)
    assert again == counts and counts[3] == len(lag.edges)


def test_kept_tracer_lets_a_dropped_diagram_go():
    # the kept tracer is the last search's only: once a search runs on
    # another diagram, nothing holds the first one but its caller
    fx = builtin_fixture("dp6")
    fx.run("segment")
    ref = weakref.ref(fx.diagram)
    del fx
    gc.collect()
    assert ref() is not None  # the last search's tracer holds it
    builtin_fixture("dp5").run("segment")
    gc.collect()
    assert ref() is None


def _held_objects(tracer):
    """Every object the tracer's attributes hold through dicts, lists,
    tuples and sets, those containers included."""
    containers = (dict, list, tuple, set, frozenset)
    held, stack, seen = [], list(vars(tracer).values()), set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        held.append(obj)
        if isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, containers):
            stack += obj
    return held


@pytest.mark.parametrize("name,case", LAGRANGIAN_CASES)
def test_kept_tracer_holds_nothing_keyed_by_a_point(monkeypatch, name, case):
    # between searches the kept tracer holds no `_Origin` and no `_Ray`, and
    # its end-test memo answers a second search on the same objects: it asks
    # `_can_end` about no direction that the first search asked about
    fx = builtin_fixture(name)
    lag = fx.lagrangian_for(case)
    asked = []
    can_end = _Tracer._can_end

    def recorded(self, prim, ell):
        asked[-1].add((prim, ell))
        return can_end(self, prim, ell)

    monkeypatch.setattr(_Tracer, "_can_end", recorded)
    for t in (F(1, 3), F(2, 3)):
        asked.append(set())
        _search_record(fx, case, 0, t)
        tracer = enumerate_module._last_tracer
        assert tracer.lag is lag and tracer._origins == {}
        assert not [obj for obj in _held_objects(tracer) if isinstance(obj, (_Origin, _Ray))]
    # a diagram with foci may leave every trace a budget, and so ask nothing
    assert asked[0] or fx.diagram_for(case).focus_foci
    assert not asked[0] & asked[1], asked


@pytest.mark.parametrize("name,case", [("dp7", "leg"), ("dp6", "trivalent")])
def test_fresh_run_asks_each_direction_once(monkeypatch, name, case):
    # the root tables and the traces share the end-test memo (`_ends`): a
    # fresh tracer asks `_can_end` about each direction once
    asked = []
    can_end = _Tracer._can_end

    def recorded(self, prim, ell):
        asked.append((prim, ell))
        return can_end(self, prim, ell)

    monkeypatch.setattr(enumerate_module, "_last_tracer", None)
    monkeypatch.setattr(_Tracer, "_can_end", recorded)
    builtin_fixture(name).run(case)
    assert asked and len(asked) == len(set(asked)), asked


def test_node_free_searches_never_split(monkeypatch):
    # on a diagram with no foci a search has no cut-crossing or split budget,
    # so no trace asks for split points; with foci (dp3) traces do
    calls = Counter()

    def counting(method):
        fn = getattr(_Tracer, method)

        def counted(self, *args):
            calls[method] += 1
            return fn(self, *args)
        return counted

    for method in ("_split_completions", "_split_points"):
        monkeypatch.setattr(_Tracer, method, counting(method))
    for name, case, constraint in _node_free_runs():
        builtin_fixture(name).run(case, None, constraint)
    assert calls == Counter()
    builtin_fixture("dp3").run("trivalent")
    assert calls["_split_completions"] and calls["_split_points"]


# -- the filtered root tables -----------------------------------------------------

NODE_FREE_CASES = [(name, case) for name, case in SHIPPED_CASES
                   if name in ("p1xp1", "dp7", "dp6")]
FIVE_POINTS = [Vec(F(1, 16), F(1, 32)), Vec(F(-1, 5), F(1, 7)), Vec(F(1, 7), F(-1, 5)),
               Vec(F(1, 3), F(1, 5)), Vec(F(-1, 3), F(-1, 9))]


def _unfiltered_candidates(diagram, lag, constraint, bounds, flags):
    """`_candidate_graphs` from a tracer of its own that traces every root
    direction, kept as the reference for the filtered root tables: every
    `_direction_pairs` entry from a fiber; every lattice length of the
    perpendicular (each side traced again in a room that never binds when
    nothing fits) and every `_pant_root_directions` entry from an edge."""
    tracer = _fresh_tracer(diagram, lag, bounds, flags)
    origin, length = constraint.triple, bounds.max_lattice_length
    crossings, splits, room = bounds.max_cut_crossings, bounds.max_splits, bounds.max_vertices
    if constraint.edge_index is None:
        root = _VertexSpec(origin, VertexKind(FIBER_ROOT))
        return [c.prepend([root], []) for d in _direction_pairs(length)
                for c in tracer._trace(origin, d, crossings, splits, room - 1)]
    k = constraint.edge_index
    out = []
    nx, ny = lag.edge_normal(k)
    for ell in range(1, length + 1):
        ds = [(nx * ell, ny * ell), (-nx * ell, -ny * ell)]
        sides = [tracer._trace(origin, d, crossings, splits, room - 1) for d in ds]
        if all(side or tracer._trace(origin, d, crossings, splits, room + crossings + 2 * splits)
               for side, d in zip(sides, ds)):
            root = _VertexSpec(origin, perp_collision(ell))
            out += [c.prepend([root], []) for c in sides[0] + sides[1]]
    lam = (*lag.edge_direction(k), 1)
    for ex, ey, target_id in _pant_root_directions(lag, k, length):
        target = homogeneous(lag.position(target_id))
        root = [_VertexSpec(origin, holomorphic_pant((ex, ey, 1), lam)),
                _VertexSpec(target, pant_seam())]
        strip = _EdgeSpec(origin, target, pant_strip_direction((ex, ey, 1), lam), open=True)
        out += [c.prepend(root, [strip])
                for c in tracer._trace(origin, (ex, ey), crossings, splits, room - 2)]
    return out


def _node_free_runs():
    """(name, case, constraint) of every edge of every node-free shipped
    case at t = k/16, then of every node-free case at the five points."""
    runs = []
    for name, case in NODE_FREE_CASES:
        lag = builtin_fixture(name).lagrangian_for(case)
        runs += [(name, case, Constraint.on_lagrangian(lag, edge, F(k, 16)))
                 for edge in range(len(lag.edges) if lag is not None else 0)
                 for k in range(1, 16)]
    return runs + [(name, case, Constraint.interior_point(p))
                   for name, case in NODE_FREE_CASES for p in FIVE_POINTS]


def test_filtered_root_tables_give_the_unfiltered_completions():
    # with no focus the tracer keeps only the root directions that can
    # end; the completions are those of tracing every root direction, in
    # the same order, on fresh objects per search, then on one fixture
    # object per name, whose tracer each case's run of positions reuses
    runs = _node_free_runs()
    expected, filtered = [], 0
    for name, case, constraint in runs:
        fx = builtin_fixture(name)
        c = fx.case(case)
        diagram, lag = fx.diagram_for(case), fx.lagrangian_for(case)
        expected.append(_unfiltered_candidates(diagram, lag, constraint, c.bounds, c.flags))
        got = _candidate_graphs(diagram, lag, constraint, c.bounds, c.flags)
        assert got == expected[-1], (name, case, constraint)
        tracer, length = enumerate_module._last_tracer, c.bounds.max_lattice_length
        roots = tracer.roots(constraint.edge_index, length)
        unfiltered = (_direction_pairs(length) if constraint.edge_index is None
                      else _pant_root_directions(lag, constraint.edge_index, length))
        assert set(roots) <= set(unfiltered)
        filtered += len(roots) < len(unfiltered)
    assert filtered
    shared = {name: builtin_fixture(name) for name, _ in NODE_FREE_CASES}
    tracers = set()
    for (name, case, constraint), completions in zip(runs, expected):
        fx, c = shared[name], shared[name].case(case)
        got = _candidate_graphs(fx.diagram_for(case), fx.lagrangian_for(case), constraint,
                                c.bounds, c.flags)
        assert got == completions, (name, case, constraint)
        tracers.add(id(enumerate_module._last_tracer))
    assert len(tracers) < len(runs) // 10


def test_fiber_root_tables_keep_the_directions_that_can_end():
    # with L = 3, a p1xp1 fiber keeps the four directions of its normals of
    # 48, a dp6 fiber the six of its normals
    for name, kept in (("p1xp1", 4), ("dp6", 6)):
        fx = builtin_fixture(name)
        tracer = _Tracer(fx.diagram, None, NO_FLAGS)
        roots = tracer.roots(None, 3)
        assert len(_direction_pairs(3)) == 48 and len(roots) == kept
        assert sorted(roots) == sorted((-nx, -ny) for nx, ny in fx.diagram.normals())
        assert tracer.roots(None, 3) is roots


@pytest.mark.parametrize("name,case", [("dp3", "trivalent"), ("dp5", "segment")])
def test_root_tables_with_foci_are_unfiltered(name, case):
    # a focus may redirect any trace, so the stored tables are the
    # unfiltered ones
    fx = builtin_fixture(name)
    lag, length = fx.lagrangian_for(case), fx.case(case).bounds.max_lattice_length
    for edge in range(len(lag.edges)):
        fx.run(case, None, Constraint.on_lagrangian(lag, edge, F(1, 2)))
        stored = enumerate_module._last_tracer._roots[(edge, length)]
        assert stored == _pant_root_directions(lag, edge, length)
    fx.run(case, None, Constraint.interior_point(FIVE_POINTS[0]))
    assert enumerate_module._last_tracer._roots[(None, length)] == _direction_pairs(length)


# -- the per-graph fast paths ------------------------------------------------------


def test_unique_graphs_of_no_or_one_completion():
    # no completion has no graph; a lone completion is its own graph, but it
    # is still refused when it puts two vertices at one point
    assert _unique_graphs([]) == []
    fx = builtin_fixture("dp6")
    lag = fx.lagrangians["segment"]
    lone = _candidate_graphs(fx.diagram, lag, fx.constraint("segment"),
                             SearchBounds(2, 1, 0, 0), NO_FLAGS)[0]
    (kept,) = _unique_graphs([lone])
    assert kept is lone
    point = lone.vertices[-1].position
    twice = _Completion(lone.vertices + (_VertexSpec(point, cylinder()),), lone.edges)
    with pytest.raises(GeometryError,
                       match=re.escape(f"two graph vertices at {from_homogeneous(point)!r}")):
        _unique_graphs([twice])
