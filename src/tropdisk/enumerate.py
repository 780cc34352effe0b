"""Enumeration of rigid tropical graphs of Maslov-index-two broken disks.

The search runs directly in the base polygon (cartoon-diagram semantics).
Graphs are grown from the point constraint:

* on a Lagrangian edge the constraint is carried either by a perpendicular
  collision vertex or by a holomorphic-pant vertex (whose strip runs along
  the Lagrangian to a seam at an adjacent trivalent vertex);
* an interior-point constraint roots a single Cho-Oh style closed ray.

Closed rays are then traced exactly: they may cross branch cuts (direction
sheared, cylinder bookkeeping vertex inserted), split at points pinned by a
focus-focus value (pair-of-pants vertex), and must terminate either at a
focus-focus value along its shear direction or on the boundary with primitive
normal direction.  Everything is exact rational arithmetic; results are
deterministic and duplicate-free.  The tracer scans events in integers: the
facets, branch cuts, focus values and Lagrangian edges are scaled once to a
common denominator, and only actual hits are turned back into Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .diagram import BaseDiagram
from .diskgraph import (
    CONSTRAINT_INTERIOR,
    CONSTRAINT_LAGRANGIAN,
    Constraint,
    DiskEdge,
    DiskGraph,
    DiskVertex,
)
from .geometry import (
    GeometryError,
    Vec,
    det2,
    homogeneous,
    point_on_segment,
    primitive,
    primitive_and_length,
    ray_point_param,
    ray_segment_hit,
    scaled,
)
from .lagrangian import LagGraph
from .multiplicity import (
    BOUNDARY_COLLISION,
    CORNER_CAP,
    CYLINDER,
    DEFAULT_CONVENTION,
    FIBER_ROOT,
    FOCUS_COVER,
    FOCUS_COVER_PAIR,
    PANT,
    PANT_SEAM,
    PERP_COLLISION,
    STRIP_CAP,
    THREE_STRIP,
    SignConvention,
    VertexKind,
    boundary_collision,
    cylinder,
    focus_cover,
    focus_cover_pair,
    graph_contribution,
    graph_index_diagnostic,
    graph_maslov,
    holomorphic_pant,
    pair_of_pants,
    pant_seam,
    pant_strip_direction,
    perp_collision,
)


@dataclass(frozen=True)
class SearchBounds:
    max_vertices: int = 6
    max_lattice_length: int = 3
    max_cut_crossings: int = 2
    max_splits: int = 3

    def bumped(self) -> "SearchBounds":
        return SearchBounds(
            self.max_vertices + 1,
            self.max_lattice_length + 1,
            self.max_cut_crossings + 1,
            self.max_splits,
        )


@dataclass(frozen=True)
class FixtureFlags:
    """Per-fixture enumeration switches (cutting-data choices)."""

    corner_caps: Tuple[Vec, ...] = ()
    corner_limit: Optional[Vec] = None


NO_FLAGS = FixtureFlags()


@dataclass(frozen=True)
class _VertexSpec:
    position: Vec
    kind: VertexKind


@dataclass(frozen=True)
class _EdgeSpec:
    start: Vec
    end: Vec
    direction: Vec
    open: bool = False


@dataclass(frozen=True)
class _Completion:
    vertices: Tuple[_VertexSpec, ...]
    edges: Tuple[_EdgeSpec, ...]
    notes: Tuple[str, ...] = ()

    def prepend(self, vertices, edges, notes=()) -> "_Completion":
        return _Completion(
            tuple(vertices) + self.vertices,
            tuple(edges) + self.edges,
            tuple(notes) + self.notes,
        )


@dataclass
class EnumeratedGraph:
    graph: DiskGraph
    contribution: Fraction
    maslov: int
    rigidity: int


@dataclass
class EnumerationResult:
    graphs: List[EnumeratedGraph]
    unresolved: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.unresolved

    def total(self) -> Fraction:
        return sum((g.contribution for g in self.graphs), Fraction(0))

    def contributions(self) -> List[Fraction]:
        return [g.contribution for g in self.graphs]


class _Tracer:
    """Exhaustive ray tracing on integer line tables.

    The facets, branch cuts, focus positions and Lagrangian edges are scaled
    once to one common denominator, and every ray origin is written as a
    homogeneous (X, Y, W) triple, so each event test is an integer cross
    product.  The arithmetic stays exact; only actual hits re-enter as
    Fractions and Vecs.
    """

    def __init__(self, diagram: BaseDiagram, lag: Optional[LagGraph],
                 bounds: SearchBounds, flags: FixtureFlags):
        self.diagram = diagram
        self.lag = lag
        self.bounds = bounds
        self.flags = flags
        self.facets = diagram.facets()
        foci = diagram.focus_foci
        facet_segments = [facet.endpoints for facet in self.facets]
        cuts = diagram.branch_cuts()
        lag_segments = [] if lag is None else [
            (lag.position(e.endpoints[0]), lag.position(e.endpoints[1])) for e in lag.edges
        ]
        points = [q for seg in facet_segments + cuts + lag_segments for q in seg]
        points += [ff.position for ff in foci]
        self.scale = math.lcm(*(c.denominator for q in points for c in q))

        def table(segments):
            return [scaled(a, self.scale) + scaled(b - a, self.scale) for a, b in segments]

        self.facet_table = table(facet_segments)
        self.cut_table = list(zip(table(cuts), (ff.cut_direction().as_int_pair() for ff in foci)))
        self.focus_table = [scaled(ff.position, self.scale) for ff in foci]
        self.lag_table = table(lag_segments)
        self.shear_table = [ff.pi.as_int_pair() for ff in foci]

    # -- event scanning -------------------------------------------------------

    @staticmethod
    def _at(origin, d, t_num: int, t_den: int) -> Tuple[Fraction, Vec]:
        """(t, origin + t d) as exact rationals."""
        X, Y, W = origin
        den = W * t_den
        return Fraction(t_num, t_den), Vec(
            Fraction(X * t_den + d[0] * t_num * W, den),
            Fraction(Y * t_den + d[1] * t_num * W, den),
        )

    def _lambda_hit(self, origin, prim, limit: Fraction) -> Optional[Fraction]:
        """Smallest t in (0, limit] at which the ray meets the Lagrangian graph."""
        best = None
        for row in self.lag_table:
            hit = ray_segment_hit(origin, prim, row, self.scale)
            if hit is None or hit[0] * limit.denominator > limit.numerator * hit[1]:
                continue
            t = Fraction(hit[0], hit[1])
            if best is None or t < best:
                best = t
        return best

    def _boundary_hit(self, origin, prim) -> Optional[Tuple[Fraction, Vec, List[int]]]:
        """(t, point, facets) of the first boundary meeting, or None.

        `facets` lists every facet hit at that parameter, in facet order: one
        facet, or the two that meet at a corner.
        """
        best, facets = None, []
        for i, row in enumerate(self.facet_table):
            hit = ray_segment_hit(origin, prim, row, self.scale)
            if hit is None:
                continue
            if best is None or hit[0] * best[1] < best[0] * hit[1]:
                best, facets = hit, [i]
            elif hit[0] * best[1] == best[0] * hit[1]:
                facets.append(i)
        if best is None:
            return None
        return self._at(origin, prim, best[0], best[1]) + (facets,)

    def _cut_events(self, origin, prim) -> List[Tuple[Fraction, int, Vec]]:
        events = []
        for j, (row, (cx, cy)) in enumerate(self.cut_table):
            if prim[0] * cy - prim[1] * cx == 0:
                continue  # parallel: running along a cut is shear-invariant
            hit = ray_segment_hit(origin, prim, row, self.scale)
            if hit is None or hit[2] == 0:
                continue  # s = 0: meeting the focus itself is a focus event
            t, point = self._at(origin, prim, hit[0], hit[1])
            events.append((t, j, point))
        return events

    def _focus_events(self, origin, prim) -> List[Tuple[Fraction, int]]:
        events = []
        for j, q in enumerate(self.focus_table):
            t = ray_point_param(origin, prim, q, self.scale)
            if t is not None and t[0] > 0:
                events.append((Fraction(*t), j))
        return events

    # -- the trace ------------------------------------------------------------

    def trace(self, p: Vec, dirval: Vec, crossings: int, splits: int) -> List[_Completion]:
        """All valid continuations of a closed edge leaving p with value dirval."""
        if not dirval.is_integral():
            return []
        dx, dy = dirval.as_int_pair()
        ell = math.gcd(dx, dy)
        prim = (dx // ell, dy // ell)
        origin = homogeneous(p)

        boundary = self._boundary_hit(origin, prim)
        if boundary is None:
            return []  # leaves the polygon without meeting it: malformed input
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

        completions: List[_Completion] = []
        completions.extend(
            self._split_completions(p, origin, prim, dirval, horizon, crossings, splits)
        )

        if t_focus is not None and t_focus <= (t_cut if t_cut is not None else t_boundary):
            if t_cut is not None and t_cut == t_focus:
                return completions  # degenerate: cut and focus at one point
            j = next(j for (t, j) in focus_events if t == t_focus)
            completions.extend(self._focus_end(p, dirval, prim, ell, j))
            return completions

        if t_cut is not None and t_cut < t_boundary:
            t, j, point = min(cut_events)
            if crossings <= 0:
                return completions
            cx, cy = self.cut_table[j][1]
            side = 1 if cx * prim[1] - cy * prim[0] > 0 else -1
            new_dir = self.diagram.cross_branch_cut(j, dirval, side)
            rest = self.trace(point, new_dir, crossings - 1, splits)
            for completion in rest:
                completions.append(
                    completion.prepend(
                        [_VertexSpec(point, cylinder())],
                        [_EdgeSpec(p, point, dirval)],
                    )
                )
            return completions

        completions.extend(self._boundary_end(p, dirval, boundary[1], boundary[2]))
        return completions

    def _focus_end(self, p, dirval, prim, ell, j) -> List[_Completion]:
        ff = self.diagram.focus_foci[j]
        pix, piy = self.shear_table[j]
        if prim[0] * piy - prim[1] * pix != 0:
            return []  # the ray would run through a nodal fiber: not generic
        w = ff.weight()
        out = [
            _Completion(
                (_VertexSpec(ff.position, focus_cover(ell, j, w)),),
                (_EdgeSpec(p, ff.position, dirval),),
            )
        ]
        if ell >= 2:
            # the desingularized multi-cover partner; the pair nets zero
            note = f"cover_pair:{j}:{ell}"
            out[0] = replace(out[0], notes=(note,))
            out.append(
                _Completion(
                    (_VertexSpec(ff.position, focus_cover_pair(ell, j, w)),),
                    (_EdgeSpec(p, ff.position, dirval),),
                    (note,),
                )
            )
        return out

    def _boundary_end(self, p, dirval, point, facet_ids) -> List[_Completion]:
        for i in facet_ids:
            if dirval == -self.facets[i].inward_normal:
                return [
                    _Completion(
                        (_VertexSpec(point, boundary_collision(i)),),
                        (_EdgeSpec(p, point, dirval),),
                    )
                ]
        return self._corner_cap(p, dirval, point, facet_ids)

    def _corner_cap(self, p, dirval, point, facet_ids) -> List[_Completion]:
        """Lemma-4.18 style rim continuation into a flagged corner piece."""
        if not self.flags.corner_caps:
            return []
        prim, ell = primitive_and_length(dirval)
        if ell != 1:
            return []  # rim continuations carry primitive directions only
        out = []
        for i in facet_ids:
            facet = self.facets[i]
            for corner in facet.endpoints:
                if corner not in self.flags.corner_caps or corner == point:
                    continue
                if self._lagrangian_occupies(corner):
                    continue
                if self.flags.corner_limit is not None:
                    if det2(corner - self.flags.corner_limit, dirval) != 0:
                        continue
                tangent = primitive(corner - point)
                # rim component of the incoming direction must aim at the corner
                rim = det2(dirval, facet.inward_normal)
                aim = det2(tangent, facet.inward_normal)
                if rim == 0 or (rim > 0) != (aim > 0):
                    continue
                out.append(
                    _Completion(
                        (
                            _VertexSpec(point, cylinder()),
                            _VertexSpec(corner, VertexKind(CORNER_CAP)),
                        ),
                        (
                            _EdgeSpec(p, point, dirval),
                            _EdgeSpec(point, corner, tangent),
                        ),
                        (f"corner_cap:{tuple(corner)}",),
                    )
                )
        return out

    def _lagrangian_occupies(self, corner: Vec) -> bool:
        if self.lag is None:
            return False
        return any(v.position == corner for v in self.lag.vertices)

    def _split_completions(self, p, origin, prim, dirval, horizon, crossings, splits):
        """Splits at a point w of the ray, pinned by a focus along its shear line.

        Every arrival sub_ell * sign * pi at focus j spans the line through the
        focus along pi, so the split point w, its parameter, the one sign that
        puts the focus ahead of w and the clearance of the leg from w to the
        focus are found once per focus.
        """
        if splits <= 0:
            return []
        X, Y, W = origin
        scale = self.scale
        dx, dy = dirval.as_int_pair()
        out = []
        for j, ff in enumerate(self.diagram.focus_foci):
            pix, piy = self.shear_table[j]
            cross = prim[0] * piy - prim[1] * pix
            if cross == 0:
                continue  # the ray runs along the shear line: no split point
            # focus - origin = (rx, ry) / (scale W); w = origin + t prim = focus + u pi
            fx, fy = self.focus_table[j]
            rx, ry = fx * W - X * scale, fy * W - Y * scale
            t_num = rx * piy - ry * pix
            u_num = rx * prim[1] - ry * prim[0]
            if cross < 0:
                cross, t_num, u_num = -cross, -t_num, -u_num
            t_den = scale * W * cross
            if t_num <= 0 or t_num * horizon.denominator >= horizon.numerator * t_den:
                continue  # w must lie strictly between p and the horizon
            if u_num == 0:
                continue  # w is the focus itself
            # tau = -u / (sub_ell * sign) > 0 for this sign only; since prim is
            # not parallel to pi, d2 = dirval - arrival is never parallel to the
            # arrival either
            sign = -1 if u_num > 0 else 1
            w_origin = (X * t_den + prim[0] * t_num * W, Y * t_den + prim[1] * t_num * W, W * t_den)
            if not self._leg_clear(w_origin, j):
                continue
            w = Vec(Fraction(w_origin[0], w_origin[2]), Fraction(w_origin[1], w_origin[2]))
            wt = ff.weight()
            for sub_ell in range(1, self.bounds.max_lattice_length + 1):
                m = sub_ell * sign
                arrival = Vec(pix * m, piy * m)
                d2 = Vec(dx - pix * m, dy - piy * m)
                rest = self.trace(w, d2, crossings, splits - 1)
                for completion in rest:
                    focus_vertex = _VertexSpec(ff.position, focus_cover(sub_ell, j, wt))
                    variants = [(focus_vertex, ())]
                    if sub_ell >= 2:
                        note = f"cover_pair:{j}:{sub_ell}"
                        variants = [
                            (focus_vertex, (note,)),
                            (
                                _VertexSpec(ff.position, focus_cover_pair(sub_ell, j, wt)),
                                (note,),
                            ),
                        ]
                    for fv, notes in variants:
                        out.append(
                            completion.prepend(
                                [
                                    _VertexSpec(w, pair_of_pants(arrival, d2)),
                                    fv,
                                ],
                                [
                                    _EdgeSpec(p, w, dirval),
                                    _EdgeSpec(w, ff.position, arrival),
                                ],
                                notes,
                            )
                        )
        return out

    def _leg_clear(self, origin, focus_j: int) -> bool:
        """The pinned split leg from w to focus_j must meet nothing on the way.

        `origin` is w as a homogeneous triple.  The leg direction is
        (focus - w) * scale * W, so the focus sits at t = 1 / (scale * W).
        """
        X, Y, W = origin
        scale = self.scale
        fx, fy = self.focus_table[focus_j]
        d = (fx * W - X * scale, fy * W - Y * scale)
        reach = scale * W   # t * reach is the fraction of the leg travelled
        for k, q in enumerate(self.focus_table):
            if k == focus_j:
                continue
            t = ray_point_param(origin, d, q, scale)
            if t is not None and 0 <= t[0] and t[0] * reach <= t[1]:
                return False
        for row, (cx, cy) in self.cut_table:
            if d[0] * cy - d[1] * cx == 0:
                continue
            hit = ray_segment_hit(origin, d, row, scale)
            if hit is not None and hit[0] * reach < hit[1]:
                return False  # a hit at the focus itself is where its own cut starts
        for row in self.lag_table:
            hit = ray_segment_hit(origin, d, row, scale)
            if hit is not None and hit[0] * reach <= hit[1]:
                return False
        return True


# -- graph assembly -------------------------------------------------------------


def _build_graph(constraint, root_specs, root_edges, completion: _Completion) -> DiskGraph:
    vertices: List[DiskVertex] = []
    by_pos: Dict[Tuple, str] = {}
    for spec in list(root_specs) + list(completion.vertices):
        vid = f"v{len(vertices)}"
        vertices.append(DiskVertex(vid, spec.position, spec.kind))
        key = tuple(spec.position)
        if key in by_pos:
            raise GeometryError(f"two graph vertices at {spec.position!r}")
        by_pos[key] = vid

    edges = []
    corner = any(n.startswith("corner_cap") for n in completion.notes)
    for spec in list(root_edges) + list(completion.edges):
        a = by_pos[tuple(spec.start)]
        b = by_pos[tuple(spec.end)]
        edges.append(DiskEdge((a, b), spec.direction, spec.open))
    return DiskGraph(vertices, edges, constraint, corner, completion.notes)


# -- rigidity ------------------------------------------------------------------


def rigidity_dimension(graph: DiskGraph, diagram: BaseDiagram,
                       lag: Optional[LagGraph], constraint: Optional[Constraint]) -> int:
    """Dimension of the solution space of the incidence system; -1 if empty.

    Unknowns are the vertex positions (2 each).  Equations: collinearity of
    each edge with its fixed direction, anchor incidences per vertex kind and
    the point constraint.  Exact Gaussian elimination over the rationals.
    """
    n = len(graph.vertices)
    cols = 2 * n
    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []

    def add_row(coeffs: Dict[int, Fraction], b) -> None:
        row = [Fraction(0)] * cols
        for c, val in coeffs.items():
            row[c] = Fraction(val)
        rows.append(row)
        rhs.append(Fraction(b))

    for e in graph.edges:
        ia = graph.index_of(e.endpoints[0])
        ib = graph.index_of(e.endpoints[1])
        d = e.direction
        # det2(pos_b - pos_a, d) = 0
        add_row(
            {2 * ib: d.y, 2 * ib + 1: -d.x, 2 * ia: -d.y, 2 * ia + 1: d.x}, 0
        )

    for v in graph.vertices:
        i = graph.index_of(v.id)
        tag = v.kind.tag
        if tag in (FOCUS_COVER, FOCUS_COVER_PAIR):
            target = diagram.focus_foci[v.kind.index].position if v.kind.index is not None else v.position
            add_row({2 * i: 1}, target.x)
            add_row({2 * i + 1: 1}, target.y)
        elif tag == BOUNDARY_COLLISION:
            for fi in diagram.facets_through(v.position):
                facet = diagram.facets()[fi]
                nrm = facet.inward_normal
                add_row({2 * i: nrm.x, 2 * i + 1: nrm.y}, facet.line_value())
        elif tag == CORNER_CAP:
            add_row({2 * i: 1}, v.position.x)
            add_row({2 * i + 1: 1}, v.position.y)
        elif tag == CYLINDER:
            pinned = False
            for j, (start, end) in enumerate(diagram.branch_cuts()):
                if point_on_segment(v.position, start, end):
                    d = end - start
                    # on the cut line: det2(x - start, d) = 0
                    add_row({2 * i: d.y, 2 * i + 1: -d.x}, d.y * start.x - d.x * start.y)
                    pinned = True
                    break
            if not pinned:
                for fi in diagram.facets_through(v.position):
                    facet = diagram.facets()[fi]
                    nrm = facet.inward_normal
                    add_row({2 * i: nrm.x, 2 * i + 1: nrm.y}, facet.line_value())
                    break
        elif tag in (PERP_COLLISION, PANT):
            if lag is not None and constraint is not None and constraint.edge_index is not None:
                edge = lag.edges[constraint.edge_index]
                a = lag.position(edge.endpoints[0])
                b = lag.position(edge.endpoints[1])
                d = b - a
                add_row({2 * i: d.y, 2 * i + 1: -d.x}, d.y * a.x - d.x * a.y)
        elif tag in (PANT_SEAM, THREE_STRIP, STRIP_CAP):
            add_row({2 * i: 1}, v.position.x)
            add_row({2 * i + 1: 1}, v.position.y)

    if constraint is not None:
        root = _root_vertex(graph)
        if root is not None:
            i = graph.index_of(root.id)
            add_row({2 * i: 1}, constraint.point.x)
            add_row({2 * i + 1: 1}, constraint.point.y)

    rank, consistent = _row_reduce(rows, rhs, cols)
    if not consistent:
        return -1
    return cols - rank


def _root_vertex(graph: DiskGraph) -> Optional[DiskVertex]:
    for v in graph.vertices:
        if v.kind.tag in (PERP_COLLISION, PANT, FIBER_ROOT, THREE_STRIP):
            return v
    return None


def _row_reduce(rows, rhs, cols) -> Tuple[int, bool]:
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


# -- roots and the public API -----------------------------------------------------


def _perp_direction(lam: Vec) -> Vec:
    return Vec(-lam.y, lam.x)


def _direction_candidates(bound: int) -> List[Vec]:
    out = []
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            if x == 0 and y == 0:
                continue
            out.append(Vec(x, y))
    out.sort(key=lambda v: (v.x, v.y))
    return out


def enumerate_disks(
    diagram: BaseDiagram,
    lag: Optional[LagGraph],
    constraint: Constraint,
    bounds: SearchBounds = SearchBounds(),
    convention: SignConvention = DEFAULT_CONVENTION,
    flags: FixtureFlags = NO_FLAGS,
) -> EnumerationResult:
    tracer = _Tracer(diagram, lag, bounds, flags)
    graphs: List[DiskGraph] = []
    warnings: List[str] = []

    if constraint.kind == CONSTRAINT_INTERIOR:
        graphs.extend(_fiber_graphs(tracer, constraint, bounds))
    else:
        graphs.extend(_perp_graphs(tracer, lag, constraint, bounds))
        graphs.extend(_pant_graphs(tracer, lag, constraint, bounds))

    unique: Dict[Tuple, DiskGraph] = {}
    for g in graphs:
        unique.setdefault(g.signature(), g)
    ordered = sorted(unique.values(), key=lambda g: g.signature())

    out: List[EnumeratedGraph] = []
    for g in ordered:
        if len(g.vertices) > bounds.max_vertices:
            warnings.append(f"graph with {len(g.vertices)} vertices exceeds max_vertices")
            continue
        dim = rigidity_dimension(g, diagram, lag, constraint)
        if dim != 0:
            warnings.append(f"dropped non-rigid graph (dim={dim})")
            continue
        contribution = graph_contribution(g, convention)
        maslov = graph_maslov(g)
        if graph_index_diagnostic(g) != 2:
            warnings.append(f"index diagnostic != 2 for a counted graph ({maslov})")
        out.append(EnumeratedGraph(g, contribution, maslov, dim))
    return EnumerationResult(out, [], warnings)


def _fiber_graphs(tracer, constraint, bounds) -> List[DiskGraph]:
    out = []
    root = _VertexSpec(constraint.point, VertexKind(FIBER_ROOT))
    for d in _direction_candidates(bounds.max_lattice_length):
        for completion in tracer.trace(
            constraint.point, d, bounds.max_cut_crossings, bounds.max_splits
        ):
            out.append(_build_graph(constraint, [root], [], completion))
    return out


def _perp_graphs(tracer, lag, constraint, bounds) -> List[DiskGraph]:
    edge = lag.edges[constraint.edge_index]
    lam = lag.edge_direction(edge)
    d0 = _perp_direction(lam)
    q = constraint.point
    out = []
    for ell in range(1, bounds.max_lattice_length + 1):
        plus = tracer.trace(q, d0 * ell, bounds.max_cut_crossings, bounds.max_splits)
        minus = tracer.trace(q, d0 * (-ell), bounds.max_cut_crossings, bounds.max_splits)
        if not plus or not minus:
            continue  # collision models require the crossing line on both sides
        root = _VertexSpec(q, perp_collision(ell))
        for completion in plus + minus:
            out.append(_build_graph(constraint, [root], [], completion))
    return out


def _pant_graphs(tracer, lag, constraint, bounds) -> List[DiskGraph]:
    edge = lag.edges[constraint.edge_index]
    a_id, b_id = edge.endpoints
    # the strip must end at a seam on a Lagrangian pair of pants
    a_seam, b_seam = lag.valence(a_id) == 3, lag.valence(b_id) == 3
    if not (a_seam or b_seam):
        return []
    lam = primitive(lag.position(b_id) - lag.position(a_id))
    lx, ly = lam.as_int_pair()
    q = constraint.point
    out = []
    for e_black in _direction_candidates(bounds.max_lattice_length):
        ex, ey = e_black.as_int_pair()
        if ex * ly - ey * lx == 0:
            continue
        # the strip is -<e_black, lam>/<lam, lam> lam: it vanishes when the dot
        # product is 0 and runs towards b when it is negative
        dot = ex * lx + ey * ly
        if dot == 0:
            continue
        target_id, seam = (b_id, b_seam) if dot < 0 else (a_id, a_seam)
        if not seam:
            continue
        closed = tracer.trace(q, e_black, bounds.max_cut_crossings, bounds.max_splits)
        if not closed:
            continue
        target = lag.position(target_id)
        root = [
            _VertexSpec(q, holomorphic_pant(e_black, lam)),
            _VertexSpec(target, pant_seam()),
        ]
        strip = _EdgeSpec(q, target, pant_strip_direction(e_black, lam), open=True)
        for completion in closed:
            out.append(_build_graph(constraint, root, [strip], completion))
    return out


def potential(
    diagram: BaseDiagram,
    lag: Optional[LagGraph],
    constraint: Constraint,
    bounds: SearchBounds = SearchBounds(),
    convention: SignConvention = DEFAULT_CONVENTION,
    flags: FixtureFlags = NO_FLAGS,
) -> Fraction:
    result = enumerate_disks(diagram, lag, constraint, bounds, convention, flags)
    if not result.complete:
        raise GeometryError(
            f"enumeration incomplete (partial sum {result.total()}): "
            f"{result.unresolved}"
        )
    return result.total()


def corner_projection(direction: Vec, facet_normal: Vec, facet_tangent: Vec) -> Vec:
    """Continued direction along a boundary face, Lemma-4.18 style.

    Projects `direction` modulo the non-divisor normal onto the rim line
    spanned by the primitive facet tangent; the result is an integer multiple
    of the tangent (zero means the edge terminates at the face).
    """
    tangent = primitive(facet_tangent)
    denom = det2(tangent, facet_normal)
    if denom == 0:
        raise GeometryError("tangent and normal are parallel")
    coeff = det2(direction, facet_normal) / denom
    return tangent * coeff


def cancellation_report(result: EnumerationResult) -> List[Tuple[EnumeratedGraph, EnumeratedGraph]]:
    """Pairs of cover/desingularized graphs with opposite contributions."""
    by_note: Dict[Tuple, List[EnumeratedGraph]] = {}
    for g in result.graphs:
        for note in g.graph.notes:
            if note.startswith("cover_pair"):
                geometry = tuple(
                    sorted(
                        (tuple(v.position), v.kind.ell)
                        for v in g.graph.vertices
                        if v.kind.tag in (FOCUS_COVER, FOCUS_COVER_PAIR)
                    )
                )
                by_note.setdefault((note, geometry), []).append(g)
    pairs = []
    for key, group in sorted(by_note.items()):
        if len(group) == 2 and group[0].contribution == -group[1].contribution:
            pairs.append((group[0], group[1]))
    return pairs


def enumerate_maslov4(
    diagram: BaseDiagram,
    lag: LagGraph,
    constraints: Sequence[Constraint],
    bounds: SearchBounds = SearchBounds(),
) -> int:
    """Count of Maslov-index-four strip disks through three boundary points.

    The relevant graphs are three-ended strips at a trivalent vertex of the
    Lagrangian whose legs are capped at the univalent ends; rigidity requires
    one marked point on each leg, so the count is 1 exactly when the three
    constraints cover the three legs.
    """
    trivalent = [v for v in lag.vertices if lag.valence(v.id) == 3]
    if len(trivalent) != 1 or len(constraints) != 3:
        return 0
    center = trivalent[0]
    legs = lag.adjacent_edges(center.id)
    covered = set()
    for c in constraints:
        if c.kind != CONSTRAINT_LAGRANGIAN:
            return 0
        covered.add(c.edge_index)
    leg_indices = {lag.edges.index(e) for e in legs}
    if covered != leg_indices:
        return 0
    return 1
