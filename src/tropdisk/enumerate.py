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
deterministic and duplicate-free.  The tracer scans events in integers: it
reads the diagram's integer facet and branch-cut rows and adds the Lagrangian
edges as rows of their own.  Its recursion carries points as homogeneous
integer triples and directions as integer pairs; Fractions and Vecs are built
only for completions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
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
    from_homogeneous,
    homogeneous,
    point_key,
    primitive,
    primitive_and_length,
    ray_point,
    ray_segment_hit,
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
    THREE_STRIP,
    SignConvention,
    VertexKind,
    boundary_collision,
    cylinder,
    focus_cover,
    focus_cover_pair,
    graph_index_diagnostic,
    graph_weights,
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

    def prepend(self, vertices, edges) -> "_Completion":
        return _Completion(tuple(vertices) + self.vertices, tuple(edges) + self.edges)


@dataclass
class EnumeratedGraph:
    graph: DiskGraph
    contribution: Fraction
    rigidity: int
    aut_order: int
    weights: Tuple[Fraction, ...]  # vertex multiplicities under the convention used


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


class _Ray:
    """What a trace computes from its origin and primitive direction alone.

    `focus` is the focus j the ray ends at (along its shear line, first on
    the ray and not where a cut also meets it), `cut` the (j, side, point) of
    the cut it crosses first, and `ends` the boundary completions for a
    primitive direction d == prim (empty when neither a collision nor a
    corner cap is possible there).  `splits` holds the clear split points
    (j, sign, w), filled the first time a trace may split.
    """

    __slots__ = ("horizon", "focus", "cut", "ends", "splits")

    def __init__(self, horizon):
        self.horizon = horizon
        self.focus: Optional[int] = None
        self.cut = None
        self.ends: List[_Completion] = []
        self.splits = None


class _Tracer:
    """Exhaustive ray tracing on homogeneous integers.

    It reads the diagram's facet and branch-cut rows and keeps the Lagrangian
    edges as rows of their own.  `trace` is the Vec front end; the roots call
    the recursion `_trace` directly from the constraint's homogeneous point.
    It carries every ray origin, split point and cut crossing as a
    homogeneous (X, Y, W) triple and every direction as an integer pair, so
    each event test is an integer cross product and each comparison of ray
    parameters a cross-multiplication.

    A tracer serves one enumeration.  Everything a trace finds before its
    ends depends only on the origin and the primitive direction, so it keeps
    a `_Ray` per such pair; it also keeps the Vecs it builds for completions,
    one per point and per direction.
    """

    def __init__(self, diagram: BaseDiagram, lag: Optional[LagGraph],
                 bounds: SearchBounds, flags: FixtureFlags):
        self.diagram = diagram
        self.lag = lag
        self.bounds = bounds
        self.flags = flags
        self.facets = diagram.facets()
        self.cut_rows, self.cut_scale = diagram.cut_rows()
        self.shear_table = [ff.pi.as_int_pair() for ff in diagram.focus_foci]
        self.sigma_table = [ff.sigma.as_int_pair() for ff in diagram.focus_foci]
        self.lag_rows, self.lag_scale = ([], 1) if lag is None else lag.edge_rows()
        # facet -> its flagged corners that the Lagrangian leaves free, each as
        # the integer direction of corner - corner_limit (None without a
        # limit): a rim continuation from the facet aims at one of them
        self.cap_corners: Dict[int, List[Optional[Tuple[int, int]]]] = {}
        limit = flags.corner_limit
        for i, facet in enumerate(self.facets):
            for c in facet.endpoints:
                if c in flags.corner_caps and not self._lagrangian_occupies(c):
                    offset = None if limit is None else homogeneous(c - limit)[:2]
                    self.cap_corners.setdefault(i, []).append(offset)
        self._rays: Dict[Tuple, Optional[_Ray]] = {}
        self._points: Dict[Tuple[int, int, int], Vec] = {}
        self._directions: Dict[Tuple[int, int], Vec] = {}

    # -- completion Vecs ------------------------------------------------------

    def _point(self, origin) -> Vec:
        """The Vec of a homogeneous point, built once per tracer."""
        vec = self._points.get(origin)
        if vec is None:
            vec = self._points[origin] = from_homogeneous(origin)
        return vec

    def _direction(self, d) -> Vec:
        """The Vec of an integer pair, built once per tracer."""
        vec = self._directions.get(d)
        if vec is None:
            vec = self._directions[d] = Vec(*d)
        return vec

    # -- event scanning -------------------------------------------------------

    def _lambda_hit(self, origin, prim, t_num: int, t_den: int) -> bool:
        """Whether the ray meets the Lagrangian graph at some t in (0, t_num/t_den]."""
        for row in self.lag_rows:
            hit = ray_segment_hit(origin, prim, row, self.lag_scale)
            if hit is not None and hit[0] * t_den <= t_num * hit[1]:
                return True
        return False

    def _events(self, origin, prim, b_num: int, b_den: int):
        """(focus, cut): the earliest focus on the ray and the earliest cut it
        crosses, each as (t_num, t_den, j) with t at most the boundary's
        b_num/b_den, or None.  Ties keep the lowest index j.

        One pass over the cut rows finds each focus's parameter on the ray and
        does the work of `ray_segment_hit` on each cut, from their shared offset
        (rx, ry) / (scale W) of the focus from the origin.  The cross product
        of that offset with prim is the numerator of the cut's s, so a focus
        on the ray's line meets its own cut at s = 0 and is a focus event only.
        """
        focus = cut = None
        X, Y, W = origin
        scale = self.cut_scale
        px, py = prim
        for j, (ax, ay, ex, ey) in enumerate(self.cut_rows):
            rx, ry = ax * W - X * scale, ay * W - Y * scale
            cross = py * rx - px * ry
            if cross == 0:
                # the focus is on the ray's line, at t = (r . prim) / (scale W |prim|^2)
                t_num, t_den = rx * px + ry * py, scale * W * (px * px + py * py)
                if (t_num > 0 and t_num * b_den <= b_num * t_den
                        and (focus is None or t_num * focus[1] < focus[0] * t_den)):
                    focus = (t_num, t_den, j)
                continue  # s = 0: meeting the focus itself is a focus event
            denom = px * ey - py * ex
            if denom == 0:
                continue  # parallel: running along a cut is shear-invariant
            t_num = rx * ey - ry * ex
            if denom < 0:
                denom, t_num, cross = -denom, -t_num, -cross
            if t_num <= 0 or cross < 0 or cross > W * denom:
                continue
            t_den = scale * W * denom
            if (t_num * b_den <= b_num * t_den
                    and (cut is None or t_num * cut[1] < cut[0] * t_den)):
                cut = (t_num, t_den, j)
        return focus, cut

    def _crossed(self, j: int, d, side: int) -> Tuple[int, int]:
        """d carried across cut j: the shear d + side <sigma, d> pi."""
        pix, piy = self.shear_table[j]
        sx, sy = self.sigma_table[j]
        if sx * pix + sy * piy != 0:
            ff = self.diagram.focus_foci[j]
            raise GeometryError(f"<{ff.sigma * side!r},{ff.pi!r}> != 0: not a valid shear")
        k = side * (sx * d[0] + sy * d[1])
        return d[0] + k * pix, d[1] + k * piy

    def _ray(self, origin, prim) -> Optional[_Ray]:
        """The `_Ray` of (origin, prim), or None when no trace along it can
        complete: it meets no boundary (malformed input) or it meets the
        Lagrangian graph before its first event."""
        key = origin + prim
        if key in self._rays:
            return self._rays[key]
        ray = self._rays[key] = self._cast(origin, prim)
        return ray

    def _cast(self, origin, prim) -> Optional[_Ray]:
        boundary = self.diagram.boundary_hit(origin, prim)
        if boundary is None:
            return None
        b_num, b_den, facet_ids = boundary
        focus, cut = self._events(origin, prim, b_num, b_den)

        horizon = (b_num, b_den)
        for event in (focus, cut):
            if event is not None and event[0] * horizon[1] < horizon[0] * event[1]:
                horizon = event[:2]
        if self._lambda_hit(origin, prim, *horizon):
            return None

        ray = _Ray(horizon)
        if focus is not None and (cut is None or focus[0] * cut[1] <= cut[0] * focus[1]):
            pix, piy = self.shear_table[focus[2]]
            # no end where cut and focus meet at one point (degenerate), nor
            # where the ray would run through a nodal fiber (not generic)
            if ((cut is None or focus[0] * cut[1] != cut[0] * focus[1])
                    and prim[0] * piy - prim[1] * pix == 0):
                ray.focus = focus[2]
        elif cut is not None and cut[0] * b_den < b_num * cut[1]:
            t_num, t_den, j = cut
            # a cut row runs along its cut direction
            _, _, cx, cy = self.cut_rows[j]
            side = 1 if cx * prim[1] - cy * prim[0] > 0 else -1
            ray.cut = (j, side, ray_point(origin, prim, t_num, t_den))
        else:
            ray.ends = self._boundary_end(origin, prim, boundary)
        return ray

    # -- the trace ------------------------------------------------------------

    def trace(self, p: Vec, dirval: Vec, crossings: int, splits: int) -> List[_Completion]:
        """All valid continuations of a closed edge leaving p with value dirval."""
        if not dirval.is_integral():
            return []
        return self._trace(homogeneous(p), dirval.as_int_pair(), crossings, splits)

    def _trace(self, origin, d, crossings: int, splits: int) -> List[_Completion]:
        """`trace` from the homogeneous point origin along the integer pair d."""
        ell = math.gcd(*d)
        prim = (d[0] // ell, d[1] // ell)
        ray = self._ray(origin, prim)
        if ray is None:
            return []

        completions = (self._split_completions(origin, prim, d, ray, crossings, splits)
                       if splits > 0 else [])
        if ray.focus is not None:
            return completions + self._focus_end(origin, d, ell, ray.focus)
        if ray.cut is not None:
            if crossings <= 0:
                return completions
            j, side, point = ray.cut
            rest = self._trace(point, self._crossed(j, d, side), crossings - 1, splits)
            if rest:
                hit = self._point(point)
                vertex = _VertexSpec(hit, cylinder())
                edge = _EdgeSpec(self._point(origin), hit, self._direction(d))
                completions.extend(c.prepend([vertex], [edge]) for c in rest)
            return completions
        # normals are primitive, so only a primitive d can end on the boundary
        return completions + ray.ends if ell == 1 else completions

    def _focus_end(self, origin, d, ell, j) -> List[_Completion]:
        ff = self.diagram.focus_foci[j]
        leg = (_EdgeSpec(self._point(origin), ff.position, self._direction(d)),)
        return [_Completion((fv,), leg) for fv in self._focus_vertices(j, ell)]

    def _focus_vertices(self, j, ell) -> List[_VertexSpec]:
        """The ell-fold cover of focus j, then for ell >= 2 its desingularized
        partner (the pair nets zero)."""
        ff = self.diagram.focus_foci[j]
        w = ff.weight()
        out = [_VertexSpec(ff.position, focus_cover(ell, j, w))]
        if ell >= 2:
            out.append(_VertexSpec(ff.position, focus_cover_pair(ell, j, w)))
        return out

    def _boundary_end(self, origin, prim, boundary) -> List[_Completion]:
        """The boundary completions of the primitive direction prim."""
        t_num, t_den, facet_ids = boundary
        outward = (-prim[0], -prim[1])
        normals = self.diagram.normals()
        collision = next((i for i in facet_ids if normals[i] == outward), None)
        if collision is None and not self._may_cap(prim, facet_ids):
            return []
        p, dirval = self._point(origin), self._direction(prim)
        point = self._point(ray_point(origin, prim, t_num, t_den))
        if collision is None:
            return self._corner_cap(p, dirval, point, facet_ids)
        return [
            _Completion(
                (_VertexSpec(point, boundary_collision(collision)),),
                (_EdgeSpec(p, point, dirval),),
            )
        ]

    def _may_cap(self, prim, facet_ids) -> bool:
        """The integer tests of `_corner_cap` that need no hit point: a
        flagged corner on a facet hit is free and, under a corner limit, on
        the line through the limit along prim."""
        return any(
            offset is None or offset[0] * prim[1] - offset[1] * prim[0] == 0
            for i in facet_ids for offset in self.cap_corners.get(i, ()))

    def _corner_cap(self, p, dirval, point, facet_ids) -> List[_Completion]:
        """Lemma-4.18 style rim continuation into a flagged corner piece."""
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
                    )
                )
        return out

    def _lagrangian_occupies(self, corner: Vec) -> bool:
        return self.lag is not None and self.lag._vertex_at(homogeneous(corner)) is not None

    def _split_completions(self, origin, prim, d, ray, crossings, splits):
        """Splits at the clear split points of the ray: at each, every arrival
        sub_ell * sign * pi at its focus and the rest d - arrival traced on."""
        if ray.splits is None:
            ray.splits = self._split_points(origin, prim, ray.horizon)
        dx, dy = d
        out = []
        for j, sign, w_origin in ray.splits:
            pix, piy = self.shear_table[j]
            for sub_ell in range(1, self.bounds.max_lattice_length + 1):
                m = sub_ell * sign
                d2 = (dx - pix * m, dy - piy * m)
                rest = self._trace(w_origin, d2, crossings, splits - 1)
                if not rest:
                    continue
                w = self._point(w_origin)
                arrival = self._direction((pix * m, piy * m))
                pants = _VertexSpec(w, pair_of_pants(arrival, self._direction(d2)))
                legs = [_EdgeSpec(self._point(origin), w, self._direction(d)),
                        _EdgeSpec(w, self.diagram.focus_foci[j].position, arrival)]
                focus_vertices = self._focus_vertices(j, sub_ell)
                for completion in rest:
                    for fv in focus_vertices:
                        out.append(completion.prepend([pants, fv], legs))
        return out

    def _split_points(self, origin, prim, horizon) -> List[Tuple[int, int, Tuple[int, int, int]]]:
        """The points w of the ray where it may split, pinned by a focus along
        its shear line, as (j, sign, w).

        Every arrival sub_ell * sign * pi at focus j spans the line through the
        focus along pi, so the split point w, its parameter, the one sign that
        puts the focus ahead of w and the clearance of the leg from w to the
        focus are found once per focus.  w stays a homogeneous triple.
        """
        X, Y, W = origin
        scale = self.cut_scale
        h_num, h_den = horizon
        out = []
        for j, (pix, piy) in enumerate(self.shear_table):
            cross = prim[0] * piy - prim[1] * pix
            if cross == 0:
                continue  # the ray runs along the shear line: no split point
            # focus - origin = (rx, ry) / (scale W); w = origin + t prim = focus + u pi
            fx, fy, _, _ = self.cut_rows[j]
            rx, ry = fx * W - X * scale, fy * W - Y * scale
            t_num = rx * piy - ry * pix
            u_num = rx * prim[1] - ry * prim[0]
            if cross < 0:
                cross, t_num, u_num = -cross, -t_num, -u_num
            t_den = scale * W * cross
            if t_num <= 0 or t_num * h_den >= h_num * t_den:
                continue  # w must lie strictly between p and the horizon
            if u_num == 0:
                continue  # w is the focus itself
            # tau = -u / (sub_ell * sign) > 0 for this sign only; since prim is
            # not parallel to pi, d2 = d - arrival is never parallel to the
            # arrival either
            sign = -1 if u_num > 0 else 1
            w_origin = ray_point(origin, prim, t_num, t_den)
            if self._leg_clear(w_origin, j):
                out.append((j, sign, w_origin))
        return out

    def _leg_clear(self, origin, focus_j: int) -> bool:
        """The pinned split leg from w to focus_j must meet nothing on the way.

        `origin` is w as a homogeneous triple.  The leg direction is
        (focus - w) * scale * W, so the focus sits at t = 1 / (scale * W).
        """
        X, Y, W = origin
        scale = self.cut_scale
        fx, fy, _, _ = self.cut_rows[focus_j]
        dx, dy = fx * W - X * scale, fy * W - Y * scale
        reach = scale * W   # t * reach is the fraction of the leg travelled
        # one pass over the cut rows, as in `_events`
        for k, (ax, ay, ex, ey) in enumerate(self.cut_rows):
            rx, ry = ax * W - X * scale, ay * W - Y * scale
            cross = dy * rx - dx * ry
            if cross == 0 and k != focus_j:
                t_num = rx * dx + ry * dy
                if 0 <= t_num <= dx * dx + dy * dy:
                    return False  # another focus on the leg
            denom = dx * ey - dy * ex
            if denom == 0:
                continue
            t_num = rx * ey - ry * ex
            if denom < 0:
                denom, t_num, cross = -denom, -t_num, -cross
            if 0 < t_num < denom and 0 <= cross <= W * denom:
                return False  # a hit at the focus itself is where its own cut starts
        for row in self.lag_rows:
            hit = ray_segment_hit(origin, (dx, dy), row, self.lag_scale)
            if hit is not None and hit[0] * reach <= hit[1]:
                return False
        return True


# -- graph assembly -------------------------------------------------------------


def _build_graph(constraint, root_specs, root_edges, completion: _Completion) -> DiskGraph:
    vertices: List[DiskVertex] = []
    by_pos: Dict[Tuple[int, int, int, int], str] = {}
    for spec in list(root_specs) + list(completion.vertices):
        vid = f"v{len(vertices)}"
        vertices.append(DiskVertex(vid, spec.position, spec.kind))
        key = point_key(spec.position)
        if key in by_pos:
            raise GeometryError(f"two graph vertices at {spec.position!r}")
        by_pos[key] = vid

    edges = []
    for spec in list(root_edges) + list(completion.edges):
        a = by_pos[point_key(spec.start)]
        b = by_pos[point_key(spec.end)]
        edges.append(DiskEdge((a, b), spec.direction, spec.open))
    return DiskGraph(vertices, edges, constraint)


# -- rigidity ------------------------------------------------------------------


def rigidity_dimension(graph: DiskGraph, diagram: BaseDiagram,
                       lag: Optional[LagGraph], constraint: Optional[Constraint]) -> int:
    """Dimension of the solution space of the incidence system; -1 if empty.

    Unknowns are the vertex positions (2 each).  Equations: collinearity of
    each edge with its fixed direction, anchor incidences per vertex kind and
    the point constraint, as `_rigidity_rows` writes them; `_echelon_rank`
    finds the rank and solvability exactly.
    """
    cols = 2 * len(graph.vertices)
    rank, consistent = _echelon_rank(_rigidity_rows(graph, diagram, lag, constraint), cols)
    if not consistent:
        return -1
    return cols - rank


def _rigidity_rows(graph: DiskGraph, diagram: BaseDiagram, lag: Optional[LagGraph],
                   constraint: Optional[Constraint]) -> List[List[int]]:
    """The incidence system of `rigidity_dimension` as integer rows: the 2n
    coefficients, then the right-hand side.  Each row comes from the
    homogeneous vertex positions and the integer facet, cut and Lagrangian
    rows the diagram and the Lagrangian cache, so no Fraction is built.
    """
    cols = 2 * len(graph.vertices)
    rows: List[List[int]] = []

    def add_row(i: int, a: int, b: int, c: int) -> None:
        """a x_i + b y_i = c."""
        row = [0] * (cols + 1)
        row[2 * i], row[2 * i + 1], row[cols] = a, b, c
        rows.append(row)

    def add_pin(i: int, point) -> None:
        X, Y, W = point
        add_row(i, W, 0, X)
        add_row(i, 0, W, Y)

    def add_line(i: int, line, scale: int) -> None:
        """On the line through a/scale along e, for a row (ax, ay, ex, ey)."""
        ax, ay, ex, ey = line
        add_row(i, ey * scale, -ex * scale, ey * ax - ex * ay)

    def add_facet(i: int, fi: int) -> None:
        nx, ny = normals[fi]
        ax, ay, _, _ = facet_rows[fi]
        add_row(i, nx * facet_scale, ny * facet_scale, nx * ax + ny * ay)

    for e in graph.edges:
        ia = graph.index_of(e.endpoints[0])
        ib = graph.index_of(e.endpoints[1])
        # det2(pos_b - pos_a, d) = 0; a half-integral d is scaled by its W
        dx, dy, _ = homogeneous(e.direction)
        row = [0] * (cols + 1)
        row[2 * ib], row[2 * ib + 1], row[2 * ia], row[2 * ia + 1] = dy, -dx, -dy, dx
        rows.append(row)

    facet_rows, facet_scale = diagram.facet_rows()
    normals = diagram.normals()
    foci, _ = diagram._homogeneous_points()
    for v in graph.vertices:
        i = graph.index_of(v.id)
        tag = v.kind.tag
        if tag in (FOCUS_COVER, FOCUS_COVER_PAIR):
            add_pin(i, foci[v.kind.index] if v.kind.index is not None
                    else homogeneous(v.position))
        elif tag == BOUNDARY_COLLISION:
            for fi in diagram._facets_through(homogeneous(v.position)):
                add_facet(i, fi)
        elif tag == CYLINDER:
            point = homogeneous(v.position)
            j = diagram._cut_through(point)
            if j is not None:
                cut_rows, cut_scale = diagram.cut_rows()
                add_line(i, cut_rows[j], cut_scale)
            else:
                facets = diagram._facets_through(point)
                if facets:
                    add_facet(i, facets[0])
        elif tag in (PERP_COLLISION, PANT):
            if lag is not None and constraint is not None and constraint.edge_index is not None:
                edge_rows, edge_scale = lag.edge_rows()
                add_line(i, edge_rows[constraint.edge_index], edge_scale)
        elif tag in (CORNER_CAP, PANT_SEAM, THREE_STRIP):
            add_pin(i, homogeneous(v.position))

    if constraint is not None:
        root = _root_vertex(graph)
        if root is not None:
            add_pin(graph.index_of(root.id), homogeneous(constraint.point))
    return rows


def _root_vertex(graph: DiskGraph) -> Optional[DiskVertex]:
    for v in graph.vertices:
        if v.kind.tag in (PERP_COLLISION, PANT, FIBER_ROOT, THREE_STRIP):
            return v
    return None


def _row_reduce(rows, rhs, cols) -> Tuple[int, bool]:
    """Rank of the rational system rows . x = rhs, and whether it is solvable.

    The entries of `rows` and `rhs` are ints or Fractions.  Each row, with
    its right-hand side appended, is scaled once to integers for
    `_echelon_rank`.
    """
    matrix = []
    for row, b in zip(rows, rhs):
        entries = [*row, b]
        den = math.lcm(*(x.denominator for x in entries))
        matrix.append([x.numerator * (den // x.denominator) for x in entries])
    return _echelon_rank(matrix, cols)


def _echelon_rank(matrix: List[List[int]], cols: int) -> Tuple[int, bool]:
    """Rank of an integer system and whether it is solvable.

    Each row of `matrix` holds the `cols` coefficients, then the right-hand
    side; the rows are rewritten in place.  Fraction-free forward
    elimination: pivoting on row k replaces every row below it with a
    nonzero entry f in the pivot column by pv * row - f * top, pv being the
    pivot, divided by the content (gcd) of the result.  Scaling a row by a
    nonzero integer keeps the rank and the solvability, so rows that are
    zero in the pivot column are left alone; Bareiss's exact division by the
    previous pivot (Bareiss 1968) would need them updated too, and the
    rigidity rows are sparse.  Elimination stops at echelon form, since only
    the rank is needed.
    """
    n = len(matrix)
    rank = 0
    for col in range(cols):
        if rank == n:
            break
        pivot = next((r for r in range(rank, n) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        top = matrix[rank]
        pv = top[col]
        for r in range(rank + 1, n):
            row = matrix[r]
            f = row[col]
            if f:
                row = [pv * a - f * b for a, b in zip(row, top)]
                g = math.gcd(*row)
                matrix[r] = [x // g for x in row] if g > 1 else row
        rank += 1
    # rows below the rank are zero in every coefficient column
    consistent = all(row[-1] == 0 for row in matrix[rank:])
    return rank, consistent


# -- roots and the public API -----------------------------------------------------


def _direction_pairs(bound: int):
    """The nonzero integer pairs in [-bound, bound]^2, x major."""
    return [d for d in itertools.product(range(-bound, bound + 1), repeat=2) if any(d)]


def enumerate_disks(
    diagram: BaseDiagram,
    lag: Optional[LagGraph],
    constraint: Constraint,
    bounds: SearchBounds = SearchBounds(),
    convention: SignConvention = DEFAULT_CONVENTION,
    flags: FixtureFlags = NO_FLAGS,
) -> EnumerationResult:
    graphs = _candidate_graphs(diagram, lag, constraint, bounds, flags)
    warnings: List[str] = []
    out: List[EnumeratedGraph] = []
    for g in _unique_graphs(graphs):
        if len(g.vertices) > bounds.max_vertices:
            warnings.append(f"graph with {len(g.vertices)} vertices exceeds max_vertices")
            continue
        dim = rigidity_dimension(g, diagram, lag, constraint)
        if dim != 0:
            warnings.append(f"dropped non-rigid graph (dim={dim})")
            continue
        aut, weights, contribution = graph_weights(g, convention)
        index = graph_index_diagnostic(g)
        if index != 2:
            warnings.append(f"index diagnostic != 2 for a counted graph ({index})")
        out.append(EnumeratedGraph(g, contribution, dim, aut, weights))
    return EnumerationResult(out, [], warnings)


def _candidate_graphs(diagram, lag, constraint, bounds, flags) -> List[DiskGraph]:
    """Every graph the roots grow from the constraint, duplicates included."""
    tracer = _Tracer(diagram, lag, bounds, flags)
    if constraint.kind == CONSTRAINT_INTERIOR:
        return _fiber_graphs(tracer, constraint, bounds)
    return (_perp_graphs(tracer, lag, constraint, bounds)
            + _pant_graphs(tracer, lag, constraint, bounds))


def _unique_graphs(graphs: List[DiskGraph]) -> List[DiskGraph]:
    """One graph per signature, in signature order: the first candidate of
    each run of equal signatures after a stable sort, so that signatures are
    compared but never hashed."""
    keyed = sorted(((g.signature(), g) for g in graphs), key=itemgetter(0))
    return [next(run)[1] for _, run in itertools.groupby(keyed, key=itemgetter(0))]


def _fiber_graphs(tracer, constraint, bounds) -> List[DiskGraph]:
    out = []
    origin = homogeneous(constraint.point)
    root = _VertexSpec(constraint.point, VertexKind(FIBER_ROOT))
    for d in _direction_pairs(bounds.max_lattice_length):
        for completion in tracer._trace(
            origin, d, bounds.max_cut_crossings, bounds.max_splits
        ):
            out.append(_build_graph(constraint, [root], [], completion))
    return out


def _perp_graphs(tracer, lag, constraint, bounds) -> List[DiskGraph]:
    edge = lag.edges[constraint.edge_index]
    lx, ly = lag.edge_direction(edge).as_int_pair()
    q = constraint.point
    origin = homogeneous(q)
    out = []
    for ell in range(1, bounds.max_lattice_length + 1):
        # collision models require the crossing line on both sides
        plus = tracer._trace(origin, (-ly * ell, lx * ell),
                             bounds.max_cut_crossings, bounds.max_splits)
        if not plus:
            continue
        minus = tracer._trace(origin, (ly * ell, -lx * ell),
                              bounds.max_cut_crossings, bounds.max_splits)
        if not minus:
            continue
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
    origin = homogeneous(q)
    out = []
    for ex, ey in _direction_pairs(bounds.max_lattice_length):
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
        closed = tracer._trace(origin, (ex, ey), bounds.max_cut_crossings, bounds.max_splits)
        if not closed:
            continue
        e_black = Vec(ex, ey)
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
    """Pairs of cover/desingularized graphs with opposite contributions.

    Graphs are grouped by each multiple cover (ell >= 2) they contain, keyed
    by "cover_pair:{focus}:{ell}" and the positions and ells of all their
    focus vertices; a group of two with opposite contributions is a pair.
    """
    groups: Dict[Tuple, List[EnumeratedGraph]] = {}
    for g in result.graphs:
        covers = [v for v in g.graph.vertices if v.kind.tag in (FOCUS_COVER, FOCUS_COVER_PAIR)]
        geometry = tuple(sorted((tuple(v.position), v.kind.ell) for v in covers))
        for k in (v.kind for v in covers if v.kind.ell >= 2):
            groups.setdefault((f"cover_pair:{k.index}:{k.ell}", geometry), []).append(g)
    pairs = []
    for key, group in sorted(groups.items()):
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
