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
integer triples and directions as integer pairs, and the solved graphs store
the same triples, so the search builds no Vec.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

from .diagram import BaseDiagram
from .diskgraph import (
    Constraint,
    DiskEdge,
    DiskGraph,
    DiskVertex,
    _signature_key,
    check_edge_index,
)
from .geometry import (
    GeometryError,
    Vec,
    from_homogeneous,
    homogeneous,
    offset_hit,
    point_on_row,
    primitive_pair,
    ray_point,
    row_offsets,
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
    Triple,
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

    # each bound's least value, in the order of the CLI's V,L,C,S: a search
    # needs a vertex and a lattice length, and may neither cross a cut nor
    # split.  Unannotated, so that it is a class attribute and not a field.
    MINIMA = {"max_vertices": 1, "max_lattice_length": 1,
              "max_cut_crossings": 0, "max_splits": 0}

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

    @property
    def cap_triples(self) -> Tuple[Triple, ...]:
        """The corners as homogeneous triples, the form the search reads."""
        return tuple(homogeneous(c) for c in self.corner_caps)

    @property
    def limit_triple(self) -> Optional[Triple]:
        """The limit as a homogeneous triple, or None."""
        return None if self.corner_limit is None else homogeneous(self.corner_limit)


NO_FLAGS = FixtureFlags()


class _VertexSpec(NamedTuple):
    position: Tuple[int, int, int]   # homogeneous
    kind: VertexKind


class _EdgeSpec(NamedTuple):
    start: Tuple[int, int, int]
    end: Tuple[int, int, int]
    direction: Tuple[int, int, int]  # homogeneous, so (dx, dy, 1) for integers
    open: bool = False


class _Completion(NamedTuple):
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
    weights: Tuple[Tuple[int, int], ...]  # vertex multiplicities (num, den) in lowest terms


@dataclass
class EnumerationResult:
    graphs: List[EnumeratedGraph]
    unresolved: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.unresolved

    def total(self) -> Fraction:
        """The sum of the contributions, in integers over one common
        denominator: one Fraction is built, the sum."""
        num, den = 0, 1
        for g in self.graphs:
            n, d = g.contribution.numerator, g.contribution.denominator
            if d != den:
                common = math.lcm(den, d)
                num, n, den = num * (common // den), n * (common // d), common
            num += n
        return Fraction(num, den)

    def contributions(self) -> List[Fraction]:
        return [g.contribution for g in self.graphs]


class _Origin:
    """What every cast from one origin p shares: the parts of its events that
    depend on p alone, and the rays cast from it.

    `slacks` is the diagram's `facet_slacks` of p, None when p is outside
    the polygon, where no ray starts.  `reach` is the cut scale times p's W.
    `cuts` holds one (ax, ay, bx, by, t_num, o) per cut.  With A = f - p
    and B = x - p times reach, for the cut's focus f and boundary exit x,
    and o the sign of A x B (1 where it is 0), (ax, ay) = o A,
    (bx, by) = o B and t_num = |A x B| / W, the numerator of the parameter
    at which any ray from p meets the cut's line.  A cut whose line holds p
    has (bx, by) = (ax, ay), so that no ray crosses it (`_events`).  `lag`
    holds the Lagrangian rows' `row_offsets`, and `rays` the `_Ray` (or
    None) of each primitive direction cast so far.  `splits` holds, per
    focus j, (j, rx, ry, r x pi, pix, piy): its offset r = f - p times
    reach, the numerator of a split point's parameter and its shear
    direction pi, filled the first time a ray from p may split.
    """

    __slots__ = ("slacks", "reach", "cuts", "lag", "splits", "rays")

    def __init__(self, slacks, reach, cuts, lag):
        self.slacks = slacks
        self.reach = reach
        self.cuts = cuts
        self.lag = lag
        self.splits: Optional[List[Tuple[int, ...]]] = None
        self.rays: Dict[Tuple[int, int], Optional[_Ray]] = {}


class _Ray:
    """What a trace computes from its origin and primitive direction alone,
    reading the origin's `_Origin` table and the direction.

    `focus` is the focus j the ray ends at (along its shear line, first on
    the ray and not where a cut also meets it), `cut` the (j, point) of the
    cut it crosses first, and `ends` the boundary completions for a
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


def _offset(p, q) -> Tuple[int, int]:
    """q - p, for homogeneous points p and q, as an integer pair: a positive
    multiple of it."""
    (X, Y, W), (U, V, Z) = p, q
    return U * W - X * Z, V * W - Y * Z


def _cap_admits(offset, prim) -> bool:
    """Whether a flagged corner's cap admits a rim continuation of the
    primitive direction prim, for the corner's offset from the corner limit
    (`_Tracer.cap_table`): there is no limit (None), or prim runs along the
    limit's line through the corner."""
    return offset is None or offset[0] * prim[1] - offset[1] * prim[0] == 0


# a leg table's bound where nothing blocks: n * 0 < 1 * den for every den > 0
_NO_BLOCK = (1, 0)


class _Tracer:
    """Exhaustive ray tracing on homogeneous integers, one tracer per
    diagram, Lagrangian and flags.

    It reads the diagram's facet and branch-cut rows and keeps the Lagrangian
    edges as rows of their own.  The roots call `_trace` from the
    constraint's homogeneous point.  It carries every ray origin, split
    point and cut crossing as a homogeneous (X, Y, W) triple and every
    direction as an integer pair, so each event test is an integer cross
    product and each comparison of ray parameters a cross-multiplication.
    A direction crosses a cut through `BaseDiagram.cross_cut` and meets a
    facet head-on through `BaseDiagram.collision_facet`.  Its completion
    specs carry the same triples, and so do the kinds it tags: the tracer
    builds no Vec.

    Built at once: the cut, shear and Lagrangian rows, the cap table and its
    offsets, and the focus and facet ids the end test (`_can_end`) scans.
    Filled as searches ask: the facet rates per primitive direction
    (`_rates`, from `BaseDiagram.facet_rates`), the leg table per focus
    (`_legs`, from `_leg_table`: a split leg runs along its focus's shear
    line, so whether it is clear depends only on where w sits on that
    line), the pant-root and fiber-root directions per edge and lattice
    length (`roots`) and the end test per direction ell * prim (`_ends`).
    None of these is keyed by a point, so their size is bounded by the
    directions, the foci and the edges, and `_candidate_graphs` keeps the
    tracer for the next search on the same diagram and Lagrangian objects
    under equal flags; nothing is stored on the diagram or the Lagrangian.
    The memos read the diagram's rules (`along_shear`, `collision_facet`)
    when they are filled, so a test that swaps a rule method must run its
    search on freshly built objects.

    A search sets the bounds and fills `_origins`, which it drops when it
    returns: every offset a cast reads (to each facet, cut, focus and
    Lagrangian row) depends on the origin alone, so the first cast from an
    origin builds its `_Origin` table, and a cast computes only what
    depends on the direction: the facet rates, the cut and focus cross
    products and the Lagrangian hit.  Everything a trace finds before its
    ends depends only on the origin and the primitive direction, so the
    origin's table keeps a `_Ray` per direction.

    A trace is cast only when a cut crossing or a split is left or when its
    direction can end as it runs straight (`_can_end`): at a focus along
    its shear (`BaseDiagram.along_shear`), or for a primitive direction
    head-on on a facet or at a flagged corner's cap.  On a diagram with no
    foci nothing redirects a trace, so a search there has no cut-crossing
    or split budget and casts only the directions of its possible ends; its
    root tables (`roots`) drop the directions that fail the test, and the
    perpendicular root traces lattice length 1 only.
    """

    def __init__(self, diagram: BaseDiagram, lag: Optional[LagGraph], flags: FixtureFlags):
        self.diagram, self.lag, self.flags = diagram, lag, flags
        self.cut_rows, self.cut_scale = diagram.cut_rows()
        self.foci, corners = diagram.homogeneous_points()
        self.shear_table = [pi for pi, _ in diagram.shears()]
        self.lag_rows, self.lag_scale = ([], 1) if lag is None else lag.edge_rows()
        # facet i (corner i to corner i + 1) -> its flagged corners that the
        # Lagrangian leaves free, each as (corner, offset), the offset being
        # `_offset(corner_limit, corner)` (None without a limit): a rim
        # continuation from the facet aims at one of them
        flagged, limit = set(flags.cap_triples), flags.limit_triple
        self.cap_table: Dict[int, List[Tuple]] = {}
        for i in range(len(corners)):
            for c in (corners[i], corners[(i + 1) % len(corners)]):
                if c in flagged and (lag is None or lag.vertex_at(c) is None):
                    offset = None if limit is None else _offset(limit, c)
                    self.cap_table.setdefault(i, []).append((c, offset))
        # what `_can_end` scans: each flagged corner's offset once
        self._cap_offsets = tuple(dict.fromkeys(
            offset for caps in self.cap_table.values() for _, offset in caps))
        self._focus_ids = range(len(self.foci))
        self._facet_ids = range(len(diagram.normals()))
        # each primitive direction's `facet_rates`
        self._rates: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        # each direction ell * prim's `_can_end(prim, ell)`
        self._ends: Dict[Tuple[int, int], bool] = {}
        self._legs: List[Optional[Tuple]] = [None] * len(self.foci)
        # (edge index, lattice length bound) -> the pant root's directions,
        # and (None, bound) -> the fiber root's (`roots`)
        self._roots: Dict[Tuple[Optional[int], int], Tuple[Tuple, ...]] = {}
        # the search's bounds and `_Origin` tables (`_candidate_graphs`)
        self.bounds: Optional[SearchBounds] = None
        self._origins: Dict[Tuple[int, int, int], _Origin] = {}

    def roots(self, k: Optional[int], bound: int) -> Tuple[Tuple, ...]:
        """The pant root's directions on Lagrangian edge k
        (`_pant_root_directions`), or the fiber root's when k is None
        (`_direction_pairs`), in order; with no foci only those that pass
        `_can_end`, read from and kept in `_ends` as `_trace` does."""
        roots = self._roots.get((k, bound))
        if roots is None:
            roots = (_direction_pairs(bound) if k is None
                     else _pant_root_directions(self.lag, k, bound))
            if not self.foci:
                kept = []
                for root in roots:
                    d = root[:2]
                    can = self._ends.get(d)
                    if can is None:
                        ell = math.gcd(*d)
                        can = self._ends[d] = self._can_end((d[0] // ell, d[1] // ell), ell)
                    if can:
                        kept.append(root)
                roots = tuple(kept)
            self._roots[(k, bound)] = roots
        return roots

    def _can_end(self, prim, ell) -> bool:
        """Whether a straight trace along ell * prim may end somewhere, by
        the rules its ends use: at a focus along its shear (`along_shear`),
        at any ell; or, for ell = 1, on the boundary, head-on on some facet
        (`collision_facet` over every facet) or at a flagged corner whose
        cap admits prim (`_cap_admits`).  `roots` and `_trace` keep each
        answer in `_ends`, per direction ell * prim, and ask only about a
        direction not in it."""
        diagram = self.diagram
        if self.foci and any(diagram.along_shear(j, prim) for j in self._focus_ids):
            return True
        if ell != 1:
            return False
        if diagram.collision_facet(self._facet_ids, (-prim[0], -prim[1])) is not None:
            return True
        return bool(self._cap_offsets) and any(
            _cap_admits(offset, prim) for offset in self._cap_offsets)

    # -- event scanning -------------------------------------------------------

    def _origin(self, origin) -> _Origin:
        """The `_Origin` table of the homogeneous point origin."""
        X, Y, W = origin
        scale = self.cut_scale
        slacks = self.diagram.facet_slacks(origin)
        if slacks is None:
            return _Origin(None, scale * W, [], [])
        Xs, Ys = X * scale, Y * scale
        cuts = []
        for ax, ay, ex, ey in self.cut_rows:
            rx, ry = ax * W - Xs, ay * W - Ys
            t_num = rx * ey - ry * ex  # A x B / W
            if t_num > 0:
                cuts.append((rx, ry, rx + W * ex, ry + W * ey, t_num, 1))
            elif t_num < 0:
                cuts.append((-rx, -ry, -rx - W * ex, -ry - W * ey, -t_num, -1))
            else:
                cuts.append((rx, ry, rx, ry, 0, 1))
        lag = row_offsets(origin, self.lag_rows, self.lag_scale)
        return _Origin(slacks, scale * W, cuts, lag)

    def _lambda_hit(self, table: _Origin, prim, t_num: int, t_den: int) -> bool:
        """Whether the ray meets the Lagrangian graph at some t in (0, t_num/t_den]."""
        for offset in table.lag:
            hit = offset_hit(offset, prim)
            if hit is not None and hit[0] * t_den <= t_num * hit[1]:
                return True
        return False

    def _events(self, table: _Origin, prim, b_num: int, b_den: int):
        """(focus, cut): the earliest focus on the ray and the earliest cut it
        crosses, each as (t_num, t_den, j) with t at most the boundary's
        b_num/b_den, or None.  Ties keep the lowest index j.

        Each cut is read from the origin's table, its ends' offsets A and B
        turned by the sign o of A x B.  The ray along prim crosses the cut
        strictly past its focus exactly when it runs strictly between A and
        B or through B: (o A) x prim > 0 and prim x (o B) >= 0.  The two
        cross products then sum to W |prim x e| for the cut's row e, so the
        crossing is at t = t_num / (scale (their sum)): the meeting
        `offset_hit` finds with s in (0, 1].  When A x prim = 0
        the focus is on the ray's line, and meeting it is a focus event
        only; a cut parallel to the ray is never crossed, as running along a
        cut is shear-invariant.
        """
        focus = cut = None
        px, py = prim
        scale = self.cut_scale
        for j, (ax, ay, bx, by, t_num, o) in enumerate(table.cuts):
            c = ax * py - ay * px
            if c <= 0:
                if c == 0:
                    # the focus is on the ray's line, at t = (A . prim) / (reach |prim|^2)
                    f_num = o * (ax * px + ay * py)
                    f_den = table.reach * (px * px + py * py)
                    if (f_num > 0 and f_num * b_den <= b_num * f_den
                            and (focus is None or f_num * focus[1] < focus[0] * f_den)):
                        focus = (f_num, f_den, j)
                continue
            b = px * by - py * bx
            if b < 0:
                continue
            t_den = scale * (c + b)
            if (t_num * b_den <= b_num * t_den
                    and (cut is None or t_num * cut[1] < cut[0] * t_den)):
                cut = (t_num, t_den, j)
        return focus, cut

    def _ray(self, origin, prim) -> Optional[_Ray]:
        """The `_Ray` of (origin, prim), or None when no trace along it can
        complete: its origin is outside the polygon, it leaves the polygon
        at once or meets no boundary (malformed input), or it meets the
        Lagrangian graph before its first event."""
        table = self._origins.get(origin)
        if table is None:
            table = self._origins[origin] = self._origin(origin)
        rays = table.rays
        if prim in rays:
            return rays[prim]
        ray = rays[prim] = None if table.slacks is None else self._cast(origin, table, prim)
        return ray

    def _cast(self, origin, table: _Origin, prim) -> Optional[_Ray]:
        rates = self._rates.get(prim)
        if rates is None:
            rates = self._rates[prim] = self.diagram.facet_rates(prim)
        boundary = self.diagram.boundary_exit(table.slacks, rates)
        if boundary is None:
            return None
        b_num, b_den, facet_ids = boundary
        focus, cut = self._events(table, prim, b_num, b_den)

        horizon = (b_num, b_den)
        for event in (focus, cut):
            if event is not None and event[0] * horizon[1] < horizon[0] * event[1]:
                horizon = event[:2]
        if self._lambda_hit(table, prim, *horizon):
            return None

        ray = _Ray(horizon)
        if focus is not None and (cut is None or focus[0] * cut[1] <= cut[0] * focus[1]):
            # no end where cut and focus meet at one point (degenerate), nor
            # where the ray would run through a nodal fiber (not generic)
            if ((cut is None or focus[0] * cut[1] != cut[0] * focus[1])
                    and self.diagram.along_shear(focus[2], prim)):
                ray.focus = focus[2]
        elif cut is not None and cut[0] * b_den < b_num * cut[1]:
            t_num, t_den, j = cut
            ray.cut = (j, ray_point(origin, prim, t_num, t_den))
        else:
            ray.ends = self._boundary_end(origin, prim, boundary)
        return ray

    # -- the trace ------------------------------------------------------------

    def _trace(self, origin, d, crossings: int, splits: int, room: int) -> List[_Completion]:
        """All valid continuations of a closed edge leaving the homogeneous
        point origin along the integer pair d that add at most room
        vertices.  A cut crossing adds one vertex (its cylinder) and a split
        two (its pants and focus vertex) before the rest of the edge, which
        adds at least one, so a trace with room < 2 neither crosses nor
        splits and one with room < 3 does not split.  A trace with no budget
        for either runs straight, so it is cast only when its direction can
        end (`_can_end`, kept in `_ends`)."""
        if room < 3:
            if room < 1:
                return []
            crossings, splits = (crossings if room > 1 else 0), 0
        ell = math.gcd(*d)
        prim = (d[0] // ell, d[1] // ell)
        if crossings == splits == 0:
            can = self._ends.get(d)
            if can is None:
                can = self._ends[d] = self._can_end(prim, ell)
            if not can:
                return []
        ray = self._ray(origin, prim)
        if ray is None:
            return []

        completions = (self._split_completions(origin, prim, d, ray, crossings, splits, room)
                       if splits > 0 else [])
        if ray.focus is not None:
            return completions + self._focus_end(origin, d, ell, ray.focus)
        if ray.cut is not None:
            if crossings <= 0:
                return completions
            j, point = ray.cut
            rest = self._trace(point, self.diagram.cross_cut(j, d), crossings - 1, splits,
                               room - 1)
            if rest:
                vertex = _VertexSpec(point, cylinder())
                edge = _EdgeSpec(origin, point, (*d, 1))
                completions.extend(c.prepend([vertex], [edge]) for c in rest)
            return completions
        # normals are primitive, so only a primitive d can end on the boundary
        if ell != 1 or not ray.ends:
            return completions
        if room > 1:
            return completions + ray.ends
        # a corner cap brings two vertices
        return completions + [c for c in ray.ends if len(c.vertices) == 1]

    def _focus_end(self, origin, d, ell, j) -> List[_Completion]:
        leg = (_EdgeSpec(origin, self.foci[j], (*d, 1)),)
        return [_Completion((fv,), leg) for fv in self._focus_vertices(j, ell)]

    def _focus_vertices(self, j, ell) -> List[_VertexSpec]:
        """The ell-fold cover of focus j, then for ell >= 2 its desingularized
        partner (the pair nets zero)."""
        w = self.diagram.focus_foci[j].weight()
        out = [_VertexSpec(self.foci[j], focus_cover(ell, j, w))]
        if ell >= 2:
            out.append(_VertexSpec(self.foci[j], focus_cover_pair(ell, j, w)))
        return out

    def _boundary_end(self, origin, prim, boundary) -> List[_Completion]:
        """The boundary completions of the primitive direction prim."""
        t_num, t_den, facet_ids = boundary
        collision = self.diagram.collision_facet(facet_ids, (-prim[0], -prim[1]))
        if collision is None and self.cap_table.keys().isdisjoint(facet_ids):
            return []  # neither a collision nor a corner to cap
        point = ray_point(origin, prim, t_num, t_den)
        if collision is None:
            return self._corner_cap(origin, prim, point, facet_ids)
        return [
            _Completion(
                (_VertexSpec(point, boundary_collision(collision)),),
                (_EdgeSpec(origin, point, (*prim, 1)),),
            )
        ]

    def _corner_cap(self, origin, prim, point, facet_ids) -> List[_Completion]:
        """Lemma-4.18 style rim continuation into a flagged corner piece, for
        the primitive direction prim from origin to the boundary point: to
        each corner of `cap_table` on a facet hit, other than the point, on
        the limit's line along prim, and ahead of prim's rim component."""
        normals = self.diagram.normals()
        px, py = prim
        out = []
        for i in facet_ids:
            nx, ny = normals[i]
            # the rim component of the incoming direction must aim at the corner
            rim = px * ny - py * nx
            for corner, offset in self.cap_table.get(i, ()):
                if corner == point:
                    continue
                if not _cap_admits(offset, prim):
                    continue
                tx, ty, _ = primitive_pair(*_offset(point, corner))
                if rim == 0 or (rim > 0) != (tx * ny - ty * nx > 0):
                    continue
                out.append(
                    _Completion(
                        (
                            _VertexSpec(point, cylinder()),
                            _VertexSpec(corner, VertexKind(CORNER_CAP)),
                        ),
                        (
                            _EdgeSpec(origin, point, (*prim, 1)),
                            _EdgeSpec(point, corner, (tx, ty, 1)),
                        ),
                    )
                )
        return out

    def _split_completions(self, origin, prim, d, ray, crossings, splits, room):
        """Splits at the clear split points of the ray: at each, every arrival
        sub_ell * sign * pi at its focus and the rest d - arrival traced on,
        with room for two vertices fewer."""
        if ray.splits is None:
            ray.splits = self._split_points(origin, prim, ray.horizon)
        dx, dy = d
        out = []
        for j, sign, w in ray.splits:
            pix, piy = self.shear_table[j]
            for sub_ell in range(1, self.bounds.max_lattice_length + 1):
                m = sub_ell * sign
                d2 = (dx - pix * m, dy - piy * m)
                rest = self._trace(w, d2, crossings, splits - 1, room - 2)
                if not rest:
                    continue
                ax, ay = pix * m, piy * m
                pants = _VertexSpec(w, pair_of_pants((ax, ay, 1), (*d2, 1)))
                legs = [_EdgeSpec(origin, w, (dx, dy, 1)),
                        _EdgeSpec(w, self.foci[j], (ax, ay, 1))]
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
        focus are found once per focus, from the focus's offset in the
        origin's `_Origin` table.  w stays a homogeneous triple.
        """
        table = self._origins[origin]
        if table.splits is None:
            table.splits = [(j, o * ax, o * ay, o * (ax * piy - ay * pix), pix, piy)
                            for j, ((ax, ay, _, _, _, o), (pix, piy))
                            in enumerate(zip(table.cuts, self.shear_table))]
        px, py = prim
        h_num, h_den = horizon
        out = []
        for j, rx, ry, t_num, pix, piy in table.splits:
            cross = px * piy - py * pix
            if cross == 0:
                continue  # the ray runs along the shear line: no split point
            # focus - origin = (rx, ry) / reach; w = origin + t prim = focus + u pi
            u_num = rx * py - ry * px
            if cross < 0:
                cross, t_num, u_num = -cross, -t_num, -u_num
            t_den = table.reach * cross
            if t_num <= 0 or t_num * h_den >= h_num * t_den:
                continue  # w must lie strictly between p and the horizon
            if u_num == 0:
                continue  # w is the focus itself
            # tau = -u / (sub_ell * sign) > 0 for this sign only; since prim is
            # not parallel to pi, d2 = d - arrival is never parallel to the
            # arrival either
            if self._leg_clear(j, u_num, t_den):
                sign = -1 if u_num > 0 else 1
                out.append((j, sign, ray_point(origin, prim, t_num, t_den)))
        return out

    # -- split legs -----------------------------------------------------------

    def _leg_clear(self, j: int, v_num: int, v_den: int) -> bool:
        """Whether the pinned split leg from w = focus_j + (v_num/v_den) pi_j
        back to the focus meets nothing on the way (v_num != 0, v_den > 0):
        |v| against the two bounds of `_leg_table` on w's side."""
        table = self._legs[j]
        if table is None:
            table = self._legs[j] = self._leg_table(j)
        c_num, c_den, o_num, o_den = table[v_num < 0]
        a = abs(v_num)
        return a * c_den < c_num * v_den and a * o_den <= o_num * v_den

    def _leg_table(self, j: int):
        """For w = F + v pi on focus j's shear line (F the focus), the bounds
        (c_num, c_den, o_num, o_den) on each side, v > 0 then v < 0, with which
        the leg from w back to F is clear exactly when |v| < c and |v| <= o.

        A leg is blocked by another focus on the closed segment [w, F], by a
        cut it crosses strictly inside (w, F), and by a Lagrangian edge it
        meets in (w, F]; a Lagrangian edge along the line blocks only beyond
        its farther end, and a cut along it only through its focus.
        Each blocker at |v| = b on a side lowers that side's c (a focus) or o
        (a cut or an edge) to b; one at v = 0 blocks both sides.
        """
        scale = self.cut_scale
        fx, fy, _, _ = self.cut_rows[j]
        px, py = self.shear_table[j]
        norm = px * px + py * py
        closed, opened = [_NO_BLOCK, _NO_BLOCK], [_NO_BLOCK, _NO_BLOCK]

        def block(bounds, side, num, den):
            """Lower bounds[side] to num/den (num >= 0, den > 0)."""
            b_num, b_den = bounds[side]
            if num * b_den < b_num * den:
                bounds[side] = (num, den)

        def block_at(bounds, v_num, den):
            """Block from v = v_num/den on, on its side, or on both at v = 0."""
            for side in ((0, 1) if v_num == 0 else (v_num < 0,)):
                block(bounds, side, abs(v_num), den)

        # each row (ax, ay, ex, ey) is the segment (a + s e)/row scale, s in
        # [0, 1]; with g = F - a over the common scale m, a + s e = F + v pi
        # solves to s = (g x pi)/D and v = (g x e)/(m D) for D = e x pi != 0
        for k, (ax, ay, ex, ey) in enumerate(self.cut_rows):
            if k == j:
                continue
            gx, gy = fx - ax, fy - ay
            if gx * py == gy * px:
                block_at(closed, -(gx * px + gy * py), scale * norm)  # focus k
            den = ex * py - ey * px
            if den == 0:
                continue
            s_num, v_num = gx * py - gy * px, gx * ey - gy * ex
            if den < 0:
                den, s_num, v_num = -den, -s_num, -v_num
            if 0 <= s_num <= den and v_num != 0:
                block_at(opened, v_num, scale * den)

        lag_scale = self.lag_scale
        m = scale * lag_scale
        for ax, ay, ex, ey in self.lag_rows:
            gx, gy = fx * lag_scale - ax * scale, fy * lag_scale - ay * scale
            s_num = gx * py - gy * px
            den = ex * py - ey * px
            if den == 0:
                if s_num != 0 or not (ex or ey):
                    continue  # parallel off the line, or a point row
                # along the line: the ends at v = lo and hi over m |pi|^2
                start = -(gx * px + gy * py)
                lo, hi = sorted((start, start + scale * (ex * px + ey * py)))
                if hi >= 0:
                    block(opened, 0, hi, m * norm)
                if lo <= 0:
                    block(opened, 1, -lo, m * norm)
                continue
            v_num = gx * ey - gy * ex
            if den < 0:
                den, s_num, v_num = -den, -s_num, -v_num
            if 0 <= s_num <= scale * den:
                block_at(opened, v_num, m * den)
        return tuple(closed[side] + opened[side] for side in (0, 1))


# -- graph assembly -------------------------------------------------------------


def _build_graph(completion: _Completion) -> DiskGraph:
    """The solved graph of a completion.  Its specs carry the canonical
    homogeneous triples of positions and directions alike, which the graph
    stores as they are; the vertices are keyed by triple."""
    by_pos = {s.position: f"v{i}" for i, s in enumerate(completion.vertices)}
    vertices = [DiskVertex(by_pos[s.position], s.position, s.kind)
                for s in completion.vertices]
    edges = [DiskEdge((by_pos[e.start], by_pos[e.end]), e.direction, e.open)
             for e in completion.edges]
    return DiskGraph(vertices, edges)


# -- rigidity ------------------------------------------------------------------


def rigidity_dimension(graph: DiskGraph, diagram: BaseDiagram,
                       lag: Optional[LagGraph], constraint: Optional[Constraint]) -> int:
    """Dimension of the solution space of the incidence system; -1 if empty.

    Unknowns are the graph's tropical coordinates (`_tropical_frame`): one
    length t_e per edge, along its direction d_e, a vertex sitting at the
    root plus the sum of t_e d_e along its path in a spanning tree.  When
    the constraint pins the root, the root is its point and the m lengths
    are the only unknowns; otherwise the root's (x, y) are two more.
    Equations: the anchor incidences per vertex kind, and two closing rows
    per edge off the tree, as `_rigidity_rows` writes them; `_echelon_rank`
    finds the rank and solvability exactly.  The frame maps the solutions
    one to one and affinely onto the vertex positions that meet the anchors
    and the constraint with each edge along its direction, so the dimension
    and the solvability are those of that system over two coordinates per
    vertex.
    """
    rows, frame = _rigidity_rows(graph, diagram, lag, constraint)
    rank, consistent = _echelon_rank(rows, frame.cols)
    if not consistent:
        return -1
    return frame.cols - rank


class _Frame(NamedTuple):
    """Tropical coordinates of a graph over `cols` unknowns: vertex i sits
    at `origin`, a homogeneous point (X, Y, W), plus t (dx, dy) summed over
    `paths[i]`, the tree edges from the root to it, t the unknown in the
    column of each (column, dx, dy).  A pinned root's origin is the
    constraint's point and the lengths are the only unknowns; a free
    root's is (0, 0, 1), and every path starts with the root's x and y,
    the last two columns, along (1, 0) and (0, 1).  `closing` holds
    (column, a, b, dx, dy) for each edge a -> b off the tree."""

    paths: List[Tuple[Tuple[int, int, int], ...]]
    closing: List[Tuple[int, int, int, int, int]]
    cols: int
    origin: Tuple[int, int, int]


def _tropical_frame(graph: DiskGraph, root: Optional[int],
                    origin: Optional[Tuple[int, int, int]]) -> _Frame:
    """A spanning tree of a connected disk graph, grown by sweeps over the
    edges from vertex `root`, or from the start of the first edge when
    there is no root; the root is pinned at the homogeneous `origin`, or
    free when it is None.  An edge's triple (dx, dy, W) stands for (dx, dy),
    which only rescales its length.  The m lengths come first: off the
    tree from column 0 up, on it from column m - 1 down, so that an edge's
    column precedes its parent's and elimination starts at the leaves.  An
    edge with no direction, or a vertex that no edge reaches, raises
    GeometryError."""
    index = graph._index
    pending = []
    for e in graph.edges:
        dx, dy, _ = e.triple
        if not (dx or dy):
            raise GeometryError(f"graph edge {e.endpoints} has no direction")
        pending.append((index[e.endpoints[0]], index[e.endpoints[1]], dx, dy))
    m = len(pending)
    paths: list = [None] * len(graph.vertices)
    if root is None:
        root = pending[0][0] if pending else 0
    if origin is None:
        paths[root], origin, cols = ((m, 1, 0), (m + 1, 0, 1)), (0, 0, 1), m + 2
    else:
        paths[root], cols = (), m
    closing = []
    last = m - 1   # the next tree edge's column
    while pending:
        rest = []
        for end in pending:
            a, b, dx, dy = end
            at_a, at_b = paths[a], paths[b]
            if at_a is None and at_b is None:
                rest.append(end)
            elif at_b is None:
                paths[b] = (*at_a, (last, dx, dy))
                last -= 1
            elif at_a is None:
                paths[a] = (*at_b, (last, -dx, -dy))
                last -= 1
            else:
                closing.append((len(closing), *end))
        if len(rest) == len(pending):
            break   # no edge of the rest reaches the tree
        pending = rest
    if None in paths:
        raise GeometryError(f"graph vertex {graph.vertices[paths.index(None)].id} "
                            "is not joined to the others by edges")
    return _Frame(paths, closing, cols, origin)


def _rigidity_rows(graph: DiskGraph, diagram: BaseDiagram, lag: Optional[LagGraph],
                   constraint: Optional[Constraint]) -> Tuple[List[List[int]], _Frame]:
    """The system of `rigidity_dimension` and the frame of its unknowns: the
    rows are integer, the coefficients, then the right-hand side.  First
    one row per anchor, in vertex order: with the frame's origin (X, Y, W),
    an anchor a x + b y = c at vertex i reads W (a dx + b dy) at each
    column of its path and W c - a X - b Y on the right.  The constraint
    pins the root, if the graph has one, at the origin, so a free root's
    anchor reads a, b at its columns and c on the right.  Then the x and
    the y row p_b - p_a - t d = 0 of each edge off the tree, in which the
    root cancels.  The anchors come from the triples the graph stores and
    the integer facet, cut and Lagrangian rows of the diagram and the
    Lagrangian cache, so no Fraction is built.  The same pass finds the
    root: the first vertex of a kind that the point constraint pins.
    """
    anchors: List[Tuple[int, int, int, int]] = []
    facet_rows, facet_scale = diagram.facet_rows()
    foci, _ = diagram.homogeneous_points()
    root = None
    for i, v in enumerate(graph.vertices):
        point, tag = v.triple, v.kind.tag
        if root is None and tag in (PERP_COLLISION, PANT, FIBER_ROOT, THREE_STRIP):
            root = i
        if tag in (FOCUS_COVER, FOCUS_COVER_PAIR):
            anchors += _pin_anchors(i, foci[v.kind.index] if v.kind.index is not None else point)
        elif tag == BOUNDARY_COLLISION:
            anchors += [_line_anchor(i, facet_rows[fi], facet_scale)
                        for fi in diagram.facets_through(point)]
        elif tag == CYLINDER:
            j = diagram.cut_through(point)
            if j is not None:
                cut_rows, cut_scale = diagram.cut_rows()
                anchors.append(_line_anchor(i, cut_rows[j], cut_scale))
            else:
                anchors += [_line_anchor(i, facet_rows[fi], facet_scale)
                            for fi in diagram.facets_through(point)[:1]]
        elif tag in (PERP_COLLISION, PANT):
            if lag is not None and constraint is not None and constraint.edge_index is not None:
                edge_rows, edge_scale = lag.edge_rows()
                anchors.append(_line_anchor(i, edge_rows[constraint.edge_index], edge_scale))
        elif tag in (CORNER_CAP, PANT_SEAM, THREE_STRIP):
            anchors += _pin_anchors(i, point)
    pinned = constraint is not None and root is not None
    frame = _tropical_frame(graph, root, constraint.triple if pinned else None)
    paths, cols = frame.paths, frame.cols
    X, Y, W = frame.origin
    rows: List[List[int]] = []
    for i, a, b, c in anchors:
        row = [0] * (cols + 1)
        for col, dx, dy in paths[i]:
            row[col] = W * (a * dx + b * dy)
        row[cols] = W * c - a * X - b * Y
        rows.append(row)
    for col, a, b, dx, dy in frame.closing:
        # the root cancels
        x_row, y_row = [0] * (cols + 1), [0] * (cols + 1)
        for sign, i in ((1, b), (-1, a)):
            for c, ex, ey in paths[i]:
                x_row[c] += sign * ex
                y_row[c] += sign * ey
        x_row[col], y_row[col] = -dx, -dy
        rows += (x_row, y_row)
    return rows, frame


def _pin_anchors(i: int, point) -> Tuple[Tuple[int, int, int, int], ...]:
    """Vertex i at the homogeneous point (X, Y, W), as two anchors
    (i, a, b, c), each a x_i + b y_i = c."""
    X, Y, W = point
    return (i, W, 0, X), (i, 0, W, Y)


def _line_anchor(i: int, line, scale: int) -> Tuple[int, int, int, int]:
    """Vertex i on the line through a/scale along e, for a row (ax, ay, ex,
    ey) of `integer_rows`, as the anchor (i, a, b, c): a x_i + b y_i = c."""
    ax, ay, ex, ey = line
    return i, ey * scale, -ex * scale, ey * ax - ex * ay


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
        for pivot in range(rank, n):
            if matrix[pivot][col]:
                break
        else:
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


@functools.lru_cache(maxsize=None)
def _direction_pairs(bound: int) -> Tuple[Tuple[int, int], ...]:
    """The nonzero integer pairs in [-bound, bound]^2, x major, built once
    per bound."""
    return tuple(d for d in itertools.product(range(-bound, bound + 1), repeat=2) if any(d))


def enumerate_disks(
    diagram: BaseDiagram,
    lag: Optional[LagGraph],
    constraint: Constraint,
    bounds: SearchBounds = SearchBounds(),
    convention: SignConvention = DEFAULT_CONVENTION,
    flags: FixtureFlags = NO_FLAGS,
) -> EnumerationResult:
    """Every rigid disk graph through the constraint with at most
    `bounds.max_vertices` vertices, with its weights.

    Raises GeometryError before any search for a diagram with violation
    codes (`BaseDiagram.validate()`), for a vertex or lattice length
    bound below 1 or a cut-crossing or split bound below 0, for a Lagrangian
    edge of weight other than 1 (the search reads every edge as primitive),
    for an interior constraint (one with no edge index) that is not strictly
    inside the polygon or is a focus-focus value, whose fiber is nodal, and
    for an edge constraint with no Lagrangian, with an edge index the
    Lagrangian lacks, or off its edge's open segment.
    """
    problems = diagram.validate()
    if problems:
        raise GeometryError(f"invalid diagram {diagram.name}: {problems}")
    for name, least in SearchBounds.MINIMA.items():
        value = getattr(bounds, name)
        if value < least:
            raise GeometryError(f"search bound {name} is {value}, below {least}")
    heavy = {} if lag is None else lag.weight_violations()
    if heavy:
        raise GeometryError("the search reads every Lagrangian edge as primitive: "
                            + "; ".join(heavy.values()))
    foci = diagram.homogeneous_points()[0]
    point, triple = constraint.point, constraint.triple
    if constraint.edge_index is not None:
        if lag is None:
            raise GeometryError("edge constraints need a Lagrangian")
        edge_rows, scale = lag.edge_rows()
        k = check_edge_index(constraint.edge_index, len(edge_rows))
        if not point_on_row(triple, edge_rows[k], scale, closed=False):
            raise GeometryError(
                f"constraint point:{point.x},{point.y} is not on edge {k} of the Lagrangian")
    elif not diagram.contains(triple, strict=True):
        raise GeometryError(
            f"constraint point:{point.x},{point.y} is not strictly inside the polygon")
    elif triple in foci:
        raise GeometryError(
            f"constraint point:{point.x},{point.y} is a focus-focus value: its fiber "
            "is nodal, not a Lagrangian torus")
    completions = _candidate_graphs(diagram, lag, constraint, bounds, flags)
    warnings: List[str] = []
    out: List[EnumeratedGraph] = []
    for completion in _unique_graphs(completions):
        g = _build_graph(completion)
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


# the `_Tracer` of the last search, the one kept: the next search reuses it
# when it runs on the same diagram and Lagrangian objects (`is`) under equal
# flags, and otherwise replaces it
_last_tracer: Optional[_Tracer] = None


def _candidate_graphs(diagram, lag, constraint, bounds, flags) -> List[_Completion]:
    """Every completion the roots grow from the constraint, root specs
    prepended, duplicates included, in search order.  The search sets the
    tracer's bounds, with no cut-crossing or split budget on a diagram with
    no foci, where nothing redirects a trace, and drops the tracer's
    `_Origin` tables when it returns."""
    global _last_tracer
    tracer = _last_tracer
    if (tracer is None or tracer.diagram is not diagram or tracer.lag is not lag
            or tracer.flags != flags):
        tracer = _last_tracer = _Tracer(diagram, lag, flags)
    if not tracer.foci:
        bounds = SearchBounds(bounds.max_vertices, bounds.max_lattice_length, 0, 0)
    tracer.bounds = bounds
    completions: List[_Completion] = []
    roots = tracer.roots(constraint.edge_index, bounds.max_lattice_length)
    try:
        if constraint.edge_index is None:
            _fiber_graphs(tracer, constraint, completions, bounds, roots)
        else:
            _perp_graphs(tracer, lag, constraint, completions, bounds)
            _pant_graphs(tracer, lag, constraint, completions, bounds, roots)
    finally:
        tracer._origins = {}
    return completions


def _unique_graphs(completions: List[_Completion]) -> List[_Completion]:
    """One completion per graph signature, in signature order: the first
    completion of each run of equal keys after a stable sort.

    A completion's key is `diskgraph._signature_key`, the field list of
    `DiskGraph.signature()`, read off its specs with every position and
    every edge direction times the least common denominator of all the
    completions' triples.  Scaling by one positive integer keeps the order
    and the equality of the Fractions, so the keys sort, and group, exactly
    as the signatures of the graphs would.  The kinds' vectors are scaled by
    the same denominator: every kind the tracer builds holds integer triples
    (W = 1).  A completion with two vertices at one point has no graph: the
    first such one, in search order, raises GeometryError.  A lone
    completion needs no key.
    """
    triples = set()
    for c in completions:
        seen = set()
        for s in c.vertices:
            if s.position in seen:
                raise GeometryError(f"two graph vertices at {from_homogeneous(s.position)!r}")
            seen.add(s.position)
        triples |= seen
        triples.update(e.direction for e in c.edges)
    if len(completions) < 2:
        return completions
    den = math.lcm(*(W for _, _, W in triples))
    scaled = {t: (t[0] * (den // t[2]), t[1] * (den // t[2])) for t in triples}

    def vector(t):
        if t is None or not (t[0] or t[1]):
            return None
        return t[0] * (den // t[2]), t[1] * (den // t[2])

    keyed = [(_signature_key(
                [(scaled[s.position], s.kind) for s in c.vertices],
                [(scaled[e.start], scaled[e.end], scaled[e.direction], e.open)
                 for e in c.edges],
                vector), c)
             for c in completions]
    keyed.sort(key=itemgetter(0))
    return [next(run)[1] for _, run in itertools.groupby(keyed, key=itemgetter(0))]


def _fiber_graphs(tracer, constraint, completions, bounds, roots) -> None:
    origin = constraint.triple
    root = _VertexSpec(origin, VertexKind(FIBER_ROOT))
    for d in roots:
        for completion in tracer._trace(
            origin, d, bounds.max_cut_crossings, bounds.max_splits, bounds.max_vertices - 1
        ):
            completions.append(completion.prepend([root], []))


def _perp_graphs(tracer, lag, constraint, completions, bounds) -> None:
    nx, ny = lag.edge_normal(constraint.edge_index)
    origin = constraint.triple
    crossings, splits = bounds.max_cut_crossings, bounds.max_splits
    room = bounds.max_vertices - 1
    # a room that never binds: a trace adds a vertex per cut crossing and two
    # per split, and at most two at its end (a corner cap)
    unbounded = crossings + 2 * splits + 2
    # with no focus only a primitive direction can end (`_can_end`)
    for ell in range(1, bounds.max_lattice_length + 1 if tracer.foci else 2):
        sides = []
        for d in ((nx * ell, ny * ell), (-nx * ell, -ny * ell)):
            fitting = tracer._trace(origin, d, crossings, splits, room)
            # collision models require the crossing line on both sides, at any
            # number of vertices: a side with nothing in the room is traced
            # again in the room that never binds, if the room can bind
            if not (fitting or room < unbounded
                    and tracer._trace(origin, d, crossings, splits, unbounded)):
                break
            sides.append(fitting)
        else:
            root = _VertexSpec(origin, perp_collision(ell))
            completions.extend(c.prepend([root], []) for c in sides[0] + sides[1])


def _pant_graphs(tracer, lag, constraint, completions, bounds, roots) -> None:
    if not roots:
        return
    lam = (*lag.edge_direction(constraint.edge_index), 1)
    origin = constraint.triple
    for ex, ey, target_id in roots:
        closed = tracer._trace(origin, (ex, ey), bounds.max_cut_crossings, bounds.max_splits,
                               bounds.max_vertices - 2)
        if not closed:
            continue
        target = homogeneous(lag.position(target_id))
        root = [
            _VertexSpec(origin, holomorphic_pant((ex, ey, 1), lam)),
            _VertexSpec(target, pant_seam()),
        ]
        strip = _EdgeSpec(origin, target, pant_strip_direction((ex, ey, 1), lam), open=True)
        completions.extend(c.prepend(root, [strip]) for c in closed)


def _pant_root_directions(lag, k, bound) -> Tuple[Tuple[int, int, str], ...]:
    """(ex, ey, target id) for each e_black in `_direction_pairs(bound)`, in
    order, whose strip from Lagrangian edge k ends at a seam: the vertex it
    runs to is trivalent.  It depends on the edge and the bound alone."""
    a_id, b_id = lag.edges[k].endpoints
    # the strip must end at a seam on a Lagrangian pair of pants
    a_seam, b_seam = lag.valence(a_id) == 3, lag.valence(b_id) == 3
    if not (a_seam or b_seam):
        return ()
    lx, ly = lag.edge_direction(k)
    out = []
    for ex, ey in _direction_pairs(bound):
        if ex * ly - ey * lx == 0:
            continue
        # the strip (`pant_strip_direction`) runs along -<e_black, lam> lam: it
        # vanishes when the dot product is 0 and runs towards b when it is negative
        dot = ex * lx + ey * ly
        if dot == 0:
            continue
        target_id, seam = (b_id, b_seam) if dot < 0 else (a_id, a_seam)
        if seam:
            out.append((ex, ey, target_id))
    return tuple(out)


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


def cancellation_report(result: EnumerationResult) -> List[Tuple[EnumeratedGraph, EnumeratedGraph]]:
    """Pairs of cover/desingularized graphs with opposite contributions.

    Graphs are grouped by each multiple cover (ell >= 2) they contain, keyed
    by "cover_pair:{focus}:{ell}" and the positions (canonical triples) and
    ells of all their focus vertices; a group of two with opposite
    contributions is a pair.
    """
    groups: Dict[Tuple, List[EnumeratedGraph]] = {}
    for g in result.graphs:
        covers = [v for v in g.graph.vertices if v.kind.tag in (FOCUS_COVER, FOCUS_COVER_PAIR)]
        geometry = tuple(sorted((v.triple, v.kind.ell) for v in covers))
        for k in (v.kind for v in covers if v.kind.ell >= 2):
            groups.setdefault((f"cover_pair:{k.index}:{k.ell}", geometry), []).append(g)
    pairs = []
    for key, group in sorted(groups.items()):
        if len(group) == 2 and group[0].contribution == -group[1].contribution:
            pairs.append((group[0], group[1]))
    return pairs
