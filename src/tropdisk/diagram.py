"""Almost toric base diagrams: moment polygon, facets, focus-focus data.

A diagram is drawn in a single affine chart (branch-cut coordinates).  Each
focus-focus value carries the shear data (pi, sigma) of the monodromy
nu -> nu + <sigma, nu> pi around it, and a branch cut running from the value
to the polygon boundary along +/- pi.  `BaseDiagram.cross_cut` is the one
place a direction is carried across a cut, and `BaseDiagram.collision_facet`
and `BaseDiagram.along_shear` the one places a leg is matched with a
facet's normal and with a focus's shear line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .geometry import (
    GeometryError,
    Vec,
    from_homogeneous,
    homogeneous,
    integer_rows,
    json_list,
    json_object,
    json_pair,
    json_point,
    load_json,
    point_on_row,
    primitive_pair,
    ray_point,
)


@dataclass(frozen=True)
class FocusFocus:
    position: Vec
    pi: Vec                 # shear direction (primitive)
    sigma: Vec              # shear covector, <sigma, pi> = 0
    cut_sign: int = 1       # branch cut direction: cut_sign * pi

    def cut_direction(self) -> Vec:
        return self.pi * self.cut_sign

    def weight(self) -> int:
        """Stack size: a non-primitive shear covector models coincident nodes."""
        X, Y, _ = homogeneous(self.sigma)
        return math.gcd(X, Y)


# classification results for classify_point
INTERIOR = "interior"
ON_FACET = "on_facet"
ON_POLYGON_VERTEX = "on_polygon_vertex"
AT_FOCUS_FOCUS = "at_focus_focus"
ON_BRANCH_CUT = "on_branch_cut"
OUTSIDE = "outside"


@dataclass(frozen=True)
class PointClass:
    kind: str
    index: Optional[int] = None


class InvalidDiagram(GeometryError):
    """A diagram file that parses but fails `BaseDiagram.validate()`."""

    def __init__(self, path, diagram: "BaseDiagram", violations: List[str]):
        super().__init__(f"invalid diagram {path}: {violations}")
        self.diagram = diagram
        self.violations = violations


@dataclass
class BaseDiagram:
    """Construction builds the integer picture and the violation codes once,
    and the readers return them; only `branch_cuts()` builds a view, on its
    first read.  Its tuples refuse in-place edits; a reassigned field would
    outdate its tables."""
    name: str
    polygon: Tuple[Vec, ...]                # counterclockwise vertices
    focus_foci: Tuple[FocusFocus, ...] = ()

    def __post_init__(self):
        self.polygon, self.focus_foci = tuple(self.polygon), tuple(self.focus_foci)
        foci = [homogeneous(ff.position) for ff in self.focus_foci]
        corners = [homogeneous(v) for v in self.polygon]
        self._points = foci, corners
        self._facet_rows = integer_rows(
            [(a, corners[(i + 1) % len(corners)]) for i, a in enumerate(corners)])
        # a repeated corner next to itself leaves a facet with a zero edge and no normal
        edges = [(ex, ey) for _, _, ex, ey in self._facet_rows[0]]
        self._normals = None if (0, 0) in edges else [
            primitive_pair(-ey, ex)[:2] for ex, ey in edges]
        self._facets_of_normal: Dict[Tuple[int, int], List[int]] = {}
        for i, n in enumerate(self._normals or ()):
            self._facets_of_normal.setdefault(n, []).append(i)
        shears = [(homogeneous(ff.pi), homogeneous(ff.sigma)) for ff in self.focus_foci]
        self._shears = None if any(pw != 1 or sw != 1 for (_, _, pw), (_, _, sw) in shears) \
            else [(pi[:2], sigma[:2]) for pi, sigma in shears]
        self._exits = self._cut_rows = self._cuts = None
        self._violations = self._check(shears)

    def _check(self, shears) -> List[str]:
        """The violation codes, from one pass over the facet rows and the
        triples.  When every cut reaches the boundary it keeps the exits and
        their rows: no other loop traces a cut exit."""
        n = len(self.polygon)
        if n < 3:
            return ["polygon_too_small"]
        violations = []
        rows, _ = self._facet_rows
        # row i is corner a_i and the edge e_i to a_{i+1}, times the scale:
        # twice the area is the sum of det(a_i, e_i), the turn at a_{i+1}
        # is det(e_i, e_{i+1})
        if sum(ax * ey - ay * ex for ax, ay, ex, ey in rows) <= 0:
            violations.append("polygon_not_counterclockwise")
        for i in range(n):
            _, _, ex, ey = rows[i]
            _, _, fx, fy = rows[(i + 1) % n]
            if ex * fy - ey * fx <= 0:
                violations.append(f"polygon_not_convex_at:{i}")
        # homogeneous triples are canonical, so equal points have equal triples
        foci, corners = self._points
        # a repeated corner may leave a facet without a normal: skip the
        # focus checks that read the facets
        repeats = [i for i in range(n) if corners[i] in corners[:i]]
        violations += [f"polygon_repeats_vertex:{i}" for i in repeats]
        codes, exits = [], []
        for j, (ff, ((px, py, pw), (sx, sy, sw))) in enumerate(zip(self.focus_foci, shears)):
            found = []
            traced = True  # whether the cut can be traced
            if not (px or py):
                found.append(f"shear_direction_zero:{j}")
                traced = False
            elif pw != 1:
                found.append(f"shear_direction_not_integral:{j}")
                traced = False
            elif math.gcd(px, py) != 1:
                found.append(f"shear_direction_not_primitive:{j}")
            if sw != 1:
                found.append(f"shear_covector_not_integral:{j}")
            if not (sx or sy):
                found.append(f"shear_covector_zero:{j}")
            if px * sx + py * sy != 0:
                found.append(f"shear_not_unipotent:{j}")
            if ff.cut_sign not in (1, -1):
                found.append(f"branch_cut_sign_invalid:{j}")
                traced = False
            if repeats:
                traced = False
            elif not self.contains(foci[j], strict=True):
                found.append(f"focus_not_interior:{j}")
                traced = False
            if foci[j] in foci[:j]:
                found.append(f"focus_positions_not_distinct:{j}")
            end = self._cut_exit(j, px, py) if traced else None
            if traced and end is None:
                found.append(f"branch_cut_misses_boundary:{j}")
            codes.append(found)
            exits.append(end)
        reached = [j for j, end in enumerate(exits) if end is not None]
        cut_rows = integer_rows([(foci[j], exits[j]) for j in reached])
        for j, row in zip(reached, cut_rows[0]):
            codes[j] += [f"branch_cut_crosses_focus:{j}:{k}" for k, other in enumerate(foci)
                         if k != j and point_on_row(other, row, cut_rows[1])]
        if len(reached) == len(self.focus_foci):
            self._exits, self._cut_rows = exits, cut_rows
        return violations + [code for found in codes for code in found]

    # -- derived geometry ---------------------------------------------------

    def facet_rows(self) -> Tuple[List[Tuple[int, int, int, int]], int]:
        """The facets as `integer_rows`, over the polygon's own scale: row i
        runs from corner i to corner i + 1.  Unlike `normals()`, it exists for
        a polygon that repeats a corner."""
        return self._facet_rows

    def normals(self) -> List[Tuple[int, int]]:
        """The facets' primitive inward normals as integer pairs: each facet
        row's edge (ex, ey), a positive multiple of the ccw edge, rotated
        left to (-ey, ex) and divided by its gcd.  A facet with a zero edge
        has none: GeometryError."""
        if self._normals is None:
            raise GeometryError("zero vector has no primitive direction")
        return self._normals

    def branch_cuts(self) -> List[Tuple[Vec, Vec]]:
        """Cut segments (focus position -> boundary exit point): the traced
        exits, as Vecs built on the first read.  A diagram whose cuts are
        not all traced raises GeometryError naming its violation codes."""
        if self._cuts is None:
            self.cut_rows()
            self._cuts = [(ff.position, from_homogeneous(end))
                          for ff, end in zip(self.focus_foci, self._exits)]
        return self._cuts

    def cut_rows(self) -> Tuple[List[Tuple[int, int, int, int]], int]:
        """The cuts as `integer_rows`, over the cuts' own scale; row[:2] is the
        focus.  A diagram whose cuts are not all traced raises GeometryError
        naming its violation codes."""
        if self._cut_rows is None:
            raise GeometryError(f"branch cuts of an invalid diagram: {self._violations}")
        return self._cut_rows

    def facet_slacks(self, origin) -> Optional[Tuple[List[int], int]]:
        """(slacks, reach): facet i's slack n.p - n.a of the homogeneous
        origin p (n the inward normal, a a point of the facet) as the
        integer slacks[i] / reach, or None when the origin is outside the
        polygon (a negative slack).  It depends on the origin alone, so rays
        cast from one origin read it once (`boundary_exit`)."""
        X, Y, W = origin
        rows, scale = self.facet_rows()
        Xs, Ys = X * scale, Y * scale
        slacks = []
        for (ax, ay, _, _), (nx, ny) in zip(rows, self.normals()):
            slack = nx * (Xs - ax * W) + ny * (Ys - ay * W)
            if slack < 0:
                return None
            slacks.append(slack)
        return slacks, scale * W

    def facet_rates(self, d) -> List[Tuple[int, int]]:
        """(i, -n.d) for each facet i whose line the integer pair d runs
        outward through (n the inward normal, n.d < 0), in order.  It
        depends on the direction alone, so rays cast along one direction
        read it once (`boundary_exit`)."""
        dx, dy = d
        rates = []
        for i, (nx, ny) in enumerate(self.normals()):
            rate = -(nx * dx + ny * dy)
            if rate > 0:
                rates.append((i, rate))
        return rates

    def boundary_exit(self, slacks, rates) -> Optional[Tuple[int, int, List[int]]]:
        """`boundary_hit` from the origin's `facet_slacks` and the
        direction's `facet_rates`."""
        values, reach = slacks
        best_slack, best_rate, facets = 0, 0, []
        for i, rate in rates:
            slack = values[i]
            if slack == 0:
                return None  # leaves at once from a facet or a corner
            if not facets or slack * best_rate < best_slack * rate:
                best_slack, best_rate, facets = slack, rate, [i]
            elif slack * best_rate == best_slack * rate:
                facets.append(i)
        if not facets:
            return None
        return best_slack, reach * best_rate, facets

    def boundary_hit(self, origin, d) -> Optional[Tuple[int, int, List[int]]]:
        """(t_num, t_den, facets) where the open ray origin + t d first meets
        the boundary, or None; origin is homogeneous, d an integer pair and t
        in units of d.  `facets` lists, in order, every facet hit at t: one,
        or the two that meet at a corner.

        The origin must lie in the closed polygon.  An origin outside it gives
        None, and so does a ray that leaves the polygon at once from a facet
        or a corner.  A ray from inside the convex polygon leaves it where it
        first crosses a facet line it runs outward through (n.d < 0, n the
        inward normal), so one pass over the half-planes n.x >= n.a finds the
        hit: t = slack / -n.d.  The slacks depend on the origin alone and the
        rates on the direction alone: it is `facet_slacks` and `facet_rates`
        read by `boundary_exit`.
        """
        slacks = self.facet_slacks(origin)
        return None if slacks is None else self.boundary_exit(slacks, self.facet_rates(d))

    def collision_facet(self, facets: List[int], d: Tuple[int, int]) -> Optional[int]:
        """The first of `facets` whose primitive inward normal is the integer
        pair d, or None: a closed leg leaving a boundary point along d is a
        collision with that facet.  The search and `classify_vertex` both
        decide a boundary collision here.  A d that is no facet's normal is
        one dictionary miss."""
        ids = self._facets_of_normal.get(d)
        if ids is not None:
            for i in facets:
                if i in ids:
                    return i
        return None

    def _cut_exit(self, j: int, px: int, py: int):
        """Where the branch cut of focus j, along cut_sign times its integer
        shear pair (px, py), first meets the boundary, as a homogeneous
        triple, or None."""
        origin = self._points[0][j]
        sign = self.focus_foci[j].cut_sign
        d = primitive_pair(px * sign, py * sign)[:2]
        hit = self.boundary_hit(origin, d)
        return None if hit is None else ray_point(origin, d, hit[0], hit[1])

    def contains(self, point, strict: bool = False) -> bool:
        """Whether the homogeneous point lies in the polygon, in its interior if strict."""
        slacks = self.facet_slacks(point)
        return slacks is not None and not (strict and 0 in slacks[0])

    def cut_through(self, point) -> Optional[int]:
        """Index of the first branch cut containing the homogeneous point, or None."""
        rows, scale = self.cut_rows()
        return next((j for j, row in enumerate(rows) if point_on_row(point, row, scale)), None)

    def homogeneous_points(self):
        """The foci and the polygon's vertices as homogeneous triples."""
        return self._points

    # -- spec operations ----------------------------------------------------

    def validate(self) -> List[str]:
        """Machine-readable violation codes, found at construction; empty
        list means valid."""
        return list(self._violations)

    def classify_point(self, point) -> PointClass:
        # homogeneous triples are canonical, so equal points have equal triples
        foci, corners = self.homogeneous_points()
        if point in foci:
            return PointClass(AT_FOCUS_FOCUS, foci.index(point))
        if point in corners:
            return PointClass(ON_POLYGON_VERTEX, corners.index(point))
        if not self.contains(point):
            return PointClass(OUTSIDE)
        facets = self.facets_through(point)
        if facets:
            return PointClass(ON_FACET, facets[0])
        j = self.cut_through(point)
        if j is not None:
            return PointClass(ON_BRANCH_CUT, j)
        return PointClass(INTERIOR)

    def shears(self) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
        """Each focus's shear data (pi, sigma) as a pair of integer pairs.  A
        diagram with a non-integral shear raises GeometryError."""
        if self._shears is None:
            raise GeometryError(f"non-integral shear data: {self._violations}")
        return self._shears

    def cross_cut(self, j: int, d: Tuple[int, int]) -> Tuple[int, int]:
        """The direction a path continues with after it crosses branch cut j
        travelling along the integer pair d: d + side <sigma, d> pi.

        side is +1 when the crossing is counterclockwise around the focus
        value, det(cut direction, d) > 0, and -1 otherwise.  The shear keeps
        det(pi, d), so cross_cut(j, -cross_cut(j, d)) == -d, and a direction
        along the cut, where <sigma, d> = 0, crosses unchanged.
        """
        ff = self.focus_foci[j]
        (px, py), (sx, sy) = self.shears()[j]
        side = 1 if ff.cut_sign * (px * d[1] - py * d[0]) > 0 else -1
        if sx * px + sy * py != 0:
            raise GeometryError(f"<{ff.sigma * side!r},{ff.pi!r}> != 0: not a valid shear")
        k = side * (sx * d[0] + sy * d[1])
        return d[0] + k * px, d[1] + k * py

    def along_shear(self, j: int, d: Tuple[int, int]) -> bool:
        """Whether the integer pair d runs along focus j's shear direction pi,
        either way, as a leg ending at the focus must: the search,
        `classify_vertex` and `LagGraph.is_allowable` all decide it here."""
        px, py = self.shears()[j][0]
        return d[0] * py - d[1] * px == 0

    def facets_through(self, point) -> List[int]:
        """Indices of the facets containing the homogeneous point, in order."""
        rows, scale = self.facet_rows()
        return [i for i, row in enumerate(rows) if point_on_row(point, row, scale)]

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "polygon": [
                [v.x.numerator, v.x.denominator, v.y.numerator, v.y.denominator]
                for v in self.polygon
            ],
            "focus_foci": [
                {
                    "position": ff.position.as_rational_pairs(),
                    "shear_direction": list(ff.pi.as_int_pair()),
                    "shear_covector": list(ff.sigma.as_int_pair()),
                    "branch_cut_sign": ff.cut_sign,
                }
                for ff in self.focus_foci
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BaseDiagram":
        polygon = [json_point(f"polygon entry {i}", entry)
                   for i, entry in enumerate(json_list(data, "polygon"))]
        foci = []
        for i, ff in enumerate(json_list(data, "focus_foci", [])):
            where = f"focus_foci entry {i}"
            ff = json_object(where, ff, ("position", "shear_direction", "shear_covector"))
            cut_sign = ff.get("branch_cut_sign", 1)
            if type(cut_sign) is not int:
                raise ValueError(f"branch_cut_sign {cut_sign!r} is not an integer")
            foci.append(FocusFocus(
                position=json_point(f"{where} position", ff["position"]),
                pi=Vec(*json_pair(f"{where} shear_direction", ff["shear_direction"])),
                sigma=Vec(*json_pair(f"{where} shear_covector", ff["shear_covector"])),
                cut_sign=cut_sign))
        name = data.get("name", "unnamed")
        if not isinstance(name, str):
            raise ValueError(f"diagram name {name!r} is not a string")
        return cls(name=name, polygon=polygon, focus_foci=foci)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "BaseDiagram":
        diagram = load_json(path, "diagram", cls.from_json_dict)
        problems = diagram.validate()
        if problems:
            raise InvalidDiagram(path, diagram, problems)
        return diagram
