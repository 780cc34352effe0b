"""Almost toric base diagrams: moment polygon, facets, focus-focus data.

A diagram is drawn in a single affine chart (branch-cut coordinates).  Each
focus-focus value carries the shear data (pi, sigma) of the monodromy
nu -> nu + <sigma, nu> pi around it, and a branch cut running from the value
to the polygon boundary along +/- pi.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

from .geometry import (
    GeometryError,
    Vec,
    det2,
    from_homogeneous,
    homogeneous,
    integer_rows,
    point_on_row,
    point_on_segment,
    primitive,
    primitive_and_length,
    ray_point,
    shear_apply,
)


@dataclass(frozen=True)
class Facet:
    endpoints: Tuple[Vec, Vec]
    inward_normal: Vec

    def line_value(self) -> Fraction:
        """c with the facet on <normal, x> = c and the interior on > c."""
        return self.inward_normal.dot(self.endpoints[0])


@dataclass(frozen=True)
class FocusFocus:
    position: Vec
    pi: Vec                 # shear direction (primitive)
    sigma: Vec              # shear covector, <sigma, pi> = 0
    cut_sign: int = 1       # branch cut direction: cut_sign * pi

    def cut_direction(self) -> Vec:
        return self.pi * self.cut_sign

    def monodromy(self, v: Vec, sign: int = 1) -> Vec:
        return shear_apply(self.sigma * sign, self.pi, v)

    def weight(self) -> int:
        """Stack size: a non-primitive shear covector models coincident nodes."""
        import math

        return math.gcd(abs(int(self.sigma.x)), abs(int(self.sigma.y)))


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


@dataclass
class BaseDiagram:
    name: str
    polygon: List[Vec]                      # counterclockwise vertices
    focus_foci: List[FocusFocus] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self._facets: Optional[List[Facet]] = None
        self._cuts: Optional[List[Tuple[Vec, Vec]]] = None
        self._points = None

    # -- derived geometry ---------------------------------------------------

    def facets(self) -> List[Facet]:
        if self._facets is None:
            out = []
            n = len(self.polygon)
            for i in range(n):
                a, b = self.polygon[i], self.polygon[(i + 1) % n]
                edge = b - a
                # inward normal: rotate the ccw edge left
                out.append(Facet((a, b), primitive(Vec(-edge.y, edge.x))))
            self._facets = out
            self._facet_rows = integer_rows([facet.endpoints for facet in out])
            self._normals = [facet.inward_normal.as_int_pair() for facet in out]
        return self._facets

    def facet_rows(self) -> Tuple[List[Tuple[int, int, int, int]], int]:
        """The facets as `integer_rows`, over the polygon's own scale."""
        self.facets()
        return self._facet_rows

    def normals(self) -> List[Tuple[int, int]]:
        """The facets' primitive inward normals as integer pairs."""
        self.facets()
        return self._normals

    def branch_cuts(self) -> List[Tuple[Vec, Vec]]:
        """Cut segments (focus position -> boundary exit point)."""
        if self._cuts is None:
            out = []
            for ff in self.focus_foci:
                end = self._cut_exit(ff)
                if end is None:
                    raise GeometryError(
                        f"branch cut of focus at {ff.position!r} never reaches the boundary"
                    )
                out.append((ff.position, end))
            self._cuts = out
            self._cut_rows = integer_rows(out)
        return self._cuts

    def cut_rows(self) -> Tuple[List[Tuple[int, int, int, int]], int]:
        """The cuts as `integer_rows`, over the cuts' own scale; row[:2] is the focus."""
        self.branch_cuts()
        return self._cut_rows

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
        hit: t = slack / -n.d with slack = n.p - n.a.
        """
        X, Y, W = origin
        dx, dy = d
        rows, scale = self.facet_rows()
        best_slack, best_rate, facets = 0, 0, []
        for i, ((ax, ay, _, _), (nx, ny)) in enumerate(zip(rows, self._normals)):
            # scale * W * (n.p - n.a)
            slack = nx * (X * scale - ax * W) + ny * (Y * scale - ay * W)
            if slack < 0:
                return None  # the origin is outside the polygon
            rate = -(nx * dx + ny * dy)
            if rate <= 0:
                continue  # the ray does not run outward through this facet line
            if slack == 0:
                return None  # leaves at once from a facet or a corner
            if not facets or slack * best_rate < best_slack * rate:
                best_slack, best_rate, facets = slack, rate, [i]
            elif slack * best_rate == best_slack * rate:
                facets.append(i)
        if not facets:
            return None
        return best_slack, scale * W * best_rate, facets

    def _cut_exit(self, ff: FocusFocus) -> Optional[Vec]:
        """Where the branch cut of ff first meets the boundary, or None."""
        origin = homogeneous(ff.position)
        d = primitive(ff.cut_direction()).as_int_pair()
        hit = self.boundary_hit(origin, d)
        return None if hit is None else from_homogeneous(ray_point(origin, d, hit[0], hit[1]))

    def contains(self, p: Vec, strict: bool = False) -> bool:
        return self._contains(homogeneous(p), strict)

    def _contains(self, point, strict: bool = False) -> bool:
        X, Y, W = point
        rows, scale = self.facet_rows()
        for (ax, ay, _, _), (nx, ny) in zip(rows, self.normals()):
            # scale * W * (<normal, p> - line_value), a positive multiple
            v = nx * (X * scale - ax * W) + ny * (Y * scale - ay * W)
            if v < 0 or (strict and v == 0):
                return False
        return True

    def cut_through(self, p: Vec) -> Optional[int]:
        """Index of the first branch cut containing p, or None."""
        return self._cut_through(homogeneous(p))

    def _cut_through(self, point) -> Optional[int]:
        rows, scale = self.cut_rows()
        return next((j for j, row in enumerate(rows) if point_on_row(point, row, scale)), None)

    def _homogeneous_points(self):
        """The foci and the polygon's vertices as homogeneous triples."""
        if self._points is None:
            self._points = ([homogeneous(ff.position) for ff in self.focus_foci],
                            [homogeneous(v) for v in self.polygon])
        return self._points

    # -- spec operations ----------------------------------------------------

    def validate(self) -> List[str]:
        """Machine-readable violation codes; empty list means valid."""
        violations = []
        n = len(self.polygon)
        if n < 3:
            violations.append("polygon_too_small")
            return violations
        area2 = sum(
            det2(self.polygon[i], self.polygon[(i + 1) % n]) for i in range(n)
        )
        if area2 <= 0:
            violations.append("polygon_not_counterclockwise")
        for i in range(n):
            a = self.polygon[i]
            b = self.polygon[(i + 1) % n]
            c = self.polygon[(i + 2) % n]
            if det2(b - a, c - b) <= 0:
                violations.append(f"polygon_not_convex_at:{i}")
        # a repeated vertex leaves a facet without a normal: skip the focus
        # checks that read the facets
        repeats = [i for i in range(n) if self.polygon[i] in self.polygon[:i]]
        violations += [f"polygon_repeats_vertex:{i}" for i in repeats]
        positions = []
        for j, ff in enumerate(self.focus_foci):
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
            elif not self.contains(ff.position, strict=True):
                violations.append(f"focus_not_interior:{j}")
                prim_ok = False
            if ff.position in positions:
                violations.append(f"focus_positions_not_distinct:{j}")
            positions.append(ff.position)
            if prim_ok:
                hit = self._cut_exit(ff)
                if hit is None:
                    violations.append(f"branch_cut_misses_boundary:{j}")
                else:
                    for k, other in enumerate(self.focus_foci):
                        if k != j and point_on_segment(other.position, ff.position, hit):
                            violations.append(f"branch_cut_crosses_focus:{j}:{k}")
        return violations

    def classify_point(self, p: Vec) -> PointClass:
        return self._classify_point(homogeneous(p))

    def _classify_point(self, point) -> PointClass:
        # homogeneous triples are canonical, so equal points have equal triples
        foci, corners = self._homogeneous_points()
        if point in foci:
            return PointClass(AT_FOCUS_FOCUS, foci.index(point))
        if point in corners:
            return PointClass(ON_POLYGON_VERTEX, corners.index(point))
        if not self._contains(point):
            return PointClass(OUTSIDE)
        facets = self._facets_through(point)
        if facets:
            return PointClass(ON_FACET, facets[0])
        j = self._cut_through(point)
        if j is not None:
            return PointClass(ON_BRANCH_CUT, j)
        return PointClass(INTERIOR)

    def cross_branch_cut(self, j: int, direction: Vec, crossing_side: int) -> Vec:
        """Transport a direction across branch cut j.

        crossing_side +1 means the crossing is counterclockwise around the
        focus value (det(cut direction, travel direction) > 0); -1 the
        reverse.  Two opposite crossings compose to the identity.
        """
        ff = self.focus_foci[j]
        return ff.monodromy(direction, sign=crossing_side)

    def facets_through(self, p: Vec) -> List[int]:
        """Indices of the facets containing p, in order."""
        return self._facets_through(homogeneous(p))

    def _facets_through(self, point) -> List[int]:
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
        polygon = [_vec_from_pairs(entry) for entry in data["polygon"]]
        foci = []
        for ff in data.get("focus_foci", []):
            foci.append(
                FocusFocus(
                    position=_vec_from_pairs(ff["position"]),
                    pi=Vec(*ff["shear_direction"]),
                    sigma=Vec(*ff["shear_covector"]),
                    cut_sign=int(ff.get("branch_cut_sign", 1)),
                )
            )
        return cls(name=data.get("name", "unnamed"), polygon=polygon, focus_foci=foci)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "BaseDiagram":
        with open(path) as fh:
            try:
                diagram = cls.from_json_dict(json.load(fh))
            except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
                raise GeometryError(f"malformed diagram file {path}: {exc!r}") from exc
        problems = diagram.validate()
        if problems:
            raise GeometryError(f"invalid diagram {path}: {problems}")
        return diagram


def _vec_from_pairs(entry) -> Vec:
    # polygon entries are [num, den, num, den] or [[num, den], [num, den]]
    if len(entry) == 4:
        return Vec(Fraction(entry[0], entry[1]), Fraction(entry[2], entry[3]))
    (xn, xd), (yn, yd) = entry
    return Vec(Fraction(xn, xd), Fraction(yn, yd))
