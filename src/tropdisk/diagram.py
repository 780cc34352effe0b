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
    Ray,
    Vec,
    det2,
    point_on_segment,
    primitive_and_length,
    ray_segment_intersect,
    shear_apply,
)


@dataclass(frozen=True)
class Facet:
    endpoints: Tuple[Vec, Vec]
    inward_normal: Vec

    def line_value(self) -> Fraction:
        """c with the facet on <normal, x> = c and the interior on > c."""
        return self.inward_normal.dot(self.endpoints[0])

    def tangent(self) -> Vec:
        return self.endpoints[1] - self.endpoints[0]


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

    # -- derived geometry ---------------------------------------------------

    def facets(self) -> List[Facet]:
        if self._facets is None:
            out = []
            n = len(self.polygon)
            for i in range(n):
                a, b = self.polygon[i], self.polygon[(i + 1) % n]
                edge = b - a
                # inward normal: rotate the ccw edge left
                normal = Vec(-edge.y, edge.x)
                prim, _ = primitive_and_length(
                    normal if normal.is_integral() else _clear_denominators(normal)
                )
                out.append(Facet((a, b), prim))
            self._facets = out
        return self._facets

    def branch_cuts(self) -> List[Tuple[Vec, Vec]]:
        """Cut segments (focus position -> boundary exit point)."""
        if self._cuts is None:
            out = []
            for ff in self.focus_foci:
                hit = self._boundary_hit(Ray(ff.position, ff.cut_direction()))
                if hit is None:
                    raise GeometryError(
                        f"branch cut of focus at {ff.position!r} never reaches the boundary"
                    )
                out.append((ff.position, hit))
            self._cuts = out
        return self._cuts

    def _boundary_hit(self, ray: Ray) -> Optional[Vec]:
        best = None
        for facet in self.facets():
            hit = ray_segment_intersect(ray, *facet.endpoints)
            if hit is not None and (best is None or hit[0] < best[0]):
                best = hit
        return best[1] if best else None

    def contains(self, p: Vec, strict: bool = False) -> bool:
        for facet in self.facets():
            v = facet.inward_normal.dot(p) - facet.line_value()
            if v < 0 or (strict and v == 0):
                return False
        return True

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
        positions = []
        for j, ff in enumerate(self.focus_foci):
            prim_ok = True
            if not ff.pi.is_integral() or not ff.pi:
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
            if not self.contains(ff.position, strict=True):
                violations.append(f"focus_not_interior:{j}")
                prim_ok = False
            if ff.position in positions:
                violations.append(f"focus_positions_not_distinct:{j}")
            positions.append(ff.position)
            if prim_ok:
                ray = Ray(ff.position, ff.cut_direction())
                hit = self._boundary_hit(ray)
                if hit is None:
                    violations.append(f"branch_cut_misses_boundary:{j}")
                else:
                    for k, other in enumerate(self.focus_foci):
                        if k != j and point_on_segment(other.position, ff.position, hit):
                            violations.append(f"branch_cut_crosses_focus:{j}:{k}")
        return violations

    def classify_point(self, p: Vec) -> PointClass:
        for j, ff in enumerate(self.focus_foci):
            if p == ff.position:
                return PointClass(AT_FOCUS_FOCUS, j)
        for i, v in enumerate(self.polygon):
            if p == v:
                return PointClass(ON_POLYGON_VERTEX, i)
        if not self.contains(p):
            return PointClass(OUTSIDE)
        for i, facet in enumerate(self.facets()):
            if point_on_segment(p, *facet.endpoints):
                return PointClass(ON_FACET, i)
        for j, (start, end) in enumerate(self.branch_cuts()):
            if point_on_segment(p, start, end):
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
        return [
            i
            for i, facet in enumerate(self.facets())
            if point_on_segment(p, *facet.endpoints)
        ]

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
            except (json.JSONDecodeError, KeyError, TypeError, ZeroDivisionError) as exc:
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


def _clear_denominators(v: Vec) -> Vec:
    scale = v.x.denominator * v.y.denominator
    return v * scale
