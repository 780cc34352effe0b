"""Exact rational 2D lattice geometry.

Everything downstream (diagrams, graphs, the disk enumeration) runs on the
primitives in this module.  Coordinates of `Vec` are `fractions.Fraction`;
there is no floating point and no tolerance anywhere.

Ray incidence has one integer kernel, `ray_segment_hit` and `ray_point_param`:
a ray origin is a homogeneous (X, Y, W) triple, a line table is the rows of
`integer_rows` over the table's own scale, and every decision is an integer
cross product, so it stays exact.  Ray parameters come back in units of the
ray direction whatever the scale, so hits on different tables compare
directly.  `ray_at` turns a hit back into Fractions; `ray_segment_intersect`
is the Fraction front end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

Scalar = Union[int, Fraction]


class GeometryError(ValueError):
    pass


def frac(value) -> Fraction:
    """Coerce ints, Fractions, strings like '1/2', or (num, den) pairs."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return Fraction(int(value[0]), int(value[1]))
    raise GeometryError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class Vec:
    """Exact rational 2-vector; used for positions and directions alike."""

    x: Fraction
    y: Fraction

    def __init__(self, x: Scalar, y: Scalar):
        object.__setattr__(self, "x", frac(x))
        object.__setattr__(self, "y", frac(y))

    def __add__(self, other: "Vec") -> "Vec":
        return Vec(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec") -> "Vec":
        return Vec(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec":
        return Vec(-self.x, -self.y)

    def __mul__(self, s: Scalar) -> "Vec":
        s = frac(s)
        return Vec(self.x * s, self.y * s)

    __rmul__ = __mul__

    def __truediv__(self, s: Scalar) -> "Vec":
        s = frac(s)
        if s == 0:
            raise GeometryError("division of a vector by zero")
        return Vec(self.x / s, self.y / s)

    def __bool__(self) -> bool:
        return self.x != 0 or self.y != 0

    def __iter__(self):
        yield self.x
        yield self.y

    def __repr__(self) -> str:
        return f"Vec({self.x}, {self.y})"

    def dot(self, other: "Vec") -> Fraction:
        return self.x * other.x + self.y * other.y

    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def as_int_pair(self) -> Tuple[int, int]:
        if not self.is_integral():
            raise GeometryError(f"{self!r} is not an integer vector")
        return (int(self.x), int(self.y))

    def as_rational_pairs(self):
        return [
            [self.x.numerator, self.x.denominator],
            [self.y.numerator, self.y.denominator],
        ]


def det2(a: Vec, b: Vec) -> Fraction:
    """Determinant of the 2x2 matrix with columns a, b."""
    return a.x * b.y - a.y * b.x


def primitive_and_length(v: Vec) -> Tuple[Vec, int]:
    """Factor a nonzero integer vector as (primitive vector, lattice length)."""
    if not v:
        raise GeometryError("zero vector has no primitive direction")
    if not v.is_integral():
        raise GeometryError(f"{v!r} is not an integer vector")
    g = math.gcd(abs(int(v.x)), abs(int(v.y)))
    return Vec(v.x / g, v.y / g), g


def primitive(v: Vec) -> Vec:
    """Primitive integer vector in the direction of v (v may be rational)."""
    if not v:
        raise GeometryError("zero vector has no primitive direction")
    scale = Fraction(v.x.denominator * v.y.denominator)
    w = v * scale
    p, _ = primitive_and_length(w)
    return p


def rational_length(v: Vec, direction: Vec) -> Fraction:
    """Lattice length of v measured in units of a primitive `direction`.

    v must be a rational multiple of `direction`; the signed multiple is
    returned (so the caller keeps orientation information).
    """
    if det2(v, direction) != 0:
        raise GeometryError(f"{v!r} is not parallel to {direction!r}")
    if direction.x != 0:
        return v.x / direction.x
    return v.y / direction.y


def reflect_over(v: Vec, axis: Vec) -> Vec:
    """Linear reflection of v fixing the span of `axis` (exact rational)."""
    if not axis:
        raise GeometryError("reflection axis must be nonzero")
    # r(v) = 2 <v,a>/<a,a> a - v
    aa = axis.dot(axis)
    coeff = 2 * v.dot(axis) / aa
    return axis * coeff - v


def shear_apply(sigma: Vec, pi: Vec, v: Vec) -> Vec:
    """Unipotent shear v + <sigma, v> pi; inverse is shear_apply(-sigma, pi, .)."""
    if sigma.dot(pi) != 0:
        raise GeometryError(f"<{sigma!r},{pi!r}> != 0: not a valid shear")
    return v + pi * sigma.dot(v)


@dataclass(frozen=True)
class Ray:
    origin: Vec
    direction: Vec

    def __post_init__(self):
        if not self.direction:
            raise GeometryError("ray direction must be nonzero")

    def at(self, t: Scalar) -> Vec:
        return self.origin + self.direction * frac(t)


def _cleared(u: Fraction, v: Fraction, w: Fraction) -> Tuple[int, int, int]:
    """u, v and w times the product of their denominators."""
    du, dv, dw = u.denominator, v.denominator, w.denominator
    return u.numerator * dv * dw, v.numerator * du * dw, w.numerator * du * dv


def point_on_segment(p: Vec, a: Vec, b: Vec, closed: bool = True) -> bool:
    """Exact test for p on the segment [a, b] (open or closed).

    p is on it when (p - a) x (b - a) = 0 and 0 <= (p - a).(b - a) <= |b - a|^2,
    strictly for the open segment; a point segment a == b thus holds every p
    when closed and none when open.  The test runs in integers: x and y are
    each scaled by the product of their three denominators, an affine change
    that keeps lines and the order of points along them.
    """
    px, ax, bx = _cleared(p.x, a.x, b.x)
    py, ay, by = _cleared(p.y, a.y, b.y)
    abx, aby = bx - ax, by - ay
    apx, apy = px - ax, py - ay
    if abx * apy != aby * apx:
        return False
    dot = apx * abx + apy * aby
    if closed:
        return 0 <= dot <= abx * abx + aby * aby
    return 0 < dot < abx * abx + aby * aby


def segment_parameter(p: Vec, a: Vec, b: Vec) -> Optional[Fraction]:
    """Parameter t with p = a + t(b-a), or None if p is off the line."""
    ab = b - a
    ap = p - a
    if not ab or det2(ab, ap) != 0:
        return None
    return rational_length(ap, ab)


def lines_intersect(p: Vec, d: Vec, q: Vec, e: Vec) -> Optional[Vec]:
    """Intersection of the lines p + t d and q + s e, or None if parallel."""
    denom = det2(d, e)
    if denom == 0:
        return None
    t = det2(q - p, e) / denom
    return p + d * t


def homogeneous(v: Vec) -> Tuple[int, int, int]:
    """Integers (X, Y, W) with W > 0 and v = (X/W, Y/W)."""
    w = math.lcm(v.x.denominator, v.y.denominator)
    return (v.x.numerator * (w // v.x.denominator),
            v.y.numerator * (w // v.y.denominator), w)


def scaled(v: Vec, scale: int) -> Tuple[int, int]:
    """The integer pair scale * v; scale must clear both denominators."""
    x, y = v.x * scale, v.y * scale
    if x.denominator != 1 or y.denominator != 1:
        raise GeometryError(f"{scale} does not clear the denominators of {v!r}")
    return (x.numerator, y.numerator)


def integer_rows(segments) -> Tuple[List[Tuple[int, int, int, int]], int]:
    """(rows, scale): row (ax, ay, ex, ey) is the segment [a, b] as (a + s e)/scale,
    s in [0, 1], the form `ray_segment_hit` reads; scale is the least common
    denominator of all the endpoints."""
    scale = math.lcm(*(c.denominator for seg in segments for q in seg for c in q))
    return [scaled(a, scale) + scaled(b - a, scale) for a, b in segments], scale


def ray_at(origin, d, t_num: int, t_den: int) -> Tuple[Fraction, Vec]:
    """(t, origin + t d) as exact rationals, for a homogeneous origin and integer d."""
    X, Y, W = origin
    den = W * t_den
    return Fraction(t_num, t_den), Vec(
        Fraction(X * t_den + d[0] * t_num * W, den),
        Fraction(Y * t_den + d[1] * t_num * W, den),
    )


def ray_point_param(origin, d, q, scale: int) -> Optional[Tuple[int, int]]:
    """Parameter of the point q/scale on the line origin + t d, or None.

    `origin` is a homogeneous (X, Y, W) triple, `d` a nonzero integer pair and
    `q` an integer pair.  The parameter t (of any sign) is returned as
    (numerator, denominator) with a positive denominator; None means q is off
    the line.
    """
    X, Y, W = origin
    dx, dy = d
    rx = q[0] * W - X * scale
    ry = q[1] * W - Y * scale
    if dx * ry - dy * rx != 0:
        return None
    return rx * dx + ry * dy, scale * W * (dx * dx + dy * dy)


def ray_segment_hit(origin, d, seg, scale: int) -> Optional[Tuple[int, int, int, int]]:
    """First meeting of an open ray (t > 0) with a closed segment, in integers.

    The ray is origin + t d with `origin` a homogeneous (X, Y, W) triple and
    `d` a nonzero integer pair.  The segment is (a + s e)/scale, s in [0, 1],
    given as the integer quadruple seg = (ax, ay, ex, ey) and scale > 0.
    Returns (t_num, t_den, s_num, s_den) with positive denominators, or None.
    Collinear overlaps return the smallest positive parameter at which the
    ray enters the segment (s is then 0 or 1), and None when the origin
    already lies on the segment.
    """
    X, Y, W = origin
    dx, dy = d
    ax, ay, ex, ey = seg
    # a/scale - origin = (rx, ry) / (scale W)
    rx = ax * W - X * scale
    ry = ay * W - Y * scale
    denom = dx * ey - dy * ex
    if denom == 0:
        if ex * ry - ey * rx != 0:
            return None
        # collinear: parameters of both endpoints over scale W (d.d)
        ta = rx * dx + ry * dy
        tb = ta + W * (ex * dx + ey * dy)
        if not (ex or ey) or ta <= 0 <= tb or tb <= 0 <= ta:
            return None  # a point segment, or the origin lies on the segment
        if ta < 0:
            return None  # both endpoints behind the origin
        norm = scale * W * (dx * dx + dy * dy)
        return (ta, norm, 0, 1) if ta <= tb else (tb, norm, 1, 1)
    t_num = rx * ey - ry * ex
    s_num = rx * dy - ry * dx
    if denom < 0:
        denom, t_num, s_num = -denom, -t_num, -s_num
    if t_num <= 0 or s_num < 0 or s_num > W * denom:
        return None
    return t_num, scale * W * denom, s_num, W * denom


def ray_segment_intersect(ray: Ray, a: Vec, b: Vec) -> Optional[Tuple[Fraction, Vec]]:
    """First meeting of an open ray (t > 0) with the closed segment [a, b].

    Returns (t, point) or None.  Collinear overlaps return the smallest
    positive parameter at which the ray enters the segment.  A Fraction
    front end to `ray_segment_hit`.
    """
    dx, dy, k = homogeneous(ray.direction)
    (row,), scale = integer_rows([(a, b)])
    hit = ray_segment_hit(homogeneous(ray.origin), (dx, dy), row, scale)
    if hit is None:
        return None
    t = Fraction(hit[0] * k, hit[1])
    return t, ray.at(t)


def unimodular(a: int, b: int, c: int, d: int):
    """Return the integer matrix [[a, b], [c, d]] as a pair of column Vecs."""
    m = (Vec(a, c), Vec(b, d))
    if abs(det2(*m)) != 1:
        raise GeometryError("matrix is not unimodular")
    return m


def apply_matrix(m, v: Vec) -> Vec:
    """Apply a matrix given as (column1, column2) to v."""
    c1, c2 = m
    return c1 * v.x + c2 * v.y
