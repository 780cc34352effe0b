"""Exact rational 2D lattice geometry.

Everything downstream (diagrams, graphs, the disk enumeration) runs on the
primitives in this module.  A `Vec` is the canonical homogeneous triple
(X, Y, W) of its point (X/W, Y/W), integers with gcd 1 and W > 0; its
coordinates `x` and `y` are `fractions.Fraction` views of the triple, built on
their first read.  There is no floating point and no tolerance anywhere.

Every incidence runs on one integer kernel:
- `homogeneous` reads a Vec's integer (X, Y, W) triple;
- `integer_rows` writes segments between homogeneous triples as integer rows
  over the table's own scale;
- `ray_segment_hit` meets a ray with a row: `row_offsets` is the part that
  depends on the origin alone and `offset_hit` the part that depends on the
  direction, so rays cast from one origin share the first;
- `point_on_row` locates a homogeneous point on a row;
- `ray_point` moves a homogeneous point along a ray without leaving the
  integers, and `from_homogeneous` turns it back into a Vec.
Every decision is an integer cross product, so it stays exact.  Ray
parameters come back in units of the ray direction whatever the scale, so
hits on different tables compare directly.  `Vec` is the form of the inputs
and of views built on first read; `homogeneous` reads its triple.  A
diagram's validation, the disk search and the CLI report run on triples and
build no Vec.
"""

from __future__ import annotations

import json
import math
from dataclasses import FrozenInstanceError
from fractions import Fraction
from typing import List, Optional, Tuple, Union

Scalar = Union[int, Fraction]


class GeometryError(ValueError):
    pass


def frac(value) -> Fraction:
    """Coerce ints, Fractions or strings like '1/2'."""
    # the exact types first: `isinstance` against Fraction goes through the
    # ABC machinery
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise GeometryError(f"cannot interpret {value!r} as an exact rational")


def load_json(path, what: str, parse):
    """parse(data) of the JSON file at path; a ValueError (bad JSON too), KeyError,
    TypeError or ZeroDivisionError becomes a GeometryError naming the file."""
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            raise GeometryError(f"malformed {what} file {path}: {exc!r}") from exc


def json_list(data, key: str, default: Optional[list] = None) -> list:
    """The list under `key` of the JSON object `data`, or `default` when the
    key is missing and a default is given; ValueError names the field else."""
    if not isinstance(data, dict):
        raise ValueError("the top level is not a JSON object")
    if key not in data and default is not None:
        return default
    if key not in data:
        raise ValueError(f"no {key!r} field")
    if not isinstance(data[key], list):
        raise ValueError(f"{key} {data[key]!r} is not a list")
    return data[key]


def json_object(where: str, value, keys) -> dict:
    """The JSON object `value`, holding every one of `keys`; ValueError
    names `where` otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} {value!r} is not an object")
    for key in keys:
        if key not in value:
            raise ValueError(f"{where} has no {key!r} field")
    return value


def json_point(where: str, value) -> Vec:
    """The point of [num, den, num, den] or [[num, den], [num, den]] of JSON integers,
    dens nonzero; ValueError names `where` and the value as written otherwise.
    The point is reduced in integers (`from_homogeneous`): no Fraction is built."""
    flat = value
    if isinstance(value, list) and len(value) == 2 and all(
            isinstance(pair, list) and len(pair) == 2 for pair in value):
        flat = value[0] + value[1]
    if not (isinstance(flat, list) and len(flat) == 4
            and all(type(c) is int for c in flat) and flat[1] and flat[3]):
        raise ValueError(f"{where} {value!r} is not [num, den, num, den] or "
                         "[[num, den], [num, den]] of integers with nonzero dens")
    a, b, c, d = flat
    return from_homogeneous((a * d, c * b, b * d))


def json_pair(where: str, value) -> Tuple[int, int]:
    """The JSON integers of an [int, int] pair; ValueError names `where` otherwise."""
    if not (isinstance(value, list) and len(value) == 2 and all(type(c) is int for c in value)):
        raise ValueError(f"{where} {value!r} is not an [int, int] pair")
    return value[0], value[1]


class _Coordinate:
    """A coordinate of `Vec` as a Fraction, built from the triple on its first
    read and kept as an instance attribute.  It defines no `__set__`, so every
    later read finds the instance attribute first."""

    __slots__ = ("index", "name")

    def __init__(self, index: int):
        self.index = index

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, v, owner=None):
        if v is None:
            return self
        X, W = v.triple[self.index], v.triple[2]
        value = Fraction(X) if W == 1 else Fraction(X, W)
        object.__setattr__(v, self.name, value)
        return value


def _ratio(value: Scalar) -> Tuple[int, int]:
    """(numerator, denominator) of an int, Fraction or string in lowest
    terms, the denominator positive; an int builds no Fraction."""
    if type(value) is int:
        return value, 1
    value = frac(value)
    return value.numerator, value.denominator


class Vec:
    """Exact rational 2-vector; used for positions and directions alike.

    Its one state is `triple`, the canonical homogeneous triple (X, Y, W) of
    the point (X/W, Y/W): integers with gcd 1 and W > 0, so that equal vectors
    have equal triples.  `x` and `y` are Fraction views of it, built on their
    first read.  A Vec is immutable: copies are the Vec itself, and the
    arithmetic runs on the triples.  Every Vec, arithmetic results and
    unpickled ones included, is built through `__init__`; `from_homogeneous`
    builds one of a non-integer point as its integer point (X, Y) and then
    stores its own triple, so that it builds no Fraction.
    """

    x = _Coordinate(0)
    y = _Coordinate(1)

    def __init__(self, x: Scalar, y: Scalar):
        if type(x) is int and type(y) is int:
            triple = (x, y, 1)
        else:
            (a, b), (c, d) = _ratio(x), _ratio(y)
            w = math.lcm(b, d)
            triple = (a * (w // b), c * (w // d), w)
        object.__setattr__(self, "triple", triple)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.triple == other.triple

    def __hash__(self):
        return hash(self.triple)

    def __copy__(self) -> "Vec":
        return self

    def __deepcopy__(self, memo) -> "Vec":
        return self

    def __reduce__(self):
        return from_homogeneous, (self.triple,)

    def __add__(self, other: "Vec") -> "Vec":
        X, Y, W = self.triple
        U, V, Z = other.triple
        return from_homogeneous((X * Z + U * W, Y * Z + V * W, W * Z))

    def __sub__(self, other: "Vec") -> "Vec":
        X, Y, W = self.triple
        U, V, Z = other.triple
        return from_homogeneous((X * Z - U * W, Y * Z - V * W, W * Z))

    def __neg__(self) -> "Vec":
        X, Y, W = self.triple
        return from_homogeneous((-X, -Y, W))

    def __mul__(self, s: Scalar) -> "Vec":
        p, q = _ratio(s)
        X, Y, W = self.triple
        return from_homogeneous((X * p, Y * p, W * q))

    __rmul__ = __mul__

    def __truediv__(self, s: Scalar) -> "Vec":
        p, q = _ratio(s)
        if p == 0:
            raise GeometryError("division of a vector by zero")
        if p < 0:
            p, q = -p, -q
        X, Y, W = self.triple
        return from_homogeneous((X * q, Y * q, W * p))

    def __bool__(self) -> bool:
        return self.triple[0] != 0 or self.triple[1] != 0

    def __iter__(self):
        yield self.x
        yield self.y

    def __repr__(self) -> str:
        return f"Vec({self.x}, {self.y})"

    def dot(self, other: "Vec") -> Fraction:
        X, Y, W = self.triple
        U, V, Z = other.triple
        return Fraction(X * U + Y * V, W * Z)

    def is_integral(self) -> bool:
        return self.triple[2] == 1

    def as_int_pair(self) -> Tuple[int, int]:
        if not self.is_integral():
            raise GeometryError(f"{self!r} is not an integer vector")
        return self.triple[:2]

    def as_rational_pairs(self):
        return [
            [self.x.numerator, self.x.denominator],
            [self.y.numerator, self.y.denominator],
        ]


def det2(a: Vec, b: Vec) -> Fraction:
    """Determinant of the 2x2 matrix with columns a, b."""
    X, Y, W = a.triple
    U, V, Z = b.triple
    return Fraction(X * V - Y * U, W * Z)


def primitive_pair(x: int, y: int) -> Tuple[int, int, int]:
    """(x/g, y/g, g) for the nonzero integer pair (x, y) and g = gcd(x, y)."""
    g = math.gcd(x, y)
    if not g:
        raise GeometryError("zero vector has no primitive direction")
    return x // g, y // g, g


def primitive_and_length(v: Vec) -> Tuple[Vec, int]:
    """Factor a nonzero integer vector as (primitive vector, lattice length)."""
    x, y, g = primitive_pair(*v.as_int_pair())
    return Vec(x, y), g


def primitive(v: Vec) -> Vec:
    """Primitive integer vector in the direction of v (v may be rational):
    the homogeneous pair of v divided by its gcd."""
    X, Y, _ = homogeneous(v)
    x, y, _ = primitive_pair(X, Y)
    return Vec(x, y)


def shear_apply(sigma: Vec, pi: Vec, v: Vec) -> Vec:
    """Unipotent shear v + <sigma, v> pi; inverse is shear_apply(-sigma, pi, .)."""
    if sigma.dot(pi) != 0:
        raise GeometryError(f"<{sigma!r},{pi!r}> != 0: not a valid shear")
    return v + pi * sigma.dot(v)


def homogeneous(v: Vec) -> Tuple[int, int, int]:
    """The canonical integers (X, Y, W) of v = (X/W, Y/W): gcd 1 and W > 0,
    the triple the Vec stores."""
    return v.triple


def integer_rows(segments) -> Tuple[List[Tuple[int, int, int, int]], int]:
    """(rows, scale): each segment (a, b) is a pair of homogeneous triples, and
    row (ax, ay, ex, ey) is the segment as (a + s e)/scale, s in [0, 1], the
    form `ray_segment_hit` reads; scale is the lcm of the endpoints' W, which
    for canonical triples is the least common denominator of all the
    endpoints' coordinates."""
    scale = math.lcm(*(W for seg in segments for _, _, W in seg))
    rows = []
    for (X, Y, W), (U, V, Z) in segments:
        a, b = scale // W, scale // Z
        ax, ay = X * a, Y * a
        rows.append((ax, ay, U * b - ax, V * b - ay))
    return rows, scale


def from_homogeneous(origin) -> Vec:
    """The Vec of the point (X/W, Y/W) of a homogeneous triple, W nonzero.
    Its canonical triple is the given one over the gcd of its entries,
    signed so that W > 0, as `Fraction` reduces a ratio: found in integers,
    so no Fraction is built."""
    X, Y, W = origin
    if W != 1:
        if not W:
            raise ZeroDivisionError(f"homogeneous triple {origin!r} has W = 0")
        g = math.gcd(X, Y, W)
        if W < 0:
            g = -g
        X, Y, W = X // g, Y // g, W // g
    v = Vec(X, Y)
    if W != 1:
        # the Vec of the integer point (X, Y), given its own W: the views
        # are built from the triple on their first read
        object.__setattr__(v, "triple", (X, Y, W))
    return v


def ray_point(origin, d, t_num: int, t_den: int) -> Tuple[int, int, int]:
    """origin + (t_num/t_den) d as a homogeneous triple in lowest terms.

    `origin` is a homogeneous (X, Y, W) triple, `d` an integer pair and
    t_den > 0, so the result has W > 0; lowest terms keep the integers small
    along a chain of rays.
    """
    X, Y, W = origin
    X, Y, W = X * t_den + d[0] * t_num * W, Y * t_den + d[1] * t_num * W, W * t_den
    g = math.gcd(X, Y, W)
    return X // g, Y // g, W // g


def point_on_row(point, row, scale: int, closed: bool = True) -> bool:
    """Whether a homogeneous point lies on a segment row, in integers.

    `point` is a homogeneous (X, Y, W) triple and `row` = (ax, ay, ex, ey) the
    segment (a + s e)/scale of `integer_rows`.  The point is on it when
    (p - a) x e = 0 and 0 <= (p - a).e <= |e|^2, strictly for the open
    segment, each side scaled by the positive scale * W; a point row (e = 0)
    thus holds every point when closed and none when open.
    """
    X, Y, W = point
    ax, ay, ex, ey = row
    rx, ry = X * scale - ax * W, Y * scale - ay * W
    if rx * ey != ry * ex:
        return False
    dot = rx * ex + ry * ey
    if closed:
        return 0 <= dot <= W * (ex * ex + ey * ey)
    return 0 < dot < W * (ex * ex + ey * ey)


def row_offsets(origin, rows, scale: int) -> List[Tuple[int, int, int, int, int, int, int]]:
    """Each segment row as a ray from the homogeneous origin meets it, in the
    part that depends on the origin alone: (rx, ry, t_num, ex, ey, W, scale).

    `origin` is an (X, Y, W) triple and each row (ax, ay, ex, ey) the segment
    (a + s e)/scale of `integer_rows`.  (rx, ry) / (scale W) is the row's
    start a/scale minus the origin, and t_num = r x e the numerator of the
    parameter at which any ray from the origin meets the row's line.
    `offset_hit` finishes the meeting for one direction, so the rays cast
    from one origin share this part.
    """
    X, Y, W = origin
    Xs, Ys = X * scale, Y * scale
    out = []
    for ax, ay, ex, ey in rows:
        rx, ry = ax * W - Xs, ay * W - Ys
        out.append((rx, ry, rx * ey - ry * ex, ex, ey, W, scale))
    return out


def offset_hit(offset, d) -> Optional[Tuple[int, int, int, int]]:
    """`ray_segment_hit` along the nonzero integer pair d, from a row's
    entry of `row_offsets` for the ray's origin."""
    rx, ry, t_num, ex, ey, W, scale = offset
    dx, dy = d
    denom = dx * ey - dy * ex
    if denom == 0:
        if t_num != 0:
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
    s_num = rx * dy - ry * dx
    if denom < 0:
        denom, t_num, s_num = -denom, -t_num, -s_num
    if t_num <= 0 or s_num < 0 or s_num > W * denom:
        return None
    return t_num, scale * W * denom, s_num, W * denom


def ray_segment_hit(origin, d, seg, scale: int) -> Optional[Tuple[int, int, int, int]]:
    """First meeting of an open ray (t > 0) with a closed segment, in integers.

    The ray is origin + t d with `origin` a homogeneous (X, Y, W) triple and
    `d` a nonzero integer pair.  The segment is (a + s e)/scale, s in [0, 1],
    given as the integer quadruple seg = (ax, ay, ex, ey) and scale > 0.
    Returns (t_num, t_den, s_num, s_den) with positive denominators, or None.
    Collinear overlaps return the smallest positive parameter at which the
    ray enters the segment (s is then 0 or 1), and None when the origin
    already lies on the segment.  It is `row_offsets` then `offset_hit`.
    """
    return offset_hit(row_offsets(origin, (seg,), scale)[0], d)
