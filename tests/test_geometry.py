import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropdisk.geometry import (
    GeometryError,
    Ray,
    Vec,
    apply_matrix,
    det2,
    homogeneous,
    lines_intersect,
    point_on_segment,
    primitive,
    primitive_and_length,
    ray_point_param,
    ray_segment_hit,
    ray_segment_intersect,
    rational_length,
    reflect_over,
    scaled,
    segment_parameter,
    shear_apply,
    unimodular,
)

ints = st.integers(min_value=-50, max_value=50)
rats = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def vecs(strategy):
    return st.builds(Vec, strategy, strategy)


def nonzero_int_vecs():
    return vecs(ints).filter(lambda v: bool(v))


def unimodular_matrices():
    # random products of elementary shears and the rotation generate GL(2,Z)
    def build(shears):
        m = (Vec(1, 0), Vec(0, 1))
        for kind, k in shears:
            if kind == 0:
                step = (Vec(1, 0), Vec(k, 1))
            elif kind == 1:
                step = (Vec(1, k), Vec(0, 1))
            else:
                step = (Vec(0, 1), Vec(-1, 0))
            m = (apply_matrix(step, m[0]), apply_matrix(step, m[1]))
        return m

    return st.lists(
        st.tuples(st.integers(0, 2), st.integers(-3, 3)), min_size=0, max_size=5
    ).map(build)


def test_primitive_and_length_examples():
    assert primitive_and_length(Vec(2, 2)) == (Vec(1, 1), 2)
    assert primitive_and_length(Vec(0, -3)) == (Vec(0, -1), 3)
    assert primitive_and_length(Vec(1, 0)) == (Vec(1, 0), 1)


def test_primitive_and_length_zero_rejected():
    with pytest.raises(GeometryError):
        primitive_and_length(Vec(0, 0))


@given(nonzero_int_vecs())
@settings(max_examples=1000)
def test_primitive_idempotent(v):
    p, length = primitive_and_length(v)
    assert primitive_and_length(p) == (p, 1)
    assert p * length == v


def test_det2_examples():
    assert det2(Vec(1, 0), Vec(0, 1)) == 1
    assert det2(Vec(1, 1), Vec(-2, 1)) == 3
    assert det2(Vec(1, 1), Vec(2, 2)) == 0


@given(vecs(rats), vecs(rats))
@settings(max_examples=1000)
def test_det2_antisymmetric(a, b):
    assert det2(a, b) == -det2(b, a)


@given(vecs(rats), vecs(rats), unimodular_matrices())
@settings(max_examples=1000)
def test_det2_unimodular_equivariance(a, b, m):
    sign = det2(m[0], m[1])
    assert sign in (1, -1)
    assert det2(apply_matrix(m, a), apply_matrix(m, b)) == sign * det2(a, b)


def test_reflect_over_examples():
    # reflection over the diagonal swaps coordinates
    assert reflect_over(Vec(F(3), F(-5)), Vec(1, 1)) == Vec(-5, 3)
    assert reflect_over(Vec(1, 0), Vec(1, 0)) == Vec(1, 0)
    assert reflect_over(Vec(1, 0), Vec(1, -1)) == Vec(0, -1)


@given(vecs(rats), nonzero_int_vecs())
@settings(max_examples=1000)
def test_reflect_involution(v, axis):
    assert reflect_over(reflect_over(v, axis), axis) == v
    assert reflect_over(axis * F(1, 3), axis) == axis * F(1, 3)


def test_shear_apply_examples():
    assert shear_apply(Vec(0, 1), Vec(1, 0), Vec(0, 1)) == Vec(1, 1)
    assert shear_apply(Vec(0, 1), Vec(1, 0), Vec(1, 0)) == Vec(1, 0)
    assert shear_apply(Vec(1, -1), Vec(1, 1), Vec(1, 0)) == Vec(2, 1)


def test_shear_apply_rejects_non_unipotent():
    with pytest.raises(GeometryError):
        shear_apply(Vec(1, 0), Vec(1, 0), Vec(0, 1))


@given(vecs(rats), nonzero_int_vecs(), vecs(ints))
@settings(max_examples=1000)
def test_shear_round_trip(v, pi, sigma_seed):
    # build a covector orthogonal to pi
    sigma = Vec(-pi.y, pi.x) * (sigma_seed.x % 7 - 3)
    forward = shear_apply(sigma, pi, v)
    assert shear_apply(-1 * sigma, pi, forward) == v


def test_incidence_examples():
    assert point_on_segment(Vec(F(1, 2), F(1, 2)), Vec(0, 0), Vec(1, 1))
    hit = ray_segment_intersect(Ray(Vec(0, 0), Vec(1, 1)), Vec(1, 0), Vec(0, 1))
    assert hit is not None and hit[1] == Vec(F(1, 2), F(1, 2))
    assert lines_intersect(Vec(0, 0), Vec(1, 0), Vec(0, 1), Vec(1, 0)) is None


@given(vecs(rats), vecs(rats), st.fractions(min_value=0, max_value=1, max_denominator=16))
@settings(max_examples=1000)
def test_point_on_segment_vs_parameterization(a, b, t):
    p = a + (b - a) * t
    if a == b:
        return
    # brute-force oracle: p = a + t (b - a) with 0 <= t <= 1, both coordinates
    dx, dy = b.x - a.x, b.y - a.y
    candidates = []
    if dx != 0:
        candidates.append((p.x - a.x) / dx)
    if dy != 0:
        candidates.append((p.y - a.y) / dy)
    oracle = bool(candidates) and all(c == candidates[0] for c in candidates) and (
        0 <= candidates[0] <= 1
    )
    assert point_on_segment(p, a, b) == oracle
    assert segment_parameter(p, a, b) == t


@given(vecs(rats), nonzero_int_vecs(), vecs(rats), vecs(rats))
@settings(max_examples=1000)
def test_ray_segment_agrees_with_line_solution(origin, direction, a, b)\
        :
    if a == b:
        return
    hit = ray_segment_intersect(Ray(origin, direction), a, b)
    if hit is None:
        return
    t, point = hit
    assert t > 0
    assert point == origin + direction * t
    assert point_on_segment(point, a, b)


def reference_ray_segment(ray, a, b):
    """Fraction-only ray-segment intersection, the kernel's former body."""
    d = ray.direction
    e = b - a
    denom = det2(d, e)
    if denom == 0:
        if det2(e, ray.origin - a) != 0:
            return None
        ts = []
        for endpoint in (a, b):
            t = rational_length(endpoint - ray.origin, d)
            if t > 0:
                ts.append(t)
        if point_on_segment(ray.origin, a, b):
            ts.append(F(0))
        if not ts:
            return None
        t = min(ts)
        return (t, ray.at(t)) if t > 0 else None
    t = det2(a - ray.origin, e) / denom
    s = det2(a - ray.origin, d) / denom
    if t <= 0 or s < 0 or s > 1:
        return None
    return t, ray.at(t)


def reference_ray_point(ray, p):
    """Fraction-only parameter t > 0 with ray(t) = p, or None."""
    rel = p - ray.origin
    if det2(ray.direction, rel) != 0:
        return None
    t = rational_length(rel, ray.direction)
    return t if t > 0 else None


small_rats = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def ray_segment_cases(draw):
    """(origin, direction, a, b), with the degenerate configurations on purpose."""
    origin = draw(vecs(small_rats))
    d = draw(vecs(st.integers(-4, 4)).filter(bool))
    a, b = draw(vecs(small_rats)), draw(vecs(small_rats))
    kind = draw(st.sampled_from(["generic", "parallel", "collinear", "endpoint", "on_segment"]))
    if kind == "parallel":
        b = a + d * draw(small_rats)
    elif kind == "collinear":
        a, b = origin + d * draw(small_rats), origin + d * draw(small_rats)
    elif kind == "endpoint":
        a = origin + d * draw(st.fractions(min_value=0, max_value=4, max_denominator=6))
    elif kind == "on_segment":
        origin = a + (b - a) * draw(st.fractions(min_value=0, max_value=1, max_denominator=6))
    return origin, d, a, b


@given(ray_segment_cases())
def test_integer_ray_segment_agrees_with_fraction_reference(case):
    origin, d, a, b = case
    scale = math.lcm(*(c.denominator for c in (*a, *b)))
    hit = ray_segment_hit(homogeneous(origin), d.as_int_pair(),
                          scaled(a, scale) + scaled(b - a, scale), scale)
    if a == b:
        assert hit is None  # a point segment is never met
        return
    expected = reference_ray_segment(Ray(origin, d), a, b)
    if expected is None:
        assert hit is None
        return
    assert hit is not None
    t, s = F(hit[0], hit[1]), F(hit[2], hit[3])
    assert t == expected[0]
    assert 0 <= s <= 1 and a + (b - a) * s == expected[1]
    assert ray_segment_intersect(Ray(origin, d), a, b) == expected


@given(vecs(small_rats), vecs(st.integers(-4, 4)).filter(bool), vecs(small_rats),
       st.one_of(st.none(), small_rats))
def test_integer_ray_point_agrees_with_fraction_reference(origin, d, q, alpha):
    if alpha is not None:
        q = origin + d * alpha  # on the ray's line, behind, at or ahead of the origin
    scale = math.lcm(q.x.denominator, q.y.denominator)
    param = ray_point_param(homogeneous(origin), d.as_int_pair(), scaled(q, scale), scale)
    expected = reference_ray_point(Ray(origin, d), q)
    if param is None:
        assert expected is None and det2(d, q - origin) != 0
        return
    t = F(*param)
    assert origin + d * t == q
    assert expected == (t if t > 0 else None)


def reference_point_on_segment(p, a, b, closed=True):
    """Fraction-only segment incidence, the former body of point_on_segment."""
    ab = b - a
    ap = p - a
    if det2(ab, ap) != 0:
        return False
    t = rational_length(ap, ab) if ab else F(0)
    if closed:
        return 0 <= t <= 1
    return 0 < t < 1


@st.composite
def point_segment_cases(draw):
    """(p, a, b), with endpoints, collinear points and point segments on purpose."""
    a, b = draw(vecs(small_rats)), draw(vecs(small_rats))
    kind = draw(st.sampled_from(["generic", "endpoint", "collinear", "point_segment"]))
    if kind == "point_segment":
        b = a
    if kind == "endpoint":
        p = draw(st.sampled_from([a, b]))
    elif kind == "collinear":
        # inside the segment and beyond either end
        p = a + (b - a) * draw(st.fractions(min_value=-3, max_value=4, max_denominator=6))
    else:
        p = draw(vecs(small_rats))
    return p, a, b


@given(point_segment_cases(), st.booleans())
def test_point_on_segment_agrees_with_fraction_reference(case, closed):
    p, a, b = case
    got = point_on_segment(p, a, b, closed)
    assert got == reference_point_on_segment(p, a, b, closed)
    if a == b:
        assert got == closed


def test_unimodular_guard():
    with pytest.raises(GeometryError):
        unimodular(2, 0, 0, 2)
    m = unimodular(1, 1, 0, 1)
    assert apply_matrix(m, Vec(0, 1)) == Vec(1, 1)
