import contextlib
import copy
import math
import pickle
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropdisk.enumerate import EnumeratedGraph, EnumerationResult
from tropdisk import diagram as diagram_module
from tropdisk import lagrangian as lagrangian_module
from tropdisk.diagram import BaseDiagram
from tropdisk.fixtures import SHIPPED_CASES, builtin_fixture
from tropdisk.geometry import (
    GeometryError,
    Vec,
    det2,
    frac,
    from_homogeneous,
    homogeneous,
    integer_rows,
    json_point,
    point_on_row,
    primitive,
    primitive_and_length,
    primitive_pair,
    ray_segment_hit,
    shear_apply,
)

ints = st.integers(min_value=-50, max_value=50)
rats = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def unimodular(a: int, b: int, c: int, d: int):
    """The integer matrix [[a, b], [c, d]] as a pair of column Vecs."""
    m = (Vec(a, c), Vec(b, d))
    if abs(det2(*m)) != 1:
        raise GeometryError("matrix is not unimodular")
    return m


def apply_matrix(m, v):
    """Apply a matrix given as (column1, column2) to v."""
    c1, c2 = m
    return c1 * v.x + c2 * v.y


def rational_length(v, direction):
    """The signed multiple t with v = t * direction, for v parallel to a
    nonzero `direction`, in Fractions."""
    assert det2(v, direction) == 0
    if direction.x != 0:
        return v.x / direction.x
    return v.y / direction.y


def ray_point_param(origin, d, q, scale):
    """Parameter of the point q/scale on the line origin + t d, or None: the
    integer reference for the focus scan of `_Tracer._events`.

    `origin` is a homogeneous (X, Y, W) triple, `d` a nonzero integer pair and
    `q` an integer pair.  The parameter t (of any sign) is returned as
    (numerator, denominator) with a positive denominator.
    """
    X, Y, W = origin
    dx, dy = d
    rx = q[0] * W - X * scale
    ry = q[1] * W - Y * scale
    if dx * ry - dy * rx != 0:
        return None
    return rx * dx + ry * dy, scale * W * (dx * dx + dy * dy)


def scaled(v, scale):
    """The integer pair scale * v in Fractions: the reference for `integer_rows`."""
    x, y = v.x * scale, v.y * scale
    assert x.denominator == 1 and y.denominator == 1
    return (x.numerator, y.numerator)


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


@given(ints, ints)
def test_primitive_pair_divides_by_the_gcd(x, y):
    if (x, y) == (0, 0):
        with pytest.raises(GeometryError, match="zero vector has no primitive direction"):
            primitive_pair(x, y)
        return
    px, py, g = primitive_pair(x, y)
    assert g == math.gcd(x, y) > 0 and (px * g, py * g) == (x, y)
    assert primitive_pair(px, py) == (px, py, 1)


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


class _Half(F):
    """A Fraction subclass: `frac` hands it back as it is."""


def test_frac_answers_by_type():
    half = _Half(1, 2)
    answers = [(3, F(3)), (-2, F(-2)), (True, F(1)), (False, F(0)), ("3/4", F(3, 4)),
               ("-2", F(-2)), ("1.5", F(3, 2)), (F(5, 7), F(5, 7)), (half, half)]
    for value, expected in answers:
        got = frac(value)
        assert got == expected and type(got) is type(expected), value
    assert frac(half) is half and frac(answers[7][0]) is answers[7][0]
    for refused in (0.5, 2.0, Decimal("0.5"), Decimal(2), None, [1, 2]):
        with pytest.raises(GeometryError, match="as an exact rational"):
            frac(refused)
    for malformed, error in (("x", ValueError), ("1.5e", ValueError), ("1/0", ZeroDivisionError)):
        with pytest.raises(error) as raised:
            frac(malformed)
        assert type(raised.value) is error, malformed


def test_incidence_examples():
    (diagonal, anti), scale = integer_rows([
        (homogeneous(Vec(0, 0)), homogeneous(Vec(1, 1))),
        (homogeneous(Vec(1, 0)), homogeneous(Vec(0, 1))),
    ])
    assert scale == 1
    assert point_on_row(homogeneous(Vec(F(1, 2), F(1, 2))), diagonal, scale)
    assert not point_on_row(homogeneous(Vec(F(1, 2), F(1, 3))), diagonal, scale)
    assert not point_on_row((0, 0, 1), diagonal, scale, closed=False)
    hit = ray_segment_hit((0, 0, 1), (1, 1), anti, scale)
    assert hit == (1, 2, 1, 2)
    assert from_homogeneous((1, 1, 2)) == Vec(F(1, 2), F(1, 2))
    (horizontal,), scale = integer_rows([(homogeneous(Vec(0, 1)), homogeneous(Vec(1, 1)))])
    assert ray_segment_hit((0, 0, 1), (1, 0), horizontal, scale) is None  # parallel


@given(vecs(rats), vecs(rats), st.fractions(min_value=-1, max_value=2, max_denominator=16))
@settings(max_examples=1000)
def test_point_on_row_vs_parameterization(a, b, t):
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
    (row,), scale = integer_rows([(homogeneous(a), homogeneous(b))])
    assert point_on_row(homogeneous(p), row, scale) == oracle == (0 <= t <= 1)


@given(vecs(rats), nonzero_int_vecs(), vecs(rats), vecs(rats))
@settings(max_examples=1000)
def test_ray_segment_agrees_with_line_solution(origin, direction, a, b):
    if a == b:
        return
    (row,), scale = integer_rows([(homogeneous(a), homogeneous(b))])
    hit = ray_segment_hit(homogeneous(origin), direction.as_int_pair(), row, scale)
    if hit is None:
        return
    t, s = F(hit[0], hit[1]), F(hit[2], hit[3])
    assert t > 0 and 0 <= s <= 1
    assert origin + direction * t == a + (b - a) * s


def reference_ray_segment(origin, d, a, b):
    """Fraction-only first meeting (t, point) of the open ray origin + t d
    (t > 0) with the closed segment [a, b], or None: the kernel's former body."""
    e = b - a
    denom = det2(d, e)
    if denom == 0:
        if det2(e, origin - a) != 0:
            return None
        ts = []
        for endpoint in (a, b):
            t = rational_length(endpoint - origin, d)
            if t > 0:
                ts.append(t)
        if reference_point_on_segment(origin, a, b):
            ts.append(F(0))
        if not ts:
            return None
        t = min(ts)
        return (t, origin + d * t) if t > 0 else None
    t = det2(a - origin, e) / denom
    s = det2(a - origin, d) / denom
    if t <= 0 or s < 0 or s > 1:
        return None
    return t, origin + d * t


def reference_ray_point(origin, d, p):
    """Fraction-only parameter t > 0 with origin + t d = p, or None."""
    rel = p - origin
    if det2(d, rel) != 0:
        return None
    t = rational_length(rel, d)
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
    (row,), scale = integer_rows([(homogeneous(a), homogeneous(b))])
    assert scale == math.lcm(*(c.denominator for c in (*a, *b)))
    assert row == scaled(a, scale) + scaled(b - a, scale)
    hit = ray_segment_hit(homogeneous(origin), d.as_int_pair(), row, scale)
    if a == b:
        assert hit is None  # a point segment is never met
        return
    expected = reference_ray_segment(origin, d, a, b)
    if expected is None:
        assert hit is None
        return
    assert hit is not None
    t, s = F(hit[0], hit[1]), F(hit[2], hit[3])
    assert t == expected[0]
    assert 0 <= s <= 1 and a + (b - a) * s == expected[1]


@given(vecs(small_rats), vecs(st.integers(-4, 4)).filter(bool), vecs(small_rats),
       st.one_of(st.none(), small_rats))
def test_integer_ray_point_agrees_with_fraction_reference(origin, d, q, alpha):
    if alpha is not None:
        q = origin + d * alpha  # on the ray's line, behind, at or ahead of the origin
    scale = math.lcm(q.x.denominator, q.y.denominator)
    param = ray_point_param(homogeneous(origin), d.as_int_pair(), scaled(q, scale), scale)
    expected = reference_ray_point(origin, d, q)
    if param is None:
        assert expected is None and det2(d, q - origin) != 0
        return
    t = F(*param)
    assert origin + d * t == q
    assert expected == (t if t > 0 else None)


def reference_point_on_segment(p, a, b, closed=True):
    """Fraction-only segment incidence, the reference for `point_on_row`."""
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
def test_point_on_row_agrees_with_fraction_reference(case, closed):
    p, a, b = case
    (row,), scale = integer_rows([(homogeneous(a), homogeneous(b))])
    got = point_on_row(homogeneous(p), row, scale, closed)
    assert got == reference_point_on_segment(p, a, b, closed)


def reference_primitive(v):
    """The former body of primitive: clear by the product of the denominators,
    then divide by the gcd."""
    w = v * (v.x.denominator * v.y.denominator)
    return primitive_and_length(w)[0]


@given(vecs(small_rats).filter(bool))
def test_primitive_agrees_with_fraction_reference(v):
    p = primitive(v)
    assert p == reference_primitive(v)
    assert primitive_and_length(p)[1] == 1 and det2(p, v) == 0 and p.dot(v) > 0


def test_unimodular_guard():
    with pytest.raises(GeometryError):
        unimodular(2, 0, 0, 2)
    m = unimodular(1, 1, 0, 1)
    assert apply_matrix(m, Vec(0, 1)) == Vec(1, 1)


@contextlib.contextmanager
def built_fractions():
    """The arguments of every Fraction built inside the block, in order."""
    raw = vars(F)["__new__"]
    built = []

    def counted(cls, *args, **kwargs):
        built.append(args)
        return raw.__func__(cls, *args, **kwargs)

    F.__new__ = staticmethod(counted)
    try:
        yield built
    finally:
        F.__new__ = raw


def reference_triple(x: F, y: F):
    """The former body of `homogeneous`: the point over the lcm of the
    coordinates' denominators."""
    w = math.lcm(x.denominator, y.denominator)
    return x.numerator * (w // x.denominator), y.numerator * (w // y.denominator), w


coordinates = st.one_of(ints, rats, rats.map(str))


@given(coordinates, coordinates, coordinates, coordinates, rats.filter(bool))
def test_vec_agrees_with_a_fraction_reference(a, b, c, d, s):
    v, w = Vec(a, b), Vec(c, d)
    x, y, u, t = F(a), F(b), F(c), F(d)
    X, Y, W = v.triple
    assert homogeneous(v) == v.triple == reference_triple(x, y)
    assert W > 0 and math.gcd(X, Y, W) == 1
    # the views: the same Fractions, kept in the instance after the first read
    assert (v.x, v.y) == (x, y) and type(v.x) is type(v.y) is F
    assert vars(v)["x"] is v.x and vars(v)["y"] is v.y
    assert tuple(v) == (x, y) and repr(v) == f"Vec({x}, {y})"
    # equality is the point's, whatever form its coordinates came in
    for same in (Vec(x, y), Vec(str(x), str(y)), from_homogeneous(v.triple)):
        assert same == v and hash(same) == hash(v) and same.triple == v.triple
    assert (v == w) == ((x, y) == (u, t)) and (v != w) == ((x, y) != (u, t))
    assert v != (x, y) and v != v.triple
    # immutable, and a copy is the Vec itself
    for name in ("x", "y", "triple"):
        with pytest.raises(AttributeError):
            setattr(v, name, 0)
        with pytest.raises(AttributeError):
            delattr(v, name)
    assert copy.copy(v) is v and copy.deepcopy(v) is v
    assert copy.deepcopy({"v": [v]}) == {"v": [v]}
    restored = pickle.loads(pickle.dumps(v))
    assert restored == v and restored.triple == v.triple and repr(restored) == repr(v)
    # the arithmetic on triples against the Fractions
    assert (v + w).triple == reference_triple(x + u, y + t)
    assert (v - w).triple == reference_triple(x - u, y - t)
    assert (-v).triple == reference_triple(-x, -y)
    for scalar in (s, str(s), s.numerator):
        k = F(scalar)
        assert (v * scalar).triple == (scalar * v).triple == reference_triple(x * k, y * k)
        assert (v / scalar).triple == reference_triple(x / k, y / k)
    assert v.dot(w) == x * u + y * t and det2(v, w) == x * t - y * u
    assert bool(v) == bool(x or y) and v.is_integral() == (x.denominator == y.denominator == 1)
    with pytest.raises(GeometryError, match="division of a vector by zero"):
        v / 0


def test_integer_vecs_build_no_fraction():
    with built_fractions() as built:
        v, w = Vec(3, -4), from_homogeneous((1, 2, 1))
        sums = [v + w, v - w, -v, v * 2, 2 * v, Vec(6, -8) / 2, primitive(v)]
        pickle.loads(pickle.dumps(v))
        assert (homogeneous(v), v.as_int_pair(), v.is_integral(), bool(v)) == (
            (3, -4, 1), (3, -4), True, True)
        assert v == Vec(3, -4) and hash(v) == hash(Vec(3, -4)) and copy.deepcopy(v) is v
    assert built == [] and [u.triple for u in sums] == [
        (4, -2, 1), (2, -6, 1), (-3, 4, 1), (6, -8, 1), (6, -8, 1), (3, -4, 1), (3, -4, 1)]
    # a view is built on its first read only
    with built_fractions() as built:
        assert (v.x, v.x, v.y) == (3, 3, -4)
    assert built == [(3,), (-4,)]


nonzero = st.integers(min_value=-60, max_value=60).filter(bool)


@given(ints, nonzero, ints, nonzero, st.booleans())
def test_json_point_agrees_with_a_fraction_reference(a, b, c, d, nested):
    # either shape, denominators of either sign, reduced or not: the Vec of
    # the Fractions a/b and c/d, reduced in integers, with no Fraction built
    value = [[a, b], [c, d]] if nested else [a, b, c, d]
    with built_fractions() as built:
        v = json_point("point", value)
    assert built == []
    reference = Vec(F(a, b), F(c, d))
    assert v == reference and v.triple == reference.triple and repr(v) == repr(reference)


@given(ints, ints, nonzero)
def test_from_homogeneous_reduces_a_triple_as_fractions_do(X, Y, W):
    with built_fractions() as built:
        v = from_homogeneous((X, Y, W))
    assert built == [] and v.triple == Vec(F(X, W), F(Y, W)).triple
    assert (v.x, v.y) == (F(X, W), F(Y, W))


def test_from_homogeneous_refuses_a_triple_at_infinity():
    with pytest.raises(ZeroDivisionError):
        from_homogeneous((1, 2, 0))


def test_loading_saved_case_files_builds_no_fraction_in_json_point(tmp_path, monkeypatch):
    # every diagram and Lagrangian of the dp3 and dp6 cases, saved and loaded
    # again: each point the loaders read goes through json_point, which
    # builds no Fraction, and comes back as the point that was saved
    inside, calls = [], []

    def counted(where, value):
        with built_fractions() as built:
            point = json_point(where, value)
        inside.extend(built)
        calls.append(point)
        return point

    for module in (diagram_module, lagrangian_module):
        monkeypatch.setattr(module, "json_point", counted)
    for name in ("dp3", "dp6"):
        fx = builtin_fixture(name)
        for case in fx.cases:
            diagram, lag = fx.diagram_for(case), fx.lagrangian_for(case)
            diagram.save(tmp_path / "d.json")
            loaded = BaseDiagram.load(tmp_path / "d.json")
            assert loaded.polygon == diagram.polygon
            assert [ff.position for ff in loaded.focus_foci] == [
                ff.position for ff in diagram.focus_foci]
            if lag is not None:
                lag.save(tmp_path / "l.json")
                loaded_lag = lagrangian_module.LagGraph.load(tmp_path / "l.json")
                assert [v.position for v in loaded_lag.vertices] == [
                    v.position for v in lag.vertices]
    assert any(not p.is_integral() for p in calls)
    assert inside == []


@pytest.mark.parametrize("name,case", SHIPPED_CASES)
def test_total_sums_the_contributions_into_one_fraction(name, case):
    result = builtin_fixture(name).run(case)
    with built_fractions() as built:
        total = result.total()
    assert total == sum(result.contributions(), F(0)) and type(total) is F
    assert len(built) == 1


def test_total_over_mixed_denominators():
    def result(*contributions):
        return EnumerationResult([EnumeratedGraph(None, c, 0, 1, ()) for c in contributions])

    assert result().total() == 0
    for contributions in ((F(1, 2), F(-1, 3), F(5, 6), F(2)), (F(-3), F(7, 4), F(1, 4)),
                          (F(1, 6), F(1, 6), F(2, 3))):
        total = result(*contributions).total()
        assert total == sum(contributions, F(0)) and type(total) is F
