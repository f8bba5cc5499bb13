from __future__ import annotations

import random
from fractions import Fraction

import pytest
from mpmath.libmp import to_fixed

from heawood_udg.chain import ChainBroken
from heawood_udg.geom import (
    FIXED_BITS,
    Fixed,
    GeometryError,
    Point2,
    circle_circle_intersect,
    context,
    distance_squared,
    fixed_circle_intersect,
    illinois_estimate,
)
from cosines import general_intersect


def test_decimal_round_trip_at_60_digits():
    ctx = context(60)
    rng = random.Random(20240817)
    for _ in range(500):
        x = ctx.mpf(rng.random()) * ctx.mpf(10) ** rng.randint(-25, 5)
        s1 = ctx.nstr(x, 60)
        s2 = ctx.nstr(ctx.mpf(s1), 60)
        assert s1 == s2


def test_contexts_are_independent():
    a = context(30)
    b = context(60)
    assert a.dps == 30 and b.dps == 60
    # converting between contexts preserves the decimal value
    x = a.mpf("0.1")
    assert b.nstr(b.mpf(x), 30) == a.nstr(x, 30)


def test_contexts_are_shared_per_precision():
    assert context(30) is context(30)
    assert context(30) is not context(60)
    assert context(30).dps == 30 and context(60).dps == 60


def test_equilateral_intersection():
    ctx = context(60)
    origin, east = Point2(ctx.mpf(0), ctx.mpf(0)), Point2(ctx.mpf(1), ctx.mpf(0))
    q = circle_circle_intersect(origin, east, bit=0)
    assert abs(q.x - ctx.mpf("0.5")) < ctx.mpf(10) ** -55
    assert abs(q.y - ctx.mpf("0.866025403784439")) < ctx.mpf(10) ** -15
    # bit 1 is the mirror image below the center line
    q1 = circle_circle_intersect(origin, east, bit=1)
    assert abs(q1.y + q.y) < ctx.mpf(10) ** -55


def test_reference_intersection_for_p3():
    # circles around l3 = (0,1) and the first reference row's l4 meet at
    # that row's P3 on branch 0
    ctx = context(60)
    l3 = Point2(ctx.mpf(0), ctx.mpf(1))
    l4 = Point2(ctx.mpf("-0.730124164909779"), ctx.mpf("1.003329643733922"))
    q = circle_circle_intersect(l3, l4, bit=0)
    assert abs(q.x - ctx.mpf("-0.369307668700666")) < ctx.mpf(10) ** -13
    assert abs(q.y - ctx.mpf("0.070692814060453")) < ctx.mpf(10) ** -13


def _on_x_axis(ctx, x):
    return Point2(ctx.mpf(x), ctx.mpf(0))


def test_no_intersection():
    ctx = context(30)
    with pytest.raises(GeometryError, match=r"^discriminant .* is negative$"):
        circle_circle_intersect(_on_x_axis(ctx, 0), _on_x_axis(ctx, 3), bit=0)


def test_externally_tangent():
    ctx = context(30)
    with pytest.raises(GeometryError, match=r"^discriminant .* within tolerance of zero$"):
        circle_circle_intersect(_on_x_axis(ctx, 0), _on_x_axis(ctx, 2), bit=0)


def test_near_tangent_within_tolerance():
    ctx = context(30)
    d = ctx.mpf(2) - ctx.mpf(10) ** -20  # discriminant ~1e-20, tol 1e-15
    with pytest.raises(GeometryError, match=r"^discriminant .* within tolerance of zero$"):
        circle_circle_intersect(_on_x_axis(ctx, 0), _on_x_axis(ctx, d), bit=0)


def test_concentric():
    ctx = context(30)
    with pytest.raises(GeometryError, match=r"^center distance 0\.0 below tolerance$"):
        circle_circle_intersect(_on_x_axis(ctx, 0), _on_x_axis(ctx, 0), bit=0)


def test_input_validation():
    ctx = context(30)
    with pytest.raises(ValueError):
        circle_circle_intersect(_on_x_axis(ctx, 0), _on_x_axis(ctx, 1), bit=2)


def _random_config(ctx, rng):
    c1 = Point2(ctx.mpf(rng.uniform(-3, 3)), ctx.mpf(rng.uniform(-3, 3)))
    c2 = Point2(ctx.mpf(c1.x + rng.uniform(-1.5, 1.5)), ctx.mpf(c1.y + rng.uniform(-1.5, 1.5)))
    return c1, c2


@pytest.mark.parametrize("dps", [30, 60])
def test_residuals_scale_with_precision(dps):
    ctx = context(dps)
    bound = ctx.mpf(10) ** (2 - dps)
    rng = random.Random(dps)
    checked = 0
    while checked < 50:
        c1, c2 = _random_config(ctx, rng)
        try:
            q = circle_circle_intersect(c1, c2, bit=rng.choice((0, 1)))
        except Exception:
            continue
        assert abs(ctx.sqrt(distance_squared(q, c1)) - 1) < bound
        assert abs(ctx.sqrt(distance_squared(q, c2)) - 1) < bound
        checked += 1


def test_branch_symmetry():
    # the two branches are mirror images across the center line: their
    # midpoint lies on it and they are equidistant from both centers
    ctx = context(60)
    rng = random.Random(7)
    checked = 0
    while checked < 50:
        c1, c2 = _random_config(ctx, rng)
        try:
            q0 = circle_circle_intersect(c1, c2, bit=0)
            q1 = circle_circle_intersect(c1, c2, bit=1)
        except Exception:
            continue
        mid = Point2((q0.x + q1.x) / 2, (q0.y + q1.y) / 2)
        ux, uy = c2.x - c1.x, c2.y - c1.y
        cross = ux * (mid.y - c1.y) - uy * (mid.x - c1.x)
        assert abs(cross) < ctx.mpf(10) ** -55
        assert abs(distance_squared(q0, c1) - distance_squared(q1, c1)) < ctx.mpf(10) ** -55
        checked += 1


def test_branch_zero_is_left_of_center_line():
    ctx = context(30)
    rng = random.Random(99)
    checked = 0
    while checked < 30:
        c1, c2 = _random_config(ctx, rng)
        try:
            q = circle_circle_intersect(c1, c2, bit=0)
        except Exception:
            continue
        cross = (c2.x - c1.x) * (q.y - c1.y) - (c2.y - c1.y) * (q.x - c1.x)
        assert cross > 0
        checked += 1


def test_determinism_bit_identical():
    results = []
    for _ in range(2):
        ctx = context(60)
        q = circle_circle_intersect(
            Point2(ctx.mpf("0.25"), ctx.mpf("-1.5")), Point2(ctx.mpf("1.125"), ctx.mpf("-0.875")), bit=1
        )
        results.append((ctx.nstr(q.x, 60), ctx.nstr(q.y, 60)))
    assert results[0] == results[1]


def _random_mpf(ctx, rng, lo, hi):
    # every bit of the mantissa random, so a 300-digit centre is 300 digits
    return lo + (hi - lo) * ctx.ldexp(ctx.mpf(rng.getrandbits(ctx.prec)), -ctx.prec)


def _centre_pairs(ctx, rng, count):
    """Seeded centre pairs at every distance the step meets: random ones
    up to 2.5 apart, near-tangent ones straddling the tolerance, and the
    tangent (d = 2), missing (d = 3) and concentric cases."""
    tol = ctx.mpf(10) ** -(ctx.dps // 2)
    for k in range(count):
        c1 = Point2(_random_mpf(ctx, rng, -3, 3), _random_mpf(ctx, rng, -3, 3))
        phi = _random_mpf(ctx, rng, 0, 2 * ctx.pi)
        if k % 4 == 3:
            d = 2 + _random_mpf(ctx, rng, -4, 4) * tol  # near-tangent
        else:
            d = _random_mpf(ctx, rng, 0, 2.5)
        yield c1, Point2(c1.x + d * ctx.cos(phi), c1.y + d * ctx.sin(phi))
    for x2 in (2, 3, 0, tol / 2):  # tangent, missing, concentric, nearly concentric
        yield Point2(ctx.mpf(0), ctx.mpf(0)), Point2(ctx.mpf(x2), ctx.mpf(0))


@pytest.mark.parametrize("dps", [15, 30, 60, 300])
def test_unit_step_is_the_law_of_cosines_bit_for_bit(dps):
    # the unit step writes the chord foot as (d² + 1 − 1) / 2d so that it
    # rounds as the general form does at r1 = r2 = 1; d / 2 would not
    ctx = context(dps)
    one = ctx.mpf(1)
    rng = random.Random(dps)
    outcomes = set()
    for c1, c2 in _centre_pairs(ctx, rng, 400):
        for bit in (0, 1):
            try:
                expected = general_intersect(ctx, c1, one, c2, one, bit)
            except GeometryError as exc:
                with pytest.raises(GeometryError) as raised:
                    circle_circle_intersect(c1, c2, bit)
                assert str(raised.value) == str(exc)
                outcomes.add(str(exc).split()[-1])
                continue
            q = circle_circle_intersect(c1, c2, bit)
            assert (q.x._mpf_, q.y._mpf_) == (expected.x._mpf_, expected.y._mpf_)
            assert q.x.context is ctx and q.y.context is ctx
            outcomes.add("point")
    # every outcome of the step was met: a point, a miss, a touch, a centre
    assert outcomes == {"point", "negative", "zero", "tolerance"}


UNIT = Fraction(1, 2**FIXED_BITS)


def _exact(x: Fixed) -> Fraction:
    return x.man * UNIT


def _fixed_operand(rng) -> Fixed:
    # either sign, every size from one unit to 16
    man = rng.getrandbits(FIXED_BITS + 4) >> rng.randint(0, FIXED_BITS + 3)
    return Fixed(rng.choice((-1, 1)) * man)


def test_fixed_arithmetic_is_exact_or_rounds_down_within_a_unit():
    # sums, differences and products by an int are exact; other products,
    # quotients and square roots r satisfy r <= exact < r + 2^-FIXED_BITS
    rng = random.Random(27)
    for _ in range(2000):
        a, b = _fixed_operand(rng), _fixed_operand(rng)
        n = rng.choice([k for k in range(-8, 9) if k])
        x, y = _exact(a), _exact(b)
        exact = [(a + b, x + y), (a - b, x - y), (a + n, x + n)]
        exact += [(a - n, x - n), (n - a, n - x), (a * n, x * n), (n * a, n * x)]
        for result, value in exact:
            assert _exact(result) == value
        rounded = [(a * b, x * y), (a / n, x / n)]
        if b:
            rounded.append((a / b, x / y))
        for result, value in rounded:
            assert _exact(result) <= value < _exact(result) + UNIT
        assert bool(a) == (a.man != 0)
        if a.man > 0:
            root = _exact(a.sqrt())
            assert root * root <= x < (root + UNIT) ** 2
        else:
            with pytest.raises(GeometryError):
                a.sqrt()


def test_fixed_step_agrees_with_the_mpf_step():
    # on the same centres the 60-digit step is exact far below a unit of
    # 2^-FIXED_BITS, so the two steps pick the same point to within a few
    # hundred units when the circles meet well away from tangency, and both
    # refuse tangent, missing and concentric circles
    ctx = context(60)
    rng = random.Random(28)
    met = 0
    for c1, c2 in _centre_pairs(ctx, rng, 400):
        f1, f2 = (Point2(*(Fixed(to_fixed(v._mpf_, FIXED_BITS)) for v in c)) for c in (c1, c2))
        c1, c2 = (Point2(*(ctx.ldexp(v.man, -FIXED_BITS) for v in c)) for c in (f1, f2))
        d = ctx.sqrt(distance_squared(c1, c2))
        for bit in (0, 1):
            if d in (0, 2, 3) or d < 1e-20:
                with pytest.raises(GeometryError):
                    circle_circle_intersect(c1, c2, bit)
                with pytest.raises(GeometryError):
                    fixed_circle_intersect(f1, f2, bit)
            elif 0.1 < d < 1.9:
                q, f = circle_circle_intersect(c1, c2, bit), fixed_circle_intersect(f1, f2, bit)
                assert abs(ctx.ldexp(f.x.man, -FIXED_BITS) - q.x) < ctx.ldexp(1, -100)
                assert abs(ctx.ldexp(f.y.man, -FIXED_BITS) - q.y) < ctx.ldexp(1, -100)
                met += 1
    assert met > 400


def test_illinois_estimate_converges_on_sqrt_two():
    ctx = context(50)
    calls = []

    def value(t):
        calls.append(t)
        return t * t - 2

    lo, hi = ctx.mpf(1), ctx.mpf(2)
    tol = ctx.mpf(10) ** -40
    x = illinois_estimate(value, lo, hi, value(lo), value(hi), tol)
    assert abs(x - ctx.sqrt(2)) < tol
    # superlinear: a dozen steps, not the 133 of halving to 1e-40
    assert len(calls) - 2 <= 12


@pytest.mark.parametrize(
    "error",
    [GeometryError("the circles miss"), ChainBroken("P3", GeometryError("touching"))],
)
def test_illinois_estimate_is_none_where_the_function_breaks(error):
    # a broken construction chain is a geometry error like a failed step
    assert isinstance(error, GeometryError)
    ctx = context(30)

    def value(t):
        raise error

    assert illinois_estimate(value, ctx.mpf(1), ctx.mpf(2), ctx.mpf(-1), ctx.mpf(2), ctx.mpf(10) ** -20) is None
