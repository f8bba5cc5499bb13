"""Extended-precision planar geometry kernel.

Provides the mpmath context of each precision (no ambient global
precision state), 2D points, the two-valued intersection of two unit
circles that drives the compass-and-ruler construction chain, at the
precision its centres carry, a binary fixed-point number with its own
unit-circle step, and the root estimate and sign-change bisection shared
by the solver and the exact root refinement.

Every mpmath context comes from one read-only cache keyed by decimal
precision, :func:`context`; every mpf carries its own as ``x.context``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable

from mpmath.ctx_mp import MPContext

# the smallest precision of a solve or a passing certificate: the 15 printed
# digits of the reference tables
MIN_DIGITS = 15
# the largest precision a command or a refinement accepts: at 10,000 digits
# `roots` takes about 1.5 s on a 2-core VM, and at 10^8 digits reading one
# number takes seconds
MAX_DIGITS = 10_000
# the step cap of :func:`illinois_estimate`: a solver bracket takes up to 9
# steps; a root of the exact side up to 37 over its whole isolating interval
# at 30 digits
ESTIMATE_MAX_STEPS = 64
# the fraction bits of :class:`Fixed`.  The solver's bisection walks the
# chain at BISECTION_DIGITS = 30 digits: mpf of 103 bits, which round a
# value v to nearest, by up to 2^-104 |v|.  A rounding at 128 fraction bits
# is below 2^-128, no more than that for any |v| >= 2^-24; the chain's
# coordinates and distances are of order 1, so a walk at 128 fraction bits
# is at least as accurate as the 30-digit walk it stands in for
FIXED_BITS = 128


class GeometryError(Exception):
    """A circle-circle intersection failed: the circles miss, touch or are
    concentric within tolerance, and the message says which."""


# building an MPContext costs about as much as a 30-digit construction chain
@functools.lru_cache(maxsize=32)
def context(dps: int) -> MPContext:
    """The shared mpmath context of ``dps`` digits; a string printed by
    ``nstr(x, dps)`` reads back to a value that prints the same string.
    Nothing may set its precision or call on it an mpmath routine that
    changes the precision while it runs."""
    mp = MPContext()
    mp.dps = dps
    return mp


@functools.lru_cache(maxsize=32)
def _intersect_tol(dps: int):
    """10^(-dps/2): the tolerance of :func:`circle_circle_intersect` at
    ``dps`` digits, computed once per precision."""
    return context(dps).mpf(10) ** -(dps // 2)


@functools.lru_cache(maxsize=32)
def residual_tol(dps: int):
    """10^(4 - dps): the residual tolerance at ``dps`` digits, computed once
    per precision.  Newton's polish stops below it, and a certificate's
    residuals and provenance must be within it."""
    return context(dps).mpf(10) ** (4 - dps)


@dataclass(frozen=True)
class Point2:
    """A point in the plane; both components are mpf of one :func:`context`,
    :class:`Fixed`, or float64 arrays in the sweep."""

    x: Any
    y: Any

    def __iter__(self):
        yield self.x
        yield self.y


def distance_squared(p: Point2, q: Point2):
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


def circle_circle_intersect(c1: Point2, c2: Point2, bit: int) -> Point2:
    """Intersect the unit circles around ``c1`` and ``c2``, at the precision
    of the centres' own context, ``c1.x.context``.

    Two-valued: ``bit`` 0 selects the intersection on the left of the
    directed center line c1 -> c2 (positive cross product), bit 1 the right.
    The orientation convention is stable under translation and rotation and
    independent of coordinate magnitudes.

    The tolerance is 10^(-dps/2) at that precision: the discriminant loses
    about half the working digits near tangency.  Raises
    :class:`GeometryError` when the centers coincide within it, the
    discriminant vanishes within it or is negative beyond it.
    """
    if bit not in (0, 1):
        raise ValueError(f"branch bit must be 0 or 1, got {bit!r}")
    ctx = c1.x.context
    tol = _intersect_tol(ctx.dps)

    dx = c2.x - c1.x
    dy = c2.y - c1.y
    d2 = dx * dx + dy * dy
    d = ctx.sqrt(d2)
    if d <= tol:
        raise GeometryError(f"center distance {ctx.nstr(d, 8)} below tolerance")

    # the chord's foot from c1 by the law of cosines with both radii 1, so it
    # rounds bit for bit as the two-radius form; d / 2 differs for ~60% of pairs
    a = (d2 + 1 - 1) / (2 * d)
    h2 = 1 - a * a
    if abs(h2) <= tol:
        raise GeometryError(f"discriminant {ctx.nstr(h2, 8)} within tolerance of zero")
    if h2 < 0:
        raise GeometryError(f"discriminant {ctx.nstr(h2, 8)} is negative")
    h = ctx.sqrt(h2)

    ux = dx / d
    uy = dy / d
    mx = c1.x + a * ux
    my = c1.y + a * uy
    if bit == 0:
        return Point2(mx - h * uy, my + h * ux)
    return Point2(mx + h * uy, my - h * ux)


class Fixed:
    """A binary fixed-point number: the int ``man`` times 2^-FIXED_BITS.

    It has the arithmetic that :func:`chain.construct` and
    :func:`fixed_circle_intersect` use, with int operands taken as exact.
    Sums, differences and products by an int are exact; the other
    products, the quotients and :meth:`sqrt` round down to a multiple of
    2^-FIXED_BITS, so each such result r of operands that are exact
    numbers satisfies r <= exact < r + 2^-FIXED_BITS.
    """

    __slots__ = ("man",)

    def __init__(self, man: int):
        self.man = man

    def __add__(self, other):
        if type(other) is int:
            return Fixed(self.man + (other << FIXED_BITS))
        return Fixed(self.man + other.man)

    def __sub__(self, other):
        if type(other) is int:
            return Fixed(self.man - (other << FIXED_BITS))
        return Fixed(self.man - other.man)

    def __rsub__(self, other: int):
        return Fixed((other << FIXED_BITS) - self.man)

    def __mul__(self, other):
        if type(other) is int:
            return Fixed(self.man * other)
        return Fixed((self.man * other.man) >> FIXED_BITS)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is int:
            return Fixed(self.man // other)
        return Fixed((self.man << FIXED_BITS) // other.man)

    def __bool__(self) -> bool:
        return self.man != 0

    def sqrt(self) -> "Fixed":
        """The square root; :class:`GeometryError` unless positive."""
        if self.man <= 0:
            raise GeometryError("the radicand of a fixed-point step is not positive")
        return Fixed(math.isqrt(self.man << FIXED_BITS))


def fixed_circle_intersect(c1: Point2, c2: Point2, bit: int) -> Point2:
    """:func:`circle_circle_intersect` for centres of :class:`Fixed`
    coordinates, with the same choice of ``bit``.

    The intersection is q = (c1 + c2) / 2 ± g·(−dy, dx) for (dx, dy) =
    c2 − c1 at distance d, where g² = 1/d² − 1/4 = (4 − d²) / (4 d²).  No
    tolerance applies: raises :class:`GeometryError` when the centres
    coincide or g² is not positive.  The step uses only + − × ÷, truth and
    ``sqrt`` of its numbers, so any number type that has them with these
    meanings, an outward-rounded interval among them, can take it.
    """
    dx = c2.x - c1.x
    dy = c2.y - c1.y
    d2 = dx * dx + dy * dy
    if not d2:
        raise GeometryError("the centres coincide")
    g = ((4 - d2) / (4 * d2)).sqrt()
    gx = g * dx
    gy = g * dy
    mx = (c1.x + c2.x) / 2
    my = (c1.y + c2.y) / 2
    if bit == 0:
        return Point2(mx - gy, my + gx)
    return Point2(mx + gy, my - gx)


def illinois_estimate(value: Callable[[Any], Any], lo: Any, hi: Any, f_lo: Any, f_hi: Any, tol: Any):
    """Estimate the root of ``value`` in ``[lo, hi]``, where it takes the
    opposite signs ``f_lo`` and ``f_hi``, by Illinois-modified regula falsi
    (Dowell & Jarratt, BIT 1971).

    Stops once the sign change is narrowed below ``tol`` or a step falls
    below the working precision.  None when a step leaves the bracket,
    ``value`` raises :class:`GeometryError`, or ``ESTIMATE_MAX_STEPS``
    steps do not converge.
    """
    a, fa, b, fb = lo, f_lo, hi, f_hi
    side = 0
    for _ in range(ESTIMATE_MAX_STEPS):
        x = b - fb * (b - a) / (fb - fa)
        if not a <= x <= b:
            return None
        if x == a or x == b:
            return x  # the step is below the working precision
        try:
            fx = value(x)
        except GeometryError:
            return None
        if fx == 0:
            return x
        if (fx < 0) == (fb < 0):
            b, fb = x, fx
            if side == 1:
                fa /= 2  # the same end kept twice: halve its weight
            side = 1
        else:
            a, fa = x, fx
            if side == -1:
                fb /= 2
            side = -1
        if b - a < tol:
            return x
    return None


def bisect_sign_change(
    sign: Callable[[Any], Any], lo: Any, hi: Any, sign_lo: Any, width: Any, estimate: Any = None
) -> tuple:
    """Halve ``[lo, hi]`` around a sign change until ``hi - lo < width``.

    ``sign(t)`` returns a number with the sign of the bisected function at
    ``t``, and ``sign_lo`` is one with its sign at ``lo``; the caller has
    checked that the sign at ``hi`` is opposite.  Only midpoints are
    evaluated.  End points may be mpf or :class:`fractions.Fraction`.
    Returns the final ``(lo, hi)``, or ``(mid, mid)`` when ``sign(mid)`` is
    exactly zero.

    Given an ``estimate`` of the root in ``[lo, hi]``, the final cells are
    the ``hi - lo`` halved until below ``width`` side by side, and the one
    holding the estimate is named by its index; only its two end points are
    evaluated.  It is returned when they show the sign change, and the
    plain halving runs when they do not or the estimate lies outside
    ``[lo, hi]``.  When the function changes sign once in ``[lo, hi]`` and
    the end points ``lo + k (hi - lo) / 2^n`` are exact, as for Fractions,
    both routes end in the same cell.
    """
    negative_lo = sign_lo < 0
    if estimate is not None and lo <= estimate <= hi:
        # the fewest halvings that take the span below width, checked exactly:
        # a rounded mpf ratio can put n one off
        span = hi - lo
        n = int(span / width).bit_length()
        if span / 2**n >= width:
            n += 1
        elif n and span / 2 ** (n - 1) < width:
            n -= 1
        cell = span / 2**n
        k = min(int((estimate - lo) / cell), 2**n - 1)
        a, b = lo + k * cell, lo + (k + 1) * cell
        s_a = sign(a)
        s_b = sign(b)
        if s_a != 0 and s_b != 0 and (s_a < 0) == negative_lo and (s_b < 0) != negative_lo:
            return a, b
    while hi - lo >= width:
        mid = (lo + hi) / 2
        s = sign(mid)
        if s == 0:
            return mid, mid
        if (s < 0) == negative_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi
