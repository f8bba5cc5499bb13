"""The circle step by the law of cosines for two general radii.  With both
radii ``ctx.mpf(1)`` it is the reference that the unit step,
``heawood_udg.geom.circle_circle_intersect``, is held to bit for bit.
"""

from __future__ import annotations

from heawood_udg.geom import GeometryError, Point2


def general_intersect(ctx, c1, r1, c2, r2, bit):
    """Intersect the circles around ``c1`` (radius ``r1``) and ``c2``
    (``r2``) at the context ``ctx``; ``bit`` 0 is the left of c1 -> c2.
    Raises :class:`GeometryError` as the unit step does."""
    tol = ctx.mpf(10) ** -(ctx.dps // 2)
    dx = c2.x - c1.x
    dy = c2.y - c1.y
    d2 = dx * dx + dy * dy
    d = ctx.sqrt(d2)
    if d <= tol:
        raise GeometryError(f"center distance {ctx.nstr(d, 8)} below tolerance")
    a = (d2 + r1 * r1 - r2 * r2) / (2 * d)
    h2 = r1 * r1 - a * a
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
