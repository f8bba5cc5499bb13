"""The regularity margin by its definition: the least distance from a vertex
to an edge it is not an end of, the foot of the perpendicular clamped to
the edge.  ``heawood_udg.verify`` splits this minimum into the vertex
separation and the feet that fall strictly inside an edge; the tests check
that split against this formula.
"""

from __future__ import annotations

from heawood_udg.incidence import HEAWOOD_FLAGS


def _point_segment_distance_squared(p, a, b, zero, one):
    vx = b.x - a.x
    vy = b.y - a.y
    length2 = vx * vx + vy * vy
    # an edge whose ends coincide is the point a
    t = ((p.x - a.x) * vx + (p.y - a.y) * vy) / length2 if length2 else zero
    t = max(zero, min(one, t))
    qx = a.x + t * vx
    qy = a.y + t * vy
    return (p.x - qx) ** 2 + (p.y - qy) ** 2


def clamped_margin(candidate):
    """Minimum over the 252 (vertex, non-incident edge) pairs of the clamped
    point-segment distance, rooted once."""
    ctx = candidate.context()
    zero, one = ctx.mpf(0), ctx.mpf(1)
    coords = candidate.coords
    return ctx.sqrt(
        min(
            _point_segment_distance_squared(coords[v], coords[a], coords[b], zero, one)
            for v in coords
            for a, b in HEAWOOD_FLAGS
            if v not in (a, b)
        )
    )
