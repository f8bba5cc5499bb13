"""The separation and regularity scans over every term in mpf, with no
float in them: every vertex pair and every (vertex, non-incident edge)
term evaluated at the candidate's precision.  The tests run them on a
row's coordinates lifted exactly to at least 100 digits, as the oracle for
``heawood_udg.chain.min_vertex_separation`` and
``heawood_udg.verify.regularity_check``: each float lower bound may not
exceed the oracle's value, and may lie below it by no more than the
rounding bound derived in ``heawood_udg.chain``.
"""

from __future__ import annotations

from heawood_udg.geom import distance_squared
from heawood_udg.incidence import HEAWOOD_FLAGS


def full_separation(candidate):
    """Smallest pairwise distance between the 14 vertex positions."""
    ctx = candidate.context()
    labels = list(candidate.coords)
    best = None
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            d2 = distance_squared(candidate.coords[a], candidate.coords[b])
            if best is None or d2 < best:
                best = d2
    return ctx.sqrt(best)


def full_regularity(candidate):
    """The least of the vertex separation and the distances from each
    vertex to the line of each non-incident edge whose perpendicular foot
    lies strictly inside the edge."""
    coords = candidate.coords
    feet = []
    for a, b in HEAWOOD_FLAGS:
        pa, pb = coords[a], coords[b]
        vx, vy = pb.x - pa.x, pb.y - pa.y
        length2 = vx * vx + vy * vy
        for v, p in coords.items():
            wx, wy = p.x - pa.x, p.y - pa.y
            if v not in (a, b) and 0 < wx * vx + wy * vy < length2:
                feet.append((wx * vy - wy * vx) ** 2 / length2)
    separation = full_separation(candidate)
    return min(separation, candidate.context().sqrt(min(feet))) if feet else separation
