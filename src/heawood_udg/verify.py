"""Independent certification of candidate embeddings.

Every check here recomputes distances from the candidate's coordinates
alone, so certification does not depend on how the candidate was produced.
A certificate records the worst unit-distance (flag) residual, the residual
of the collinearity restriction on l4, P4, l5, an exact-arithmetic sign
change of the coordinate polynomial across a tight rational bracket around
x_l4 (as wide as the residual tolerance of the candidate's precision, and
at most 10^-20 wide from 24 digits up), whether the stated branch vector,
angle and closure are those the coordinates give, whether the six pinned
vertices sit exactly on the rectangle of ``chain.FIXED_POSITIONS``, the
regularity margin (no vertex may lie on a non-incident edge), and which
reference table the candidate reproduces.  The margin is a lower bound on
the least distance from a vertex to an edge it is not an end of, computed
in one pass in hardware floats: the least of the vertex separation and the
distances from each vertex to the line of each non-incident edge whose
perpendicular foot floats cannot place outside the edge, each term less
its own bound on rounding; see :func:`regularity_check` for why that
bounds the least distance to the edges.  On every solved row it lies
within 1e-10 relative of the exact margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from mpmath.libmp import from_float, to_rational, to_str

from .chain import FIXED_POSITIONS, UNIT_ROUNDOFF, EmbeddingCandidate, candidate_from_coords, float_points
from .chain import min_vertex_separation
from .charpoly import charpoly_xl4, root_bound, sign_at
from .geom import MIN_DIGITS, context, distance_squared, residual_tol
from .incidence import HEAWOOD_FLAGS
from .refdata import TABLE_VERTICES, reference_tables

MATCH_TOL = "1e-13"  # reference rows are accurate to their 15 printed digits


@dataclass(frozen=True)
class Certificate:
    """Verification record for one candidate embedding.

    ``bracket`` is the exact rational (lo, hi) around x_l4 whose end
    points ``charpoly_bracket_ok`` compares in sign.  ``provenance_ok``
    holds when the row's branch vector is the one its coordinates lie on,
    and its angle and closure are within 10^(4 - precision) of those
    :func:`~heawood_udg.chain.candidate_from_coords` derives from them.
    ``regularity_margin`` is the float lower bound of
    :func:`regularity_check`, printed to 8 digits from the float's exact
    binary value.  ``matched_table`` is the 1-based index of the reference
    table the candidate reproduces coordinate-wise within the matching
    tolerance, or None.
    """

    max_flag_residual: Any
    collinearity_residual: Any
    bracket: tuple
    charpoly_bracket_ok: bool
    provenance_ok: bool
    pinned_ok: bool
    regularity_margin: float
    precision: int
    matched_table: int | None = None

    @property
    def passes(self) -> bool:
        """Every check holds: the flag and collinearity residuals are below
        10^(4 - precision), the tolerance of Newton's polish, x_l4's bracket
        shows a sign change, the provenance agrees with the coordinates,
        the pinned vertices are exact, the margin is positive, and the
        precision is at least ``MIN_DIGITS``."""
        bound = residual_tol(self.precision)
        return (
            self.precision >= MIN_DIGITS
            and self.max_flag_residual < bound
            and self.collinearity_residual < bound
            and self.charpoly_bracket_ok
            and self.provenance_ok
            and self.pinned_ok
            and self.regularity_margin > 0
        )

    def to_json_dict(self) -> dict:
        ctx = context(self.precision)
        return {
            "pass": self.passes,
            "max_flag_residual": ctx.nstr(self.max_flag_residual, 8),
            "collinearity_residual": ctx.nstr(self.collinearity_residual, 8),
            "charpoly_bracket_ok": self.charpoly_bracket_ok,
            "provenance_ok": self.provenance_ok,
            "pinned_ok": self.pinned_ok,
            "regularity_margin": to_str(from_float(self.regularity_margin), 8),
            "precision": self.precision,
            "matched_table": self.matched_table,
        }


def flag_residuals(candidate: EmbeddingCandidate) -> list:
    """|d(P, l)^2 - 1| for each of the 21 flags, as (flag, residual) pairs."""
    out = []
    for flag in HEAWOOD_FLAGS:
        p, ln = flag
        res = abs(distance_squared(candidate.coords[p], candidate.coords[ln]) - 1)
        out.append((flag, res))
    return out


def max_flag_residual(candidate: EmbeddingCandidate):
    return max(res for _, res in flag_residuals(candidate))


def collinearity_residual(candidate: EmbeddingCandidate):
    """Worst residual of the extra restriction: l4, P4, l5 on one line with
    d(l4, l5) = 2 and P4 their midpoint."""
    l4 = candidate.coords["l4"]
    l5 = candidate.coords["l5"]
    p4 = candidate.coords["P4"]
    cross = (l4.x - l5.x) * (p4.y - l5.y) - (l4.y - l5.y) * (p4.x - l5.x)
    spacing = distance_squared(l4, l5) - 4
    mid_x = p4.x - (l4.x + l5.x) / 2
    mid_y = p4.y - (l4.y + l5.y) / 2
    return max(abs(cross), abs(spacing), abs(mid_x), abs(mid_y))


def regularity_check(candidate: EmbeddingCandidate) -> float:
    """A lower bound, in floats, on the minimum distance from any vertex to
    any edge it is not an endpoint of; a positive margin certifies the
    embedding is regular.

    That distance is to the edge's line where the foot of the perpendicular
    lies strictly inside the edge, and to its nearer end otherwise.  Each
    vertex has degree 3, so any two vertices v, w have an edge at w without
    v: the ends add exactly the vertex separation.  A vertex's distance to
    an edge is at least its distance to the edge's line, so every term
    whose foot the float dot product does not place provably outside the
    edge adds its line distance, and the separation adds the ends.  Each
    term is its float value less the rounding bound derived above
    :func:`~heawood_udg.chain.float_points`, and the least is clamped at 0.
    The margin is 0 when the separation is, as it is when
    :func:`~heawood_udg.chain.float_points` gives None, and when an edge's
    float length is below 1/2: that edge fails its flag residual anyway."""
    least = min_vertex_separation(candidate)
    if least == 0:
        return 0.0
    points, scale = float_points(candidate)
    u, outside = UNIT_ROUNDOFF, 64 * UNIT_ROUNDOFF * scale * scale
    for a, b in HEAWOOD_FLAGS:
        pa, pb = points[a], points[b]
        vx, vy = pb.x - pa.x, pb.y - pa.y
        length = math.sqrt(vx * vx + vy * vy)
        if length < 0.5:
            return 0.0
        for v, p in points.items():
            wx, wy = p.x - pa.x, p.y - pa.y
            if v in (a, b) or wx * vx + wy * vy < -outside or (p.x - pb.x) * vx + (p.y - pb.y) * vy > outside:
                continue
            w = math.sqrt(wx * wx + wy * wy)
            line = abs(wx * vy - wy * vx) / length
            least = min(least, line - u * (10 * w + 3 * scale + 6 * scale * w / length))
    return max(0.0, least)


def charpoly_bracket(candidate: EmbeddingCandidate):
    """Exact rational bracket centered at the candidate's x_l4; returns
    (lo, hi, sign_change_ok) for :func:`~heawood_udg.charpoly.charpoly_xl4`.

    The width is max(10^-20, 10^(4 - precision)), as an exact Fraction:
    the residual tolerance :func:`~heawood_udg.geom.residual_tol` of
    Newton's polish and of :attr:`Certificate.passes`, so that it spans
    the last printed digits of x_l4 below 24 digits, and 10^-20 above.
    The center is x_l4 rounded to a multiple of width / 2^64 and clamped to
    [-B - width, B + width], no root lying outside (-B, B) for B the
    :func:`~heawood_udg.charpoly.root_bound`, so the end points stay small.
    """
    poly = charpoly_xl4()
    width = Fraction(10) ** max(-20, 4 - candidate.precision)
    unit, bound = width / 2**64, root_bound(poly) + width
    center = round(Fraction(*to_rational(candidate.coords["l4"].x._mpf_)) / unit) * unit
    center = min(max(center, -bound), bound)
    lo = center - width / 2
    hi = center + width / 2
    ok = sign_at(poly, lo) * sign_at(poly, hi) < 0
    return lo, hi, ok


def match_table(candidate: EmbeddingCandidate, tables: Sequence[dict]) -> int | None:
    """1-based index of the first reference table whose 16 dependent
    coordinates all agree with the candidate within :data:`MATCH_TOL`,
    else None."""
    ctx = candidate.context()
    tol = ctx.mpf(MATCH_TOL)
    for idx, table in enumerate(tables, start=1):
        agrees = True
        for name in TABLE_VERTICES:
            pt = candidate.coords[name]
            tx, ty = table[name]
            if abs(pt.x - ctx.mpf(tx)) >= tol or abs(pt.y - ctx.mpf(ty)) >= tol:
                agrees = False
                break
        if agrees:
            return idx
    return None


def certify(candidate: EmbeddingCandidate) -> Certificate:
    """Assemble the full certificate for a candidate.

    Failing checks yield a non-passing certificate rather than an error.
    The bundled reference tables are matched at :data:`MATCH_TOL`; see
    :mod:`heawood_udg.refdata` for the corrected row 9.
    """
    lo, hi, bracket_ok = charpoly_bracket(candidate)
    derived = candidate_from_coords(candidate.coords, candidate.precision)
    tol = residual_tol(candidate.precision)
    return Certificate(
        max_flag_residual=max_flag_residual(candidate),
        collinearity_residual=collinearity_residual(candidate),
        bracket=(lo, hi),
        charpoly_bracket_ok=bracket_ok,
        provenance_ok=candidate.branch == derived.branch
        and abs(candidate.theta - derived.theta) < tol
        and abs(candidate.closure - derived.closure) < tol,
        pinned_ok=all(tuple(candidate.coords[v]) == xy for v, xy in FIXED_POSITIONS.items()),
        regularity_margin=regularity_check(candidate),
        precision=candidate.precision,
        matched_table=match_table(candidate, reference_tables()),
    )
