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
reference table the candidate reproduces.  The margin is the least of the
vertex separation and the distances from each vertex to the line of each
non-incident edge whose perpendicular foot lies strictly inside the edge;
see :func:`regularity_check` for why that is the least distance to the
edges.  Hardware floats choose which terms of those two scans are
evaluated in mpf: the ones near the float minimum, and the ones whose
inside test floats cannot decide.  The term of least mpf value is always
among them, so the margin is the mpf number that the scan over every term
gives, and each printed byte is the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from mpmath.libmp import to_rational

from .chain import FIXED_POSITIONS, SCREEN_SLACK, EmbeddingCandidate, candidate_from_coords, float_screen
from .chain import min_vertex_separation, near_minimum
from .charpoly import charpoly_xl4, root_bound, sign_at
from .geom import MIN_DIGITS, Point2, context, distance_squared, residual_tol
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
    ``matched_table`` is the 1-based index of the reference table the
    candidate reproduces coordinate-wise within the matching tolerance, or
    None.
    """

    max_flag_residual: Any
    collinearity_residual: Any
    bracket: tuple
    charpoly_bracket_ok: bool
    provenance_ok: bool
    pinned_ok: bool
    regularity_margin: Any
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
            "regularity_margin": ctx.nstr(self.regularity_margin, 8),
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


def _foot(p: Point2, a: Point2, b: Point2) -> tuple:
    """(dot, length^2, cross) of the vertex ``p`` against the edge from
    ``a`` to ``b``: the foot of the perpendicular lies strictly inside the
    edge when 0 < dot < length^2, at distance^2 cross^2 / length^2."""
    vx, vy = b.x - a.x, b.y - a.y
    wx, wy = p.x - a.x, p.y - a.y
    return wx * vx + wy * vy, vx * vx + vy * vy, wx * vy - wy * vx


def _screened_feet(candidate: EmbeddingCandidate) -> list:
    """The (vertex, edge end, edge end) terms of :func:`regularity_check`
    that may hold its least foot distance, chosen in floats.

    This applies under :func:`~heawood_udg.chain.float_screen`, when every
    edge's float squared length lies in [1/4, 4]; otherwise every term is
    kept.  A term whose float dot misses (0, length^2) by more than
    ``SCREEN_SLACK`` goes.  One inside by more than that is inside in mpf
    too, and the least float foot distance among those sets the cut of
    :func:`~heawood_udg.chain.near_minimum`, which every other term is held
    to: a term left undecided by its float dot has an accurate float foot
    distance all the same.  When no term is clearly inside, the cut is
    infinite and every undecided term is kept.
    """
    coords = candidate.coords
    flt = float_screen(candidate)
    if flt is None or not all(0.25 <= distance_squared(flt[a], flt[b]) <= 4 for a, b in HEAWOOD_FLAGS):
        return [(v, a, b) for a, b in HEAWOOD_FLAGS for v in coords if v not in (a, b)]
    terms, feet, least = [], [], math.inf
    for a, b in HEAWOOD_FLAGS:
        for v in coords:
            if v in (a, b):
                continue
            dot, length2, cross = _foot(flt[v], flt[a], flt[b])
            if -SCREEN_SLACK < dot < length2 + SCREEN_SLACK:
                foot = cross * cross / length2
                terms.append((v, a, b))
                feet.append(foot)
                if SCREEN_SLACK < dot < length2 - SCREEN_SLACK:
                    least = min(least, foot)
    return near_minimum(terms, feet, least)


def regularity_check(candidate: EmbeddingCandidate):
    """Minimum distance from any vertex to any edge it is not an endpoint
    of; a positive margin certifies the embedding is regular.

    That distance is to the edge's line where the foot of the perpendicular
    lies strictly inside the edge, and to its nearer end otherwise.  Each
    vertex has degree 3, so any two vertices v, w have an edge at w without
    v: the ends add exactly the vertex separation, which also gives an edge
    with coincident ends the margin 0.  Squared foot distances are compared
    and only the least is rooted, mpmath's square root being monotone.

    Floats choose which of the 252 (vertex, edge) terms are evaluated in
    mpf (:func:`_screened_feet`), as they choose the vertex pairs of
    :func:`~heawood_udg.chain.min_vertex_separation`: the term of least
    mpf foot distance is always among them, so the margin is the same mpf
    number as that of the scan over every term."""
    coords = candidate.coords
    feet = []
    for v, a, b in _screened_feet(candidate):
        dot, length2, cross = _foot(coords[v], coords[a], coords[b])
        if 0 < dot < length2:
            feet.append(cross ** 2 / length2)
    separation = min_vertex_separation(candidate)
    return min(separation, candidate.context().sqrt(min(feet))) if feet else separation


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
