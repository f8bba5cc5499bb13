"""Find all real embeddings: sweep, bracket, bisect, Newton-polish, dedupe.

The construction chain makes every dependent vertex an explicit function of
the angle parameter and the branch bits, so root finding is one-dimensional
per branch vector: only the closure residual d(P1, l1)^2 - 1 remains.  The
sweep scans a dense angle grid over all 64 branch vectors in hardware
floats through its one float chain walk, :func:`closure_grid`, and reports
each sign change as a (branch, theta_lo, theta_hi) grid cell.  Each chain
vertex depends on only a few branch bits (``chain.STEP_BITS``), so the 64
walks share their circle steps: 30 array steps per block of the grid serve
all of them, where a walk per branch vector takes 384, and walking them in
an order that keeps the walks sharing a step together holds at most 11 at
once.  Only the span of the grid where the chain can exist is walked,
found once from the centre distances of the steps of P3, P6 and l2.  The
cells are then bisected at 30 digits and polished with Newton's method on
the square 16-equation system in the positions of the eight dependent
vertices, at 30 digits and then at the requested precision.  The Jacobian
is the linearization of the chain, so each Newton step is solved by
walking the chain, not by a general linear solver.

Degenerate zeros are real solutions of the equation set that are not graph
embeddings: configurations where distinct vertices coincide (a constructed
vertex can land exactly on the pinned vertex P2 whenever l4 is at unit
distance from it, and the coincidences cascade down the chain).  The solver
drops those by a minimum vertex-separation check.  Sign changes caused by
the branch discontinuity where l4 meets l7 (concentric construction
circles) are not zeros at all and are rejected during bisection.

All functions here are pure and single-threaded, and only the float
sweep imports numpy, so commands that never sweep do not pay for it.
Bisection dominates the mpf run time, so it is cut short without changing
a bit of its result: an Illinois estimate of the root, on a chain walk in
integer fixed point (:func:`fixed_closure`), names its final cell, and mpf
walks confirm it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Mapping, Sequence

from mpmath.libmp import from_man_exp, mpf_cos_sin, to_fixed

from .chain import (
    CHAIN_STEPS,
    DEPENDENT_VERTICES,
    FIXED_POSITIONS,
    ChainBroken,
    EmbeddingCandidate,
    STEP_BITS,
    all_branch_vectors,
    build_chain,
    candidate_from_coords,
    construct,
    fixed_points,
    min_vertex_separation,
    place_l4,
    step_keys,
)
from .geom import FIXED_BITS, MAX_DIGITS, MIN_DIGITS, Fixed, Point2, context, distance_squared, residual_tol
from .geom import bisect_sign_change, fixed_circle_intersect, illinois_estimate
from .incidence import ALL_VERTICES

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2 * math.pi
BISECTION_DIGITS = 30
# the sweep's time grows with the grid and its memory does not: `solve
# --digits 15` at this grid takes 5-6 s on a 2-core VM and peaks at 34 MB
MAX_GRID_POINTS = 10 ** 7
# grid cells per sweep block: only one block's angles, l4 positions and
# shared circle steps are held at a time, at most 11 of its 30 steps, which
# keeps the sweep's peak memory near that of one chain walk over a block,
# at any grid
SWEEP_BLOCK = 2048
DEDUPE_TOL = "1e-20"
NEWTON_MAX_ITER = 100
# inward steps tried at a bracket end point where the chain breaks
ENDPOINT_STEPS = 8


class LostBracket(Exception):
    """The sign change vanished or refined to a non-zero: a branch boundary
    was crossed or the bracket straddles a discontinuity, not a root."""


class SingularJacobian(Exception):
    """Newton's Jacobian is numerically singular at the iterate."""


class NoConvergence(Exception):
    """Newton failed to reach the residual target within the iteration cap."""


@dataclass(frozen=True)
class SolveConfig:
    """Sweep grid and output precision of :func:`solve_all`.

    Bisection, the separation filter and a first Newton pass always run at
    ``BISECTION_DIGITS``; ``digits``, from ``MIN_DIGITS`` (the precision of
    the reference tables) to ``MAX_DIGITS``, is the precision of the last
    Newton pass and of the output.
    """

    grid_points: int = 20000
    digits: int = 60
    # vertices closer than this mark a degenerate zero, not an embedding
    min_vertex_separation: ClassVar[float] = 1e-6

    def __post_init__(self):
        # the sweep holds one block of the grid at a time and at most 11
        # of its circle steps, a tracemalloc peak of 0.72-0.76 MB at 10^5
        # and at 10^6 points, so the grid's bound is set by time (see
        # MAX_GRID_POINTS), not memory
        if not 1000 <= self.grid_points <= MAX_GRID_POINTS:
            raise ValueError(
                f"grid_points must be between 1000 and {MAX_GRID_POINTS}, got {self.grid_points}"
            )
        if self.digits < MIN_DIGITS:
            raise ValueError(f"digits must be >= {MIN_DIGITS}, got {self.digits}")
        if self.digits > MAX_DIGITS:
            raise ValueError(f"digits must be <= {MAX_DIGITS}, got {self.digits}")


# ---------------------------------------------------------------------------
# Vectorized sweep (hardware floats; signs only)

_FIXED_F = {v: Point2(float(x), float(y)) for v, (x, y) in FIXED_POSITIONS.items()}


def _cci_grid(c1: Point2, c2: Point2, bit: int) -> Point2:
    # unit-circle intersection, NaN where the circles miss
    import numpy as np

    dx = c2.x - c1.x
    dy = c2.y - c1.y
    d2 = dx * dx + dy * dy
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.sqrt(d2)
        h2 = 1.0 - d2 / 4.0
        h = np.sqrt(np.where(h2 >= 0.0, h2, np.nan))
        ux = dx / d
        uy = dy / d
        mx = c1.x + 0.5 * d * ux
        my = c1.y + 0.5 * d * uy
        if bit == 0:
            return Point2(mx - h * uy, my + h * ux)
        return Point2(mx + h * uy, my - h * ux)


def closure_grid(l4: Point2, branch: str, memo: dict) -> np.ndarray:
    """Closure residual of one branch vector at float64 arrays of l4
    positions (:func:`chain.place_l4`), the sweep's one float chain walk.

    It is the walk of :func:`chain.construct` with a circle step that
    returns NaN where the circles miss instead of raising, so NaN marks
    positions where the chain breaks.  Walks of the same positions share
    their circle steps through ``memo``, keyed by :func:`chain.step_keys`:
    :func:`sweep` passes one per block of its live span and drops each
    step after its last walk, and a fresh ``{}`` walks one branch vector
    alone.
    Tests cross-check it pointwise against :func:`chain.build_chain`.
    """
    return construct(l4, branch, _FIXED_F, _cci_grid, memo)[1]


def _walk_order() -> tuple:
    """The 64 branch vectors in the order :func:`sweep` walks a block, each
    with the keys of the circle steps that no later walk uses.

    A bit that more steps' memo entries are keyed on varies more slowly
    (``STEP_BITS``): bit 1 (P6, l6 and P1, 2 + 4 + 16 entries) slowest,
    then 4 (l6 and P1), 2 and 5, and the bits of l1, 0 and 3, on which P1
    does not depend, fastest.  The walks that share a step of P6, l6 or P1
    are then consecutive, and with each step dropped after its last walk
    at most 11 of a block's 30 steps are held at once, the least over all
    720 orders of the bits; binary order holds 27.
    """
    entries = [sum(2 ** len(bits) for bits in STEP_BITS if bit in bits) for bit in range(len(STEP_BITS))]
    slowest_first = sorted(range(len(STEP_BITS)), key=lambda bit: -entries[bit])
    order = sorted(all_branch_vectors(), key=lambda branch: [branch[bit] for bit in slowest_first])
    last = {key: i for i, branch in enumerate(order) for key in step_keys(branch)}
    return tuple((branch, tuple(key for key in step_keys(branch) if last[key] == i)) for i, branch in enumerate(order))


# the sweep's walks of a block and the steps each is the last to use
SWEEP_WALKS = _walk_order()


def _angles(n: int, start: int, stop: int) -> np.ndarray:
    """The angles of points ``start`` to ``stop`` - 1 of the ``n``-point
    grid over [0, 2 pi): k · (2 pi / n), the product that
    ``np.linspace(0, TWO_PI, n, endpoint=False)`` forms, so each equals its
    value there bit for bit and no array need span the grid."""
    import numpy as np

    return np.arange(start, stop) * (TWO_PI / n)


def _live_cells(n: int) -> range:
    """The cells from the first to the last point of the ``n``-point grid
    where P3, P6 and l2 all exist, as the range of their first points.
    Those steps' circles meet where their centres, pinned or l4 and P4, are
    at most 2 apart, and the test 1 - d²/4 >= 0 of ``_cci_grid`` holds
    exactly when d² <= 4.  Every closure depends on the three, so outside
    the span it is NaN for every branch vector.  The test places l4 and
    runs ``SWEEP_BLOCK`` points at a time, so it holds one block's arrays.
    """
    import numpy as np

    first = last = None
    for start in range(0, n, SWEEP_BLOCK):
        l4 = place_l4(np, _angles(n, start, min(start + SWEEP_BLOCK, n)))
        coords = dict(_FIXED_F, l4=l4, P4=Point2((l4.x + 1) / 2, l4.y / 2))
        live = np.ones(len(l4.x), dtype=bool)
        for _, ca, cb in CHAIN_STEPS:
            if ca in coords and cb in coords:
                live &= distance_squared(coords[cb], coords[ca]) <= 4
        ends = np.flatnonzero(live)
        if len(ends):
            first = start + int(ends[0]) if first is None else first
            last = start + int(ends[-1])
    return range(0) if first is None else range(first, last)


def sweep(config: SolveConfig) -> list:
    """Every same-branch sign change of the closure residual, as
    (branch, theta_lo, theta_hi) grid cells.

    Scans ``grid_points`` angles over [0, 2 pi) for each of the 64 branch
    vectors; grid cells where the chain breaks are skipped.  Cells come
    branch by branch, each branch's in order of angle.

    Only the span from the first to the last point where P3, P6 and l2
    exist is walked (:func:`_live_cells`), about theta in [1.147, 5 pi / 6]
    for every grid; it never reaches the ends of the grid, so there is no
    wrap-around cell from the last angle to 2 pi.  The span is walked in
    blocks of ``SWEEP_BLOCK`` cells from its first point, and each block
    places its own angles (:func:`_angles`) and l4 positions.  In each
    block the 64 :func:`closure_grid` walks share one memo, so each circle
    step is computed once per value of the branch bits it depends on: 30
    steps, not 384.  The walks run in the order of ``SWEEP_WALKS``, and
    each step leaves the memo after the last walk that uses it, so at most
    11 of the 30 are held at once.  A block's arrays are released before
    the next block's are computed, so the sweep's memory does not grow
    with the grid.
    """
    import numpy as np

    n = config.grid_points
    found: dict = {branch: [] for branch in all_branch_vectors()}
    cells = _live_cells(n)
    for start in cells[::SWEEP_BLOCK]:
        # the block's cells and the point that ends its last cell
        thetas = _angles(n, start, min(start + SWEEP_BLOCK, cells.stop) + 1)
        block = place_l4(np, thetas)
        memo: dict = {}
        for branch, done in SWEEP_WALKS:
            res = closure_grid(block, branch, memo)
            for key in done:
                memo.pop(key, None)  # a walk that broke early set no later step
            lo, hi = res[:-1], res[1:]
            with np.errstate(invalid="ignore"):
                hits = np.isfinite(lo) & np.isfinite(hi) & (lo * hi < 0)
            found[branch].extend((branch, float(thetas[i]), float(thetas[i + 1])) for i in np.flatnonzero(hits))
    return [cell for out in found.values() for cell in out]


# ---------------------------------------------------------------------------
# High-precision refinement


# the pinned rectangle in fixed point
_FIXED_FX = {v: Point2(Fixed(x << FIXED_BITS), Fixed(y << FIXED_BITS)) for v, (x, y) in FIXED_POSITIONS.items()}


def fixed_closure(theta, branch: str):
    """The closure residual of ``branch`` at the mpf angle ``theta``,
    walked by :func:`chain.construct` in :class:`geom.Fixed` numbers and
    returned as an mpf of ``theta``'s context.

    l4 is placed from cos and sin rounded to ``FIXED_BITS`` fraction bits.
    Raises :class:`ChainBroken` when a step's circles miss or touch.
    """
    cos, sin = mpf_cos_sin(theta._mpf_, FIXED_BITS + 8)
    # 2 cos and 2 sin at FIXED_BITS fraction bits
    l4 = Point2(Fixed((1 << FIXED_BITS) + to_fixed(cos, FIXED_BITS + 1)), Fixed(to_fixed(sin, FIXED_BITS + 1)))
    closure = construct(l4, branch, _FIXED_FX, fixed_circle_intersect)[1]
    ctx = theta.context
    return ctx.make_mpf(from_man_exp(closure.man, -FIXED_BITS, ctx.prec, "n"))


def refine_bracket(branch: str, theta_lo, theta_hi) -> EmbeddingCandidate:
    """Bisect the sign change of ``branch``'s closure between the angles
    ``theta_lo`` and ``theta_hi`` (a cell of :func:`sweep`, floats or mpf) at
    ``BISECTION_DIGITS`` = d working precision down to an angle interval
    below 10^(-d/2) and return the chain at its midpoint.

    An Illinois estimate of the root names the bisection's final cell,
    which two chain evaluations confirm; without an estimate,
    or when they do not confirm it, every midpoint is evaluated.  The
    estimate walks the chain in fixed point (:func:`fixed_closure`), at
    least as accurately as the mpf walk, so a bracket that reaches it takes
    five mpf walks: its two end points, the two that confirm the cell, and
    the midpoint returned.  When a fixed step cannot be decided there is no
    estimate.  The end points, the confirming signs and the returned chain
    are mpf, so the result is always the bisection's.

    Raises :class:`LostBracket` when the sign change is not backed by an
    actual zero: the endpoints agree in sign at working precision, the
    chain breaks during bisection or at an end point and ``ENDPOINT_STEPS``
    points stepped inward from it (by 1/1024 of the bracket, doubling), or
    the refined midpoint's closure residual stays above 10^(-d/2) (a
    jump of the branch structure, not a root).
    """
    ctx = context(BISECTION_DIGITS)

    def closure_at(theta):
        return build_chain(theta, branch, BISECTION_DIGITS).closure

    def end_point(theta, step):
        # a grid point can land where the chain breaks (at 5 pi / 6 P6's
        # circles are tangent) while the root lies well inside the cell
        for _ in range(ENDPOINT_STEPS):
            try:
                return theta, closure_at(theta)
            except ChainBroken as exc:
                broken = exc
            theta, step = theta + step, 2 * step
        raise LostBracket(f"chain breaks at a bracket endpoint: {broken}") from broken

    lo = ctx.mpf(theta_lo)
    hi = ctx.mpf(theta_hi)
    step = (hi - lo) / 1024
    lo, f_lo = end_point(lo, step)
    hi, f_hi = end_point(hi, -step)
    if f_lo == 0:
        return build_chain(lo, branch, BISECTION_DIGITS)
    if f_hi == 0:
        return build_chain(hi, branch, BISECTION_DIGITS)
    if (f_lo < 0) == (f_hi < 0):
        raise LostBracket("no sign change at working precision")

    # extra factor 100 of interval width keeps the midpoint residual under
    # the 10^(-d/2) bound even for steep crossings
    width_target = ctx.mpf(10) ** (-(BISECTION_DIGITS // 2) - 2)
    residual_bound = ctx.mpf(10) ** -(BISECTION_DIGITS // 2)
    estimate = illinois_estimate(lambda theta: fixed_closure(theta, branch), lo, hi, f_lo, f_hi, width_target / 1000)
    try:
        lo, hi = bisect_sign_change(closure_at, lo, hi, f_lo, width_target, estimate=estimate)
    except ChainBroken as exc:
        raise LostBracket(f"chain breaks inside the bracket: {exc}") from exc
    candidate = build_chain((lo + hi) / 2, branch, BISECTION_DIGITS)
    if abs(candidate.closure) >= residual_bound:
        raise LostBracket(
            f"refined midpoint residual {ctx.nstr(candidate.closure, 6)} "
            "is not a zero; the bracket straddles a discontinuity"
        )
    return candidate


# ---------------------------------------------------------------------------
# Newton polish on the square 16-equation system

# (vertex, centre) of each unit-circle equation: the chain's circle rows in
# construction order, then the closure row
_CIRCLE_PAIRS = tuple((vertex, center) for vertex, ca, cb in CHAIN_STEPS for center in (ca, cb)) + (("P1", "l1"),)


def system_residuals(pos: Mapping) -> list:
    """The 16 equations: spacing, the two midpoint relations, and the 13
    unit-circle constraints, evaluated at the vertex positions ``pos``."""
    l4 = pos["l4"]
    p4 = pos["P4"]
    out = [
        (l4.x - 1) ** 2 + l4.y ** 2 - 4,
        p4.x - (l4.x + 1) / 2,
        p4.y - l4.y / 2,
    ]
    for vertex, center in _CIRCLE_PAIRS:
        out.append(distance_squared(pos[vertex], pos[center]) - 1)
    return out


def _dot(u: Point2, v: Point2):
    return u.x * v.x + u.y * v.y


def _norm1(u: Point2):
    return abs(u.x) + abs(u.y)


def _gradient(u: Point2, v: Point2) -> Point2:
    """The gradient of |u - v|² with respect to u."""
    return Point2(2 * (u.x - v.x), 2 * (u.y - v.y))


def _chain_step(pos: Mapping, residuals: Sequence) -> dict:
    """Newton's step: solve J·δ = −``residuals`` for the Jacobian J of
    :func:`system_residuals` at the positions ``pos`` by walking the
    construction chain.  Returns each dependent vertex's move as a
    :class:`Point2`.

    J is block lower-triangular in construction order except for the
    spacing row and the closure row.  The spacing row leaves l4 one free
    direction: l4 moves by p + t·n, where p = −r·g/|g|² satisfies the row
    with gradient g and n = (−g_y, g_x) leaves it unchanged.  P4 follows
    from the midpoint rows and each chain vertex from a 2×2 Cramer solve of
    its two circle rows, given how its centres move; this is carried once
    for p, with the residuals, and once for n, homogeneous.  The closure
    row then fixes t.

    Raises ZeroDivisionError when a vertex's determinant, or the closure
    row's coefficient of t, is at most ``eps`` of the positions' precision
    times the product of the 1-norms of the two vectors it is formed from.
    """
    l4 = pos["l4"]
    eps = l4.x.context.eps
    rows = iter(residuals)
    g = Point2(2 * (l4.x - 1), 2 * l4.y)
    s = -next(rows) / _dot(g, g)
    # how each vertex moves along p and along n; pinned vertices stay put
    p = dict.fromkeys(FIXED_POSITIONS, Point2(0, 0))
    n = dict(p)
    p["l4"] = Point2(s * g.x, s * g.y)
    n["l4"] = Point2(-g.y, g.x)
    p["P4"] = Point2(p["l4"].x / 2 - next(rows), p["l4"].y / 2 - next(rows))
    n["P4"] = Point2(n["l4"].x / 2, n["l4"].y / 2)
    for vertex, ca, cb in CHAIN_STEPS:
        a = _gradient(pos[vertex], pos[ca])
        b = _gradient(pos[vertex], pos[cb])
        det = a.x * b.y - a.y * b.x
        if abs(det) <= eps * _norm1(a) * _norm1(b):
            raise ZeroDivisionError(f"the circle rows of {vertex} are parallel")
        r_a, r_b = next(rows), next(rows)
        for move, f_a, f_b in ((p, -r_a, -r_b), (n, 0, 0)):
            # a·(dq − d(ca)) = f_a and b·(dq − d(cb)) = f_b
            e_a = f_a + _dot(a, move[ca])
            e_b = f_b + _dot(b, move[cb])
            move[vertex] = Point2((e_a * b.y - e_b * a.y) / det, (a.x * e_b - b.x * e_a) / det)
    c = _gradient(pos["P1"], pos["l1"])
    dn = Point2(n["P1"].x - n["l1"].x, n["P1"].y - n["l1"].y)
    coef = _dot(c, dn)
    if abs(coef) <= eps * _norm1(c) * _norm1(dn):
        raise ZeroDivisionError("the closure row does not fix the free direction")
    t = (-next(rows) - _dot(c, Point2(p["P1"].x - p["l1"].x, p["P1"].y - p["l1"].y))) / coef
    return {v: Point2(p[v].x + t * n[v].x, p[v].y + t * n[v].y) for v in DEPENDENT_VERTICES}


def newton_polish(
    candidate: EmbeddingCandidate, digits: int, trace: list | None = None
) -> EmbeddingCandidate:
    """Newton's method at ``digits`` precision on the 16-equation system,
    in the positions of the eight dependent vertices.

    Starts from the pinned rectangle and the candidate's dependent
    vertices rounded to ``digits``, and iterates until the maximum
    equation residual drops below 10^(4 - digits); a seed already that
    close is only rounded.  Expects a seed near a solution (closure
    residual well below 1e-10).  When ``trace`` is a list, the largest
    coordinate move of each Newton step is appended to it, giving the
    quadratic convergence record.

    Each step is solved along the construction chain by ``_chain_step``.
    Raises :class:`SingularJacobian` when that walk finds the Jacobian
    numerically singular (a vertex whose two circle rows are parallel, or
    a closure row that does not fix l4's free direction, to within the
    epsilon of ``digits`` precision) and :class:`NoConvergence` when the
    residual target is not met within ``NEWTON_MAX_ITER`` iterations.
    """
    ctx = context(digits)
    pos = fixed_points(ctx)
    for v in DEPENDENT_VERTICES:
        pos[v] = Point2(ctx.mpf(candidate.coords[v].x), ctx.mpf(candidate.coords[v].y))
    target = residual_tol(digits)

    for _ in range(NEWTON_MAX_ITER):
        residuals = system_residuals(pos)
        if max(abs(r) for r in residuals) < target:
            break
        try:
            step = _chain_step(pos, residuals)
        except ZeroDivisionError as exc:
            raise SingularJacobian(f"Jacobian is numerically singular: {exc}") from exc
        if trace is not None:
            trace.append(max(max(abs(d.x), abs(d.y)) for d in step.values()))
        for v, d in step.items():
            pos[v] = Point2(pos[v].x + d.x, pos[v].y + d.y)
    else:
        raise NoConvergence(f"no convergence after {NEWTON_MAX_ITER} Newton iterations")
    return candidate_from_coords(pos, digits)


# ---------------------------------------------------------------------------
# Assembly


def dedupe_candidates(candidates: Sequence[EmbeddingCandidate]) -> list:
    """Drop candidates whose 28 coordinates all agree with an earlier one
    within ``DEDUPE_TOL`` (distinct branch vectors can describe one point)."""
    kept: list = []
    for cand in candidates:
        tol = cand.context().mpf(DEDUPE_TOL)
        duplicate = False
        for other in kept:
            if all(
                abs(cand.coords[v].x - other.coords[v].x) < tol
                and abs(cand.coords[v].y - other.coords[v].y) < tol
                for v in ALL_VERTICES
            ):
                duplicate = True
                break
        if not duplicate:
            kept.append(cand)
    return kept


def solve_all(config: SolveConfig) -> list:
    """All real embeddings at ``config.digits``, sorted by the coordinates
    of l4; expected cardinality is eleven.

    Pipeline: float sweep -> bisection refinement at ``BISECTION_DIGITS``
    -> degeneracy filter -> Newton polish at ``BISECTION_DIGITS`` and then
    at ``config.digits`` -> coordinate-wise dedupe -> sort.  Below
    ``BISECTION_DIGITS`` the second Newton pass takes no step; it only
    rounds the 30-digit solution.
    """
    polished = []
    for bracket in sweep(config):
        try:
            cand = refine_bracket(*bracket)
        except LostBracket:
            continue
        if min_vertex_separation(cand) < config.min_vertex_separation:
            continue  # coincident vertices: a degenerate zero, not an embedding
        for digits in (BISECTION_DIGITS, config.digits):
            cand = newton_polish(cand, digits)
        polished.append(cand)

    unique = dedupe_candidates(polished)
    unique.sort(key=lambda c: (c.coords["l4"].x, c.coords["l4"].y))
    return unique
