"""Find all real embeddings: sweep, bracket, bisect, Newton-polish, dedupe.

The construction chain makes every dependent vertex an explicit function of
the angle parameter and the branch bits, so root finding is one-dimensional
per branch vector: only the closure residual d(P1, l1)^2 - 1 remains.  The
sweep scans a dense angle grid over all 64 branch vectors in hardware
floats, bracketing sign changes; brackets are then bisected at working
precision and polished with Newton's method on the square 16-variable
system using the analytic Jacobian.

Degenerate zeros are real solutions of the equation set that are not graph
embeddings: configurations where distinct vertices coincide (a constructed
vertex can land exactly on the pinned vertex P2 whenever l4 is at unit
distance from it, and the coincidences cascade down the chain).  The solver
drops those by a minimum vertex-separation check.  Sign changes caused by
the branch discontinuity where l4 meets l7 (concentric construction
circles) are not zeros at all and are rejected during bisection.

The sweep domain (branch vector x angle subinterval) is embarrassingly
parallel and all functions here are pure; the implementation is
single-threaded.  Bisection and Newton dominate the run time, so each is
cut short without changing a bit of its result: an Illinois-secant
estimate of the root lets the bisection skip to its final cell, and the
Newton step's linear solve skips the structural zeros of the sparse
Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np
from mpmath.ctx_mp import MPContext

from .chain import (
    CHAIN_STEPS,
    DEPENDENT_VERTICES,
    FIXED_POSITIONS,
    L1,
    L4,
    P1,
    P4,
    BranchVector,
    ChainBroken,
    EmbeddingCandidate,
    all_branch_vectors,
    build_chain,
    candidate_from_coords,
    construct,
    fixed_points,
    place_l4,
)
from .geom import Point2, RealContext, _mp_context, bisect_sign_change, distance_squared
from .incidence import ALL_VERTICES

TWO_PI = 2 * math.pi
BISECTION_DIGITS = 30
MIN_DIGITS = 15
MAX_GRID_POINTS = 10 ** 7
DEDUPE_TOL = "1e-20"
NEWTON_MAX_ITER = 100
SECANT_MAX_STEPS = 12


class SolverError(Exception):
    pass


class LostBracket(SolverError):
    """The sign change vanished or refined to a non-zero: a branch boundary
    was crossed or the bracket straddles a discontinuity, not a root."""


class SingularJacobian(SolverError):
    """Newton's Jacobian is numerically singular at the iterate."""


class NoConvergence(SolverError):
    """Newton failed to reach the residual target within the iteration cap."""


@dataclass(frozen=True)
class Bracket:
    """A same-branch grid interval whose closure residual changes sign."""

    branch: BranchVector
    theta_lo: float
    theta_hi: float
    residual_lo: float
    residual_hi: float

    def __post_init__(self):
        if not self.residual_lo * self.residual_hi < 0:
            raise ValueError("bracket endpoints must have strictly opposite signs")


@dataclass(frozen=True)
class SolveConfig:
    grid_points: int = 20000
    digits: int = 60
    # vertices closer than this mark a degenerate zero, not an embedding
    min_vertex_separation: ClassVar[float] = 1e-6

    def __post_init__(self):
        # the sweep holds about 250 bytes per grid point
        if not 1000 <= self.grid_points <= MAX_GRID_POINTS:
            raise ValueError(
                f"grid_points must be between 1000 and {MAX_GRID_POINTS}, got {self.grid_points}"
            )
        # below about 7 digits degenerate zeros pass the separation filter;
        # 15 is the precision of the reference tables
        if self.digits < MIN_DIGITS:
            raise ValueError(f"digits must be >= {MIN_DIGITS}, got {self.digits}")

    @property
    def precision_stages(self) -> tuple:
        """Bisection and a first Newton pass at 30 digits, then Newton at
        ``digits``; a single stage when ``digits`` is 30 or fewer."""
        return (BISECTION_DIGITS, self.digits) if self.digits > BISECTION_DIGITS else (self.digits,)


# ---------------------------------------------------------------------------
# Vectorized sweep (hardware floats; signs only)

_FIXED_F = {v: Point2(float(x), float(y)) for v, (x, y) in FIXED_POSITIONS.items()}


def _cci_grid(c1: Point2, c2: Point2, bit: int) -> Point2:
    # unit-circle intersection, NaN where the circles miss
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


def closure_grid(thetas: np.ndarray, branch: BranchVector) -> np.ndarray:
    """Closure residual on an angle grid for one branch vector (float64).

    The sweep's fast path: the chain walk of :func:`chain.construct` on
    float64 arrays, with a circle step that returns NaN where the circles
    miss instead of raising, so NaN marks angles where the chain breaks.
    Tests cross-check it pointwise against :func:`chain.build_chain`.
    """
    thetas = np.asarray(thetas, dtype=float)
    _, closure = construct(place_l4(np, thetas), branch, _FIXED_F, _cci_grid)
    return closure


def sweep(config: SolveConfig | None = None) -> list:
    """Bracket every same-branch sign change of the closure residual.

    Scans ``grid_points`` angles over [0, 2 pi) for each of the 64 branch
    vectors, the wrap-around pair included; grid cells where the chain
    breaks are skipped.
    """
    config = config or SolveConfig()
    n = config.grid_points
    thetas = np.linspace(0.0, TWO_PI, n, endpoint=False)
    # upper end of each grid cell; the last cell wraps around to 2 pi
    upper = np.append(thetas[1:], TWO_PI)
    brackets = []
    for branch in all_branch_vectors():
        res = closure_grid(thetas, branch)
        nxt = np.roll(res, -1)
        with np.errstate(invalid="ignore"):
            hits = np.isfinite(res) & np.isfinite(nxt) & (res * nxt < 0)
        brackets.extend(
            Bracket(branch, float(thetas[i]), float(upper[i]), float(res[i]), float(nxt[i]))
            for i in np.flatnonzero(hits)
        )
    return brackets


# ---------------------------------------------------------------------------
# High-precision refinement


def _secant_estimate(closure_at, lo, hi, f_lo, f_hi, tol):
    """Estimate the root in ``[lo, hi]`` by Illinois-modified regula falsi
    (Dowell & Jarratt, BIT 1971), stopping once the sign change is narrowed
    below ``tol`` or a step falls below the working precision.  None when
    a step leaves the bracket, the chain breaks, or ``SECANT_MAX_STEPS``
    steps do not converge."""
    a, fa, b, fb = lo, f_lo, hi, f_hi
    side = 0
    for _ in range(SECANT_MAX_STEPS):
        x = b - fb * (b - a) / (fb - fa)
        if not a <= x <= b:
            return None
        if x == a or x == b:
            return x  # the step is below the working precision
        try:
            fx = closure_at(x)
        except ChainBroken:
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


def refine_bracket(bracket: Bracket, digits: int) -> EmbeddingCandidate:
    """Bisect the bracket at ``digits`` working precision down to an angle
    interval below 10^(-digits/2) and return the chain at its midpoint.

    An Illinois-secant estimate of the root lets the bisection skip to its
    final cell, which two chain evaluations confirm; without an estimate,
    or when they do not confirm it, every midpoint is evaluated.

    Raises :class:`LostBracket` when the sign change is not backed by an
    actual zero: the endpoints agree in sign at working precision, the
    chain breaks during bisection, or the refined midpoint's closure
    residual stays above 10^(-digits/2) (a jump of the branch structure,
    not a root).
    """
    ctx = RealContext(digits)

    def closure_at(theta):
        return build_chain(theta, bracket.branch, digits).closure

    lo = ctx.mpf(bracket.theta_lo)
    hi = ctx.mpf(bracket.theta_hi)
    try:
        f_lo = closure_at(lo)
        f_hi = closure_at(hi)
    except ChainBroken as exc:
        raise LostBracket(f"chain breaks at a bracket endpoint: {exc}") from exc
    if f_lo == 0:
        return build_chain(lo, bracket.branch, digits)
    if f_hi == 0:
        return build_chain(hi, bracket.branch, digits)
    if (f_lo < 0) == (f_hi < 0):
        raise LostBracket("no sign change at working precision")

    # extra factor 100 of interval width keeps the midpoint residual under
    # the 10^(-digits/2) bound even for steep crossings
    width_target = ctx.pow10(-(digits // 2) - 2)
    residual_bound = ctx.pow10(-(digits // 2))
    estimate = _secant_estimate(closure_at, lo, hi, f_lo, f_hi, width_target / 1000)
    try:
        lo, hi = bisect_sign_change(closure_at, lo, hi, f_lo, width_target, estimate=estimate)
    except ChainBroken as exc:
        raise LostBracket(f"chain breaks inside the bracket: {exc}") from exc
    candidate = build_chain((lo + hi) / 2, bracket.branch, digits)
    if abs(candidate.closure) >= residual_bound:
        raise LostBracket(
            f"refined midpoint residual {ctx.nstr(candidate.closure, 6)} "
            "is not a zero; the bracket straddles a discontinuity"
        )
    return candidate


# ---------------------------------------------------------------------------
# Newton polish on the square 16-variable system

# unknowns in construction order, x before y
VARIABLE_ORDER = tuple((v, axis) for v in DEPENDENT_VERTICES for axis in (0, 1))


def _positions(ctx: RealContext, vec) -> dict:
    pos = fixed_points(ctx)
    for k in range(0, len(vec), 2):
        pos[VARIABLE_ORDER[k][0]] = Point2(vec[k], vec[k + 1])
    return pos


def _unit_circle_pairs():
    pairs = [(vertex, center) for vertex, ca, cb in CHAIN_STEPS for center in (ca, cb)]
    pairs.append((P1, L1))
    return pairs


_CIRCLE_PAIRS = _unit_circle_pairs()
_VAR_INDEX = {va: k for k, va in enumerate(VARIABLE_ORDER)}


def system_residuals(ctx: RealContext, vec: Sequence) -> list:
    """The 16 equations: spacing, the two midpoint relations, and the 13
    unit-circle constraints, evaluated at the 16-vector of unknowns."""
    pos = _positions(ctx, vec)
    l4 = pos[L4]
    p4 = pos[P4]
    out = [
        (l4.x - 1) ** 2 + l4.y ** 2 - 4,
        p4.x - (l4.x + 1) / 2,
        p4.y - l4.y / 2,
    ]
    for vertex, center in _CIRCLE_PAIRS:
        out.append(distance_squared(pos[vertex], pos[center]) - 1)
    return out


def system_jacobian(ctx: RealContext, vec: Sequence) -> list:
    """Analytic Jacobian of :func:`system_residuals`: 16 sparse rows, each
    a ``{column: value}`` dict holding its non-zero entries (at most 4)."""
    pos = _positions(ctx, vec)
    l4 = pos[L4]
    half = ctx.mpf(1) / 2
    one = ctx.mpf(1)
    rows = [
        {_VAR_INDEX[(L4, 0)]: 2 * (l4.x - 1), _VAR_INDEX[(L4, 1)]: 2 * l4.y},
        {_VAR_INDEX[(P4, 0)]: one, _VAR_INDEX[(L4, 0)]: -half},
        {_VAR_INDEX[(P4, 1)]: one, _VAR_INDEX[(L4, 1)]: -half},
    ]
    for vertex, center in _CIRCLE_PAIRS:
        dx = 2 * (pos[vertex].x - pos[center].x)
        dy = 2 * (pos[vertex].y - pos[center].y)
        row = {_VAR_INDEX[(vertex, 0)]: dx, _VAR_INDEX[(vertex, 1)]: dy}
        if (center, 0) in _VAR_INDEX:
            row[_VAR_INDEX[(center, 0)]] = -dx
            row[_VAR_INDEX[(center, 1)]] = -dy
        rows.append(row)
    return rows


# mpmath's lu_solve works at 10 bits above the caller's precision
_LU_GUARD_BITS = 10
_SINGULAR = "matrix is numerically singular"


def _lu_solve(rows: Sequence, rhs: Sequence, mp: MPContext) -> list:
    """Solve the sparse system ``rows`` · x = ``rhs`` bit for bit as
    mpmath 1.3.0's ``mp.lu_solve`` does.

    The operations of mpmath's ``LU_decomp``, ``L_solve`` and ``U_solve``
    run one at a time at ``prec + 10`` bits, in the shared context of that
    precision, in the same order, with the same pivot rule (largest
    |A[k, j]| / row sum, first one wins) and the same singularity tolerance
    (1-norm times epsilon).  Only products with
    a structurally zero factor are skipped: x - 0*y is exact, and exact
    sums ignore zero terms.  ``rows`` holds one ``{column: value}`` dict
    per row.  Returns x as mpf values of ``mp`` that keep the guard bits,
    as mpmath's do.

    Raises ZeroDivisionError where mpmath does, and also when a column has
    no non-zero entry on or below the diagonal, where mpmath fails with a
    TypeError instead.
    """
    work = _mp_context(mp.prec + _LU_GUARD_BITS)
    n = len(rows)
    A = [{k: work.mpf(v) for k, v in sorted(row.items()) if v} for row in rows]
    x = [work.mpf(v) for v in rhs]
    columns = [[] for _ in range(n)]
    for row in A:
        for k, v in row.items():
            columns[k].append(v)
    tol = abs(max(work.fsum(c, absolute=True) for c in columns) * work.eps)

    pivots = []
    for j in range(n - 1):
        biggest = 0
        p = None
        for k in range(j, n):
            s = work.fsum([v for c, v in A[k].items() if c >= j], absolute=True)
            if s <= tol:
                raise ZeroDivisionError(_SINGULAR)
            if j in A[k]:
                current = 1 / s * abs(A[k][j])
                if current > biggest:
                    biggest = current
                    p = k
        if p is None:
            raise ZeroDivisionError(_SINGULAR)
        A[j], A[p] = A[p], A[j]
        pivots.append(p)
        pivot_row = A[j]
        pivot = pivot_row[j]
        if abs(pivot) <= tol:
            raise ZeroDivisionError(_SINGULAR)
        upper = [(k, v) for k, v in pivot_row.items() if k > j]
        for i in range(j + 1, n):
            row = A[i]
            if j not in row:
                continue
            factor = row[j] = row[j] / pivot
            for k, v in upper:
                row[k] = row[k] - factor * v if k in row else -(factor * v)
            A[i] = dict(sorted(row.items()))
    if abs(A[n - 1].get(n - 1, 0)) <= tol:
        raise ZeroDivisionError(_SINGULAR)

    for k, p in enumerate(pivots):
        x[k], x[p] = x[p], x[k]
    for i in range(1, n):
        for j, v in A[i].items():
            if j < i:
                x[i] = x[i] - v * x[j]
    for i in range(n - 1, -1, -1):
        for j, v in A[i].items():
            if j > i:
                x[i] = x[i] - v * x[j]
        x[i] = x[i] / A[i][i]
    return [mp.make_mpf(v._mpf_) for v in x]


def _candidate_vector(ctx: RealContext, candidate: EmbeddingCandidate) -> list:
    vec = []
    for v, axis in VARIABLE_ORDER:
        p = candidate.coords[v]
        vec.append(ctx.mpf(p.x if axis == 0 else p.y))
    return vec


def newton_polish(
    candidate: EmbeddingCandidate, digits: int, trace: list | None = None
) -> EmbeddingCandidate:
    """Newton's method at ``digits`` precision on the 16-equation system.

    Iterates until the maximum equation residual drops below
    10^(4 - digits).  Expects a seed already near a solution (closure
    residual well below 1e-10).  When ``trace`` is a list, the infinity
    norms of the Newton steps are appended to it, giving the quadratic
    convergence record.

    Each step solves the sparse Jacobian system with ``_lu_solve``, which
    gives mpmath's ``lu_solve`` result bit for bit.  Raises
    :class:`SingularJacobian` when its pivot test finds the Jacobian
    numerically singular (a row sum or pivot at most the 1-norm times the
    epsilon of ``digits`` precision plus 10 guard bits) and
    :class:`NoConvergence` when the residual target is not met within
    ``NEWTON_MAX_ITER`` iterations.
    """
    ctx = RealContext(digits)
    vec = _candidate_vector(ctx, candidate)
    target = ctx.pow10(4 - digits)

    for _ in range(NEWTON_MAX_ITER):
        residuals = system_residuals(ctx, vec)
        if max(abs(r) for r in residuals) < target:
            break
        try:
            step = _lu_solve(system_jacobian(ctx, vec), [-r for r in residuals], ctx.mp)
        except ZeroDivisionError as exc:
            raise SingularJacobian(f"Jacobian is numerically singular: {exc}") from exc
        if trace is not None:
            trace.append(max(abs(s) for s in step))
        vec = [v + s for v, s in zip(vec, step)]
    else:
        raise NoConvergence(f"no convergence after {NEWTON_MAX_ITER} Newton iterations")
    return candidate_from_coords(_positions(ctx, vec), digits)


# ---------------------------------------------------------------------------
# Assembly


def min_vertex_separation(candidate: EmbeddingCandidate):
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


def dedupe_candidates(candidates: Sequence[EmbeddingCandidate], tol) -> list:
    """Drop candidates whose 28 coordinates all agree with an earlier one
    within ``tol`` (distinct branch vectors can describe the same point)."""
    kept: list = []
    for cand in candidates:
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


def solve_all(config: SolveConfig | None = None) -> list:
    """All real embeddings at the final precision stage, sorted by the
    coordinates of l4; expected cardinality is eleven.

    Pipeline: float sweep -> bisection refinement at the first precision
    stage -> degeneracy filter -> Newton polish through the remaining
    stages -> coordinate-wise dedupe -> sort.
    """
    config = config or SolveConfig()
    stage0 = config.precision_stages[0]
    tol = RealContext(config.digits).mpf(DEDUPE_TOL)

    polished = []
    for bracket in sweep(config):
        try:
            cand = refine_bracket(bracket, stage0)
        except LostBracket:
            continue
        if min_vertex_separation(cand) < config.min_vertex_separation:
            continue  # coincident vertices: a degenerate zero, not an embedding
        for digits in config.precision_stages:
            cand = newton_polish(cand, digits)
        polished.append(cand)

    unique = dedupe_candidates(polished, tol)
    unique.sort(key=lambda c: (c.coords[L4].x, c.coords[L4].y))
    return unique
