from __future__ import annotations

import hashlib
import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext
from mpmath.libmp import dps_to_prec

from conftest import DISCOVERED_BRANCHES, DISCOVERED_THETAS
from equations import system_jacobian, to_positions, to_vector
from full_sweep import full_sweep

from heawood_udg import geom, solver, verify
from heawood_udg.chain import (
    ChainBroken,
    build_chain,
    all_branch_vectors,
    candidate_from_coords,
    dump_candidates,
    place_l4,
    step_keys,
)
from heawood_udg.geom import Point2, bisect_sign_change, circle_circle_intersect, context, illinois_estimate
from heawood_udg.solver import (
    LostBracket,
    NoConvergence,
    SingularJacobian,
    SolveConfig,
    TWO_PI,
    _cci_grid,
    closure_grid,
    dedupe_candidates,
    min_vertex_separation,
    newton_polish,
    refine_bracket,
    solve_all,
    sweep,
    system_residuals,
)


BENCHMARK_EMBEDDINGS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "embeddings60.json"

# SHA-256 of the JSON of solve_all(SolveConfig(grid_points=5000, digits=300))
DEEP300_GRID5000_SHA256 = "3c4070f564128743a1e892a1ca8bf6c2cbb610024531be38c02c0b13664f5ed8"

DEGENERATE_THETA = math.acos(-0.8)  # l4 = (-3/5, 6/5), unit distance from P2


def _walk(thetas, branch: str) -> np.ndarray:
    """The closure of one branch vector at float angles, walked alone."""
    return closure_grid(place_l4(np, np.asarray(thetas, dtype=float)), branch, {})


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(grid_points=999)
    # the sweep needs about 25 bytes per grid point; building the config
    # allocates nothing
    with pytest.raises(ValueError, match="between 1000 and 10000000"):
        SolveConfig(grid_points=solver.MAX_GRID_POINTS + 1)
    assert SolveConfig(grid_points=solver.MAX_GRID_POINTS).grid_points == 10 ** 7
    # 15 digits is the precision of the reference tables
    for digits in (14, 6, 2, 0, -1):
        with pytest.raises(ValueError, match=">= 15"):
            SolveConfig(digits=digits)
    # past MAX_DIGITS a solve runs for hours; building the config is cheap
    for digits in (solver.MAX_DIGITS + 1, 10 ** 8):
        with pytest.raises(ValueError, match="<= 10000"):
            SolveConfig(digits=digits)
    assert SolveConfig(digits=solver.MAX_DIGITS).digits == 10_000
    assert SolveConfig().digits == 60


# ---------------------------------------------------------------------------
# sweep


def test_closure_grid_matches_chain():
    thetas = np.array([2.0, 2.3, 2.55])
    for branch in ("000000", "011000", "110111"):
        grid = _walk(thetas, branch)
        for t, g in zip(thetas, grid):
            try:
                exact = float(build_chain(float(t), branch, 30).closure)
            except ChainBroken:
                assert not np.isfinite(g)
                continue
            assert abs(g - exact) < 1e-12


def test_closure_grid_nan_where_chain_breaks():
    branch = "000000"
    res = _walk([0.0, 0.2, math.pi / 2], branch)
    assert not np.isfinite(res[0])  # P3 circles disjoint
    assert not np.isfinite(res[1])


@settings(derandomize=True)
@given(
    x=st.floats(-3.0, 3.0),
    y=st.floats(-3.0, 3.0),
    d=st.floats(0.01, 1.99),
    phi=st.floats(0.0, 2 * math.pi),
)
def test_float_and_mpf_circle_steps_pick_the_same_branch(x, y, d, phi):
    # closure_grid and build_chain share one chain walk, so their circle
    # steps must agree on which intersection each branch bit selects
    ctx = context(30)
    c1 = (x, y)
    c2 = (x + d * math.cos(phi), y + d * math.sin(phi))
    for bit in (0, 1):
        fast = _cci_grid(Point2(*c1), Point2(*c2), bit)
        exact = circle_circle_intersect(Point2(*map(ctx.mpf, c1)), Point2(*map(ctx.mpf, c2)), bit)
        assert abs(float(fast.x) - float(exact.x)) < 1e-12
        assert abs(float(fast.y) - float(exact.y)) < 1e-12


def test_sweep_finds_at_least_eleven_brackets():
    brackets = sweep(SolveConfig())
    assert len(brackets) >= 11
    for branch, lo, hi in brackets:
        assert lo < hi
        res_lo, res_hi = _walk([lo, hi], branch)
        assert res_lo * res_hi < 0


def test_every_raw_bracket_is_accounted_for():
    # each sweep bracket either refines to one of the eleven embeddings, is
    # rejected as a discontinuity artifact, or collapses to a degenerate
    # configuration with coincident vertices
    survivors, lost, degenerate = 0, 0, 0
    for b in sweep(SolveConfig()):
        try:
            cand = refine_bracket(*b)
        except LostBracket:
            lost += 1
            continue
        if float(min_vertex_separation(cand)) < 1e-6:
            degenerate += 1
        else:
            survivors += 1
    assert survivors == 11
    assert lost >= 1
    assert degenerate >= 1


def test_closure_grid_nan_near_zero_for_every_branch():
    # P3's unit circles around l3 and l4 meet only for theta in [1.1468,
    # 3.5656], so on either side of theta = 0 the sweep has nothing to
    # bracket, and it needs no cell from its last angle to 2 pi
    thetas = np.concatenate([np.linspace(0.0, 1.1, 1000), np.linspace(3.6, TWO_PI, 1000, endpoint=False)])
    for branch in all_branch_vectors():
        assert np.isnan(_walk(thetas, branch)).all(), branch


def test_doubled_grid_brackets_cover_original_cells():
    base = SolveConfig(grid_points=4000)
    dense = SolveConfig(grid_points=8000)
    coarse = sweep(base)
    fine = sweep(dense)
    assert len(fine) >= len(coarse)
    for branch, lo, hi in coarse:
        hits = [f for f in fine if f[0] == branch and f[1] >= lo - 1e-12 and f[2] <= hi + 1e-12]
        assert hits, f"no refined sign change inside {branch, lo, hi}"


def _scalar_sweep(grid_points: int, residuals) -> list:
    """The sweep's pair scan as a per-pair loop over one chain walk per
    branch vector, the reference for the blocked sweep;
    ``residuals(thetas, branch)`` gives the closure."""
    thetas = np.linspace(0.0, TWO_PI, grid_points, endpoint=False)
    brackets = []
    for branch in all_branch_vectors():
        res = residuals(thetas, branch).tolist()
        for i in range(grid_points - 1):
            a, b = res[i], res[i + 1]
            if math.isfinite(a) and math.isfinite(b) and a * b < 0:
                brackets.append((branch, float(thetas[i]), float(thetas[i + 1])))
    return brackets


def _bracket_bits(brackets) -> list:
    return [(branch, float.hex(lo), float.hex(hi)) for branch, lo, hi in brackets]


def _live_points(grid_points: int) -> np.ndarray:
    """The grid points where P3, P6 and l2 exist, from the distances of
    their centres: two unit circles meet where their centres are at most 2
    apart, and the float test 1 - d²/4 >= 0 of ``_cci_grid`` holds exactly
    when d² <= 4."""
    thetas = np.linspace(0.0, TWO_PI, grid_points, endpoint=False)
    l4 = place_l4(np, thetas)
    p4 = Point2((l4.x + 1) / 2, l4.y / 2)
    live = np.ones(grid_points, dtype=bool)
    for (cx, cy), q in (((0, 1), l4), ((1, 2), l4), ((0, 2), p4)):
        dx, dy = q.x - cx, q.y - cy
        live &= dx * dx + dy * dy <= 4
    return live


def _live_span(grid_points: int) -> tuple:
    """The first and the last live point of the grid."""
    live = np.flatnonzero(_live_points(grid_points))
    return int(live[0]), int(live[-1])


def _live_blocks(grid_points: int) -> int:
    """The number of blocks the sweep walks: the cells from the first to
    the last live point, ``SWEEP_BLOCK`` to a block."""
    first, last = _live_span(grid_points)
    return -(-(last - first) // solver.SWEEP_BLOCK)


def _span_edge_grids() -> list:
    """Grids whose live span holds k blocks of cells less one, exactly k
    and k and one more cell, for k = 1..5: the span is about 0.234 of the
    grid, so each is searched for among the grids next to that share."""
    grids = []
    for length in (solver.SWEEP_BLOCK * k + d for k in range(1, 6) for d in (-1, 0, 1)):
        guess = round(length / 0.2341)
        for grid_points in range(guess - 8, guess + 9):
            first, last = _live_span(grid_points)
            if last - first == length:
                grids.append(grid_points)
                break
        else:
            raise AssertionError(f"no grid near {guess} has a live span of {length} cells")
    return grids


# grids on and around the edges of the sweep's blocks
@pytest.mark.parametrize("grid_points", [1000, 2048, 2049, 4096, 5000, 20000])
def test_sweep_equals_scalar_pair_scan(monkeypatch, grid_points):
    expected = _scalar_sweep(grid_points, _walk)
    assert expected
    walks = []

    def recorded(l4, branch, memo):
        res = closure_grid(l4, branch, memo)
        walks.append((l4, branch, res))
        return res

    monkeypatch.setattr(solver, "closure_grid", recorded)
    assert _bracket_bits(sweep(SolveConfig(grid_points=grid_points))) == _bracket_bits(expected)
    # one walk per branch vector in each block that holds live points, and
    # every residual the sweep scanned, shared circle steps and all, is bit
    # for bit that of the same positions walked alone
    assert len(walks) == 64 * _live_blocks(grid_points)
    for l4, branch, res in walks:
        np.testing.assert_array_equal(res, closure_grid(l4, branch, {}), strict=True)


def _seeded_grids() -> list:
    # 200 grids from 1,000 to 200,000, the grids on and next to the first
    # ten edges of blocks of the whole grid, the grids whose live span ends
    # on and next to the edges of its first five blocks, and the ends of
    # the benchmark's grid bands.  The full sweep walks every block, so the
    # seeded grids lean toward small ones (1,000 · 200^(u³) for u uniform)
    # to keep the test near 10 s
    rng = random.Random(27)
    grids = [round(1000 * 200 ** (rng.random() ** 3)) for _ in range(200)]
    grids += [solver.SWEEP_BLOCK * k + d for k in range(1, 11) for d in (-1, 0, 1, 2)]
    return grids + _span_edge_grids() + [4000, 6000, 18000, 22000]


def test_sweep_equals_the_full_grid_sweep():
    # walking only the live span, in blocks from its first point, drops no
    # cell and moves none
    for grid_points in _seeded_grids():
        expected = full_sweep(grid_points)
        assert _bracket_bits(sweep(SolveConfig(grid_points=grid_points))) == _bracket_bits(expected), grid_points


def test_missed_embeddings_lie_past_the_last_live_point():
    # below grid 3,000 the sweep can miss the two embeddings next to 5 pi / 6,
    # where P6's circles are tangent and the live span ends: the grid point
    # after its last live point lies past 5 pi / 6, so no cell brackets a
    # root between the two.  Every embedding a solve misses lies there
    rng = random.Random(29)
    for grid_points in sorted(rng.sample(range(1000, 3001), 30)):
        found = solve_all(SolveConfig(grid_points=grid_points, digits=15))
        _, last = _live_span(grid_points)
        for branch, theta in zip(DISCOVERED_BRANCHES, map(float, DISCOVERED_THETAS)):
            if not any(c.branch == branch and abs(float(c.theta) - theta) < 1e-9 for c in found):
                assert last * TWO_PI / grid_points < theta < 5 * math.pi / 6, (grid_points, branch)


def test_sweep_scan_skips_non_finite_and_crosses_block_edges(monkeypatch):
    # a synthetic residual with sign changes in the last cell of a block,
    # NaN and infinite cells, drives the sweep's own scan and is checked
    # against the pair loop on the cells of the live span, the only ones
    # the sweep walks.  Grid 10,000 has a span of two blocks
    n = 10000
    first, last = _live_span(n)
    edge = first + solver.SWEEP_BLOCK  # the point that ends the first block
    assert edge < last

    def synthetic(thetas, branch):
        k = int(branch, 2)
        i = np.rint(thetas * n / TWO_PI).astype(int)
        if k % 4 == 0:
            res = (i - edge + 0.5) * (k + 1)
        else:
            res = np.sin(4 * thetas) + thetas - 1 - 0.07 * k
        res[i % 97 == k] = np.nan
        res[i % 89 == (2 * k + 1) % 89] = np.inf if k % 2 else -np.inf
        if k == 8:
            res[i == edge] = np.nan
        if k == 12:
            res[i == edge - 1] = np.inf
        return res

    thetas = np.linspace(0.0, TWO_PI, n, endpoint=False)
    index = {theta: i for i, theta in enumerate(thetas.tolist())}
    expected = [cell for cell in _scalar_sweep(n, synthetic) if first <= index[cell[1]] < last]
    across = {int(branch, 2) for branch, lo, _ in expected if lo == thetas[edge - 1]}
    assert across and not across & {8, 12}

    # the chain walk returns the residual at the angle of each l4 position,
    # rounded to its grid point so that the two scans see the same values
    def walk(l4, branch, memo):
        angle = np.arctan2(l4.y, l4.x - 1) % TWO_PI
        return synthetic(thetas[np.rint(angle * n / TWO_PI).astype(int) % n], branch)

    monkeypatch.setattr(solver, "closure_grid", walk)
    assert _bracket_bits(sweep(SolveConfig(grid_points=n))) == _bracket_bits(expected)


# grids of 1 to 22 blocks, whose live spans take 1 to 6: the grid's own
# blocks no longer set the work
@pytest.mark.parametrize(
    "grid_points, blocks", [(1000, 1), (2048, 1), (2049, 2), (5000, 3), (10000, 5), (20000, 10), (44000, 22)]
)
def test_sweep_walks_thirty_circle_steps_per_block(monkeypatch, grid_points, blocks):
    # P3, P6 and l2 depend on one branch bit each, l1 and l6 on two and P1
    # on four: 2 + 2 + 2 + 4 + 4 + 16 circle steps serve all 64 branches in
    # each block of the live span, and the grid's other blocks cost none
    calls = []

    def counted(c1, c2, bit):
        calls.append(bit)
        return _cci_grid(c1, c2, bit)

    monkeypatch.setattr(solver, "_cci_grid", counted)
    sweep(SolveConfig(grid_points=grid_points))
    assert -(-grid_points // solver.SWEEP_BLOCK) == blocks
    assert len(calls) == 30 * _live_blocks(grid_points)


def _live_steps(walks) -> int:
    """The most circle steps a block walked by the branch vectors
    ``walks`` in turn holds at once, when each step is dropped after the
    last walk that uses it."""
    keys = [step_keys(branch) for branch in walks]
    last = {key: i for i, walk in enumerate(keys) for key in walk}
    live: set = set()
    most = 0
    for i, walk in enumerate(keys):
        live.update(walk)
        most = max(most, len(live))
        live -= {key for key in walk if last[key] == i}
    return most


def _sweep_order() -> list:
    return [branch for branch, _ in solver.SWEEP_WALKS]


def test_walk_order_drops_each_step_after_its_last_walk():
    # every branch vector is walked once per block, and each of the 30
    # steps is dropped once, after the last walk whose key holds it
    walks = _sweep_order()
    assert sorted(walks) == list(all_branch_vectors())
    last = {key: branch for branch in walks for key in step_keys(branch)}
    dropped = [(key, branch) for branch, done in solver.SWEEP_WALKS for key in done]
    assert sorted(dropped) == sorted(last.items())
    assert len(dropped) == 30


def test_walk_order_holds_the_fewest_steps():
    # of the 720 orders of the six bits, slowest first, the sweep's holds
    # the fewest steps at once; binary order holds 27 of the 30
    held = {}
    for bits in itertools.permutations(range(6)):
        walks = []
        for values in itertools.product("01", repeat=6):
            branch = dict(zip(bits, values))
            walks.append("".join(branch[bit] for bit in range(6)))
        held[bits] = _live_steps(walks)
    assert _live_steps(_sweep_order()) == min(held.values()) == 11
    assert held[tuple(range(6))] == _live_steps(list(all_branch_vectors())) == 27


@pytest.mark.parametrize("grid_points", [5000, 20000])
def test_sweep_memo_never_holds_more_than_eleven_steps(monkeypatch, grid_points):
    # a walk adds its steps to the block's memo, and the sweep drops those
    # no later walk uses before the next, so the memo is largest right
    # after a walk; it holds all 30 steps at the end of a block unless they
    # are dropped
    sizes = []

    def recorded(l4, branch, memo):
        res = closure_grid(l4, branch, memo)
        sizes.append(len(memo))
        return res

    monkeypatch.setattr(solver, "closure_grid", recorded)
    sweep(SolveConfig(grid_points=grid_points))
    assert len(sizes) == 64 * _live_blocks(grid_points)
    assert max(sizes) <= 11


def test_sweep_holds_few_bytes_per_grid_point():
    # each block places its own angles and l4 positions, so the peak is one
    # block's.  Its live circle steps hold 2 floats for each of its 2,049
    # points, 11 steps in the sweep's order, and 32 more float arrays of the
    # block cover its angles, l4 and P4 and one step's temporaries: a bound
    # of 0.89 MB, where the peak read 0.72-0.76 MB at both grids and 1.29 MB
    # when all 30 steps were held.  One float array over the whole grid
    # takes 8 MB at 10^6 points, so the bound fails if any array spans it
    arrays = 2 * _live_steps(_sweep_order()) + 32
    for n in (10 ** 5, 10 ** 6):
        tracemalloc.start()
        try:
            sweep(SolveConfig(grid_points=n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * 8 * (solver.SWEEP_BLOCK + 1), n


def test_block_angles_equal_linspace():
    # the angles each block places are the values of the whole-grid
    # linspace the sweep once held, bit for bit, on every grid of both
    # benchmark bands and at 10^6 points
    for grid_points in [*range(4000, 6001), *range(18000, 22001), 10 ** 6]:
        starts = range(0, grid_points, solver.SWEEP_BLOCK)
        blocks = [solver._angles(grid_points, k, min(k + solver.SWEEP_BLOCK, grid_points)) for k in starts]
        expected = np.linspace(0.0, TWO_PI, grid_points, endpoint=False)
        assert np.array_equal(np.concatenate(blocks).view(np.int64), expected.view(np.int64)), grid_points


# ---------------------------------------------------------------------------
# bracket refinement


def test_refine_bracket_reproduces_first_reference_row(tables):
    theta = float(DISCOVERED_THETAS[0])
    cand = refine_bracket(DISCOVERED_BRANCHES[0], theta - 2e-4, theta + 2e-4)
    ctx = cand.context()
    row = tables[0]
    for name in ("P1", "P3", "P4", "P6", "l1", "l2", "l4", "l6"):
        pt = cand.coords[name]
        assert abs(pt.x - ctx.mpf(row[name][0])) < ctx.mpf(10) ** -13
        assert abs(pt.y - ctx.mpf(row[name][1])) < ctx.mpf(10) ** -13
    assert abs(cand.closure) < ctx.mpf(10) ** -13


def test_refine_bracket_narrow_input_returns_midpoint():
    # end points already inside the 30-digit width target of 1e-17, which
    # float end points never are: no bisection happens, and the bracket's
    # own midpoint comes back
    ctx = context(30)
    theta = ctx.mpf(DISCOVERED_THETAS[0])
    lo, hi = theta - ctx.mpf("1e-18"), theta + ctx.mpf("1e-18")
    cand = refine_bracket(DISCOVERED_BRANCHES[0], lo, hi)
    assert cand.theta == (lo + hi) / 2


def test_refine_bracket_steps_inward_from_a_broken_end_point():
    # at grid 3,000 the bracket of branch 011000 ends at the grid point
    # 5 pi / 6, where d(l4, l7) = 2 and P6's circles are tangent, so the
    # 30-digit chain breaks there; the root lies well inside the cell
    (bracket,) = [b for b in sweep(SolveConfig(grid_points=3000)) if b[0] == "011000"]
    branch, _, theta_hi = bracket
    assert abs(theta_hi - 5 * math.pi / 6) < 1e-15
    with pytest.raises(ChainBroken):
        build_chain(theta_hi, branch, 30)
    assert abs(float(refine_bracket(*bracket).theta) - 2.6160704) < 1e-7
    assert len(solve_all(SolveConfig(grid_points=3000, digits=30))) == 11


def test_refine_bracket_rejects_junk_near_half_pi():
    # spurious sign changes next to theta = pi/2 come from the collapse of
    # P6's construction there (l4 passes through l7, concentric circles),
    # not from zeros; refinement must reject every one of them
    junk = [b for b in sweep(SolveConfig()) if abs(0.5 * (b[1] + b[2]) - math.pi / 2) < 0.01]
    assert junk, "expected spurious brackets at the l4 = l7 crossing"
    for b in junk:
        with pytest.raises(LostBracket):
            refine_bracket(*b)


def test_refine_bracket_rejects_sign_agreement():
    # an interval with no sign change, as a sweep cell never is
    branch = DISCOVERED_BRANCHES[0]
    res = _walk([2.58, 2.60], branch)
    assert res[0] * res[1] > 0
    with pytest.raises(LostBracket, match="no sign change"):
        refine_bracket(branch, 2.58, 2.60)


def test_degenerate_zero_has_coincident_vertices():
    # at l4 = (-3/5, 6/5) the closure vanishes but the configuration
    # collapses: P1 lands on P6 and l2 on l4 (it is not an embedding)
    brackets = [b for b in sweep(SolveConfig()) if b[0] == "001000" and b[1] < DEGENERATE_THETA < b[2]]
    assert len(brackets) == 1
    cand = refine_bracket(*brackets[0])
    ctx = cand.context()
    assert abs(cand.coords["l4"].x + ctx.mpf(3) / 5) < ctx.mpf(10) ** -15
    assert abs(cand.coords["l4"].y - ctx.mpf(6) / 5) < ctx.mpf(10) ** -15
    assert min_vertex_separation(cand) < ctx.mpf(10) ** -12
    sep_p1_p6 = abs(cand.coords["P1"].x - cand.coords["P6"].x) + abs(cand.coords["P1"].y - cand.coords["P6"].y)
    assert sep_p1_p6 < ctx.mpf(10) ** -12


def _refine_outcome(bracket: tuple):
    try:
        return refine_bracket(*bracket).theta
    except LostBracket as exc:
        return str(exc)


@pytest.mark.parametrize("grid_points", [2000, 5000, 20000])
def test_refine_bracket_equals_plain_halving(monkeypatch, grid_points):
    # the estimate only skips evaluations: on every bracket the angle, or
    # the LostBracket message, is the one that halving without it gives
    brackets = sweep(SolveConfig(grid_points=grid_points))
    guided = [_refine_outcome(b) for b in brackets]
    monkeypatch.setattr(solver, "illinois_estimate", lambda *args: None)
    plain = [_refine_outcome(b) for b in brackets]
    assert guided == plain
    assert sum(isinstance(o, str) for o in plain) == 2
    monkeypatch.undo()

    # a fixed walk that cannot decide a step leaves the estimate None, and
    # halving decides
    undecided = []

    def refuse(c1, c2, bit):
        undecided.append(bit)
        raise geom.GeometryError("undecided")

    monkeypatch.setattr(solver, "fixed_circle_intersect", refuse)
    assert [_refine_outcome(b) for b in brackets] == plain
    assert undecided

    # a wrong estimate must cost evaluations, never change the result
    def off_by_a_third(value, lo, hi, f_lo, f_hi, tol):
        return lo + (hi - lo) / 3

    monkeypatch.setattr(solver, "illinois_estimate", off_by_a_third)
    assert [_refine_outcome(b) for b in brackets] == plain


def test_fixed_closure_matches_the_thirty_digit_walk():
    # the estimate's fixed-point walk against build_chain at 30 digits on
    # seeded angles in the arc where P3, P6 and l2 exist.  Within 0.01 of
    # pi / 2, where l4 meets l7 and P6's circles are nearly concentric, the
    # 30-digit walk itself loses digits, so the reference there is a
    # 60-digit walk
    ctx = context(30)
    rng = random.Random(27)
    branches = list(all_branch_vectors())
    checked = 0
    while checked < 300:
        theta = ctx.mpf(rng.uniform(1.147, 2.617))
        branch = rng.choice(branches)
        try:
            exact = build_chain(theta, branch, 60 if abs(theta - math.pi / 2) < 0.01 else 30).closure
        except ChainBroken:
            continue
        assert abs(solver.fixed_closure(theta, branch) - exact) < 1e-25
        checked += 1


def test_bisection_estimate_is_confirmed_or_dropped():
    # exact arithmetic: the estimate's cell is returned only when the signs
    # at its end points confirm it, and otherwise halving decides
    root = Fraction(1, 3)
    calls = []

    def sign(t):
        calls.append(t)
        return t - root

    width = Fraction(1, 2 ** 40)
    plain = bisect_sign_change(sign, Fraction(0), Fraction(1), -1, width)
    assert len(calls) == 41
    # the first two lie in the root's final cell, the next two do not, and
    # the last two lie outside [0, 1], which costs no evaluation
    for estimate, evaluations in (
        (root, 2),
        (root + width / 8, 2),
        (Fraction(1, 4), 43),
        (Fraction(9, 10), 43),
        (Fraction(-1), 41),
        (Fraction(2), 41),
    ):
        calls.clear()
        assert bisect_sign_change(sign, Fraction(0), Fraction(1), -1, width, estimate=estimate) == plain
        assert len(calls) == evaluations
    # a root on a midpoint: the plain route stops there, and so must this one
    half = bisect_sign_change(lambda t: t - Fraction(1, 2), Fraction(0), Fraction(1), -1, width, estimate=Fraction(1, 2))
    assert half == (Fraction(1, 2), Fraction(1, 2))


def _halved_cell(lo, hi, width, estimate):
    # the final cell holding ``estimate``, as halving hi - lo finds it
    cell, cells = hi - lo, 1
    while cell >= width:
        cell /= 2
        cells *= 2
    k = min(int((estimate - lo) / cell), cells - 1)
    return lo + k * cell, lo + (k + 1) * cell


def test_estimate_cell_matches_halving_loop():
    # the estimate's cell is indexed by a halving count taken from the
    # ratio of span and width; it must be the halving loop's cell, widths
    # at and next to an exact power of two of the span included.  A width
    # finer than the span's precision rounds the ratio up to that power.
    rng = random.Random(14)
    cases = []
    for dps in (30, 60):
        ctx, fine = context(dps), context(2 * dps)
        for _ in range(200):
            lo = ctx.mpf(rng.uniform(-4, 4))
            span = ctx.mpf(rng.uniform(0.1, 1)) * ctx.mpf(10) ** rng.randint(-dps // 2, 1)
            exact = span / 2 ** rng.randint(0, 3 * dps)
            near = (fine.mpf(exact) * (1 + 4 * d * fine.eps) for d in (-1, 1))
            widths = (exact, *near, span / rng.uniform(1, 2**60), 3 * span)
            cases += [(lo, lo + span, w, lo + span * ctx.mpf(rng.random())) for w in widths]
    for _ in range(200):
        lo = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        span = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        exact = span / 2 ** rng.randint(0, 200)
        tiny = Fraction(1, 10**80)
        widths = (exact, exact + tiny, exact - tiny, Fraction(1, 10 ** rng.randint(1, 60)))
        cases += [(lo, lo + span, w, lo + span * Fraction(rng.randint(0, 10**6), 10**6)) for w in widths]

    class Stop(Exception):
        pass

    for lo, hi, width, estimate in cases:
        calls = []

        def sign(t):
            # the estimate route evaluates its cell's two end points first
            calls.append(t)
            if len(calls) == 2:
                raise Stop
            return -1

        with pytest.raises(Stop):
            bisect_sign_change(sign, lo, hi, -1, width, estimate=estimate)
        assert tuple(calls) == _halved_cell(lo, hi, width, estimate)


# ---------------------------------------------------------------------------
# Newton polishing


def test_system_residuals_vanish_on_solutions(solutions):
    ctx = context(60)
    for cand in solutions:
        res = system_residuals(cand.coords)
        assert len(res) == 16
        assert max(abs(r) for r in res) < ctx.mpf(10) ** -56


def test_jacobian_matches_finite_differences():
    ctx = context(40)
    cand = build_chain("2.5", "101100", 40)
    vec = to_vector(ctx, cand.coords)
    J = system_jacobian(ctx, vec)
    assert len(J) == 16
    assert all(1 <= len(row) <= 4 for row in J)
    h = ctx.mpf(10) ** -20
    base = system_residuals(to_positions(ctx, vec))
    for col in range(16):
        bumped = list(vec)
        bumped[col] = bumped[col] + h
        res = system_residuals(to_positions(ctx, bumped))
        for row in range(16):
            fd = (res[row] - base[row]) / h
            assert abs(J[row].get(col, 0) - fd) < ctx.mpf(10) ** -18


def test_newton_polish_from_reference_seed(table_seeds):
    trace: list = []
    polished = newton_polish(table_seeds[0], 60, trace=trace)
    ctx = context(60)
    assert max(abs(r) for r in system_residuals(polished.coords)) < ctx.mpf(10) ** -56
    assert 1 <= len(trace) <= 5  # quadratic convergence from a 15-digit seed


def test_newton_quadratic_convergence(table_seeds):
    trace: list = []
    newton_polish(table_seeds[0], 60, trace=trace)
    norms = [float(context(60).log10(t)) for t in trace if t > 0]
    # each step at least ~doubles the number of correct digits until the floor
    for a, b in zip(norms, norms[1:]):
        if b < -58:
            break
        assert b < 1.8 * a + 2


def test_newton_fixed_point_on_exact_solution(solutions):
    trace: list = []
    again = newton_polish(solutions[0], 60, trace=trace)
    assert trace == []  # converged on entry: no step taken
    ctx = context(60)
    for v in again.coords:
        assert abs(again.coords[v].x - solutions[0].coords[v].x) < ctx.mpf(10) ** -58


def test_newton_basin_recovers_from_perturbation(table_seeds, polished_seeds):
    seed = table_seeds[0]
    coords = {v: (p.x, p.y) for v, p in seed.coords.items()}
    x, y = coords["P3"]
    coords["P3"] = (x + 1e-3, y)
    perturbed = candidate_from_coords(
        {k: v for k, v in coords.items() if k not in ("P5", "P2", "P7", "l3", "l5", "l7")},
        20,
    )
    recovered = newton_polish(perturbed, 60)
    ctx = context(60)
    for v in recovered.coords:
        assert abs(recovered.coords[v].x - polished_seeds[0].coords[v].x) < ctx.mpf(10) ** -50


def test_newton_singular_jacobian_when_p1_meets_l1(solutions):
    coords = {v: (p.x, p.y) for v, p in solutions[0].coords.items()}
    coords["P1"] = coords["l1"]  # closure row of the Jacobian vanishes
    broken = candidate_from_coords(
        {k: v for k, v in coords.items() if k not in ("P5", "P2", "P7", "l3", "l5", "l7")},
        60,
    )
    with pytest.raises(SingularJacobian):
        newton_polish(broken, 60)
    # mpmath's dense solve gives up on the same Jacobian
    ctx = context(60)
    vec = to_vector(ctx, broken.coords)
    pos = to_positions(ctx, vec)
    residuals = system_residuals(pos)
    rhs = [-r for r in residuals]
    assert _dense_lu_solve(ctx, system_jacobian(ctx, vec), rhs) is ZeroDivisionError
    with pytest.raises(ZeroDivisionError):
        solver._chain_step(pos, residuals)


def test_newton_singular_jacobian_when_p3_lies_on_its_centre_line(solutions):
    # P3 on the line through l3 and l4: its two circle rows are parallel.
    # Dyadic l4 and P3 make them parallel exactly, not just to rounding.
    l4 = solutions[0].coords["l4"]
    l4 = (Fraction(round(l4.x * 2 ** 20), 2 ** 20), Fraction(round(l4.y * 2 ** 20), 2 ** 20))
    coords = {v: (p.x, p.y) for v, p in solutions[0].coords.items()}
    coords["l4"] = tuple(float(c) for c in l4)
    coords["P3"] = (float(2 * l4[0]), float(2 * l4[1] - 1))  # l3 + 2 (l4 - l3)
    broken = candidate_from_coords(
        {k: v for k, v in coords.items() if k not in ("P5", "P2", "P7", "l3", "l5", "l7")},
        60,
    )
    with pytest.raises(SingularJacobian, match="P3"):
        newton_polish(broken, 60)


def test_newton_no_convergence_with_iteration_cap(table_seeds, monkeypatch):
    monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NoConvergence):
        newton_polish(table_seeds[0], 60)


def _dense_lu_solve(ctx, rows, rhs):
    """mpmath's dense ``lu_solve`` of the sparse rows, the reference for
    the chain step: the solution, or ZeroDivisionError when mpmath finds
    the matrix singular.  It runs in a private context because ``lu_solve``
    changes its context's precision while it runs."""
    mp = MPContext()
    mp.prec = ctx.prec
    A = mp.zeros(len(rows), len(rows))
    for i, row in enumerate(rows):
        for k, v in row.items():
            A[i, k] = v
    try:
        x = mp.lu_solve(A, mp.matrix(list(rhs)))
    except ZeroDivisionError:
        return ZeroDivisionError
    return [ctx.mpf(x[k]) for k in range(len(rhs))]


@pytest.mark.parametrize("digits", [30, 60, 300])
def test_chain_step_agrees_with_mpmath(solutions, digits):
    ctx = context(digits)
    rng = random.Random(digits)
    for cand in solutions:
        exact = to_vector(ctx, cand.coords)
        for size in ("1e-3", "1e-10", "1e-25"):
            vec = [v + ctx.mpf(size) * rng.uniform(-1, 1) for v in exact]
            pos = to_positions(ctx, vec)
            residuals = system_residuals(pos)
            step = to_vector(ctx, solver._chain_step(pos, residuals))
            ref = _dense_lu_solve(ctx, system_jacobian(ctx, vec), [-r for r in residuals])
            assert ref is not ZeroDivisionError
            bound = ctx.mpf(10) ** (4 - digits) * max(abs(r) for r in ref)
            assert max(abs(a - b) for a, b in zip(step, ref)) <= bound


# ---------------------------------------------------------------------------
# full solve


def test_solve_all_returns_eleven(solutions):
    assert len(solutions) == 11


def test_solutions_sorted_by_l4(solutions):
    keys = [(float(c.coords["l4"].x), float(c.coords["l4"].y)) for c in solutions]
    assert keys == sorted(keys)


def test_solutions_match_reference_polish(solutions, polished_seeds):
    # the sweep route and the reference-seed Newton route are independent;
    # they must land on identical coordinates
    ctx = context(60)
    by_l4 = sorted(polished_seeds, key=lambda c: (c.coords["l4"].x, c.coords["l4"].y))
    for found, oracle in zip(solutions, by_l4):
        for v in found.coords:
            assert abs(found.coords[v].x - oracle.coords[v].x) < ctx.mpf(10) ** -55
            assert abs(found.coords[v].y - oracle.coords[v].y) < ctx.mpf(10) ** -55


def test_discovered_branches_and_thetas(solutions):
    by_theta = sorted(solutions, key=lambda c: float(c.theta), reverse=True)
    assert [c.branch for c in by_theta] == list(DISCOVERED_BRANCHES)
    for cand, theta in zip(by_theta, DISCOVERED_THETAS):
        assert abs(float(cand.theta) - float(theta)) < 1e-13


def test_solutions_have_positive_l4_ordinate(solutions):
    assert all(c.coords["l4"].y > 0 for c in solutions)


def test_pinned_vertices_are_exact(solutions):
    for cand in solutions:
        assert cand.coords["P5"].x == 0 and cand.coords["P5"].y == 0
        assert cand.coords["l5"].x == 1 and cand.coords["l5"].y == 0
        assert cand.coords["P7"].x == 1 and cand.coords["P7"].y == 1
        assert cand.coords["l7"].x == 1 and cand.coords["l7"].y == 2
        assert cand.coords["P2"].x == 0 and cand.coords["P2"].y == 2
        assert cand.coords["l3"].x == 0 and cand.coords["l3"].y == 1


def test_no_degenerate_solution_included(solutions):
    for cand in solutions:
        assert float(min_vertex_separation(cand)) > 0.06


def test_solve_all_excludes_the_rational_degenerate(solutions):
    for cand in solutions:
        assert abs(float(cand.coords["l4"].x) + 0.6) > 1e-6


def test_dedupe_keeps_one_of_identical_pair(solutions):
    doubled = [solutions[0], solutions[0], solutions[1]]
    assert len(dedupe_candidates(doubled)) == 2


def test_default_solve_matches_benchmark_embeddings(solutions):
    # the benchmark's reference file is the JSON of `solve --digits 60`
    assert dump_candidates(solutions).encode() == BENCHMARK_EMBEDDINGS.read_bytes()


def test_deep_solve_bytes_unchanged(deep_solutions):
    # the 300-digit path of the benchmark's deep300 workload, byte for byte
    digest = hashlib.sha256(dump_candidates(deep_solutions).encode()).hexdigest()
    assert digest == DEEP300_GRID5000_SHA256


def test_shared_contexts_stay_read_only(monkeypatch):
    # record every context the run asks for with the precision it had
    # then; each module that imported the factory holds its own name for
    # it, so each one is patched
    shared = geom.context
    seen = {}

    def recording(dps):
        mp = shared(dps)
        seen.setdefault(dps, (mp, mp.dps, mp.prec))
        return mp

    users = [
        module
        for name, module in sys.modules.items()
        if name.startswith("heawood_udg") and getattr(module, "context", None) is shared
    ]
    assert {m.__name__ for m in users} >= {"heawood_udg.chain", "heawood_udg.solver", "heawood_udg.verify"}
    for module in users:
        monkeypatch.setattr(module, "context", recording)
    found = solve_all(SolveConfig(grid_points=1000, digits=40))
    assert all(verify.certify(c).passes for c in found)
    # the two stages are the only contexts the run asks for
    assert set(seen) == {30, 40}
    for dps, (mp, dps_then, prec_then) in seen.items():
        assert (dps_then, prec_then) == (dps, dps_to_prec(dps))
        assert (mp.dps, mp.prec) == (dps, dps_to_prec(dps))
        assert shared(dps) is mp


def test_determinism_bit_identical_runs():
    a = solve_all(SolveConfig(grid_points=3000))
    b = solve_all(SolveConfig(grid_points=3000))
    assert dump_candidates(a) == dump_candidates(b)


def test_low_precision_stage_gives_same_solutions(low_precision_solutions, solutions):
    # bisection and a first Newton pass run at 30 digits at every precision,
    # so a 15-digit solve is the 60-digit one correct to its last digit
    low = low_precision_solutions[15]
    assert len(low) == 11
    for lo, hi in zip(low, solutions):
        assert abs(float(lo.coords["l4"].x) - float(hi.coords["l4"].x)) < 1e-14
        assert abs(float(lo.coords["l4"].y) - float(hi.coords["l4"].y)) < 1e-14


def test_default_solve_work(monkeypatch):
    # the fixed-point Illinois estimate and the chain step are what keep the
    # default solve fast: a bracket that reaches the estimate walks the mpf
    # chain five times (its two end points, the two that confirm the
    # estimate's cell and the final midpoint), and no dense mpmath solve
    counts = {"brackets": 0, "lost": 0, "degenerate": 0}
    walks = []  # per refined bracket: [mpf chain walks, reached the estimate]

    def counted(fn, after=None):
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except LostBracket:
                counts["lost"] += 1
                raise
            if after is not None:
                after(result)
            return result

        return wrapper

    def dense_solve(*args, **kwargs):
        raise AssertionError("mpmath's dense lu_solve was called")

    def count_brackets(result):
        counts["brackets"] += len(result)

    def count_degenerate(result):
        counts["degenerate"] += result < SolveConfig.min_vertex_separation

    def refine(*args):
        walks.append([0, False])
        return refine_bracket(*args)

    def walk(*args):
        walks[-1][0] += 1
        return build_chain(*args)

    def estimate(*args):
        walks[-1][1] = True
        return illinois_estimate(*args)

    monkeypatch.setattr(MPContext, "lu_solve", dense_solve)
    monkeypatch.setattr(solver, "build_chain", walk)
    monkeypatch.setattr(solver, "illinois_estimate", estimate)
    monkeypatch.setattr(solver, "sweep", counted(solver.sweep, count_brackets))
    monkeypatch.setattr(solver, "refine_bracket", counted(refine))
    monkeypatch.setattr(solver, "min_vertex_separation", counted(solver.min_vertex_separation, count_degenerate))
    found = solve_all(SolveConfig())
    assert len(found) == 11
    assert (counts["brackets"], counts["lost"], counts["degenerate"]) == (17, 2, 4)
    estimated = [n for n, reached in walks if reached]
    assert len(walks) == 17 and len(estimated) >= 11
    assert max(estimated) <= 5
