from __future__ import annotations

import math
import random
import time
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction

import pytest

from heawood_udg import chain, refdata, solver, verify
from heawood_udg.chain import FIXED_POSITIONS, build_chain, candidate_from_coords, min_vertex_separation
from heawood_udg.charpoly import isolate_real_roots
from heawood_udg.geom import context, distance_squared
from heawood_udg.incidence import HEAWOOD_FLAGS
from heawood_udg.refdata import TABLE_VERTICES
from heawood_udg.solver import newton_polish
from heawood_udg.verify import (
    MATCH_TOL,
    certify,
    charpoly_bracket,
    collinearity_residual,
    flag_residuals,
    match_table,
    max_flag_residual,
    regularity_check,
)

from clamped import clamped_margin
from conftest import MARGIN_BASELINES
from unscreened import full_regularity, full_separation


def _dependent_only(coords):
    pinned = {"P5", "P2", "P7", "l3", "l5", "l7"}
    return {k: v for k, v in coords.items() if k not in pinned}


# ---------------------------------------------------------------------------
# flag residuals


def test_pinned_flag_residual_is_exactly_zero(solutions):
    for cand in solutions:
        residuals = dict(flag_residuals(cand))
        assert residuals[("P5", "l5")] == 0
        assert residuals[("P7", "l7")] == 0


def test_reference_row_one_residuals_below_1e13(table_seeds):
    assert float(max_flag_residual(table_seeds[0])) < 1e-13


def test_reference_row_nine_is_internally_inconsistent(printed_row_nine):
    # row 9 as printed (kept as an erratum) only satisfies the constraints
    # to ~1e-10, so its printed digits cannot be a solution to 15 digits
    worst = float(max_flag_residual(candidate_from_coords(printed_row_nine, 20)))
    assert 1e-11 < worst < 1e-9


def test_reference_row_nine_is_rounded_refinement_of_printed_row(printed_row_nine, tables, table_seeds):
    # the bundled row 9 is the 60-digit Newton refinement of the printed
    # row, rounded half-even to its 15 decimals; no sweep solver involved
    polished = newton_polish(candidate_from_coords(printed_row_nine, 20), 60)
    ctx = polished.context()
    quantum = Decimal("1e-15")
    for name in TABLE_VERTICES:
        pt = polished.coords[name]
        rounded = tuple(
            str(Decimal(ctx.nstr(c, polished.precision)).quantize(quantum, rounding=ROUND_HALF_EVEN))
            for c in (pt.x, pt.y)
        )
        assert rounded == tables[8][name], name
    assert float(max_flag_residual(table_seeds[8])) < 1e-13


def test_reference_rows_are_read_only():
    # the tables are read once per process and shared by every caller, so
    # no caller may change a row under the others
    tables = refdata.reference_tables()
    assert tables is refdata.reference_tables()
    with pytest.raises(TypeError):
        tables[0]["l4"] = ("0", "0")
    assert all(type(xy) is tuple for row in tables for xy in row.values())


def test_perturbed_p1_shows_in_residuals(table_seeds):
    seed = table_seeds[0]
    coords = {v: (p.x, p.y) for v, p in seed.coords.items()}
    x, y = coords["P1"]
    coords["P1"] = (x + 1e-6, y)
    bumped = candidate_from_coords(_dependent_only(coords), 20)
    assert float(max_flag_residual(bumped)) > 1e-7


def test_all_21_flags_reported(solutions):
    residuals = flag_residuals(solutions[0])
    assert len(residuals) == 21
    assert {f for f, _ in residuals} == set(HEAWOOD_FLAGS)


def test_solution_flag_residuals_meet_precision_bound(solutions):
    ctx = context(60)
    for cand in solutions:
        assert max_flag_residual(cand) < ctx.mpf(10) ** (4 - 60)


# ---------------------------------------------------------------------------
# collinearity


def test_collinearity_residual_tiny_on_solutions(solutions):
    ctx = context(60)
    for cand in solutions:
        assert collinearity_residual(cand) < ctx.mpf(10) ** (4 - 60)


def test_collinearity_residual_catches_violations(solutions):
    coords = {v: (p.x, p.y) for v, p in solutions[0].coords.items()}
    x, y = coords["P4"]
    coords["P4"] = (x, y + 0.01)
    off = candidate_from_coords(_dependent_only(coords), 60)
    assert float(collinearity_residual(off)) > 1e-3


# ---------------------------------------------------------------------------
# regularity


def test_regularity_margins_match_baselines(solutions):
    for cand, frozen in zip(solutions, MARGIN_BASELINES):
        margin = float(regularity_check(cand))
        assert margin > 0
        assert abs(margin - float(frozen)) < 1e-9 * max(1.0, float(frozen))


def test_degenerate_candidate_has_zero_margin(solutions):
    # drop P1 onto the midpoint of the non-incident edge (P5, l5)
    coords = {v: (p.x, p.y) for v, p in solutions[0].coords.items()}
    coords["P1"] = (0.5, 0.0)
    ctx = context(60)
    degenerate = candidate_from_coords(_dependent_only(coords), 60)
    assert regularity_check(degenerate) < ctx.mpf(10) ** -50
    assert _agrees_with_clamped(degenerate) == 0


def _agrees_with_clamped(cand):
    # the margin equals the clamped point-segment minimum to within ten
    # units of the candidate's last digit, and the float-screened scans
    # return the very mpf numbers of the scans over every term
    margin = regularity_check(cand)
    assert abs(margin - clamped_margin(cand)) <= cand.context().mpf(10) ** (1 - cand.precision)
    assert margin == full_regularity(cand)
    assert min_vertex_separation(cand) == full_separation(cand)
    return margin


def test_one_separation_scan():
    # solve filters degenerate zeros and verify measures the margin with
    # the one scan that chain defines
    assert solver.min_vertex_separation is chain.min_vertex_separation
    assert verify.min_vertex_separation is chain.min_vertex_separation


def test_regularity_matches_clamped_formula_on_solutions(solutions, low_precision_solutions):
    deep = [newton_polish(c, 300) for c in solutions]
    for found in (low_precision_solutions[15], solutions, deep):
        assert len(found) == 11
        for cand in found:
            _agrees_with_clamped(cand)


def test_regularity_minimum_at_a_foot_and_at_a_vertex_pair(solutions):
    # every embedding's margin is a perpendicular foot inside an edge
    foot = solutions[0]
    assert _agrees_with_clamped(foot) < min_vertex_separation(foot)
    # l1 just off P1, on the side away from every other edge at either of
    # them: the margin is the distance of the pair
    ctx = context(60)
    coords = {v: (p.x, p.y) for v, p in foot.coords.items()}
    x, y = coords["P1"]
    coords["l1"] = (x + ctx.mpf("0.001"), y - ctx.mpf("0.001"))
    pair = candidate_from_coords(coords, 60)
    margin = _agrees_with_clamped(pair)
    assert margin == min_vertex_separation(pair)
    assert abs(margin - ctx.sqrt(2) / 1000) < ctx.mpf(10) ** -55


@pytest.mark.parametrize("kind", ["moved", "coincident", "on an edge"])
def test_regularity_matches_clamped_formula_on_perturbations(kind, solutions):
    # seeded moves of every vertex by up to 0.05; then two vertices made to
    # coincide, or a vertex put inside an edge it is not an end of
    rng = random.Random(f"regularity {kind}")
    for _ in range(50):
        digits = rng.choice((15, 60, 300))
        ctx = context(digits)
        coords = {
            v: (ctx.mpf(p.x) + rng.uniform(-0.05, 0.05), ctx.mpf(p.y) + rng.uniform(-0.05, 0.05))
            for v, p in rng.choice(solutions).coords.items()
        }
        if kind == "coincident":
            v, w = rng.sample(sorted(coords), 2)
            coords[v] = coords[w]
        elif kind == "on an edge":
            a, b = rng.choice(HEAWOOD_FLAGS)
            v = rng.choice(sorted(set(coords) - {a, b}))
            t = ctx.mpf(rng.uniform(0.1, 0.9))
            (ax, ay), (bx, by) = coords[a], coords[b]
            coords[v] = (ax + t * (bx - ax), ay + t * (by - ay))
        margin = _agrees_with_clamped(candidate_from_coords(coords, digits))
        if kind != "moved":
            assert margin < ctx.mpf(10) ** (1 - digits)


def _moved(solution, digits=60, **moves):
    coords = {v: (p.x, p.y) for v, p in solution.coords.items()}
    coords.update(moves)
    return candidate_from_coords(coords, digits)


def test_screen_falls_back_beyond_its_bounds(solutions):
    # a coordinate beyond SCREEN_BOUND, or an edge whose float squared
    # length leaves [1/4, 4], puts every term into mpf
    ctx = context(60)
    x, y = solutions[0].coords["P1"]
    far = _moved(solutions[0], P1=(x + 9, y))
    assert chain.float_screen(far) is None
    assert len(verify._screened_feet(far)) == 252
    short = _moved(solutions[0], l1=(x + ctx.mpf("0.3"), y))
    assert chain.float_screen(short) is not None
    assert len(verify._screened_feet(short)) == 252
    assert chain.float_screen(_moved(solutions[0], digits=14)) is None
    for cand in (far, short):
        _agrees_with_clamped(cand)


def test_screen_keeps_a_foot_next_to_an_edge_end(solutions):
    # l1 on the edge (P2, l2), 1e-12 of its length from P2: the float dot
    # cannot tell whether the foot is inside, so the term goes to mpf, and
    # its foot distance, not the separation of l1 and P2, is the margin
    ctx = context(60)
    (ax, ay), (bx, by) = solutions[0].coords["P2"], solutions[0].coords["l2"]
    t = ctx.mpf("1e-12")
    cand = _moved(solutions[0], l1=(ax + t * (bx - ax), ay + t * (by - ay)))
    selected = verify._screened_feet(cand)
    assert ("l1", "P2", "l2") in selected and len(selected) < 252
    margin = _agrees_with_clamped(cand)
    assert margin < ctx.mpf(10) ** -50
    assert abs(min_vertex_separation(cand) - t) < ctx.mpf(10) ** -13


def _place(coords, edge, distance, ctx):
    # the point at ``distance`` from the midpoint of ``edge``, along its normal
    (ax, ay), (bx, by) = (coords[v] for v in edge)
    length = ctx.sqrt((bx - ax) ** 2 + (by - ay) ** 2)
    return ((ax + bx) / 2 - distance * (by - ay) / length, (ay + by) / 2 + distance * (bx - ax) / length)


def _foot2(points, term):
    # the squared foot distance of a (vertex, edge end, edge end) term
    _, length2, cross = verify._foot(*(points[u] for u in term))
    return cross ** 2 / length2


def test_screen_keeps_near_tied_minima(solutions):
    # two vertex pairs, and two feet, whose distances differ by 1e-23, far
    # below float resolution: the float order is reversed about half the
    # time, and the mpf value of the least must still come back
    ctx = context(60)
    dependent = ["P1", "P3", "P4", "P6", "l1", "l2", "l4", "l6"]
    rng = random.Random("near-tied minima")
    reversed_pairs = reversed_feet = 0
    for _ in range(40):
        solution = rng.choice(solutions)
        coords = {v: (p.x, p.y) for v, p in solution.coords.items()}
        v, w, x, y = rng.sample(dependent, 4)
        r = ctx.mpf("1e-3")
        phi, psi = (ctx.mpf(rng.uniform(0, 2 * math.pi)) for _ in range(2))
        coords[w] = (coords[v][0] + r * ctx.cos(phi), coords[v][1] + r * ctx.sin(phi))
        r = r * (1 - ctx.mpf("1e-20"))
        coords[y] = (coords[x][0] + r * ctx.cos(psi), coords[x][1] + r * ctx.sin(psi))
        cand = candidate_from_coords(coords, 60)
        flt = chain.float_screen(cand)
        assert full_separation(cand) == ctx.sqrt(distance_squared(cand.coords[x], cand.coords[y]))
        assert min_vertex_separation(cand) == full_separation(cand)
        reversed_pairs += distance_squared(flt[x], flt[y]) > distance_squared(flt[v], flt[w])

        coords = {v: (p.x, p.y) for v, p in solution.coords.items()}
        first, second = rng.sample(HEAWOOD_FLAGS, 2)
        v, w = rng.sample(sorted(set(dependent) - set(first) - set(second)), 2)
        coords[v] = _place(coords, first, ctx.mpf("1e-3"), ctx)
        coords[w] = _place(coords, second, ctx.mpf("1e-3") * (1 - ctx.mpf("1e-20")), ctx)
        cand = candidate_from_coords(coords, 60)
        assert regularity_check(cand) == full_regularity(cand)
        least, near, flt = (w, *second), (v, *first), chain.float_screen(cand)
        if len(verify._screened_feet(cand)) < 252 and regularity_check(cand) == ctx.sqrt(_foot2(cand.coords, least)):
            reversed_feet += _foot2(flt, least) > _foot2(flt, near)
    assert reversed_pairs >= 10 and reversed_feet >= 3


# ---------------------------------------------------------------------------
# charpoly cross-certification


def test_bracket_sign_change_for_all_solutions(solutions):
    for cand in solutions:
        lo, hi, ok = charpoly_bracket(cand)
        assert ok
        assert hi - lo == Fraction(1, 10 ** 20)


@pytest.mark.parametrize("x_l4", ["1e100000", "-1e100000", "1e-100000", "1e-10000", "1e1000000"])
def test_bracket_of_extreme_x_l4_stays_small(x_l4, solutions):
    # far outside the root bound, or with a huge denominator, x_l4 yields a
    # bracket of small rationals, exactly the default width, and no sign change
    cand = solutions[0]
    coords = {v: (p.x, p.y) for v, p in cand.coords.items()}
    coords["l4"] = (cand.context().mpf(x_l4), coords["l4"][1])
    started = time.perf_counter()
    lo, hi, ok = charpoly_bracket(candidate_from_coords(_dependent_only(coords), 60))
    assert time.perf_counter() - started < 5
    assert not ok
    assert hi - lo == Fraction(1, 10 ** 20)
    assert max(abs(lo.numerator), lo.denominator, abs(hi.numerator), hi.denominator).bit_length() < 300


def test_solutions_land_in_distinct_isolating_intervals(solutions, poly):
    intervals = isolate_real_roots(poly)
    hits = []
    for cand in solutions:
        x = Fraction(str(float(cand.coords["l4"].x)))
        containing = [
            k for k, iv in enumerate(intervals) if iv.lo < x <= iv.hi
        ]
        assert len(containing) == 1
        hits.append(containing[0])
    assert sorted(hits) == list(range(11))


# ---------------------------------------------------------------------------
# table matching and certificates


def test_match_table_strict_tolerance(solutions, tables, printed_row_nine):
    assert MATCH_TOL == "1e-13"
    matches = [match_table(c, tables) for c in solutions]
    # every row matches exactly one solution at 1e-13
    assert sorted(matches) == list(range(1, 12))
    # row 9 as printed is only ~1e-11 accurate, so it matches none
    assert all(match_table(c, [printed_row_nine]) is None for c in solutions)


def test_certify_solutions_pass(solutions):
    certs = [certify(c) for c in solutions]
    assert all(c.passes for c in certs)
    assert all(c.provenance_ok and c.pinned_ok for c in certs)
    # the certificate keeps the bracket whose end point signs it compared
    assert [c.bracket for c in certs] == [charpoly_bracket(c)[:2] for c in solutions]
    assert certs[0].matched_table == 1
    assert all(c.precision == 60 for c in certs)


def test_low_precision_solutions_pass(low_precision_solutions, solutions):
    # the bracket around x_l4 widens with the residual tolerance below 24
    # digits, so solve's own 15- and 20-digit output certifies
    for digits, found in low_precision_solutions.items():
        assert len(found) == 11
        failing = [k for k, c in enumerate(found) if not certify(c).passes]
        assert failing == [], f"{digits}-digit solutions {failing} fail"
    # below MIN_DIGITS nothing passes, though the wider bracket and the
    # residual bound alone would let these through
    coarse = [candidate_from_coords(c.coords, 14) for c in solutions]
    assert not any(certify(c).passes for c in coarse)


@pytest.mark.parametrize("vertex", sorted(FIXED_POSITIONS))
@pytest.mark.parametrize("axis", [0, 1])
def test_pinned_coordinate_moved_by_1e_50_fails(vertex, axis, solutions):
    ctx = context(60)
    coords = {v: [p.x, p.y] for v, p in solutions[0].coords.items()}
    coords[vertex][axis] += ctx.mpf(10) ** -50
    cert = certify(candidate_from_coords(coords, 60))
    assert not cert.pinned_ok
    assert not cert.passes


def test_pinned_check_alone_fails_a_move_below_the_residual_tolerance(solutions):
    # P2 raised by 1e-58 keeps every residual under 10^-56: only the
    # pinned check sees it
    ctx = context(60)
    coords = {v: (p.x, p.y) for v, p in solutions[0].coords.items()}
    coords["P2"] = (ctx.mpf(0), 2 + ctx.mpf(10) ** -58)
    cert = certify(candidate_from_coords(coords, 60))
    assert cert.max_flag_residual < ctx.mpf(10) ** -56
    assert cert.charpoly_bracket_ok and cert.provenance_ok and cert.regularity_margin > 0
    assert not cert.pinned_ok
    assert not cert.passes


def test_certificate_json_fields(solutions):
    cert = certify(solutions[0])
    data = cert.to_json_dict()
    assert data["pass"] is True
    assert set(data) >= {"pass", "max_flag_residual", "provenance_ok", "pinned_ok", "regularity_margin", "matched_table"}


def test_certify_non_solution_fails_on_closure_flag():
    # a chain candidate away from any zero satisfies every constraint
    # except the closure flag, whose residual (about 0.51 here) dominates
    cand = build_chain("2.2", "000000", 60)
    cert = certify(cand)
    assert not cert.passes
    assert abs(float(cert.max_flag_residual) - abs(float(cand.closure))) < 1e-12
    assert 0.4 < float(cert.max_flag_residual) < 0.6
    residuals = dict(flag_residuals(cand))
    assert residuals[("P1", "l1")] == max(residuals.values())
    assert cert.matched_table is None


def test_certification_is_path_independent(solutions):
    # serialize, reload, recertify: identical verdicts
    from heawood_udg.chain import candidate_from_json_dict, candidate_to_json_dict

    cand = solutions[0]
    reloaded = candidate_from_json_dict(candidate_to_json_dict(cand))
    a = certify(cand)
    b = certify(reloaded)
    assert a.passes and b.passes
    assert a.matched_table == b.matched_table


def test_precision_escalation(table_seeds):
    # doubling the working precision at least doubles the zero digits of
    # the worst flag residual
    seed = table_seeds[0]
    at60 = newton_polish(seed, 60)
    at120 = newton_polish(at60, 120)
    ctx60, ctx120 = context(60), context(120)
    assert max_flag_residual(at60) < ctx60.mpf(10) ** (4 - 60)
    assert max_flag_residual(at120) < ctx120.mpf(10) ** (4 - 120)
