from __future__ import annotations

from fractions import Fraction

import mpmath
import pytest

from heawood_udg import charpoly
from heawood_udg.charpoly import (
    BigPoly,
    IsolatingInterval,
    NotSquarefree,
    charpoly_xl4,
    count_real_roots,
    eval_exact,
    is_squarefree,
    isolate_real_roots,
    refine_root,
    root_bound,
    sign_at,
    sturm_chain,
)

# independently recomputed from the stored coefficient strings during
# development: the exact coefficient sum p(1) and alternating sum p(-1)
P_AT_ONE = 270121907476767733497473890516992000000000000000
P_AT_MINUS_ONE = -968232702940866945220608


# ---------------------------------------------------------------------------
# transcription guards


def test_constant_and_leading_coefficients(poly):
    assert poly.coefficients[0] == 3348011046054687446588586894387
    assert poly.coefficients[79] == 82521703002365615643033600000


def test_linear_coefficient(poly):
    assert poly.coefficients[1] == 273675328487397647237991825000783


def test_degree_and_length(poly):
    assert poly.degree == 79
    assert len(poly.coefficients) == 80
    assert all(c != 0 for c in (poly.coefficients[0], poly.coefficients[79]))


def test_checksum_guard_runs_on_load():
    # charpoly_xl4 re-verifies the table every call
    assert charpoly_xl4() == charpoly_xl4()


def test_coefficient_sum_matches_independent_total(poly):
    assert sum(poly.coefficients) == P_AT_ONE
    assert eval_exact(poly, 1) == P_AT_ONE


# ---------------------------------------------------------------------------
# exact evaluation


def test_eval_at_zero_is_constant_term(poly):
    assert eval_exact(poly, 0) == poly.coefficients[0]


def test_eval_at_minus_one(poly):
    assert eval_exact(poly, -1) == P_AT_MINUS_ONE


def test_eval_simple_poly():
    p = BigPoly((-1, 0, 1))  # T^2 - 1
    assert eval_exact(p, 1) == 0
    assert eval_exact(p, Fraction(1, 2)) == Fraction(-3, 4)


def test_sign_at_matches_eval(poly):
    for t in (Fraction(-1, 2), Fraction(-7, 10), Fraction(2), Fraction(-65537, 131072)):
        v = eval_exact(poly, t)
        s = sign_at(poly, t)
        assert s == (v > 0) - (v < 0)


# ---------------------------------------------------------------------------
# Sturm counting


def test_simple_root_counts():
    p = BigPoly((-1, 0, 1))  # T^2 - 1
    assert count_real_roots(p, -2, 2) == 2
    assert count_real_roots(p, 0, 2) == 1
    assert count_real_roots(p) == 2


def test_sturm_chain_shape(poly):
    chain = sturm_chain(poly)
    assert chain[0].degree == 79
    assert chain[1].degree == 78
    assert chain[-1].degree == 0  # squarefree: the chain ends in a constant
    degrees = [q.degree for q in chain]
    assert degrees == sorted(degrees, reverse=True)


def test_eleven_real_roots_total(poly):
    assert count_real_roots(poly) == 11


def test_eleven_real_roots_in_geometric_range(poly):
    assert count_real_roots(poly, -4, 4) == 11


def test_all_real_roots_lie_in_l4_circle_range(poly):
    # x_l4 = 1 + 2cos(theta), so every real root must fall in [-1, 3]
    assert count_real_roots(poly, None, -1) == 0
    assert count_real_roots(poly, 3, None) == 0
    assert count_real_roots(poly, -1, 3) == 11


def test_count_in_subinterval_matches_reference_rows(poly, tables):
    # derive the expected count from the reference x_l4 values themselves
    lo, hi = Fraction(-8, 10), Fraction(-6, 10)
    expected = sum(1 for t in tables if lo < Fraction(t["l4"][0]) <= hi)
    assert expected == 7
    assert count_real_roots(poly, lo, hi) == expected


def test_squarefree(poly):
    assert is_squarefree(poly)


def test_not_squarefree_raises():
    p = BigPoly((4, 0, -4, 0, 1))  # (T^2 - 2)^2
    assert not is_squarefree(p)
    with pytest.raises(NotSquarefree):
        count_real_roots(p)
    with pytest.raises(NotSquarefree):
        isolate_real_roots(p)


def test_root_bound_contains_all_roots(poly):
    bound = root_bound(poly)
    assert count_real_roots(poly, -bound, bound) == 11


# ---------------------------------------------------------------------------
# isolation and refinement


def test_isolates_eleven_disjoint_intervals(poly):
    intervals = isolate_real_roots(poly)
    assert len(intervals) == 11
    for a, b in zip(intervals, intervals[1:]):
        assert a.hi <= b.lo
    for iv in intervals:
        assert count_real_roots(poly, iv.lo, iv.hi) == 1


def test_isolation_never_reevaluates_a_point(poly, monkeypatch):
    # each interval carries the Sturm counts at its end points, so the chain
    # is evaluated once per split point and never again at an end point
    points = []
    variations_at = charpoly._variations_at

    def recording(chain, t):
        points.append(t)
        return variations_at(chain, t)

    monkeypatch.setattr(charpoly, "_variations_at", recording)
    assert len(isolate_real_roots(poly)) == 11
    assert len(points) == len(set(points))


def test_isolation_dodges_root_at_split_point():
    # T^3 - T has a root at 0, the exact midpoint of the first bisection
    p = BigPoly((0, -1, 0, 1))
    intervals = isolate_real_roots(p)
    assert len(intervals) == 3
    for iv, root in zip(intervals, (-1, 0, 1)):
        assert iv.lo < root <= iv.hi


def test_isolates_sqrt_two():
    p = BigPoly((-2, 0, 1))
    intervals = isolate_real_roots(p)
    assert len(intervals) == 2
    assert intervals[0].lo < Fraction(-1414214, 10 ** 6) < intervals[0].hi
    assert intervals[1].lo < Fraction(1414213, 10 ** 6) < intervals[1].hi


def test_refine_sqrt_two_to_30_digits():
    p = BigPoly((-2, 0, 1))
    pos = isolate_real_roots(p)[1]
    root = refine_root(p, pos, 30)
    assert mpmath.nstr(root, 30) == "1.41421356237309504880168872421"
    with mpmath.workdps(40):
        assert abs(root - mpmath.sqrt(2)) < mpmath.mpf("1e-29")


def test_refine_first_root_matches_reference_row(poly):
    intervals = isolate_real_roots(poly)
    root = refine_root(poly, intervals[0], 20)
    assert abs(float(root) - (-0.730124164909779)) < 1e-15


def test_refined_roots_pairwise_separated(poly):
    intervals = isolate_real_roots(poly)
    roots = [refine_root(poly, iv, 25) for iv in intervals]
    gaps = [abs(float(b - a)) for a, b in zip(roots, roots[1:])]
    assert min(gaps) > 1e-4  # closest pair is ~1.3e-3


def test_refine_rejects_sign_consistent_interval():
    p = BigPoly((-2, 0, 1))
    with pytest.raises(ValueError):
        refine_root(p, IsolatingInterval(Fraction(2), Fraction(3)), 10)


def test_refine_stops_at_an_exact_root_midpoint():
    # 2T - 1 vanishes at the first midpoint, which the bisection returns as is
    root = refine_root(BigPoly((-1, 2)), IsolatingInterval(Fraction(0), Fraction(1)), 10)
    assert root == 0.5


def test_isolating_interval_validation():
    with pytest.raises(ValueError):
        IsolatingInterval(Fraction(1), Fraction(1))


def test_polyroots_oracle_agrees(poly):
    # independent numerical route: simultaneous complex iteration finds all
    # 79 roots, of which exactly 11 are real and match the exact isolation;
    # coefficient conversion needs >= 47 digits to stay exact
    with mpmath.workdps(60):
        coeffs = [mpmath.mpf(c) for c in reversed(poly.coefficients)]
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
        assert len(roots) == 79
        reals = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-10)
    assert len(reals) == 11
    intervals = isolate_real_roots(poly)
    for r, iv in zip(reals, intervals):
        assert float(iv.lo) <= r <= float(iv.hi)
