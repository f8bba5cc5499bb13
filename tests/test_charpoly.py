from __future__ import annotations

import math
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import mpmath
import pytest
from sturm import _variations, count_real_roots, sturm_chain

from heawood_udg import charpoly
from heawood_udg.charpoly import (
    BigPoly,
    IsolatingInterval,
    NotSquarefree,
    charpoly_xl4,
    isolate_real_roots,
    refine_root,
    root_bound,
    sign_at,
)
from heawood_udg.geom import MAX_DIGITS, bisect_sign_change, context

SRC = Path(__file__).resolve().parents[1] / "src"

# independently recomputed from the stored coefficient strings during
# development: the exact coefficient sum p(1) and alternating sum p(-1)
P_AT_ONE = 270121907476767733497473890516992000000000000000
P_AT_MINUS_ONE = -968232702940866945220608


def eval_exact(p: BigPoly, t) -> Fraction:
    """Exact Horner evaluation at an integer or rational point, the
    reference for ``sign_at``."""
    t = Fraction(t)
    acc = Fraction(0)
    for c in reversed(p.coefficients):
        acc = acc * t + c
    return acc


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
    # charpoly_xl4 verifies the table on its first call and hands every
    # later caller the same immutable polynomial; its uncached body, which
    # runs the guard again, parses the same one
    assert charpoly_xl4() is charpoly_xl4()
    assert charpoly_xl4.__wrapped__() == charpoly_xl4()


def test_checksum_guard_refuses_a_corrupted_table(monkeypatch):
    digits = list(charpoly._XL4_COEFF_STRINGS)
    digits[40] = digits[40][:-1] + str((int(digits[40][-1]) + 1) % 10)
    monkeypatch.setattr(charpoly, "_XL4_COEFF_STRINGS", tuple(digits))
    with pytest.raises(AssertionError, match="checksum mismatch"):
        charpoly_xl4.__wrapped__()


def test_checksum_guard_falls_back_to_hashlib():
    # without CPython's built-in digest modules the guard takes sha256 from
    # hashlib, which loads OpenSSL; it still passes the table and refuses
    # one with a digit changed
    code = (
        "import sys\n"
        'sys.modules["_sha2"] = sys.modules["_sha256"] = None\n'
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import hashlib\n"
        "from heawood_udg import charpoly\n"
        "assert charpoly.sha256 is hashlib.sha256\n"
        "assert charpoly.charpoly_xl4.__wrapped__() == charpoly.charpoly_xl4()\n"
        'assert "_hashlib" in sys.modules\n'
        "digits = list(charpoly._XL4_COEFF_STRINGS)\n"
        "digits[40] = digits[40][:-1] + str((int(digits[40][-1]) + 1) % 10)\n"
        "charpoly._XL4_COEFF_STRINGS = tuple(digits)\n"
        "try:\n"
        "    charpoly.charpoly_xl4.__wrapped__()\n"
        "except AssertionError as exc:\n"
        '    assert "checksum mismatch" in str(exc), exc\n'
        "else:\n"
        '    sys.exit("a corrupted table passed the guard")\n'
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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


def _shifted_by_binomials(q):
    # the coefficients of q(y + 1), lowest first, expanded term by term
    return [sum(c * math.comb(i, k) for i, c in enumerate(q) if i >= k) for k in range(len(q))]


def test_descartes_variations_stop_at_two(poly, monkeypatch):
    # the count is the full count of sign variations, capped at 2, on every
    # node isolation tests and on seeded polynomials
    tested = []
    variations = charpoly._descartes_variations

    def recording(q):
        tested.append(q)
        return variations(q)

    monkeypatch.setattr(charpoly, "_descartes_variations", recording)
    assert len(isolate_real_roots(poly)) == 11
    rng = random.Random("descartes cap")
    tested += [[rng.randint(-50, 50) for _ in range(rng.randint(1, 12))] for _ in range(300)]
    counts = set()
    for q in tested:
        shifted = _shifted_by_binomials(q[::-1])
        full = _variations((c > 0) - (c < 0) for c in shifted)
        assert variations(q) == min(full, 2)
        counts.add(full)
    assert {0, 1, 2, 3} <= counts


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
    assert sturm_chain(poly)[-1].degree == 0


def test_not_squarefree_raises():
    p = BigPoly((4, 0, -4, 0, 1))  # (T^2 - 2)^2
    assert sturm_chain(p)[-1].degree > 0
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


def test_isolation_and_refinement_never_build_the_sturm_chain(poly, monkeypatch):
    # a squarefree input is proved squarefree modulo a prime, so the exact
    # Sturm chain is built only when the prime cannot decide
    def forbidden(p):
        raise AssertionError("sturm_chain called")

    monkeypatch.setattr(charpoly, "sturm_chain", forbidden)
    intervals = isolate_real_roots(poly)
    assert len(intervals) == 11
    for iv in intervals:
        refine_root(poly, iv, 20)


def test_isolation_tests_no_node_twice(poly, monkeypatch):
    # each tree node's polynomial is built once and given the Descartes test
    # at most once
    tested = []
    variations = charpoly._descartes_variations

    def recording(q):
        tested.append(tuple(q))
        return variations(q)

    monkeypatch.setattr(charpoly, "_descartes_variations", recording)
    assert len(isolate_real_roots(poly)) == 11
    assert tested
    assert len(tested) == len(set(tested))


def test_descartes_tests_stay_small(poly, monkeypatch):
    # the Descartes tree starts at the power-of-two Fujiwara bound, not at
    # the Cauchy bound 4.3e17, so no tested polynomial grows past 1,000 bits
    # (started at the Cauchy bound, they reach 5,387)
    bits = []
    variations = charpoly._descartes_variations

    def recording(q):
        bits.append(max(abs(c).bit_length() for c in q))
        return variations(q)

    monkeypatch.setattr(charpoly, "_descartes_variations", recording)
    assert len(isolate_real_roots(poly)) == 11
    assert bits
    assert max(bits) < 1000


def test_isolation_dodges_root_at_split_point():
    # T^3 - T has a root at 0, the exact midpoint of the first bisection of
    # (-3, 3]; the split moves to 3/7 of the way, and these are the intervals
    # the Sturm-count bisection returned
    p = BigPoly((0, -1, 0, 1))
    intervals = isolate_real_roots(p)
    assert [(iv.lo, iv.hi) for iv in intervals] == [
        (Fraction(-3), Fraction(-3, 7)),
        (Fraction(-3, 7), Fraction(3, 7)),
        (Fraction(3, 7), Fraction(9, 7)),
    ]
    for iv, root in zip(intervals, (-1, 0, 1)):
        assert iv.lo < root <= iv.hi


def test_isolation_depth_is_not_limited_by_recursion():
    # T^3 - 2^3000: the Cauchy bound is about 2^3000 and the one real root
    # 2^1000, so the tree is about 2000 levels deep before a node is tested;
    # a single root makes the whole of (-B, B] its interval
    p = BigPoly((-(2 ** 3000), 0, 0, 1))
    bound = root_bound(p)
    assert [(iv.lo, iv.hi) for iv in isolate_real_roots(p)] == [(-bound, bound)]


def _record_sturm_chains(monkeypatch) -> list:
    """The polynomials whose exact Sturm chain the package builds."""
    chains = []
    chain = charpoly.sturm_chain

    def recording(q):
        chains.append(q)
        return chain(q)

    monkeypatch.setattr(charpoly, "sturm_chain", recording)
    return chains


def test_isolation_falls_back_to_sturm_when_the_prime_check_is_inconclusive(monkeypatch):
    # T^2 - P is squarefree, but modulo P it is T^2, a square
    prime = charpoly._SQUAREFREE_PRIME
    p = BigPoly((-prime, 0, 1))
    chains = _record_sturm_chains(monkeypatch)
    intervals = isolate_real_roots(p)
    assert chains == [p]
    # the first split, at 0, separates the roots +-sqrt(P)
    bound = root_bound(p)
    assert [(iv.lo, iv.hi) for iv in intervals] == [(-bound, 0), (0, bound)]


def test_isolation_takes_the_exact_route_when_the_prime_divides_the_leading_coefficient(monkeypatch):
    # P T^2 - 1 loses its degree modulo P, so the modular gcd proves nothing
    prime = charpoly._SQUAREFREE_PRIME
    p = BigPoly((-1, 0, prime))
    chains = _record_sturm_chains(monkeypatch)
    intervals = isolate_real_roots(p)
    assert chains == [p]
    assert [(iv.lo, iv.hi) for iv in intervals] == [(-2, 0), (0, 2)]


def test_exact_route_proves_a_square_not_squarefree(monkeypatch):
    # (P T - 1)^2: P divides the leading coefficient P^2, and the exact
    # chain ends in gcd(p, p') = P T - 1
    prime = charpoly._SQUAREFREE_PRIME
    p = BigPoly((1, -2 * prime, prime ** 2))
    chains = _record_sturm_chains(monkeypatch)
    with pytest.raises(NotSquarefree, match="gcd\\(p, p'\\) has degree 1"):
        isolate_real_roots(p)
    assert chains == [p]


def test_isolation_rejects_the_zero_polynomial():
    with pytest.raises(ValueError, match="zero polynomial"):
        isolate_real_roots(BigPoly((0,)))


def _sturm_bisection(p):
    # bisection on exact Sturm counts, the reference the Descartes route
    # must reproduce node for node
    bound = root_bound(p)
    result, stack = [], [(Fraction(-bound), Fraction(bound))]
    while stack:
        a, b = stack.pop()
        count = count_real_roots(p, a, b)
        if count == 1:
            result.append((a, b))
        elif count > 1:
            mid, ratio = (a + b) / 2, Fraction(3, 7)
            while sign_at(p, mid) == 0:
                mid = a + (b - a) * ratio
                ratio = (ratio + Fraction(1, 2)) / 2
            stack += [(a, mid), (mid, b)]
    return sorted(result)


# the small polynomials whose isolation is compared with the Sturm route,
# lowest coefficient first
SMALL_POLYNOMIALS = [
    (-2, 0, 1),
    (0, 24, -10, -15, 0, 1),  # roots -3, -2, 0, 1, 4; 0 is the first split point
    (720, -1764, 1624, -735, 175, -21, 1),  # roots 1, ..., 6
    (1, -20001, 100010000),  # roots 1/10000 and 1/10001
    (3, -7, 0, 5, -1, -2, 1),
    (-5, 0, 0, 0, 0, 0, 0, 1),
    # roots on the power-of-two Fujiwara bound F: Descartes' rule counts
    # an open interval, so a tree started at (-F, F] loses the root 2 of
    # T - 2 and -2 of T + 2 (F = 2), and 4 of T^2 - 2T - 8 (F = 4); T^2 - 4
    # has F = 4 as well, with its roots inside
    (-2, 1),
    (2, 1),
    (-4, 0, 1),
    (-8, -2, 1),
]


@pytest.mark.parametrize("coeffs", SMALL_POLYNOMIALS)
def test_isolation_matches_sturm_bisection(coeffs):
    p = BigPoly(coeffs)
    assert [(iv.lo, iv.hi) for iv in isolate_real_roots(p)] == _sturm_bisection(p)


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


def test_refine_equals_exact_bisection_for_every_root(poly):
    # the estimate must name the cell that halving to 10^-digits ends in
    for digits in (15, 60):
        width = Fraction(1, 10 ** digits)
        ctx = context(digits + 5)
        for iv in isolate_real_roots(poly):
            lo, hi = bisect_sign_change(lambda t: sign_at(poly, t), iv.lo, iv.hi, sign_at(poly, iv.lo), width)
            mid = (lo + hi) / 2
            root = refine_root(poly, iv, digits)
            assert root.context.dps == ctx.dps
            assert root == ctx.mpf(mid.numerator) / ctx.mpf(mid.denominator)


def test_refine_falls_back_to_bisection_on_a_root_at_a_cell_edge(monkeypatch):
    # 2^40 T - 1 vanishes at 2^-40, an end point of a 1e-20 cell of (0, 1]:
    # the exact signs cannot confirm a cell, and bisection stops at the root
    p = BigPoly((-1, 2 ** 40))
    calls, signs = [], []

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return bisect_sign_change(*args, **kwargs)

    def counted(q, t):
        signs.append(t)
        return sign_at(q, t)

    monkeypatch.setattr(charpoly, "bisect_sign_change", recording)
    monkeypatch.setattr(charpoly, "sign_at", counted)
    root = refine_root(p, IsolatingInterval(0, 1), 20)
    assert root == mpmath.mpf(2) ** -40
    # one bisection, given an estimate; the two end points and the two
    # confirming signs are not all it evaluates, so the halving ran
    assert len(calls) == 1
    assert calls[0].get("estimate") is not None
    assert len(signs) > 4


def test_refine_confirms_the_estimated_cell_for_every_root(poly, monkeypatch):
    # an estimate that misses its cell still gives the bisection's bytes but
    # falls back to halving to 10^-digits; only the count of exact signs
    # shows it (an estimate with its sign dropped misses every negative
    # root).  Each root takes its two end points and the two signs that
    # confirm the estimated cell, and nothing more
    intervals = isolate_real_roots(poly)
    assert any(iv.hi < 0 for iv in intervals)
    calls = []

    def counted(p, t):
        calls.append(t)
        return sign_at(p, t)

    monkeypatch.setattr(charpoly, "sign_at", counted)
    for digits in (15, 60, 300):
        for iv in intervals:
            calls.clear()
            refine_root(poly, iv, digits)
            assert len(calls) == 4, (digits, iv, len(calls))


@pytest.mark.parametrize("digits", [300, 1000])
def test_refine_estimates_at_full_precision_from_a_narrow_bracket(poly, monkeypatch, digits):
    # the whole-interval estimate runs at 30 digits and Newton's method
    # steps up through the requested precision halved, so only the last
    # step, one value of p and one of p', runs above half of it: a one-pass
    # estimate takes up to 48 evaluations at full precision per root at
    # 1,000 digits, and doubling from 30 digits took a second step at 960
    full = context(digits + charpoly._ESTIMATE_GUARD_DIGITS).prec
    half = context(-(-digits // 2) + charpoly._ESTIMATE_GUARD_DIGITS).prec
    fixed_value = charpoly._fixed_value
    precisions, signs = [], []

    def recorded_value(coeffs, mp, x):
        precisions.append(mp.prec)
        return fixed_value(coeffs, mp, x)

    def counted_sign(p, t):
        signs.append(t)
        return sign_at(p, t)

    monkeypatch.setattr(charpoly, "_fixed_value", recorded_value)
    monkeypatch.setattr(charpoly, "sign_at", counted_sign)
    for iv in isolate_real_roots(poly):
        precisions.clear()
        signs.clear()
        refine_root(poly, iv, digits)
        assert [prec for prec in precisions if prec > half] == [full, full], (iv, precisions)
        assert len(signs) == 4, (iv, len(signs))


def test_refine_keeps_an_estimate_at_a_multiple_root():
    # T^3 vanishes with its derivative at the Illinois estimate 0, where a
    # Newton step would divide by zero; the estimate is kept, and 0 is the
    # first midpoint the bisection meets
    root = refine_root(BigPoly((0, 0, 0, 1)), IsolatingInterval(-1, 1), 60)
    assert root == 0


def test_refine_equals_exact_bisection_at_a_multiple_root():
    # Newton's method converges only linearly to the triple root 1/3 of
    # (3T - 1)^3, so the estimate may miss its cell; the result is still
    # the bisection's
    p = BigPoly((-1, 9, -27, 27))
    iv = IsolatingInterval(0, 1)
    lo, hi = bisect_sign_change(partial(sign_at, p), iv.lo, iv.hi, sign_at(p, iv.lo), Fraction(1, 10 ** 60))
    mid = (lo + hi) / 2
    ctx = context(65)
    assert refine_root(p, iv, 60) == ctx.mpf(mid.numerator) / ctx.mpf(mid.denominator)


def test_refine_rejects_digits_above_max_digits():
    # past MAX_DIGITS a refinement runs for hours; the check comes first
    p = BigPoly((-2, 0, 1))
    with pytest.raises(ValueError, match=str(MAX_DIGITS)):
        refine_root(p, IsolatingInterval(1, 2), MAX_DIGITS + 1)


def test_isolating_interval_end_points_become_fractions():
    iv = IsolatingInterval(0, 0.5)
    assert (iv.lo, iv.hi) == (Fraction(0), Fraction(1, 2))
    assert all(type(t) is Fraction for t in (iv.lo, iv.hi))
    root = refine_root(BigPoly((-1, 3)), IsolatingInterval(0, 1), 20)
    assert root.context.nstr(root, 20) == "0.33333333333333333333"


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


# ---------------------------------------------------------------------------
# exact signs behind the interval filter


def _homogeneous_sign(p: BigPoly, t: Fraction) -> int:
    """Sign of p(t) by the homogeneous integer evaluation alone, the
    reference for the filtered ``sign_at``."""
    acc, power = 0, 1
    for c in reversed(p.coefficients):
        acc = acc * t.numerator + c * power
        power *= t.denominator
    return (acc > 0) - (acc < 0)


def _points_near_roots(p: BigPoly, bits: int, rng: random.Random, roots: int = 11) -> list:
    """Points m/D with D a random integer of ``bits`` bits, m one unit
    below, at and above the nearest to a real root of ``p`` times D, and a
    random distance up to 10^6 units away, near at most ``roots`` real
    roots of ``p`` drawn at random."""
    intervals = isolate_real_roots(p)
    intervals = rng.sample(intervals, min(roots, len(intervals)))
    den = rng.getrandbits(bits) | 1 << (bits - 1)
    points = []
    for iv in intervals:
        root = refine_root(p, iv, math.ceil(bits * math.log10(2)) + 5)
        near = int(root.context.nint(root * den))
        points += [Fraction(near + k, den) for k in (-1, 0, 1, rng.randint(-10 ** 6, 10 ** 6))]
    return points


def _recorded_filter(monkeypatch) -> list:
    # every answer of the interval filter: a sign, or None when it holds 0
    answers = []
    interval_sign = charpoly._interval_sign

    def recorded(*args):
        answers.append(interval_sign(*args))
        return answers[-1]

    monkeypatch.setattr(charpoly, "_interval_sign", recorded)
    return answers


# denominators from 60 to 3,000 digits, either side of the threshold; the
# exact evaluation of p takes about 0.04 s at 1,000 digits and 0.3 s at
# 3,000, so fewer of its roots are drawn there
@pytest.mark.parametrize("bits, roots", [(200, 11), (599, 11), (600, 11), (1000, 11), (3322, 4), (9966, 1)])
def test_filtered_sign_is_the_exact_sign_near_roots(poly, monkeypatch, bits, roots):
    rng = random.Random(bits)
    points = [(poly, t) for t in _points_near_roots(poly, bits, rng, roots)]
    for coeffs in SMALL_POLYNOMIALS:
        q = BigPoly(coeffs)
        points += [(q, t) for t in _points_near_roots(q, bits, rng)]
    answers = _recorded_filter(monkeypatch)
    for p, t in points:
        assert sign_at(p, t) == _homogeneous_sign(p, t), (bits, p.coefficients, t)
    # only denominators of the threshold's bits or more in lowest terms meet
    # the filter, and it decides at least half of them; a point it leaves
    # undecided is not wrong
    assert len(answers) == sum(t.denominator.bit_length() >= charpoly._FILTER_MIN_BITS for _, t in points)
    assert sum(answer is not None for answer in answers) >= len(answers) / 2


def test_filter_without_guard_bits_falls_back_to_the_exact_sign(poly, monkeypatch):
    # at as many fraction bits as the denominator has, rounding a point
    # within 2^-1000 of a root moves p by more than its value there, so the
    # interval holds 0 at every root and the exact evaluation decides
    den = 2 ** 1000 + 1
    points = []
    for iv in isolate_real_roots(poly):
        root = refine_root(poly, iv, 310)
        points.append(Fraction(int(root.context.nint(root * den)), den))
    monkeypatch.setattr(charpoly, "_FILTER_GUARD_BITS", 0)
    answers = _recorded_filter(monkeypatch)
    for t in points:
        assert sign_at(poly, t) == _homogeneous_sign(poly, t) != 0, t
    assert answers == [None] * len(points)


def test_filter_leaves_an_exact_rational_root_to_the_exact_sign(poly, monkeypatch):
    # (3^700 T - n) p vanishes at n / 3^700, 1,110 bits of denominator: the
    # interval holds the value 0, so the exact evaluation gives the 0
    answers = _recorded_filter(monkeypatch)
    den = 3 ** 700
    num = 2 * den // 3 + 1
    linear = (-num, den)
    product = [0] * (poly.degree + 2)
    for i, c in enumerate(poly.coefficients):
        for j, d in enumerate(linear):
            product[i + j] += c * d
    assert sign_at(BigPoly(product), Fraction(num, den)) == 0
    assert answers == [None]
