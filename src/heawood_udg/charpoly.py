"""Exact real-root certification of the degree-79 coordinate polynomial.

The zero-dimensional constraint system behind the construction chain induces
a univariate characteristic polynomial for each coordinate: its roots are the
values that coordinate takes over all complex solutions.  The degree-79
polynomial for the x-coordinate of l4 is hard-coded in the table below.
Exact integer arithmetic isolates its real roots, which certifies the
solver's embeddings independently of the floating-point path that found
them.  Bisection of a small power-of-two interval, tested by Descartes'
rule of signs (Collins and Akritas, 1976), finds each root; the interval
printed for it is the largest node of a bisection of the Cauchy interval
that holds it alone.  :func:`refine_root` narrows it to any number of
digits: an Illinois estimate of the root at 30 digits, finished by Newton's
method at precisions that double up to the requested one with ``p``
evaluated in fixed point, names the interval that exact bisection would
reach, and exact signs confirm it.  At a point with a large denominator an
exact sign is first read from Horner's rule on an outward-rounded integer
interval, 300 bits finer than the point's denominator, and only a point
whose interval holds 0 is evaluated exactly (:func:`_sign_at`).
Isolation requires a squarefree polynomial, as this one is: a gcd modulo a
prime proves it, the exact Sturm chain decides when the prime cannot, and
:class:`NotSquarefree` is raised otherwise.

Coefficients are stored as decimal strings in one table and parsed at load
time; a checksum plus digit-count guard protects the transcription, which is
the single likeliest source of error in this module.  The checksum is
SHA-256 from CPython's built-in digest module, as ``random`` takes its
sha512: ``hashlib`` loads OpenSSL's libcrypto, about 3.6 MB of resident
memory in every process, for this one digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import gcd
from typing import Iterator, Sequence

from mpmath.libmp import from_man_exp, to_fixed, to_rational

from .geom import MAX_DIGITS, bisect_sign_change, context, illinois_estimate

try:
    # hashlib is heavy to load, so try the lean built-in digest first
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256


class NotSquarefree(Exception):
    """gcd(p, p') is nonconstant: the polynomial has multiple roots."""


# Coefficient table, constant term first.  Do not reformat: the checksum
# below is over exactly these digits.
_XL4_COEFF_STRINGS = (
    "3348011046054687446588586894387",  # T^0
    "273675328487397647237991825000783",  # T^1
    "10528063279784456967398200502468691",  # T^2
    "255652807673380729611728470237761555",  # T^3
    "4422420653730204080254904433581059629",  # T^4
    "58239553681851019741523172701651095197",  # T^5
    "608930205226991194133708856923335926849",  # T^6
    "5203227805425306398124203036880713293545",  # T^7
    "37109973679879574898320679050599920287450",  # T^8
    "224472408717775611491021156521892619843158",  # T^9
    "1166012291532956694933924468283307736346382",  # T^10
    "5253121604626527413065008160498494678879110",  # T^11
    "20690863770430719393270631202371992513434414",  # T^12
    "71715126275516155874072784490774971066237326",  # T^13
    "219897164806211674807756610736580167553542758",  # T^14
    "599083193386406195758633497190777431543886358",  # T^15
    "1455265549140319863369871581645012065857955441",  # T^16
    "3160933625571584072448347845721693351127774301",  # T^17
    "6152912915312070842952691100801887803370907305",  # T^18
    "10751995223766688842173817330681019107518783545",  # T^19
    "16888459659695355326863471817880692818622047623",  # T^20
    "23863989284324858347511498529857889181323950967",  # T^21
    "30346538554876120431728853077314517314609386819",  # T^22
    "34722813139066795200081139797717329223025992699",  # T^23
    "35716781564909427260214641236767872783162088204",  # T^24
    "32963773017875955980864755706102737727974961688",  # T^25
    "27201188778043412156622512508710379868716241416",  # T^26
    "19954407479150801176386566760213350973570196080",  # T^27
    "12902691890291653798206974719870993995735753540",  # T^28
    "7274584518541872070335933586256322019748139172",  # T^29
    "3550298683130683434462662943215234037891507412",  # T^30
    "1533983381070251025995839971747580678500964852",  # T^31
    "664103288660372783854070699409333594554864741",  # T^32
    "355269696471069385886754716351566237266830009",  # T^33
    "213238754173051016042819729417269617854966165",  # T^34
    "77130998985650655864689962089382720577858101",  # T^35
    "-57662664820854923809493690824194000968797973",  # T^36
    "-146045321267662575006252144965793560225509061",  # T^37
    "-164022007275895644197052849670790737036540873",  # T^38
    "-126213399593210124294769323126921742027688497",  # T^39
    "-67869160289243415287139367956058055810404822",  # T^40
    "-19570606574427556470966233073766236628787234",  # T^41
    "6140751881298455069763046326781936407849238",  # T^42
    "12720991312674958659494390034544200285598942",  # T^43
    "9840137643451726574992603743314811193317886",  # T^44
    "5180867575272248126071836905848828341927070",  # T^45
    "1923952833473734147443634652898764867278198",  # T^46
    "286935408276107233753158822122577885606822",  # T^47
    "-343872926425618669220741202688368202345065",  # T^48
    "-451645674349824891937650532097542435080453",  # T^49
    "-325157218431048323421805399697113970403121",  # T^50
    "-152272756904971138353148344210050406803617",  # T^51
    "-30934416501269415569285918492882277029311",  # T^52
    "21867253654523569285667250014704999794577",  # T^53
    "28955348159492426037443729536713509636773",  # T^54
    "17321709733106215547946139735151891780269",  # T^55
    "4733784662326174469816987234959768253776",  # T^56
    "-1650827959998751884275421145646879272940",  # T^57
    "-2435243231716218466580115477132980137292",  # T^58
    "-1097279690260575519531876572540059803892",  # T^59
    "-60617631026953339799378305296984824656",  # T^60
    "200727376265061817580032667984094835280",  # T^61
    "109385892925207478360122518287948266224",  # T^62
    "14201705397119143149709337683063717104",  # T^63
    "-11463391775661584618715895715025904128",  # T^64
    "-6556557400356413683063078157405200320",  # T^65
    "-898635822877066299154282762314323520",  # T^66
    "477056183905245971917488031692938304",  # T^67
    "254616663098419271111012531383618560",  # T^68
    "31343179682405215504161837658819584",  # T^69
    "-14303114368662112977785429692643328",  # T^70
    "-6892489761595983453459595854256128",  # T^71
    "-763800345871643605733535512788992",  # T^72
    "341989984727973884867396338188288",  # T^73
    "149189048927171391219263917572096",  # T^74
    "11025799477301561380923592949760",  # T^75
    "-8175821639408563679884718899200",  # T^76
    "-2120259444356145889512456192000",  # T^77
    "152135800369825007098920960000",  # T^78
    "82521703002365615643033600000",  # T^79
)

# sha256 over ",".join of the signed decimal strings, plus total digit count;
# the digest comes from CPython's built-in module, not from hashlib, which
# loads OpenSSL's libcrypto (3.6 MB of resident memory) for this one check.
_XL4_SHA256 = "5f8dcac162215c806eeb69e6e7a928c6ff11960456371529b9c4ccfc86477251"
_XL4_DIGIT_COUNT = 3271
_XL4_DEGREE = 79

# gcd(p, p') is taken modulo this prime (2^61 - 1) to prove squarefreeness.
_SQUAREFREE_PRIME = 2 ** 61 - 1

# refine_root estimates the root with this many digits beyond the requested
# ones (10 were too few to land in the final cell: evaluating the degree-79
# polynomial near its roots cancels up to 26 digits)
_ESTIMATE_GUARD_DIGITS = 40
# the precision of refine_root's whole-interval Illinois estimate; Newton
# steps at the requested precision halved while above this one, least
# first, carry it on, so only the last step runs near the requested one
_ESTIMATE_STAGE_DIGITS = 30
# _sign_at tries its integer-interval filter from this many bits of the
# denominator, with this many fraction bits beyond them: below the
# threshold the exact evaluation costs little (certify60's largest
# denominators have about 256 bits), and 300 guard bits absorb the 26
# digits that evaluating p near its roots cancels, with room to spare
_FILTER_MIN_BITS = 600
_FILTER_GUARD_BITS = 300


@dataclass(frozen=True)
class BigPoly:
    """Univariate polynomial with exact integer coefficients, index 0 = T^0."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0,)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self) -> int:
        return self.coefficients[-1]

    def is_zero(self) -> bool:
        return self.coefficients == (0,)

    def derivative(self) -> "BigPoly":
        if self.degree == 0:
            return BigPoly((0,))
        return BigPoly(tuple(k * c for k, c in enumerate(self.coefficients) if k > 0))


@dataclass(frozen=True)
class IsolatingInterval:
    """Open-below rational interval (lo, hi] containing exactly one real root;
    the end points are stored as :class:`~fractions.Fraction`."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not self.lo < self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} >= {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo



@cache
def charpoly_xl4() -> BigPoly:
    """The degree-79 polynomial whose real roots are the x_l4 values.

    Verifies the transcription guard (checksum, digit count, degree) before
    it parses the polynomial, once per process: later calls return the same
    immutable :class:`BigPoly`, and ``charpoly_xl4.__wrapped__`` runs the
    guard again.
    """
    joined = ",".join(_XL4_COEFF_STRINGS)
    digest = sha256(joined.encode("ascii")).hexdigest()
    if digest != _XL4_SHA256:
        raise AssertionError("coefficient table corrupted: checksum mismatch")
    digits = sum(len(s.lstrip("-")) for s in _XL4_COEFF_STRINGS)
    if digits != _XL4_DIGIT_COUNT:
        raise AssertionError("coefficient table corrupted: digit count mismatch")
    poly = BigPoly(tuple(int(s) for s in _XL4_COEFF_STRINGS))
    if poly.degree != _XL4_DEGREE:
        raise AssertionError("coefficient table corrupted: wrong degree")
    return poly


def _interval_sign(coeffs: Sequence[int], num: int, den: int, prec: int) -> int | None:
    """Sign of p(num/den), ``coeffs`` lowest degree first, from Horner's
    rule on an integer interval at ``prec`` fraction bits, or None when the
    interval holds 0.

    ``num/den`` lies in [x, x + 1]·2^-prec for x = floor(num·2^prec / den),
    and each step's product takes the least and the greatest of its four
    end products, rounded down and up, so the interval always holds the
    exact value of p (Brönnimann, Burnikel and Pion, Discrete Appl. Math.
    109, 2001; Shewchuk, Discrete Comput. Geom. 18, 1997).
    """
    x = (num << prec) // den
    lo = hi = 0
    for c in reversed(coeffs):
        # [lo, hi]·[x, x + 1], scaled by 2^prec twice; hi - lo has a few
        # hundred bits, so one full-size product serves both ends
        lo_x = lo * x
        hi_x = lo_x + (hi - lo) * x
        ends = (lo_x, lo_x + lo, hi_x, hi_x + hi)
        lo = (min(ends) >> prec) + (c << prec)
        hi = -(-max(ends) >> prec) + (c << prec)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return None


def _sign_at(p: BigPoly, num: int, den: int) -> int:
    """Sign of p(num/den) for den > 0, always the exact sign.

    The homogeneous integer evaluation forms c·den^k, numbers of up to the
    degree times the bits of ``den``.  So from ``_FILTER_MIN_BITS`` bits of
    ``den`` :func:`_interval_sign` tries first, at ``_FILTER_GUARD_BITS``
    fraction bits beyond those of ``den``, on numbers that stay near that
    size: 4 ms instead of 0.24 s for p at 3,000 digits.  The homogeneous
    evaluation decides below the threshold and wherever the interval holds
    0.
    """
    bits = den.bit_length()
    if bits >= _FILTER_MIN_BITS:
        sign = _interval_sign(p.coefficients, num, den, bits + _FILTER_GUARD_BITS)
        if sign is not None:
            return sign
    acc = 0
    power = 1  # den^k for the homogenized term
    for c in reversed(p.coefficients):
        acc = acc * num + c * power
        power *= den
    return (acc > 0) - (acc < 0)


def sign_at(p: BigPoly, t) -> int:
    t = Fraction(t)
    return _sign_at(p, t.numerator, t.denominator)


def _content(coeffs: Sequence[int]) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
        if g == 1:
            return 1
    return g or 1


def _primitive(coeffs: Sequence[int]) -> tuple:
    g = _content(coeffs)
    return tuple(c // g for c in coeffs)


def sturm_chain(p: BigPoly) -> tuple:
    """Sturm sequence of ``p`` over the integers.

    Uses pseudo-remainders with explicit sign tracking and primitive-part
    normalization: each element equals the classical rational Sturm chain
    element times a positive constant, so sign variations are unchanged
    while coefficients stay polynomially sized.  The last element is
    gcd(p, p') up to a constant factor.
    """
    chain = [BigPoly(_primitive(p.coefficients))]
    dp = p.derivative()
    if dp.is_zero():
        return tuple(chain)
    chain.append(BigPoly(_primitive(dp.coefficients)))
    while chain[-1].degree > 0:
        f = chain[-2].coefficients
        g = chain[-1].coefficients
        m = len(g) - 1
        lg = g[-1]
        work = list(f)
        mults = 0
        while len(work) - 1 >= m and any(work):
            shift = len(work) - 1 - m
            lf = work[-1]
            work = [lg * c for c in work]
            mults += 1
            for j, cg in enumerate(g):
                work[shift + j] -= lf * cg
            while len(work) > 1 and work[-1] == 0:
                work.pop()
        if not any(work):
            break  # exact division: gcd is the previous element
        # work == lg^mults * rem(f, g); flip so the element is a positive
        # multiple of -rem(f, g), as Sturm's construction requires
        sign_fix = -1 if (lg > 0 or mults % 2 == 0) else 1
        chain.append(BigPoly(_primitive([sign_fix * c for c in work])))
    return tuple(chain)


def root_bound(p: BigPoly) -> int:
    """Cauchy bound: every real root lies in (-B, B).  Isolation returns
    nodes of a bisection of (-B, B], so B fixes only the end points of the
    isolating intervals; the roots are found from a smaller bound."""
    lead = abs(p.leading_coefficient)
    biggest = max(abs(c) for c in p.coefficients[:-1]) if p.degree > 0 else 0
    bound = Fraction(biggest, lead) + 1
    return int(bound) + 1


def _power_of_two_bound(p: BigPoly) -> int:
    """Smallest power of two, at least 2, at or above the Fujiwara bound
    ``2 max(|c[n-k] / c[n]|^(1/k), |c[0] / (2 c[n])|^(1/n))``; every root
    ``z`` of ``p`` has ``|z|`` at most this."""
    coeffs = p.coefficients
    n = p.degree
    lead = abs(coeffs[-1])
    # the least half with base 2^(half k) >= |c[n-k]| for every term below,
    # base being |c[n]| for k < n and 2 |c[n]| for k = n
    terms = [(k, lead, abs(coeffs[n - k])) for k in range(1, n)] + [(n, 2 * lead, abs(coeffs[0]))]
    half = 0
    while any((base << (half * k)) < c for k, base, c in terms):
        half += 1
    return 2 ** (half + 1)


def _taylor_shifted(coeffs: Sequence[int]) -> Iterator[int]:
    """Coefficients of f(y + 1), lowest first, by repeated synthetic
    division; each is yielded as soon as it is final, coefficient i after
    pass i."""
    a = list(coeffs)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += a[j + 1]
        yield a[i]
    yield a[n]


def _compose(coeffs: Sequence[int], den: int, shift: int, scale: int) -> tuple:
    """Primitive part of a nonzero multiple of f((shift + scale y) / den)."""
    n = len(coeffs) - 1
    if not shift:
        return _primitive([c * den ** (n - k) * scale ** k for k, c in enumerate(coeffs)])
    # f(shift (1 + w) / den), then w = scale y / shift: the shift is by one
    a = list(_taylor_shifted([c * den ** (n - k) * shift ** k for k, c in enumerate(coeffs)]))
    return _primitive([c * scale ** k * shift ** (n - k) for k, c in enumerate(a)])


def _descartes_variations(q: Sequence[int]) -> int:
    """Sign variations of ``(1 + z)^n q(1 / (1 + z))``, capped at 2: an
    upper bound on the number of roots of ``q`` in (0, 1), equal to it in
    parity below the cap.  Isolation asks only whether it is 0, 1 or more,
    so the Taylor shift stops at the second variation."""
    variations, last = 0, 0
    for c in _taylor_shifted(q[::-1]):
        sign = (c > 0) - (c < 0)
        if sign:
            if sign == -last:
                variations += 1
                if variations == 2:
                    return 2
            last = sign
    return variations


def _require_squarefree(p: BigPoly) -> None:
    """Raise unless ``p`` is nonzero and squarefree.

    gcd(p, p') = 1 modulo a prime that does not divide the leading
    coefficient proves gcd(p, p') = 1 over the rationals; when the modular
    gcd is not constant the exact Sturm chain, which ends in gcd(p, p'),
    decides.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no real-root count")
    prime = _SQUAREFREE_PRIME
    f, df = p.coefficients, p.derivative().coefficients
    if p.leading_coefficient % prime == 0 or _gcd_degree_mod(f, df, prime) > 0:
        degree = sturm_chain(p)[-1].degree
        if degree > 0:
            raise NotSquarefree(f"gcd(p, p') has degree {degree}")


def _gcd_degree_mod(f: Sequence[int], g: Sequence[int], prime: int) -> int:
    """Degree of gcd(f, g) over the integers modulo ``prime``; ``f`` must
    not vanish there."""

    def reduced(coeffs):
        r = [c % prime for c in coeffs]
        while r and r[-1] == 0:
            r.pop()
        return r

    a, b = reduced(f), reduced(g)
    while b:
        inverse = pow(b[-1], -1, prime)
        while len(a) >= len(b):
            factor = a[-1] * inverse % prime
            offset = len(a) - len(b)
            for j, c in enumerate(b):
                a[offset + j] = (a[offset + j] - factor * c) % prime
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _split(p: BigPoly, a: Fraction, b: Fraction) -> tuple:
    """Where (a, b] is split, as the fraction of the way from ``a``, and the
    sign of ``p`` there: the midpoint, or when that is a root the first of
    3/7, 13/28, ... of the way that is not.  The ratios are all distinct and
    ``p`` has finitely many roots, so this terminates."""
    ratio, next_ratio = Fraction(1, 2), Fraction(3, 7)
    while True:
        sign = sign_at(p, a + (b - a) * ratio)
        if sign:
            return ratio, sign
        ratio, next_ratio = next_ratio, (next_ratio + Fraction(1, 2)) / 2


def _descartes_intervals(p: BigPoly) -> list:
    """Disjoint intervals (lo, hi], sorted, each holding exactly one root
    of the squarefree ``p`` strictly inside.

    Bisects (-2F, 2F], F the power-of-two Fujiwara bound, testing each node
    by Descartes' rule of signs: a node with no sign variation is dropped,
    one with a single variation kept, and the rest split.  The rule counts
    the open interval, so the start is 2F: a root may sit on F itself.
    """
    top = 2 * _power_of_two_bound(p)
    found: list = []
    # (a, b, source): source is (parent polynomial, den, shift, scale) for
    # _compose; each node's polynomial is made when it is visited, so the
    # right child's exists only after the left subtree is done
    todo: list = [(Fraction(-top), Fraction(top), (p.coefficients, 1, -top, 2 * top))]
    while todo:
        a, b, source = todo.pop()
        q = _compose(*source)
        variations = _descartes_variations(q)
        if variations < 2:
            if variations == 1:
                found.append((a, b))
            continue
        ratio, _ = _split(p, a, b)
        mid = a + (b - a) * ratio
        u, v = ratio.numerator, ratio.denominator
        todo.append((mid, b, (q, v, u, v - u)))
        todo.append((a, mid, (q, v, 0, u)))
    return found


def isolate_real_roots(p: BigPoly) -> list:
    """Disjoint rational isolating intervals, one per real root, sorted
    ascending; requires ``p`` squarefree.

    Descartes' rule of signs on a bisection of (-2F, 2F], F the power-of-two
    Fujiwara bound, finds an interval around each root.  The intervals
    returned are those of a second tree: it bisects (-B, B], B the Cauchy
    bound :func:`root_bound`, at midpoints, moving a split point that is a
    root, and returns the largest nodes that hold exactly one root.  A node
    carries the intervals of its roots, and the sign of ``p`` at its split
    point places each interval that straddles the split and narrows it.
    Both walks keep their own stacks, so the depth of a tree is not limited
    by recursion.
    """
    _require_squarefree(p)
    roots = _descartes_intervals(p)
    # p has the sign of its leading coefficient above its largest root and
    # changes sign at each simple root, so these are its signs at each hi
    sign_top = 1 if p.leading_coefficient > 0 else -1
    inside = [(lo, hi, sign_top * (-1) ** (len(roots) - 1 - k)) for k, (lo, hi) in enumerate(roots)]
    bound = root_bound(p)
    found: list = []
    todo: list = [(Fraction(-bound), Fraction(bound), inside)]
    while todo:
        a, b, inside = todo.pop()
        if len(inside) < 2:
            if inside:
                found.append(IsolatingInterval(a, b))
            continue
        ratio, sign_mid = _split(p, a, b)
        mid = a + (b - a) * ratio
        left, right = [], []
        for lo, hi, sign_hi in inside:
            if hi <= mid:
                left.append((lo, hi, sign_hi))
            elif lo >= mid:
                right.append((lo, hi, sign_hi))
            elif sign_mid == sign_hi:
                left.append((lo, mid, sign_mid))
            else:
                right.append((mid, hi, sign_hi))
        todo.append((mid, b, right))
        todo.append((a, mid, left))
    return found


def _fixed_value(coeffs: Sequence[int], mp, x):
    """``p(x)`` for the mpf ``x`` by integer Horner in fixed point at
    ``mp.prec`` fraction bits; ``coeffs`` is highest degree first."""
    prec = mp.prec
    t = to_fixed(x._mpf_, prec)
    acc = 0
    for c in coeffs:
        acc = ((acc * t) >> prec) + (c << prec)
    return mp.make_mpf(from_man_exp(acc, -prec, prec, "n"))


def refine_root(p: BigPoly, interval: IsolatingInterval, digits: int):
    """The midpoint, at a matching working precision, of the interval that
    halving ``interval`` until its width is below 10^-digits reaches.

    An estimate of the root names the final cell, which two exact signs
    confirm; ``p`` is evaluated in fixed point with guard digits.  An
    Illinois estimate over the whole of ``interval`` at no more than
    ``_ESTIMATE_STAGE_DIGITS`` digits is finished by Newton steps
    x - p(x) / p'(x) at ``digits`` halved while above that precision, least
    first: 32, 63, 125, 250, 500 and 1,000 digits for 1,000 (Brent and
    Zimmermann, Modern Computer Arithmetic, 2010, 4.2); a step where p or
    p' is exactly zero keeps its estimate.  From about 165 digits the
    confirming cell's end points have denominators past
    ``_FILTER_MIN_BITS``, so :func:`_sign_at`'s interval filter decides
    their signs: the 11 roots of p took 0.020 s instead of 0.13 s at 300
    digits, 0.056 s instead of 0.60 s at 1,000 and 0.21 s instead of 3.2 s
    at 3,000 on a 2-core VM.  An unconfirmed cell falls back to
    bisection, so the result is always the bisection's.  ``digits`` runs
    from 1 to ``MAX_DIGITS``.
    """
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must be between 1 and {MAX_DIGITS}, got {digits}")
    sign = partial(sign_at, p)
    lo, hi = interval.lo, interval.hi
    s_lo, s_hi = sign(lo), sign(hi)
    if s_lo == 0 or s_hi == 0:
        raise ValueError("interval endpoint is an exact root; shrink the interval")
    if s_lo == s_hi:
        raise ValueError("no sign change over the interval; not an isolating interval")
    width = Fraction(1, 10 ** digits)
    stage = min(digits, _ESTIMATE_STAGE_DIGITS)
    mp = context(stage + _ESTIMATE_GUARD_DIGITS)
    coeffs, d_coeffs = p.coefficients[::-1], p.derivative().coefficients[::-1]
    value = partial(_fixed_value, coeffs, mp)
    a, b, tol = (mp.mpf(t.numerator) / t.denominator for t in (lo, hi, Fraction(1, 1000 * 10 ** stage)))
    x = illinois_estimate(value, a, b, value(a), value(b), tol)
    # Newton steps at digits / 2^k, rounded up, from the greatest k that
    # leaves them above the estimate's precision down to k = 0: each step
    # doubles the digits it carries, and only the last runs near ``digits``
    k = 0
    while digits > _ESTIMATE_STAGE_DIGITS << k:
        k += 1
    while x is not None and k:
        k -= 1
        stage = -(-digits >> k)
        mp = context(stage + _ESTIMATE_GUARD_DIGITS)
        x = mp.mpf(x)
        f, df = _fixed_value(coeffs, mp, x), _fixed_value(d_coeffs, mp, x)
        if not f or not df:
            break  # at a root, or where Newton's step is undefined
        x -= f / df
    # the exact value of x, sign included, which ``man_exp`` drops
    estimate = None if x is None else Fraction(*to_rational(x._mpf_))
    lo, hi = bisect_sign_change(sign, lo, hi, s_lo, width, estimate=estimate)
    ctx = context(max(digits + 5, 15))
    mid = (lo + hi) / 2
    return ctx.mpf(mid.numerator) / ctx.mpf(mid.denominator)
