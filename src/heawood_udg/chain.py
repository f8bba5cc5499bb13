"""The unit-distance constraint system as a compass-and-ruler chain.

Six vertices are pinned as a 1 x 2 rectangle with two edge midpoints.  One
further restriction places l4, P4, l5 on a common line, which forces
d(l4, l5) = 2 and makes P4 the midpoint of l4 and l5.  After parametrizing
l4 by an angle on the radius-2 circle around l5, each remaining vertex is
cut out by intersecting two unit circles around already-placed vertices,
one binary branch choice per step.  The last unit-distance constraint,
d(P1, l1) = 1, is left over as the closure residual; its zeros in the angle
are the unit-distance embeddings.  Vertices are their names, "P1".."l7",
and a branch vector is its six bits as a string, "000000".."111111", bit k
choosing the intersection point of the k-th entry of ``CHAIN_STEPS``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from itertools import combinations
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping, Sequence

from mpmath.libmp import from_int, from_rational, ften, mpf_mul, mpf_pow_int

from .geom import MAX_DIGITS, GeometryError, MPContext, Point2, context
from .geom import circle_circle_intersect, distance_squared
from .incidence import ALL_VERTICES

# Pinned rectangle cycle, in cycle order; coordinates are exact integers.
FIXED_POSITIONS = {"P5": (0, 0), "l5": (1, 0), "P7": (1, 1), "l7": (1, 2), "P2": (0, 2), "l3": (0, 1)}

# Construction order: (new vertex, first center, second center).  Each step
# intersects the unit circles around the two centers.
CHAIN_STEPS = (
    ("P3", "l3", "l4"),
    ("P6", "l7", "l4"),
    ("l2", "P2", "P4"),
    ("l1", "P7", "P3"),
    ("l6", "P5", "P6"),
    ("P1", "l2", "l6"),
)

DEPENDENT_VERTICES = ("l4", "P4") + tuple(step[0] for step in CHAIN_STEPS)


def _step_bits() -> tuple:
    # a chain vertex depends on its own branch bit and on its centres' bits
    bits: dict = {}
    for k, (vertex, ca, cb) in enumerate(CHAIN_STEPS):
        bits[vertex] = {k} | bits.get(ca, set()) | bits.get(cb, set())
    return tuple(tuple(sorted(bits[vertex])) for vertex, _, _ in CHAIN_STEPS)


# the branch bits that decide each step's vertex, in CHAIN_STEPS order
STEP_BITS = _step_bits()


def step_keys(branch: str) -> tuple:
    """The memo key of each of ``branch``'s circle steps, in ``CHAIN_STEPS``
    order: the step's index and the values of its ``STEP_BITS``, so branch
    vectors that agree on those bits share the step."""
    return tuple((k, *(branch[i] for i in bits)) for k, bits in enumerate(STEP_BITS))


class ChainBroken(GeometryError):
    """A construction step failed; ``step`` names the first failing vertex."""

    def __init__(self, step: str, reason: GeometryError):
        self.step = step
        super().__init__(f"chain broken at {step}: {reason}")


def all_branch_vectors() -> Iterator[str]:
    """The 64 branch vectors "000000".."111111" in binary order."""
    for k in range(2 ** len(CHAIN_STEPS)):
        yield format(k, f"0{len(CHAIN_STEPS)}b")


@dataclass(frozen=True)
class EmbeddingCandidate:
    """All 14 vertex positions, keyed by vertex name, plus the provenance
    of their construction."""

    coords: Mapping[str, Point2]
    theta: Any
    branch: str
    closure: Any
    precision: int

    def __post_init__(self):
        object.__setattr__(self, "coords", MappingProxyType(dict(self.coords)))
        missing = [v for v in ALL_VERTICES if v not in self.coords]
        if missing:
            raise ValueError(f"candidate is missing vertices: {missing}")

    def context(self) -> MPContext:
        return context(self.precision)


# The float screen of the separation and regularity scans.  With at least
# the 53 bits of a float and every coordinate within SCREEN_BOUND = 8, a
# float coordinate is within 8u of the mpf one (u = 2^-53).  A squared
# distance, or the dot product, squared length, cross product or foot
# distance of a vertex against an edge whose float squared length lies in
# [1/4, 4], then differs between floats and mpf, each rounding by at most u
# per operation, by less than 2^-36 (1 + v) for a term of value v.  So the
# term of least mpf value is within 2^-35 (1 + m) < SCREEN_SLACK (1 + m) of
# the least float value m, and an end of the test 0 < dot < length^2 that
# the float dot misses by more than SCREEN_SLACK is missed in mpf too.
SCREEN_BOUND = 8
SCREEN_SLACK = 1e-9


def float_screen(candidate: EmbeddingCandidate) -> dict | None:
    """The vertex positions as pairs of floats, keyed by vertex name, or
    None when the float screen does not apply: a precision below 53 bits,
    or a coordinate that is not finite or exceeds ``SCREEN_BOUND`` in size."""
    if candidate.context().prec < 53:
        return None
    flt = {v: Point2(float(p.x), float(p.y)) for v, p in candidate.coords.items()}
    if all(abs(p.x) <= SCREEN_BOUND and abs(p.y) <= SCREEN_BOUND for p in flt.values()):
        return flt
    return None


def near_minimum(terms: Sequence, values: Sequence, least: float) -> list:
    """The ``terms`` whose float ``values`` are at most ``SCREEN_SLACK``
    (1 + least) above ``least``, the float value of a term whose mpf value
    counts: by the bound above, the term of least mpf value is among them."""
    cut = (1 + SCREEN_SLACK) * least + SCREEN_SLACK
    return [term for term, value in zip(terms, values) if value <= cut]


def min_vertex_separation(candidate: EmbeddingCandidate):
    """Smallest pairwise distance between the 14 vertex positions.

    Floats screen the 91 pairs (:func:`float_screen`): only those near the
    least float distance are evaluated in mpf.  The pair of least mpf
    distance is among them, so the value is that of the full mpf scan,
    which runs when the screen does not apply."""
    coords = candidate.coords
    pairs = list(combinations(coords, 2))
    flt = float_screen(candidate)
    if flt is not None:
        d2 = [distance_squared(flt[a], flt[b]) for a, b in pairs]
        pairs = near_minimum(pairs, d2, min(d2))
    return candidate.context().sqrt(min(distance_squared(coords[a], coords[b]) for a, b in pairs))


def fixed_points(ctx: MPContext) -> dict:
    """The pinned rectangle at the context's precision (exact values)."""
    return {v: Point2(ctx.mpf(x), ctx.mpf(y)) for v, (x, y) in FIXED_POSITIONS.items()}


def place_l4(ctx: Any, theta: Any) -> Point2:
    """Place l4 on the radius-2 circle around l5 = (1, 0) at angle theta.

    ``ctx`` supplies ``cos`` and ``sin``: the mpmath context of ``theta``,
    or numpy for a float64 array of angles.
    """
    return Point2(1 + 2 * ctx.cos(theta), 2 * ctx.sin(theta))


def construct(
    l4: Point2, branch: str, fixed: Mapping, intersect: Callable, memo: dict | None = None
) -> tuple:
    """Walk the chain from l4; returns ``(coords, closure)``.

    ``fixed`` holds the pinned rectangle and ``intersect(c1, c2, bit)`` is
    the unit-circle step, so the same walk runs on mpf scalars and on
    float64 arrays.  A :class:`GeometryError` from a step is raised as
    :class:`ChainBroken` naming that step's vertex.  Walks of several
    branch vectors from the same ``l4`` may share a ``memo``: it keeps each
    step's vertex under the step's key from :func:`step_keys`, so no
    circle step is computed twice.
    """
    if len(branch) != len(CHAIN_STEPS) or set(branch) - {"0", "1"}:
        raise ValueError(f"branch vector must be {len(CHAIN_STEPS)} characters 0 or 1, got {branch!r}")
    memo = {} if memo is None else memo
    coords = dict(fixed)
    coords["l4"] = l4
    # exact halving: P4 is the midpoint of l4 and l5 by definition
    coords["P4"] = Point2((l4.x + 1) / 2, l4.y / 2)
    for (vertex, ca, cb), key, bit in zip(CHAIN_STEPS, step_keys(branch), branch):
        if key not in memo:
            try:
                memo[key] = intersect(coords[ca], coords[cb], int(bit))
            except GeometryError as exc:
                raise ChainBroken(vertex, exc) from exc
        coords[vertex] = memo[key]
    return coords, _closure_from_coords(coords)


def build_chain(theta: Any, branch: str, precision: int) -> EmbeddingCandidate:
    """Construct all 14 vertices for the given angle and branch vector.

    Raises :class:`ChainBroken` naming the first vertex whose defining
    circles fail to intersect cleanly.
    """
    ctx = context(precision)
    t = ctx.mpf(theta)
    # looked up per call, so a wrapper set on this module's name sees each step
    coords, closure = construct(place_l4(ctx, t), branch, fixed_points(ctx), circle_circle_intersect)
    return EmbeddingCandidate(
        coords=coords, theta=t, branch=branch, closure=closure, precision=precision
    )


def _closure_from_coords(coords: Mapping) -> Any:
    return distance_squared(coords["P1"], coords["l1"]) - 1


def branch_vector_of(coords: Mapping) -> str:
    """Recover the branch bits from vertex positions via orientation signs."""
    bits = ""
    for vertex, ca, cb in CHAIN_STEPS:
        a, u, q = coords[ca], coords[cb], coords[vertex]
        bits += "0" if (u.x - a.x) * (q.y - a.y) - (u.y - a.y) * (q.x - a.x) > 0 else "1"
    return bits


def candidate_from_coords(coords: Mapping, precision: int) -> EmbeddingCandidate:
    """Wrap externally supplied positions (reference data, polished output)
    keyed by vertex name.

    The angle parameter, branch vector and closure residual are derived
    from the coordinates; pinned vertices may be omitted and are filled in
    exactly.
    """
    ctx = context(precision)
    full = fixed_points(ctx)
    for v, (x, y) in coords.items():
        full[v] = Point2(ctx.mpf(x), ctx.mpf(y))
    l4 = full["l4"]
    theta = ctx.atan2(l4.y / 2, (l4.x - 1) / 2)
    if theta < 0:
        theta = theta + 2 * ctx.pi
    return EmbeddingCandidate(
        coords=full,
        theta=theta,
        branch=branch_vector_of(full),
        closure=_closure_from_coords(full),
        precision=precision,
    )


# ---------------------------------------------------------------------------
# Serialization

def candidate_to_json_dict(candidate: EmbeddingCandidate) -> dict:
    """Schema: theta/closure as decimal strings, branch as a bit array,
    vertices as full-precision decimal string pairs keyed "P1".."l7"."""
    ctx, digits = candidate.context(), candidate.precision
    return {
        "theta": ctx.nstr(candidate.theta, digits),
        "branch": [int(b) for b in candidate.branch],
        "precision": digits,
        "vertices": {
            v: [ctx.nstr(candidate.coords[v].x, digits), ctx.nstr(candidate.coords[v].y, digits)]
            for v in ALL_VERTICES
        },
        "closure": ctx.nstr(candidate.closure, digits),
    }


def _check_length(text: str) -> str:
    if len(text) > 2 * MAX_DIGITS:  # nstr at MAX_DIGITS prints at most 4/3 of that
        raise ValueError(f"number of {len(text)} characters in embeddings file, limit {2 * MAX_DIGITS}")
    return text


def _read_int(text: str) -> int:
    """A JSON integer literal, read by ``decimal`` past the 4,300 digits
    that Python's ``int()`` accepts."""
    return int(Decimal(_check_length(text)))


def _read_decimal(ctx: MPContext, text: str) -> Any:
    """``ctx.mpf(text)`` for a decimal string of any length: mpmath's
    ``from_str``, whose ``int()`` Python caps at 4,300 digits, with the
    digits read by ``decimal`` instead."""
    _check_length(text)
    float(text)  # from_str's syntax check: ValueError unless a float literal
    if not Decimal(text).is_finite():
        raise ValueError(f"non-finite number {text!r} in embeddings file")
    mantissa, _, exponent = text.strip().lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    frac = frac.rstrip("0")
    man, exp = _read_int(whole + frac), int(exponent or 0) - len(frac)
    prec, rnd = ctx._prec_rounding
    if abs(exp) > 400:
        return ctx.make_mpf(mpf_mul(from_int(man, prec + 10), mpf_pow_int(ften, exp, prec + 10), prec, rnd))
    return ctx.make_mpf(from_rational(man * 10 ** max(exp, 0), 10 ** max(-exp, 0), prec, rnd))


def candidate_from_json_dict(data: dict) -> EmbeddingCandidate:
    """Inverse of :func:`candidate_to_json_dict`; ValueError when the
    precision is not a JSON integer from 3 to ``MAX_DIGITS``, the branch is
    not a list of six JSON integers 0 or 1, a vertex name is not one of
    "P1".."l7", a vertex is not a list of two numbers, or a coordinate,
    ``theta`` or ``closure`` is not a JSON string or integer (as
    :func:`load_candidates` gives every JSON number), not a decimal
    literal, not finite, or a string longer than ``2 * MAX_DIGITS`` (the
    message names which vertex or field)."""
    precision = data["precision"]
    if type(precision) is not int:
        raise ValueError(f"precision must be a JSON integer, got {precision!r}")
    branch = data["branch"]
    if type(branch) is not list or [type(b) for b in branch] != [int] * len(CHAIN_STEPS) or set(branch) - {0, 1}:
        raise ValueError(f"branch must be a list of {len(CHAIN_STEPS)} JSON integers 0 or 1, got {branch!r}")
    if not 3 <= precision <= MAX_DIGITS:
        raise ValueError(f"precision must be between 3 and {MAX_DIGITS}, got {precision}")
    unknown = [name for name in data["vertices"] if name not in ALL_VERTICES]
    if unknown:
        raise ValueError(f"unknown vertex names in embeddings file: {unknown}")
    ctx = context(precision)

    def finite(value, where):
        # a JSON boolean, null, list or object is not a number; the loader
        # reads every float literal as a string, and an integer is finite
        if type(value) not in (str, int):
            raise ValueError(f"{where} holds {value!r}, which is not a number")
        try:
            return _read_decimal(ctx, value) if type(value) is str else ctx.mpf(value)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc

    coords = {}
    for name, xy in data["vertices"].items():
        if type(xy) is not list or len(xy) != 2:
            raise ValueError(f"vertex {name} must be a list of two numbers, got {xy!r}")
        coords[name] = Point2(finite(xy[0], f"vertex {name}"), finite(xy[1], f"vertex {name}"))
    return EmbeddingCandidate(
        coords=coords,
        theta=finite(data["theta"], "theta"),
        branch="".join(map(str, branch)),
        closure=finite(data["closure"], "closure"),
        precision=precision,
    )


def dump_candidates(candidates) -> str:
    """Serialize candidates to canonical JSON (stable across runs)."""
    payload = [candidate_to_json_dict(c) for c in candidates]
    return json.dumps(payload, indent=2) + "\n"


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; ValueError if it repeats a key."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r} in embeddings file")
        obj[key] = value
    return obj


def load_candidates(text: str) -> list:
    """Parse :func:`dump_candidates` output; ValueError if malformed (a
    repeated key included) or if it holds no embedding.  A JSON float literal
    is kept as its text, so its digits are read exactly, as a string's are."""
    data = json.loads(text, parse_int=_read_int, parse_float=str, object_pairs_hook=_unique_keys)
    if not isinstance(data, list) or not data:
        raise ValueError("embeddings file must hold a non-empty JSON list")
    try:
        return [candidate_from_json_dict(d) for d in data]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed embeddings file: {exc!r}") from exc
