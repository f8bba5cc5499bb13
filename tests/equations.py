"""The constraint system written out as equations, for tests that check
the construction chain against the incidence structure, and its analytic
Jacobian, the oracle for the solver's Newton step.

Each entry names the unit-distance flags its equation pins, so the union
over all entries can be compared with the 21 flags of the Heawood graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from mpmath.ctx_mp import MPContext

from heawood_udg.chain import (
    CHAIN_STEPS,
    DEPENDENT_VERTICES,
    FIXED_POSITIONS,
    EmbeddingCandidate,
    fixed_points,
)
from heawood_udg.geom import Point2, distance_squared
from heawood_udg.incidence import POINTS
from heawood_udg.solver import _CIRCLE_PAIRS

# the pinned rectangle in cycle order: FIXED_POSITIONS lists it that way
RECTANGLE_CYCLE = tuple(FIXED_POSITIONS)


@dataclass(frozen=True)
class EquationEntry:
    """One constraint of the system with the unit-distance flags it pins.

    Kinds: ``unit-circle`` (one flag per circle equation), ``spacing``
    (d(l4, l5) = 2, which together with the midpoint equations pins the two
    P4 flags), ``midpoint`` (linear, non-flag), and ``rectangle-side``
    (pinned configuration edges).
    """

    eq_id: str
    kind: str
    flags: tuple


def equation_registry() -> tuple:
    """Every constraint of the system, in construction order."""
    entries = [
        EquationEntry("l4-l5-spacing", "spacing", (("P4", "l4"), ("P4", "l5"))),
        EquationEntry("P4-midpoint-x", "midpoint", ()),
        EquationEntry("P4-midpoint-y", "midpoint", ()),
    ]
    for vertex, ca, cb in CHAIN_STEPS:
        for center in (ca, cb):
            pair = (vertex, center) if vertex in POINTS else (center, vertex)
            entries.append(EquationEntry(f"{vertex}|{center}", "unit-circle", (pair,)))
    entries.append(EquationEntry("P1|l1-closure", "unit-circle", (("P1", "l1"),)))
    cycle = RECTANGLE_CYCLE
    for i, v in enumerate(cycle):
        w = cycle[(i + 1) % len(cycle)]
        pair = (v, w) if v in POINTS else (w, v)
        entries.append(EquationEntry(f"rect:{v}-{w}", "rectangle-side", (pair,)))
    return tuple(entries)


def registry_flags() -> frozenset:
    """The flag set induced by the full constraint system."""
    return frozenset(f for e in equation_registry() for f in e.flags)


def closure_residual(candidate: EmbeddingCandidate) -> Any:
    """The leftover unit-distance constraint d(P1, l1)^2 - 1."""
    return distance_squared(candidate.coords["P1"], candidate.coords["l1"]) - 1


# the Jacobian's columns: the 16 unknowns in construction order, x before y
VARIABLE_ORDER = tuple((v, axis) for v in DEPENDENT_VERTICES for axis in (0, 1))
_VAR_INDEX = {va: k for k, va in enumerate(VARIABLE_ORDER)}


def to_vector(ctx: MPContext, pos) -> list:
    """The unknowns of the positions ``pos`` in column order, at ``ctx``'s
    precision; also flattens a step of ``solver._chain_step``."""
    return [ctx.mpf(pos[v].x if axis == 0 else pos[v].y) for v, axis in VARIABLE_ORDER]


def to_positions(ctx: MPContext, vec: Sequence) -> dict:
    """The pinned rectangle plus the dependent vertices of the 16-vector
    ``vec``, the inverse of :func:`to_vector`."""
    pos = fixed_points(ctx)
    for k in range(0, len(vec), 2):
        pos[VARIABLE_ORDER[k][0]] = Point2(vec[k], vec[k + 1])
    return pos


def system_jacobian(ctx: MPContext, vec: Sequence) -> list:
    """Analytic Jacobian of :func:`heawood_udg.solver.system_residuals` at
    the 16-vector ``vec``: 16 sparse rows, each a ``{column: value}`` dict
    holding its non-zero entries (at most 4)."""
    pos = to_positions(ctx, vec)
    l4 = pos["l4"]
    half = ctx.mpf(1) / 2
    one = ctx.mpf(1)
    rows = [
        {_VAR_INDEX[("l4", 0)]: 2 * (l4.x - 1), _VAR_INDEX[("l4", 1)]: 2 * l4.y},
        {_VAR_INDEX[("P4", 0)]: one, _VAR_INDEX[("l4", 0)]: -half},
        {_VAR_INDEX[("P4", 1)]: one, _VAR_INDEX[("l4", 1)]: -half},
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
