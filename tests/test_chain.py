from __future__ import annotations

import json
import math

import numpy as np
import pytest

from equations import RECTANGLE_CYCLE, closure_residual, equation_registry, registry_flags

from heawood_udg.chain import (
    CHAIN_STEPS,
    FIXED_POSITIONS,
    ChainBroken,
    all_branch_vectors,
    branch_vector_of,
    build_chain,
    candidate_from_coords,
    candidate_from_json_dict,
    candidate_to_json_dict,
    dump_candidates,
    fixed_points,
    load_candidates,
    place_l4,
)
from heawood_udg.geom import Point2, context, distance_squared
from heawood_udg.incidence import ALL_VERTICES, HEAWOOD_FLAGS
from heawood_udg.solver import closure_grid


# ---------------------------------------------------------------------------
# fixed configuration and branch vectors


def test_fixed_rectangle_unit_sides():
    ctx = context(30)
    pos = fixed_points(ctx)
    cycle = list(RECTANGLE_CYCLE)
    for i, v in enumerate(cycle):
        w = cycle[(i + 1) % 6]
        assert distance_squared(pos[v], pos[w]) == 1


def test_branch_vector_validation():
    # a branch vector is six characters "0" or "1"; construct rejects the rest
    for bad in ("01", "0110000", "012000", "01100x", ""):
        with pytest.raises(ValueError):
            build_chain("2.5", bad, 30)
        with pytest.raises(ValueError):
            closure_grid(place_l4(np, np.array([2.5])), bad, {})
    assert list(all_branch_vectors()) == [format(k, "06b") for k in range(64)]
    assert list(all_branch_vectors())[0b011000] == "011000"


def test_branch_vector_space_has_64_elements():
    vectors = list(all_branch_vectors())
    assert len(vectors) == 64
    assert len(set(vectors)) == 64


# ---------------------------------------------------------------------------
# placement of l4 and the chain


def test_place_l4_on_the_x_axis():
    ctx = context(60)
    east = place_l4(ctx, 0)
    assert east.x == 3 and east.y == 0
    west = place_l4(ctx, ctx.pi)
    assert abs(west.x + 1) < ctx.mpf(10) ** -58
    assert abs(west.y) < ctx.mpf(10) ** -58


def test_place_l4_inverts_reference_row():
    # recover the angle from the first reference row's l4 and re-place it
    ctx = context(60)
    l4x = ctx.mpf("-0.730124164909779")
    l4y = ctx.mpf("1.003329643733922")
    theta = ctx.atan2(l4y / 2, (l4x - 1) / 2)
    q = place_l4(ctx, theta)
    assert abs(q.x - l4x) < ctx.mpf(10) ** -14
    assert abs(q.y - l4y) < ctx.mpf(10) ** -14
    # l4 sits on the radius-2 circle around l5
    assert abs(distance_squared(q, Point2(ctx.mpf(1), ctx.mpf(0))) - 4) < ctx.mpf(10) ** -57


TABLE1_THETA = "2.616070438111156233404996722814660879937"
TABLE1_BRANCH = "011000"


def test_build_chain_reproduces_first_reference_row():
    cand = build_chain(TABLE1_THETA, TABLE1_BRANCH, 60)
    ctx = cand.context()
    assert abs(cand.coords["P6"].x - ctx.mpf("0.106134457655163")) < ctx.mpf(10) ** -13
    assert abs(cand.coords["P6"].y - ctx.mpf("1.551664866189844")) < ctx.mpf(10) ** -13
    assert abs(cand.coords["l6"].x - ctx.mpf("-0.574170534719569")) < ctx.mpf(10) ** -13
    assert abs(cand.coords["l6"].y - ctx.mpf("0.818735730904572")) < ctx.mpf(10) ** -13
    assert abs(cand.closure) < ctx.mpf(10) ** -25


def test_build_chain_reproduces_last_reference_row():
    cand = build_chain("2.130841376482804410259009077561951520304", "001111", 60)
    ctx = cand.context()
    assert abs(cand.coords["l4"].x - ctx.mpf("-0.062448731920371")) < ctx.mpf(10) ** -13
    assert abs(cand.coords["l4"].y - ctx.mpf("1.694462360762491")) < ctx.mpf(10) ** -13
    assert abs(cand.coords["P4"].x - ctx.mpf("0.468775634039814")) < ctx.mpf(10) ** -13
    assert abs(cand.coords["P4"].y - ctx.mpf("0.847231180381246")) < ctx.mpf(10) ** -13


def test_midpoint_is_exact_halving():
    cand = build_chain("2.3", "000000", 40)
    l4, p4 = cand.coords["l4"], cand.coords["P4"]
    # computed by exact halving, so equality holds to the last bit
    assert p4.x == (l4.x + 1) / 2
    assert p4.y == l4.y / 2


def test_chain_breaks_at_p3_for_theta_zero():
    # l4 = (3, 0): the unit circles around l3 and l4 are far apart
    with pytest.raises(ChainBroken) as err:
        build_chain(0, "000000", 30)
    assert err.value.step == "P3"


def test_chain_breaks_at_p6_for_theta_half_pi():
    # l4 lands exactly on l7, making P6's two defining circles concentric
    ctx = context(30)
    with pytest.raises(ChainBroken) as err:
        build_chain(ctx.pi / 2, "000000", 30)
    assert err.value.step == "P6"


def test_chain_satisfies_both_defining_circles_everywhere():
    bound = context(40).mpf(10) ** (2 - 40)
    for theta in ("2.2", "2.45", "2.6"):
        for branch in ("000000", "011000", "111111"):
            try:
                cand = build_chain(theta, branch, 40)
            except ChainBroken:
                continue
            for bit, (vertex, ca, cb) in zip(cand.branch, CHAIN_STEPS):
                assert abs(distance_squared(cand.coords[vertex], cand.coords[ca]) - 1) < bound
                assert abs(distance_squared(cand.coords[vertex], cand.coords[cb]) - 1) < bound


def test_closure_residual_matches_definition():
    cand = build_chain("2.5", "101100", 30)
    p1, l1 = cand.coords["P1"], cand.coords["l1"]
    expected = (p1.x - l1.x) ** 2 + (p1.y - l1.y) ** 2 - 1
    assert closure_residual(cand) == expected == cand.closure


def test_closure_is_minus_one_when_p1_meets_l1():
    cand = build_chain("2.5", "101100", 30)
    coords = dict(cand.coords)
    coords["P1"] = coords["l1"]
    stacked = candidate_from_coords(
        {k: v for k, v in coords.items() if k not in FIXED_POSITIONS}, 30
    )
    assert closure_residual(stacked) == -1


def _closure_float(theta: float, bits) -> float:
    """Independent straight-line double-precision implementation."""

    def intersect(c1, c2, bit):
        dx, dy = c2[0] - c1[0], c2[1] - c1[1]
        d = math.hypot(dx, dy)
        h = math.sqrt(1 - (d / 2) ** 2)
        mx, my = c1[0] + dx / 2, c1[1] + dy / 2
        ux, uy = dx / d, dy / d
        return (mx - h * uy, my + h * ux) if bit == 0 else (mx + h * uy, my - h * ux)

    l4 = (1 + 2 * math.cos(theta), 2 * math.sin(theta))
    p4 = ((l4[0] + 1) / 2, l4[1] / 2)
    p3 = intersect((0, 1), l4, bits[0])
    p6 = intersect((1, 2), l4, bits[1])
    l2 = intersect((0, 2), p4, bits[2])
    l1 = intersect((1, 1), p3, bits[3])
    l6 = intersect((0, 0), p6, bits[4])
    p1 = intersect(l2, l6, bits[5])
    return (p1[0] - l1[0]) ** 2 + (p1[1] - l1[1]) ** 2 - 1


def test_closure_against_independent_float_implementation():
    cand = build_chain(2.0, "000000", 30)
    assert abs(float(cand.closure) - _closure_float(2.0, (0, 0, 0, 0, 0, 0))) < 1e-12
    # frozen value guards against silent changes in either implementation
    assert abs(float(cand.closure) - (-0.38454824854434927)) < 1e-13


def test_closure_continuity_on_fixed_branch():
    # adjacent samples of a successful chain differ by O(grid step);
    # the window stays below theta = 5*pi/6 where P6's circles separate
    branch = TABLE1_BRANCH
    step = 0.03 / 200
    thetas = [2.585 + k * step for k in range(201)]
    values = [float(build_chain(t, branch, 30).closure) for t in thetas]
    diffs = [abs(b - a) for a, b in zip(values, values[1:])]
    assert max(diffs) < 100 * step


def test_branch_vector_recovery():
    for branch in ("011000", "101100", "110111"):
        cand = build_chain("2.55", branch, 30)
        assert branch_vector_of(cand.coords) == branch


# ---------------------------------------------------------------------------
# equation registry


def test_registry_has_16_chain_equations_plus_rectangle():
    entries = equation_registry()
    chain_entries = [e for e in entries if e.kind != "rectangle-side"]
    rect_entries = [e for e in entries if e.kind == "rectangle-side"]
    assert len(chain_entries) == 16
    assert len(rect_entries) == 6


def test_registry_flags_equal_incidence_flags():
    assert registry_flags() == set(HEAWOOD_FLAGS)
    assert len(registry_flags()) == 21


def test_midpoint_equations_are_non_flag():
    by_id = {e.eq_id: e for e in equation_registry()}
    assert by_id["P4-midpoint-x"].kind == "midpoint"
    assert by_id["P4-midpoint-x"].flags == ()
    assert by_id["P4-midpoint-y"].flags == ()


def test_spacing_equation_pins_the_p4_flags():
    by_id = {e.eq_id: e for e in equation_registry()}
    assert set(by_id["l4-l5-spacing"].flags) == {("P4", "l4"), ("P4", "l5")}


def test_p3_l4_circle_equation_registered():
    entries = {e.eq_id: e for e in equation_registry()}
    assert ("P3", "l4") in entries["P3|l4"].flags
    assert entries["P3|l4"].kind == "unit-circle"


def test_closure_equation_registered():
    entries = {e.eq_id: e for e in equation_registry()}
    assert entries["P1|l1-closure"].flags == (("P1", "l1"),)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_is_byte_identical():
    cand = build_chain(TABLE1_THETA, TABLE1_BRANCH, 60)
    text = dump_candidates([cand])
    again = dump_candidates(load_candidates(text))
    assert text == again


def test_json_schema_fields():
    cand = build_chain("2.4", "000011", 30)
    data = candidate_to_json_dict(cand)
    assert set(data) == {"theta", "branch", "precision", "vertices", "closure"}
    assert isinstance(data["theta"], str)
    assert data["branch"] == [0, 0, 0, 0, 1, 1]
    assert data["precision"] == 30
    assert len(data["vertices"]) == 14
    assert all(isinstance(x, str) for xy in data["vertices"].values() for x in xy)
    json.dumps(data)  # serializable


def test_json_rejects_unknown_vertex_names():
    # vertices are keyed by their names, P1..P7 then l1..l7
    data = candidate_to_json_dict(build_chain("2.4", "000011", 30))
    assert tuple(data["vertices"]) == ALL_VERTICES
    # a name outside P1..P7, l1..l7 is rejected, every one named, before any
    # number is read
    for name in ("Q1", "P8", "p1"):
        data["vertices"][name] = ["nan", "0"]
    with pytest.raises(ValueError, match="unknown vertex") as err:
        candidate_from_json_dict(data)
    assert all(repr(name) in str(err.value) for name in ("Q1", "P8", "p1"))
    with pytest.raises(ValueError, match="unknown vertex"):
        load_candidates(json.dumps([data]))


def test_json_restores_coordinates_exactly():
    cand = build_chain("2.4", "000011", 30)
    restored = candidate_from_json_dict(candidate_to_json_dict(cand))
    ctx = cand.context()
    for v in cand.coords:
        assert abs(restored.coords[v].x - cand.coords[v].x) < ctx.mpf(10) ** -28
        assert abs(restored.coords[v].y - cand.coords[v].y) < ctx.mpf(10) ** -28
