from __future__ import annotations

import itertools
from collections import Counter

import pytest

from heawood_udg.incidence import (
    ALL_VERTICES,
    HEAWOOD_FLAGS,
    LINE_POINTS,
    LINES,
    POINTS,
    girth,
    verify_fano_axioms,
)


def test_exactly_fourteen_labels():
    # sorted order is points first, each kind by index: JSON keys, flags
    # and SVG markers all come out in this order
    assert len(set(ALL_VERTICES)) == 14
    assert ALL_VERTICES == tuple(sorted(ALL_VERTICES))
    assert ALL_VERTICES[0] == "P1" and ALL_VERTICES[6] == "P7" and ALL_VERTICES[7] == "l1"


def test_heawood_has_21_flags():
    assert len(set(HEAWOOD_FLAGS)) == 21
    assert HEAWOOD_FLAGS == tuple(sorted(HEAWOOD_FLAGS))
    assert all(p in POINTS and ln in LINES for p, ln in HEAWOOD_FLAGS)


def test_rectangle_cycle_flags_present():
    expected = {
        ("P5", "l5"), ("P7", "l5"), ("P7", "l7"),
        ("P2", "l7"), ("P2", "l3"), ("P5", "l3"),
    }
    assert expected <= set(HEAWOOD_FLAGS)


def test_documented_line_triples():
    assert sorted(LINE_POINTS) == list(LINES)
    assert LINE_POINTS["l1"] == {"P7", "P3", "P1"}
    assert LINE_POINTS["l2"] == {"P2", "P4", "P1"}
    assert LINE_POINTS["l4"] == {"P4", "P3", "P6"}
    assert LINE_POINTS["l6"] == {"P5", "P6", "P1"}


def test_p1_p2_share_only_l2():
    common = [ln for ln, pts in LINE_POINTS.items() if {"P1", "P2"} <= pts]
    assert common == ["l2"]


def test_every_point_pair_has_unique_line():
    # independent exhaustive check over all C(7,2) pairs
    for p, q in itertools.combinations(POINTS, 2):
        common = [ln for ln, pts in LINE_POINTS.items() if p in pts and q in pts]
        assert len(common) == 1, f"{p},{q} lie on {common}"


def test_three_regular():
    degree = Counter(v for flag in HEAWOOD_FLAGS for v in flag)
    assert sorted(degree) == sorted(ALL_VERTICES)
    assert set(degree.values()) == {3}


def test_fano_axioms_pass():
    report = verify_fano_axioms(LINE_POINTS)
    assert report.all_pass


def test_altered_line_breaks_unique_line_axiom():
    lines = dict(LINE_POINTS)
    lines["l1"] = frozenset({"P7", "P3", "P2"})  # P2, P3 now on both l1 and l3
    report = verify_fano_axioms(lines)
    assert not report.unique_line_per_point_pair
    assert not report.all_pass


def test_two_point_line_breaks_cardinality_axiom():
    lines = dict(LINE_POINTS)
    lines["l1"] = frozenset({"P7", "P3"})
    report = verify_fano_axioms(lines)
    assert not report.three_points_per_line


def test_girth_is_six():
    assert girth(LINE_POINTS) == 6


def test_girth_of_plain_six_cycle():
    six_cycle = {
        "l1": frozenset({"P1", "P2"}),
        "l2": frozenset({"P2", "P3"}),
        "l3": frozenset({"P3", "P1"}),
    }
    assert girth(six_cycle) == 6


def test_girth_of_k33_incidence_is_four():
    # every line through all three points: any two lines share >= 2 points
    k33 = {ln: frozenset({"P1", "P2", "P3"}) for ln in ("l1", "l2", "l3")}
    assert girth(k33) == 4


def test_girth_rejects_acyclic():
    tree = {"l1": frozenset({"P1", "P2"})}
    with pytest.raises(ValueError):
        girth(tree)


def test_immutable_after_construction():
    with pytest.raises(TypeError):
        LINE_POINTS["l1"] = frozenset()
    assert all(type(pts) is frozenset for pts in LINE_POINTS.values())
