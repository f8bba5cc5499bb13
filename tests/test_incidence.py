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


def test_every_line_pair_meets_in_one_point():
    # the dual axiom over all C(7,2) line pairs; two lines through two
    # common points would close a 4-cycle, so with the graph bipartite and
    # the rectangle 6-cycle present the incidence graph has girth 6
    for m, n in itertools.combinations(LINES, 2):
        common = LINE_POINTS[m] & LINE_POINTS[n]
        assert len(common) == 1, f"{m},{n} meet in {sorted(common)}"


def test_three_regular():
    degree = Counter(v for flag in HEAWOOD_FLAGS for v in flag)
    assert sorted(degree) == sorted(ALL_VERTICES)
    assert set(degree.values()) == {3}


def test_immutable_after_construction():
    with pytest.raises(TypeError):
        LINE_POINTS["l1"] = frozenset()
    assert all(type(pts) is frozenset for pts in LINE_POINTS.values())
