from __future__ import annotations

import itertools

import pytest

from heawood_udg.incidence import (
    ALL_VERTICES,
    LINES,
    POINTS,
    IncidenceStructure,
    girth,
    verify_fano_axioms,
)


def test_exactly_fourteen_labels():
    # sorted order is points first, each kind by index: JSON keys, flags
    # and SVG markers all come out in this order
    assert len(set(ALL_VERTICES)) == 14
    assert ALL_VERTICES == tuple(sorted(ALL_VERTICES))
    assert ALL_VERTICES[0] == "P1" and ALL_VERTICES[6] == "P7" and ALL_VERTICES[7] == "l1"


def test_heawood_has_21_flags(inc):
    assert len(inc.flags) == 21
    assert all(p in POINTS and ln in LINES for p, ln in inc.flags)


def test_rectangle_cycle_flags_present(inc):
    expected = {
        ("P5", "l5"), ("P7", "l5"), ("P7", "l7"),
        ("P2", "l7"), ("P2", "l3"), ("P5", "l3"),
    }
    assert expected <= inc.flags


def test_documented_line_triples(inc):
    assert inc.lines["l1"] == {"P7", "P3", "P1"}
    assert inc.lines["l2"] == {"P2", "P4", "P1"}
    assert inc.lines["l4"] == {"P4", "P3", "P6"}
    assert inc.lines["l6"] == {"P5", "P6", "P1"}


def test_p1_p2_share_only_l2(inc):
    common = inc.lines_through("P1") & inc.lines_through("P2")
    assert common == {"l2"}


def test_every_point_pair_has_unique_line(inc):
    # independent exhaustive check over all C(7,2) pairs
    for p, q in itertools.combinations(POINTS, 2):
        common = [ln for ln, pts in inc.lines.items() if p in pts and q in pts]
        assert len(common) == 1, f"{p},{q} lie on {common}"


def test_three_regular(inc):
    adj = inc.adjacency()
    assert all(len(nbrs) == 3 for nbrs in adj.values())
    assert len(adj) == 14


def test_fano_axioms_pass(inc):
    report = verify_fano_axioms(inc)
    assert report.all_pass


def test_altered_line_breaks_unique_line_axiom(inc):
    lines = dict(inc.lines)
    lines["l1"] = frozenset({"P7", "P3", "P2"})  # P2, P3 now on both l1 and l3
    report = verify_fano_axioms(IncidenceStructure(lines))
    assert not report.unique_line_per_point_pair
    assert not report.all_pass


def test_two_point_line_breaks_cardinality_axiom(inc):
    lines = dict(inc.lines)
    lines["l1"] = frozenset({"P7", "P3"})
    report = verify_fano_axioms(IncidenceStructure(lines))
    assert not report.three_points_per_line


def test_girth_is_six(inc):
    assert girth(inc) == 6


def test_girth_of_plain_six_cycle():
    six_cycle = IncidenceStructure(
        {
            "l1": frozenset({"P1", "P2"}),
            "l2": frozenset({"P2", "P3"}),
            "l3": frozenset({"P3", "P1"}),
        }
    )
    assert girth(six_cycle) == 6


def test_girth_of_k33_incidence_is_four():
    # every line through all three points: any two lines share >= 2 points
    k33 = IncidenceStructure(
        {ln: frozenset({"P1", "P2", "P3"}) for ln in ("l1", "l2", "l3")}
    )
    assert girth(k33) == 4


def test_girth_rejects_acyclic():
    tree = IncidenceStructure({"l1": frozenset({"P1", "P2"})})
    with pytest.raises(ValueError):
        girth(tree)


def test_immutable_after_construction(inc):
    with pytest.raises(TypeError):
        inc.lines["l1"] = frozenset()
