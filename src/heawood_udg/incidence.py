"""The Fano plane and its point-line incidence (Heawood) graph.

Seven points P1..P7 and seven lines l1..l7, three points per line, giving a
bipartite 3-regular graph on 14 vertices with 21 edges (flags) and girth 6.
A vertex is its name, the string "P1".."P7" or "l1".."l7", everywhere in
the package and in its files; the names sort points first, each kind by
index.  The package holds the plane as its line table, :data:`LINE_POINTS`,
labeled as the construction chain in :mod:`heawood_udg.chain` pins the
rectangle cycle P5-l5-P7-l7-P2-l3, and the flags; the tests check the axioms.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

POINTS = tuple(f"P{i}" for i in range(1, 8))
LINES = tuple(f"l{i}" for i in range(1, 8))
ALL_VERTICES = POINTS + LINES


# Line triples fixed by the construction chain's circle centers: each
# dependent vertex is cut out by circles around the vertices it is incident
# with, which forces this labeling (see chain.CHAIN_STEPS).
LINE_POINTS: Mapping[str, frozenset] = MappingProxyType(
    {
        "l1": frozenset({"P7", "P3", "P1"}),
        "l2": frozenset({"P2", "P4", "P1"}),
        "l3": frozenset({"P2", "P5", "P3"}),
        "l4": frozenset({"P4", "P3", "P6"}),
        "l5": frozenset({"P5", "P7", "P4"}),
        "l6": frozenset({"P5", "P6", "P1"}),
        "l7": frozenset({"P7", "P2", "P6"}),
    }
)

# the 21 flags in sorted order: the edges that certification checks and
# rendering draws
HEAWOOD_FLAGS = tuple(sorted((p, ln) for ln, pts in LINE_POINTS.items() for p in pts))
