"""The Fano plane and its point-line incidence (Heawood) graph.

Seven points P1..P7 and seven lines l1..l7, three points per line, giving a
bipartite 3-regular graph on 14 vertices with 21 edges (flags) and girth 6.
A vertex is its name, the string "P1".."P7" or "l1".."l7", everywhere in
the package and in its files; the names sort points first, each kind by
index.  The plane is its line table, :data:`LINE_POINTS`, under the
labeling with which the construction chain in :mod:`heawood_udg.chain`
pins the rectangle cycle P5-l5-P7-l7-P2-l3.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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


@dataclass(frozen=True)
class FanoAxiomReport:
    """Pass/fail per projective-plane axiom for a structure of order two."""

    three_points_per_line: bool
    three_lines_per_point: bool
    unique_line_per_point_pair: bool
    unique_point_per_line_pair: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.three_points_per_line
            and self.three_lines_per_point
            and self.unique_line_per_point_pair
            and self.unique_point_per_line_pair
        )


def _lines_through(lines: Mapping[str, frozenset]) -> dict:
    """Point name -> set of the lines through it."""
    through: dict = {}
    for ln, pts in lines.items():
        for p in pts:
            through.setdefault(p, set()).add(ln)
    return through


def verify_fano_axioms(lines: Mapping[str, frozenset]) -> FanoAxiomReport:
    """Check the Fano axioms of a line table (line name -> point set) by
    brute force over all point and line pairs."""
    through = _lines_through(lines)
    return FanoAxiomReport(
        three_points_per_line=all(len(pts) == 3 for pts in lines.values()),
        three_lines_per_point=all(len(lns) == 3 for lns in through.values()),
        unique_line_per_point_pair=all(
            len(through[p] & through[q]) == 1 for p, q in combinations(sorted(through), 2)
        ),
        unique_point_per_line_pair=all(
            len(lines[m] & lines[n]) == 1 for m, n in combinations(sorted(lines), 2)
        ),
    )


def girth(lines: Mapping[str, frozenset]) -> int:
    """Length of a shortest cycle in the incidence graph of a line table
    (BFS per vertex)."""
    adj = {ln: set(pts) for ln, pts in lines.items()} | _lines_through(lines)
    best: int | None = None
    for root in adj:
        depth = {root: 0}
        parent = {root: None}
        queue = [root]
        while queue:
            nxt: list = []
            for u in queue:
                for v in adj[u]:
                    if v not in depth:
                        depth[v] = depth[u] + 1
                        parent[v] = u
                        nxt.append(v)
                    elif parent[u] != v:
                        # cross edge closes a cycle through the BFS tree
                        cycle = depth[u] + depth[v] + 1
                        if best is None or cycle < best:
                            best = cycle
            queue = nxt
    if best is None:
        raise ValueError("incidence graph is acyclic; girth undefined")
    return best
