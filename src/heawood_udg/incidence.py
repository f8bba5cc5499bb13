"""The Fano plane and its point-line incidence (Heawood) graph.

Seven points P1..P7 and seven lines l1..l7, three points per line, giving a
bipartite 3-regular graph on 14 vertices with 21 edges (flags) and girth 6.
A vertex is its name, the string "P1".."P7" or "l1".."l7", everywhere in
the package and in its files; the names sort points first, each kind by
index.  The concrete labeling is the one under which the construction
chain in :mod:`heawood_udg.chain` pins the rectangle cycle
P5-l5-P7-l7-P2-l3.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

POINTS = tuple(f"P{i}" for i in range(1, 8))
LINES = tuple(f"l{i}" for i in range(1, 8))
ALL_VERTICES = POINTS + LINES


@dataclass(frozen=True)
class IncidenceStructure:
    """Lines as point triples, plus the derived flag set and adjacency."""

    lines: Mapping[str, frozenset]

    def __post_init__(self):
        frozen = MappingProxyType(
            {line: frozenset(pts) for line, pts in self.lines.items()}
        )
        object.__setattr__(self, "lines", frozen)

    @property
    def points(self) -> frozenset:
        return frozenset(p for pts in self.lines.values() for p in pts)

    @property
    def flags(self) -> frozenset:
        """All incident (point, line) pairs."""
        return frozenset((p, ln) for ln, pts in self.lines.items() for p in pts)

    def lines_through(self, point: str) -> frozenset:
        return frozenset(ln for ln, pts in self.lines.items() if point in pts)

    def adjacency(self) -> dict:
        """Bipartite adjacency of the incidence graph."""
        adj: dict = {v: set() for v in self.points | set(self.lines)}
        for ln, pts in self.lines.items():
            for p in pts:
                adj[p].add(ln)
                adj[ln].add(p)
        return adj


# Line triples fixed by the construction chain's circle centers: each
# dependent vertex is cut out by circles around the vertices it is incident
# with, which forces this labeling (see chain.CHAIN_STEPS).
_HEAWOOD_TRIPLES = {
    "l1": ("P7", "P3", "P1"),
    "l2": ("P2", "P4", "P1"),
    "l3": ("P2", "P5", "P3"),
    "l4": ("P4", "P3", "P6"),
    "l5": ("P5", "P7", "P4"),
    "l6": ("P5", "P6", "P1"),
    "l7": ("P7", "P2", "P6"),
}


def build_heawood_incidence() -> IncidenceStructure:
    """The Fano plane under the labeling used throughout this package."""
    return IncidenceStructure(_HEAWOOD_TRIPLES)


# the 21 flags in sorted order: the edges that certification checks and
# rendering draws
HEAWOOD_FLAGS = tuple(sorted(build_heawood_incidence().flags))


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


def verify_fano_axioms(inc: IncidenceStructure) -> FanoAxiomReport:
    """Check the Fano axioms by brute force over all point and line pairs."""
    points = sorted(inc.points)
    lines = sorted(inc.lines)

    three_per_line = all(len(pts) == 3 for pts in inc.lines.values())
    three_per_point = all(len(inc.lines_through(p)) == 3 for p in points)

    unique_line = True
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            common = inc.lines_through(p) & inc.lines_through(q)
            if len(common) != 1:
                unique_line = False

    unique_point = True
    for i, m in enumerate(lines):
        for n in lines[i + 1 :]:
            common = inc.lines[m] & inc.lines[n]
            if len(common) != 1:
                unique_point = False

    return FanoAxiomReport(
        three_points_per_line=three_per_line,
        three_lines_per_point=three_per_point,
        unique_line_per_point_pair=unique_line,
        unique_point_per_line_pair=unique_point,
    )


def girth(inc: IncidenceStructure) -> int:
    """Length of a shortest cycle in the incidence graph (BFS per vertex)."""
    adj = inc.adjacency()
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
