"""
The Fano plane and its incidence graph
======================================

Seven points, seven lines, three points per line: the smallest projective
plane.  Its point-line incidence graph (the Heawood graph) is the object
everything else in this package embeds into the plane.  The package holds
the plane as its line table, ``LINE_POINTS``: line name -> its three
points, and the incidence graph's edges (flags) built from it.  The checks
below are computed here, from that table alone.
"""

from itertools import combinations

from heawood_udg import LINE_POINTS
from heawood_udg.incidence import HEAWOOD_FLAGS, POINTS

print("line triples:")
for line, points in sorted(LINE_POINTS.items()):
    print(f"  {line}: {{{', '.join(sorted(points))}}}")

print(f"\nflags (incident point-line pairs): {len(HEAWOOD_FLAGS)}")

lines_through = {p: {ln for ln, pts in LINE_POINTS.items() if p in pts} for p in POINTS}
unique_point = all(len(LINE_POINTS[m] & LINE_POINTS[n]) == 1 for m, n in combinations(sorted(LINE_POINTS), 2))
print(f"3 points per line:            {all(len(pts) == 3 for pts in LINE_POINTS.values())}")
print(f"3 lines per point:            {all(len(lns) == 3 for lns in lines_through.values())}")
print(
    "unique line per point pair:   "
    f"{all(len(lines_through[p] & lines_through[q]) == 1 for p, q in combinations(POINTS, 2))}"
)
print(f"unique point per line pair:   {unique_point}")

# girth 6 = shortest cycle length.  The graph is bipartite, so its cycles
# are even; two lines through two common points would close a 4-cycle,
# which the last axiom rules out; and the rectangle cycle P5-l5-P7-l7-P2-l3,
# which the construction chain pins down, is a 6-cycle
rectangle = {("P5", "l5"), ("P7", "l5"), ("P7", "l7"), ("P2", "l7"), ("P2", "l3"), ("P5", "l3")}
assert unique_point and rectangle <= set(HEAWOOD_FLAGS)
print("girth of the incidence graph: 6")
