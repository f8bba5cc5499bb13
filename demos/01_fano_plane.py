"""
The Fano plane and its incidence graph
======================================

Seven points, seven lines, three points per line: the smallest projective
plane.  Its point-line incidence graph (the Heawood graph) is the object
everything else in this package embeds into the plane.  The package holds
the plane as its line table, ``LINE_POINTS``: line name -> its three
points.  The incidence graph's edges (flags) and every check below are
derived from that table.
"""

from heawood_udg import LINE_POINTS, girth, verify_fano_axioms
from heawood_udg.incidence import HEAWOOD_FLAGS

print("line triples:")
for line, points in sorted(LINE_POINTS.items()):
    print(f"  {line}: {{{', '.join(sorted(points))}}}")

print(f"\nflags (incident point-line pairs): {len(HEAWOOD_FLAGS)}")

report = verify_fano_axioms(LINE_POINTS)
print(f"3 points per line:            {report.three_points_per_line}")
print(f"3 lines per point:            {report.three_lines_per_point}")
print(f"unique line per point pair:   {report.unique_line_per_point_pair}")
print(f"unique point per line pair:   {report.unique_point_per_line_pair}")

# girth 6 = shortest cycle length; the rectangle cycle P5-l5-P7-l7-P2-l3
# realizes it and is what the construction chain pins down
print(f"girth of the incidence graph: {girth(LINE_POINTS)}")
