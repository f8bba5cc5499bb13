"""
Certifying the embeddings
=========================

Certification takes an embedding alone and recomputes everything from its
coordinates: worst flag residual, the collinearity restriction, an exact
sign change of the degree-79 polynomial inside a width-1e-20 rational
bracket around x_l4, whether the branch vector is the coordinates' own,
whether the six pinned vertices sit exactly on the 1 x 2 rectangle, and the
regularity margin: the least distance from a vertex to a non-incident edge,
that is the least of the vertex separation and the distances to an edge's
line whose perpendicular foot falls inside the edge.  Every margin below is
such a foot, under the least distance between two vertices.  Matching
against the bundled reference tables uses 1e-13, and each embedding
matches its own row.  Row 9 as printed was only ~1e-11 accurate;
the bundled row is its Newton refinement, with the printed digits kept as
an erratum in the data file.  The eleven brackets are pairwise disjoint,
so the eleven embeddings lie on eleven distinct roots.
"""

from heawood_udg import SolveConfig, certify, solve_all

embeddings = solve_all(SolveConfig())

print(f"{'':>3} {'pass':>5} {'max flag residual':>19} {'margin':>12} {'bracket':>8} {'table':>6}")
certificates = [certify(emb) for emb in embeddings]
for k, cert in enumerate(certificates, start=1):
    print(
        f"{k:>3} {str(cert.passes):>5} {float(cert.max_flag_residual):>19.3e} "
        f"{float(cert.regularity_margin):>12.6f} {str(cert.charpoly_bracket_ok):>8} "
        f"{str(cert.matched_table):>6}"
    )

brackets = sorted(cert.bracket for cert in certificates)
gap = min(b[0] - a[1] for a, b in zip(brackets, brackets[1:]))
print(f"\nleast gap between consecutive brackets: {float(gap):.3e}")
