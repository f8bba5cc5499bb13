"""
Certifying the embeddings
=========================

Certification recomputes everything from coordinates alone: worst flag
residual, the collinearity restriction, an exact sign change of the
degree-79 polynomial inside a width-1e-20 rational bracket around x_l4,
and the regularity margin (least distance from a vertex to a non-incident
edge).  Matching against the bundled reference tables uses 1e-13, and each
embedding matches its own row.  Row 9 as printed was only ~1e-11 accurate;
the bundled row is its Newton refinement, with the printed digits kept as
an erratum in the data file.
"""

from heawood_udg import (
    SolveConfig,
    certify,
    charpoly_xl4,
    reference_tables,
    solve_all,
)

embeddings = solve_all(SolveConfig())
poly = charpoly_xl4()
tables = reference_tables()

print(f"{'':>3} {'pass':>5} {'max flag residual':>19} {'margin':>12} {'bracket':>8} {'table':>6}")
for k, emb in enumerate(embeddings, start=1):
    cert = certify(emb, poly, tables)
    print(
        f"{k:>3} {str(cert.passes):>5} {float(cert.max_flag_residual):>19.3e} "
        f"{float(cert.regularity_margin):>12.6f} {str(cert.charpoly_bracket_ok):>8} "
        f"{str(cert.matched_table):>6}"
    )
