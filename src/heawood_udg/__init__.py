"""Unit-distance embeddings of the Heawood graph.

The Heawood graph is the point-line incidence graph of the Fano plane:
14 vertices, 21 edges, 3-regular, girth 6.  This package constructs its
unit-distance embeddings in the plane from a compass-and-ruler chain over
a pinned rectangle, finds all eleven real embeddings at arbitrary working
precision, certifies each one against the exact degree-79 coordinate
polynomial in exact integer arithmetic, and renders the results as SVG.
"""

from .chain import ChainBroken, EmbeddingCandidate, build_chain, candidate_from_coords, place_l4
from .charpoly import (
    BigPoly,
    IsolatingInterval,
    NotSquarefree,
    charpoly_xl4,
    isolate_real_roots,
    refine_root,
)
from .geom import GeometryError, Point2, circle_circle_intersect
from .incidence import LINE_POINTS
from .refdata import reference_tables
from .render import render_svg
from .solver import (
    LostBracket,
    NoConvergence,
    SingularJacobian,
    SolveConfig,
    newton_polish,
    refine_bracket,
    solve_all,
    sweep,
)
from .verify import Certificate, certify, flag_residuals, regularity_check

__version__ = "0.1.0"

__all__ = [
    "BigPoly",
    "Certificate",
    "ChainBroken",
    "EmbeddingCandidate",
    "GeometryError",
    "IsolatingInterval",
    "LINE_POINTS",
    "LostBracket",
    "NoConvergence",
    "NotSquarefree",
    "Point2",
    "SingularJacobian",
    "SolveConfig",
    "build_chain",
    "candidate_from_coords",
    "certify",
    "charpoly_xl4",
    "circle_circle_intersect",
    "flag_residuals",
    "isolate_real_roots",
    "newton_polish",
    "place_l4",
    "reference_tables",
    "refine_bracket",
    "refine_root",
    "regularity_check",
    "render_svg",
    "solve_all",
    "sweep",
]
