"""Unit-distance embeddings of the Heawood graph.

The Heawood graph is the point-line incidence graph of the Fano plane:
14 vertices, 21 edges, 3-regular, girth 6.  This package constructs its
unit-distance embeddings in the plane from a compass-and-ruler chain over
a pinned rectangle, finds all eleven real embeddings at arbitrary working
precision, certifies each one against the exact degree-79 coordinate
polynomial in exact integer arithmetic, and renders the results as SVG.
"""

from .chain import ChainBroken, build_chain
from .charpoly import NotSquarefree, charpoly_xl4, isolate_real_roots, refine_root
from .incidence import LINE_POINTS
from .solver import NoConvergence, SingularJacobian, SolveConfig, solve_all, sweep
from .verify import certify

__all__ = [
    "ChainBroken",
    "LINE_POINTS",
    "NoConvergence",
    "NotSquarefree",
    "SingularJacobian",
    "SolveConfig",
    "build_chain",
    "certify",
    "charpoly_xl4",
    "isolate_real_roots",
    "refine_root",
    "solve_all",
    "sweep",
]
