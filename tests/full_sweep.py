"""The sweep with no live-arc check: every block of the grid walked by all
64 branch vectors.  ``heawood_udg.solver.sweep`` walks only the span of
the grid where P3, P6 and l2 exist; the tests check that it reports the
same cells as this full scan.
"""

from __future__ import annotations

import numpy as np

from heawood_udg.chain import all_branch_vectors, place_l4
from heawood_udg.geom import Point2
from heawood_udg.solver import SWEEP_BLOCK, TWO_PI, closure_grid


def full_sweep(grid_points: int) -> list:
    """Every same-branch sign change of the closure residual over the
    whole grid, as (branch, theta_lo, theta_hi) cells in the sweep's
    order."""
    thetas = np.linspace(0.0, TWO_PI, grid_points, endpoint=False)
    l4 = place_l4(np, thetas)
    found: dict = {branch: [] for branch in all_branch_vectors()}
    for start in range(0, grid_points, SWEEP_BLOCK):
        points = slice(start, min(start + SWEEP_BLOCK + 1, grid_points))
        block_l4 = Point2(l4.x[points], l4.y[points])
        memo: dict = {}
        for branch, out in found.items():
            res = closure_grid(block_l4, branch, memo)
            lo, hi = res[:-1], res[1:]
            with np.errstate(invalid="ignore"):
                hits = np.isfinite(lo) & np.isfinite(hi) & (lo * hi < 0)
            out.extend((branch, float(thetas[start + i]), float(thetas[start + i + 1])) for i in np.flatnonzero(hits))
    return [cell for out in found.values() for cell in out]
