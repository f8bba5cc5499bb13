"""Deterministic SVG drawings of candidate embeddings.

One line segment per flag, one labeled marker per vertex, y axis flipped to
mathematical orientation, viewport padded around the embedding's bounding
box.  Output is plain SVG 1.1 text and is byte-identical for identical
inputs.
"""

from __future__ import annotations

import math

from .chain import EmbeddingCandidate
from .incidence import HEAWOOD_FLAGS, POINTS

SCALE = 200.0  # pixels per unit length
VERTEX_RADIUS = 5.0
LABEL_OFFSET = (7.0, -7.0)
PADDING = 0.2  # in unit lengths
POINT_COLOR = "#c0392b"  # P vertices
LINE_COLOR = "#2255a4"  # l vertices
EDGE_COLOR = "#555555"
EDGE_WIDTH = 2.0
FONT_SIZE = 13.0


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def render_svg(candidate: EmbeddingCandidate) -> str:
    """Render one embedding as an SVG document string at :data:`SCALE`;
    ValueError when the drawing size overflows a float."""
    pos = {v: (float(p.x), float(p.y)) for v, p in candidate.coords.items()}

    xs = [x for x, _ in pos.values()]
    ys = [y for _, y in pos.values()]
    min_x, max_x = min(xs) - PADDING, max(xs) + PADDING
    min_y, max_y = min(ys) - PADDING, max(ys) + PADDING
    width = (max_x - min_x) * SCALE
    height = (max_y - min_y) * SCALE
    if not (math.isfinite(width) and math.isfinite(height)):
        raise ValueError(f"coordinates too large to draw: x from {min(xs)} to {max(xs)}, y from {min(ys)} to {max(ys)}")

    def to_px(x: float, y: float) -> tuple:
        # y flipped: mathematical orientation, origin at bottom-left
        return (x - min_x) * SCALE, (max_y - y) * SCALE

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'  <!-- branch {candidate.branch}, precision {candidate.precision} digits -->',
    ]
    for p, ln in HEAWOOD_FLAGS:
        x1, y1 = to_px(*pos[p])
        x2, y2 = to_px(*pos[ln])
        parts.append(
            f'  <line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{EDGE_COLOR}" stroke-width="{_fmt(EDGE_WIDTH)}"/>'
        )
    for v in sorted(pos):
        cx, cy = to_px(*pos[v])
        color = POINT_COLOR if v in POINTS else LINE_COLOR
        parts.append(
            f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(VERTEX_RADIUS)}" '
            f'fill="{color}" stroke="black" stroke-width="1"/>'
        )
        lx = cx + LABEL_OFFSET[0]
        ly = cy + LABEL_OFFSET[1]
        parts.append(
            f'  <text x="{_fmt(lx)}" y="{_fmt(ly)}" font-family="sans-serif" '
            f'font-size="{_fmt(FONT_SIZE)}" fill="{color}">{v}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
