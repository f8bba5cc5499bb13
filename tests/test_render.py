from __future__ import annotations

import xml.etree.ElementTree as ET

from heawood_udg.incidence import HEAWOOD_FLAGS, POINTS
from heawood_udg.render import LINE_COLOR, PADDING, POINT_COLOR, SCALE, render_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def _parse(svg_text: str):
    return ET.fromstring(svg_text)


def test_structural_counts(solutions):
    root = _parse(render_svg(solutions[0]))
    lines = root.findall(f"{SVG_NS}line")
    circles = root.findall(f"{SVG_NS}circle")
    texts = root.findall(f"{SVG_NS}text")
    assert len(lines) == 21
    assert len(circles) == 14
    assert len(texts) == 14
    assert {t.text for t in texts} == set(solutions[0].coords)


def test_rendered_segments_are_exactly_the_flags(solutions):
    svg = render_svg(solutions[0])
    root = _parse(svg)
    pos = {v: (float(p.x), float(p.y)) for v, p in solutions[0].coords.items()}
    xs = [x for x, _ in pos.values()]
    ys = [y for _, y in pos.values()]
    min_x = min(xs) - PADDING
    max_y = max(ys) + PADDING

    def to_px(x, y):
        return ((x - min_x) * SCALE, (max_y - y) * SCALE)

    px = {v: to_px(*xy) for v, xy in pos.items()}

    def nearest(point):
        return min(px, key=lambda v: (px[v][0] - point[0]) ** 2 + (px[v][1] - point[1]) ** 2)

    rendered = set()
    for ln in root.findall(f"{SVG_NS}line"):
        a = nearest((float(ln.get("x1")), float(ln.get("y1"))))
        b = nearest((float(ln.get("x2")), float(ln.get("y2"))))
        pair = (a, b) if a in POINTS else (b, a)
        rendered.add(pair)
    assert rendered == set(HEAWOOD_FLAGS)


def test_y_axis_flipped(solutions):
    # P5 = (0,0) must land BELOW l7 = (1,2) in pixel space (larger y)
    svg = render_svg(solutions[0])
    root = _parse(svg)
    centers = {}
    for c, t in zip(root.findall(f"{SVG_NS}circle"), root.findall(f"{SVG_NS}text")):
        centers[t.text] = (float(c.get("cx")), float(c.get("cy")))
    assert centers["P5"][1] > centers["l7"][1]


def test_byte_identical_rendering(solutions):
    a = render_svg(solutions[0])
    b = render_svg(solutions[0])
    assert a == b
    assert a.startswith("<?xml")


def test_distinct_colors_for_points_and_lines(solutions):
    root = _parse(render_svg(solutions[0]))
    fills = {c.get("fill") for c in root.findall(f"{SVG_NS}circle")}
    assert fills == {POINT_COLOR, LINE_COLOR}


def test_viewport_covers_padded_bounding_box(solutions):
    root = _parse(render_svg(solutions[0]))
    pos = [(float(p.x), float(p.y)) for p in solutions[0].coords.values()]
    span_x = max(x for x, _ in pos) - min(x for x, _ in pos) + 2 * PADDING
    span_y = max(y for _, y in pos) - min(y for _, y in pos) + 2 * PADDING
    assert abs(float(root.get("width")) - span_x * SCALE) < 0.01
    assert abs(float(root.get("height")) - span_y * SCALE) < 0.01
