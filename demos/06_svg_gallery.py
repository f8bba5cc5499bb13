"""
Drawing the embeddings
======================

Each embedding renders to a deterministic SVG at 200 pixels per unit
length: 21 unit segments, 14 labeled vertices (points red, lines blue),
mathematical y orientation.  Output lands in demos/output/, the same
drawings that `heawood-udg solve --svg` writes.
"""

from pathlib import Path

from heawood_udg import SolveConfig, render_svg, solve_all

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

embeddings = solve_all(SolveConfig())

for k, emb in enumerate(embeddings, start=1):
    path = out_dir / f"embedding_{k:02d}.svg"
    path.write_text(render_svg(emb))
    print(f"wrote {path}")

print(f"\n{len(embeddings)} drawings in {out_dir}")
