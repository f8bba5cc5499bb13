"""Command-line surface: solve, roots, verify, render, incidence.

Exit status: 0 on success, 1 on an acceptance-relevant mismatch (wrong
embedding or root count, a failing certificate, two rows that may hold one
root), 2 on usage errors.
Coordinates serialize as decimal strings, never binary floats, so output
stays diffable at any precision.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import charpoly, solver, verify
from .chain import dump_candidates, load_candidates
from .incidence import HEAWOOD_FLAGS, LINE_POINTS
from .render import render_svg

EXPECTED_EMBEDDINGS = 11


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heawood-udg",
        description="Unit-distance embeddings of the Heawood graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="find all embeddings")
    p_solve.add_argument("--grid", type=int, default=20000, help="sweep grid points")
    p_solve.add_argument("--digits", type=int, default=60, help="final working precision")
    p_solve.add_argument("--json", type=Path, default=None, help="write embeddings JSON here")
    p_solve.add_argument("--svg", type=Path, default=None, help="write one SVG per embedding here")

    p_roots = sub.add_parser("roots", help="isolate and refine the coordinate polynomial's real roots")
    p_roots.add_argument("--digits", type=int, default=20, help="root refinement digits")

    p_verify = sub.add_parser("verify", help="certify embeddings from a JSON file")
    p_verify.add_argument("--json", type=Path, required=True, help="embeddings JSON to certify")

    p_render = sub.add_parser("render", help="render embeddings from a JSON file to SVG")
    p_render.add_argument("--json", type=Path, required=True, help="embeddings JSON to render")
    p_render.add_argument("--svg", type=Path, required=True, help="output directory")

    sub.add_parser("incidence", help="print the line triples and flag list as JSON")
    return parser


def _cmd_solve(args) -> int:
    config = solver.SolveConfig(grid_points=args.grid, digits=args.digits)
    embeddings = solver.solve_all(config)
    text = dump_candidates(embeddings)
    if args.json is not None:
        args.json.write_text(text)
    else:
        sys.stdout.write(text)
    if args.svg is not None:
        _write_svgs(embeddings, args.svg)
    print(f"found={len(embeddings)} expected={EXPECTED_EMBEDDINGS}")
    return 0 if len(embeddings) == EXPECTED_EMBEDDINGS else 1


def _cmd_roots(args) -> int:
    poly = charpoly.charpoly_xl4()
    intervals = charpoly.isolate_real_roots(poly)
    rows = []
    for iv in intervals:
        root = charpoly.refine_root(poly, iv, args.digits)
        rows.append(
            {
                "lo": f"{iv.lo.numerator}/{iv.lo.denominator}",
                "hi": f"{iv.hi.numerator}/{iv.hi.denominator}",
                "root": root.context.nstr(root, args.digits),
            }
        )
    print(json.dumps(rows, indent=2))
    print(f"found={len(rows)} expected={EXPECTED_EMBEDDINGS}")
    return 0 if len(rows) == EXPECTED_EMBEDDINGS else 1


def _cmd_verify(args) -> int:
    embeddings = load_candidates(args.json.read_text())
    certificates = [verify.certify(e) for e in embeddings]
    print(json.dumps([c.to_json_dict() for c in certificates], indent=2))
    # the set: one row per real root of p; each bracket is a sign change,
    # so pairwise disjoint brackets hold distinct roots, and two brackets
    # overlap only if two neighbours in the order of their low ends do
    faults = []
    if len(certificates) != EXPECTED_EMBEDDINGS:
        faults.append(f"expected {EXPECTED_EMBEDDINGS} embeddings, the file holds {len(certificates)}")
    brackets = sorted((c.bracket, k) for k, c in enumerate(certificates, start=1))
    for ((_, hi), j), ((lo, _), k) in zip(brackets, brackets[1:]):
        if lo <= hi:
            faults.append(f"rows {j} and {k} may hold one root: their x_l4 brackets overlap")
    for fault in faults:
        print(f"verify: {fault}", file=sys.stderr)
    return 0 if all(c.passes for c in certificates) and not faults else 1


def _write_svgs(embeddings, directory: Path) -> list:
    svgs = [render_svg(emb) for emb in embeddings]
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, svg in enumerate(svgs, start=1):
        path = directory / f"embedding_{k:02d}.svg"
        path.write_text(svg)
        paths.append(path)
    return paths


def _cmd_render(args) -> int:
    embeddings = load_candidates(args.json.read_text())
    paths = _write_svgs(embeddings, args.svg)
    print(f"wrote {len(paths)} SVG files to {args.svg}")
    return 0


def _cmd_incidence(_args) -> int:
    payload = {
        "lines": {ln: sorted(pts) for ln, pts in sorted(LINE_POINTS.items())},
        "flags": [list(flag) for flag in HEAWOOD_FLAGS],
    }
    print(json.dumps(payload, indent=2))
    return 0


def run(argv=None) -> int:
    """Dispatch a CLI invocation; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "solve": _cmd_solve,
        "roots": _cmd_roots,
        "verify": _cmd_verify,
        "render": _cmd_render,
        "incidence": _cmd_incidence,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
