"""Generate, or check, the reference data the benchmark's correctness gate reads.

    python3 perfbench/make_refdata.py           # rewrite perfbench/data/
    python3 perfbench/make_refdata.py --check   # regenerate and compare, exit 1 on a difference

Both files come from the CLI of the package in ``src/`` at its defaults:

* ``data/embeddings60.json`` is the embeddings file written by
  ``heawood-udg solve --digits 60 --json ...`` (grid 20,000).  The
  ``certify60`` workload verifies it.
* ``data/roots60.json`` is the JSON list printed by
  ``heawood-udg roots --digits 60``: the eleven isolating intervals of the
  degree-79 polynomial and each real root x_l4 to 60 digits.  Every request
  is checked against these roots.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
EMBEDDINGS = "embeddings60.json"
ROOTS = "roots60.json"


def generate(directory: Path) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from heawood_udg import cli

    if cli.run(["solve", "--digits", "60", "--json", str(directory / EMBEDDINGS)]) != 0:
        raise SystemExit("solve --digits 60 did not find the expected embeddings")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["roots", "--digits", "60"])
    if code != 0:
        raise SystemExit("roots --digits 60 did not find the expected roots")
    rows, _, _ = out.getvalue().rpartition("found=")
    (directory / ROOTS).write_text(rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare instead of rewriting")
    args = parser.parse_args()
    if not args.check:
        DATA.mkdir(exist_ok=True)
        generate(DATA)
        return 0
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        generate(Path(tmp))
        stale = [n for n in (EMBEDDINGS, ROOTS) if (Path(tmp) / n).read_bytes() != (DATA / n).read_bytes()]
    for name in stale:
        print(f"{name}: regenerated bytes differ from perfbench/data/{name}")
    if not stale:
        print("reference data regenerates byte for byte")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
