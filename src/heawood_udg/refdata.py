"""Bundled reference coordinate tables for the eleven embeddings.

The tables ship as a data file of decimal strings (inspectable, not buried
in code) and list the eight dependent vertices of each embedding; the six
pinned vertices are implied.  They are used only for verification: table
matching in :mod:`heawood_udg.verify` and as Newton seeds in tests.

Accuracy note: every row is accurate to about 5e-16, so matching at 1e-13
holds for all eleven.  Row 9 as printed was off by up to 5e-11 (its own
flag residuals reached 1.1e-10); the bundled row is the 60-digit Newton
refinement of those digits, rounded half-even to 15 decimals, and the
printed digits are kept word for word under the file's ``errata`` key,
which :func:`reference_tables` does not read.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .chain import DEPENDENT_VERTICES

TABLE_VERTICES = tuple(sorted(DEPENDENT_VERTICES))


def reference_tables(path: str | Path | None = None) -> tuple:
    """Load the eleven tables as dicts of vertex name -> (x, y) strings."""
    if path is not None:
        raw = json.loads(Path(path).read_text())
    else:
        raw = json.loads(
            resources.files("heawood_udg").joinpath("data/tables.json").read_text()
        )
    tables = []
    try:
        for row in raw["tables"]:
            missing = [v for v in TABLE_VERTICES if v not in row]
            if missing:
                raise ValueError(f"reference table is missing vertices: {missing}")
            tables.append({v: (row[v][0], row[v][1]) for v in TABLE_VERTICES})
    except (KeyError, TypeError) as exc:
        raise ValueError(f'malformed reference tables file (needs a "tables" list): {exc!r}') from exc
    return tuple(tables)
