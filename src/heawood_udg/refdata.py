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

import functools
import json
from importlib import resources
from types import MappingProxyType

from .chain import DEPENDENT_VERTICES

TABLE_VERTICES = tuple(sorted(DEPENDENT_VERTICES))


@functools.cache
def reference_tables() -> tuple:
    """The eleven bundled tables as read-only mappings of vertex name ->
    (x, y) strings, read from the data file once per process."""
    raw = json.loads(resources.files("heawood_udg").joinpath("data/tables.json").read_text())
    return tuple(MappingProxyType({v: tuple(row[v]) for v in TABLE_VERTICES}) for row in raw["tables"])
