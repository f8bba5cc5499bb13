"""Shared fixtures: the solve pipeline is expensive enough to run once."""

from __future__ import annotations

import json
from importlib import resources

import pytest

from heawood_udg import charpoly, refdata, solver
from heawood_udg.chain import candidate_from_coords

# Discovered construction parameters per reference table (build outputs of
# the default solve; branch bits in chain order P3, P6, l2, l1, l6, P1).
DISCOVERED_BRANCHES = (
    "011000", "101100", "000011", "010010", "100101",
    "110111", "101100", "001000", "100110", "000001", "001111",
)
DISCOVERED_THETAS = (
    "2.616070438111156233404996722814660879937",
    "2.612650966606457747535924389555257453417",
    "2.590313774351124183803354865572388832617",
    "2.572436476359866462566879007909850448634",
    "2.559384878918003012510547762325194307173",
    "2.558212380407135685421679176781036881921",
    "2.532862248926064649128445522447131567272",
    "2.367421820048684477835895458996621846402",
    "2.364918251198325444444480471791184224673",
    "2.251171055669585799877109323501248212957",
    "2.130841376482804410259009077561951520304",
)

# regularity margins of the eleven embeddings, recorded from the build as
# regression baselines (sorted by x_l4, same order as solve_all output)
MARGIN_BASELINES = (
    "0.047411449632587200939",
    "0.057241183558538107849",
    "0.011109266261165058971",
    "0.023681878654163652511",
    "0.017975903325690934645",
    "0.013949785565795793646",
    "0.00035621622765396912253",
    "0.0031147114948156851068",
    "0.012337104644321970612",
    "0.0014016477148792758029",
    "0.0041841668005138669695",
)


@pytest.fixture(scope="session")
def poly():
    return charpoly.charpoly_xl4()


@pytest.fixture(scope="session")
def tables():
    return refdata.reference_tables()


@pytest.fixture(scope="session")
def printed_row_nine():
    """Row 9 as printed, before its correction: the ``errata`` entry of the
    packaged tables file, as vertex name -> (x, y) strings."""
    raw = json.loads(
        resources.files("heawood_udg").joinpath("data/tables.json").read_text()
    )
    (erratum,) = [e for e in raw["errata"] if e["row"] == 9]
    return {v: tuple(erratum["printed"][v]) for v in refdata.TABLE_VERTICES}


@pytest.fixture(scope="session")
def table_seeds(tables):
    """The reference tables wrapped as candidates (printed digits only)."""
    return [candidate_from_coords(t, precision=20) for t in tables]


@pytest.fixture(scope="session")
def solutions():
    """Default full solve at 60 digits; reused across the suite."""
    return solver.solve_all(solver.SolveConfig())


@pytest.fixture(scope="session")
def low_precision_solutions():
    """Default solves at 15 and at 20 digits, keyed by digits."""
    return {digits: solver.solve_all(solver.SolveConfig(digits=digits)) for digits in (15, 20)}


@pytest.fixture(scope="session")
def deep_solutions():
    """The solve of the benchmark's deep300 workload: 300 digits at grid
    5,000."""
    return solver.solve_all(solver.SolveConfig(grid_points=5000, digits=300))


@pytest.fixture(scope="session")
def polished_seeds(table_seeds):
    """Newton refinements of the reference rows: the independent oracle
    route against which the sweep-based solve is compared."""
    return [solver.newton_polish(seed, 60) for seed in table_seeds]
