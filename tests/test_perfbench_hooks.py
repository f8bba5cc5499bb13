"""The benchmark's tracer wraps public names of the package by attribute;
installing it, and the self-check of a traced request, must keep working as
the package changes."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _benchmark_runner(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_package():
    # a fresh interpreter, because install() replaces module attributes
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    code = (
        f"import sys; sys.path[:0] = {paths!r}\n"
        "from tracer import Tracer, install\n"
        "install(Tracer(0))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_solve_passes_the_benchmark_self_check(tmp_path, monkeypatch):
    # one traced request as the benchmark runs it: its bracket funnel must
    # add up, its spans must nest and cover the request, and the sweep's
    # chain walks are seen: one per branch vector, for the arc where the
    # chain can exist spans fewer than 2,048 cells of grid 5,000.  Every
    # mpf chain walk's circle steps are counted, at most six a walk, so
    # build_chain must look its step up at each call, where the tracer's
    # counter replaces it
    runner = _benchmark_runner(monkeypatch)
    spec = {
        "request_id": 1,
        "src": str(ROOT / "src"),
        "steps": [["solve", "--digits", "30", "--grid", "5000", "--json", str(tmp_path / "emb.json")]],
        "trace": True,
        "result": str(tmp_path / "result.json"),
    }
    raw = runner.run_child(spec, tmp_path, timeout=120)
    assert raw["exit"] == 0, raw["stderr"]
    layers, errors = runner.layer_metrics(raw["child"]["trace"], raw["start"], raw["end"])
    assert errors == []
    assert layers["solver.brackets_kept"] == 11
    assert layers["solver.brackets"] > layers["solver.brackets_kept"]
    assert layers["solver.closure_grid_calls"] == 64
    assert layers["solver.closure_grid_s"] > 0
    assert 0 < layers["geom.circle_circle_intersect_calls"] <= 6 * layers["chain.build_chain_calls"]
