"""The benchmark's tracer wraps public names of the package by attribute;
installing it must keep working as the package changes."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
