"""Only the declared dependencies load: a fresh interpreter that imports
the CLI and runs a default solve adds to a bare interpreter's modules
nothing outside the standard library, the package, mpmath and numpy.
sympy, gmpy2 and python-flint may be installed where the tests run, but
the package must not come to rely on them."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DECLARED = {"heawood_udg", "mpmath", "numpy"}


def _loaded_modules(code: str) -> set:
    """The names in ``sys.modules`` after a fresh interpreter runs ``code``."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_solve_loads_only_declared_dependencies(tmp_path):
    # the bare interpreter's own modules (a site hook may import packages
    # of the environment) are not the package's doing
    bare = _loaded_modules("")
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from heawood_udg import cli\n"
        f"assert cli.run(['solve', '--json', {str(tmp_path / 'emb.json')!r}]) == 0\n"
    )
    added = {name.partition(".")[0] for name in _loaded_modules(code) - bare}
    assert DECLARED <= added
    assert sorted(added - DECLARED - set(sys.stdlib_module_names)) == []
