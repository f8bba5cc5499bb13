"""Only the declared dependencies load: a fresh interpreter that imports
the CLI and runs a default solve adds to a bare interpreter's modules
nothing outside the standard library, the package, mpmath and numpy.
sympy, gmpy2 and python-flint may be installed where the tests run, but
the package must not come to rely on them.  Nor does any command load
OpenSSL, through hashlib, for the coefficient table's checksum."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--digits", "15", "--grid", "5000", "--json", "{tmp}/emb.json"],
        ["roots", "--digits", "15"],
        ["verify", "--json", str(ROOT / "perfbench" / "data" / "embeddings60.json")],
    ],
    ids=["solve", "roots", "verify"],
)
def test_commands_do_not_load_openssl(tmp_path, argv):
    # hashlib's sha256 loads OpenSSL's libcrypto, about 3.6 MB of resident
    # memory; the checksum guard takes the built-in digest instead
    bare = _loaded_modules("")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from heawood_udg import cli\n"
        f"assert cli.run({argv!r}) == 0\n"
    )
    assert "_hashlib" not in _loaded_modules(code) - bare
