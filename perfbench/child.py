"""One benchmark request in a fresh interpreter.

Usage: python3 child.py SPEC.json

The spec names the package source directory, the CLI invocations to run in
order, whether to trace, and where to write the result.  The child does
what every CLI invocation pays for first (import, the coefficient table
with its checksum guard, the reference tables), records the moment that
set-up ends, then runs each invocation through ``heawood_udg.cli.run`` with
its standard output captured.  It stops at the first invocation that exits
non-zero, and exits 1 if any did.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer(spec["request_id"])
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())

    sys.path.insert(0, str(src))
    with span("setup.import"):
        import heawood_udg
        from heawood_udg import charpoly, cli, refdata
    if src not in Path(heawood_udg.__file__).resolve().parents:
        print(f"heawood_udg imported from {heawood_udg.__file__}, not from {src}", file=sys.stderr)
        return 3
    with span("setup.charpoly_xl4"):
        charpoly.charpoly_xl4()
    with span("setup.reference_tables"):
        refdata.reference_tables()
    setup_end = time.monotonic()

    if tracer is not None:
        install(tracer)
    steps = []
    for argv in spec["steps"]:
        out = io.StringIO()
        with span("cli.run"), contextlib.redirect_stdout(out):
            code = cli.run(argv)
        steps.append({"argv": argv, "exit": code, "stdout": out.getvalue()})
        if code != 0:
            break

    import mpmath.libmp
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }
    result = {"setup_end": setup_end, "steps": steps, "env": env}
    if tracer is not None:
        result["trace"] = tracer.to_json_dict()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0 if all(step["exit"] == 0 for step in steps) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
