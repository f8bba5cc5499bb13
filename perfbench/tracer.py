"""Spans and counters for one benchmark request, recorded from outside the package.

The tracer wraps public functions of ``heawood_udg`` at the name their
caller looks them up by: ``solver`` imports ``build_chain`` and
``closure_grid`` by name, so the wrapper goes on ``solver.build_chain``,
not on ``chain.build_chain``.  Hot leaves are only counted.  Spans stay in
memory and are written out with the request's result when the child exits.

A span is ``[name, start, end, parent]``: monotonic seconds, and the index
of the enclosing span or None.  The request id is stored once per request.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self, request_id: int):
        self.request_id = request_id
        self.spans: list = []
        self.counts: Counter = Counter()
        self.values: dict = {}
        self._open: list = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.monotonic(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.monotonic()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, before=None, after=None, error=None):
        """Replace ``module.attr`` with a version that records a span.

        ``before(args, kwargs)`` runs ahead of the call, ``after(result,
        args, kwargs)`` after it returns and ``error(exc)`` when it raises;
        all three run outside the span.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            try:
                with self.span(name):
                    result = original(*args, **kwargs)
            except Exception as exc:
                if error is not None:
                    error(exc)
                raise
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(module, attr, traced)

    def count(self, module, attr: str, name: str):
        """Replace ``module.attr`` with a version that only counts calls."""
        original = getattr(module, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        setattr(module, attr, counted)

    def keep_max(self, name: str, value: float):
        self.values[name] = max(self.values.get(name, -math.inf), value)

    def to_json_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "spans": self.spans,
            "counts": dict(self.counts),
            "values": self.values,
        }


def install(tracer: Tracer) -> None:
    """Wrap the public calls of solver, chain, geom, charpoly, verify and
    render that the CLI reaches, and hook the bracket funnel counters."""
    from heawood_udg import chain, charpoly, cli, solver, verify

    t = tracer
    config = {"min_vertex_separation": solver.SolveConfig().min_vertex_separation}

    def solve_all_before(args, kwargs):
        cfg = args[0] if args else kwargs.get("config")
        if cfg is not None:
            config["min_vertex_separation"] = cfg.min_vertex_separation

    def solve_all_after(result, args, kwargs):
        t.counts["solver.brackets_kept"] += len(result)

    def sweep_after(result, args, kwargs):
        t.counts["solver.brackets"] += len(result)

    def refine_bracket_error(exc):
        if isinstance(exc, solver.LostBracket):
            t.counts["solver.brackets_lost"] += 1

    def separation_after(result, args, kwargs):
        if result < config["min_vertex_separation"]:
            t.counts["solver.brackets_degenerate"] += 1

    def newton_before(args, kwargs):
        kwargs.setdefault("trace", [])

    def newton_after(result, args, kwargs):
        t.counts["solver.newton_steps"] += len(kwargs["trace"])

    def dedupe_after(result, args, kwargs):
        t.counts["solver.brackets_duplicate"] += len(args[0]) - len(result)

    def sturm_after(result, args, kwargs):
        t.keep_max("charpoly.sturm_len", len(result))
        if "charpoly.sturm_max_bits" not in t.values:
            t.keep_max(
                "charpoly.sturm_max_bits",
                max(abs(c).bit_length() for q in result for c in q.coefficients),
            )

    def isolate_after(result, args, kwargs):
        t.counts["charpoly.isolate_intervals"] += len(result)
        t.keep_max("charpoly.isolate_width_max", max((float(iv.width) for iv in result), default=0.0))

    def certify_after(result, args, kwargs):
        t.counts["verify.certify_pass"] += int(result.passes)
        floor = result.max_flag_residual.context.mpf(10) ** -(result.precision + 10)
        worst = max(abs(result.max_flag_residual), floor)
        t.keep_max("verify.max_flag_residual_log10", float(worst.context.log10(worst)))

    def dump_after(result, args, kwargs):
        t.counts["chain.json_bytes"] += len(result.encode("utf-8"))

    t.wrap(solver, "solve_all", "solver.solve_all", before=solve_all_before, after=solve_all_after)
    t.wrap(solver, "sweep", "solver.sweep", after=sweep_after)
    t.wrap(solver, "closure_grid", "solver.closure_grid")
    t.wrap(solver, "refine_bracket", "solver.refine_bracket", error=refine_bracket_error)
    t.wrap(solver, "build_chain", "chain.build_chain")
    t.wrap(solver, "min_vertex_separation", "solver.min_vertex_separation", after=separation_after)
    t.wrap(solver, "newton_polish", "solver.newton_polish", before=newton_before, after=newton_after)
    t.wrap(solver, "dedupe_candidates", "solver.dedupe", after=dedupe_after)
    t.count(chain, "circle_circle_intersect", "geom.circle_circle_intersect")
    t.wrap(charpoly, "sturm_chain", "charpoly.sturm_chain", after=sturm_after)
    t.wrap(charpoly, "isolate_real_roots", "charpoly.isolate_real_roots", after=isolate_after)
    t.wrap(charpoly, "refine_root", "charpoly.refine_root")
    t.count(charpoly, "sign_at", "charpoly.sign_at")
    t.count(verify, "sign_at", "charpoly.sign_at")
    t.wrap(verify, "certify", "verify.certify", after=certify_after)
    t.wrap(cli, "dump_candidates", "chain.dump_candidates", after=dump_after)
    t.wrap(cli, "load_candidates", "chain.load_candidates")
    t.wrap(cli, "render_svg", "render.render_svg")
