"""Solve/certify benchmark for heawood_udg.

    python3 perfbench/run.py --workload solve60 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all                # every workload in turn

Closed loop, one client: each request runs in a fresh child process
(``child.py``) and the next starts only after it has exited, so every
request pays what a CLI invocation pays, including the per-process Sturm
chain cache.  Requests start while the one expected next still fits in
``--seconds``.  The seed draws the sweep grid of each solve request from the
workload's band; nothing else depends on it.

Every request must pass the correctness gate: each CLI invocation exits 0,
the embedding, root and certificate counts are eleven, each x_l4 agrees with
a distinct reference root (``data/roots60.json``) to the request's
precision, and every certificate passes.  A failed request is counted, never
retried.

With ``--trace 0`` the last line reports the end-to-end metrics (medians
over the run's requests).  With ``--trace 1`` requests alternate traced and
untraced; the last line reports the per-layer metrics of the traced ones
(medians), whose spans are recorded by ``tracer.py``, and the tracing
overhead.  Each run writes its request records and spans to
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from decimal import Context, Decimal
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = BENCH / "data"
OUT = ROOT / ".perfbench_out"
BASELINE = BENCH / "baseline.json"
EXPECTED = 11
RUN_DEADLINE_S = 170.0  # a run must end within 180 s, builds included
REF_DIGITS = 60  # digits of the reference roots in data/roots60.json
# set-up-only children after each untraced request; set-up times vary far
# more than request times, so setup_s is a median over many set-ups
SETUP_PROBES = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    digits: int
    grid_band: tuple | None  # inclusive band the seed draws the sweep grid from
    commands: tuple  # CLI argv templates; {emb} and {svg} name the request's outputs

    def steps(self, req_dir: Path, grid: int | None) -> list:
        fill = {"emb": str(req_dir / "emb.json"), "svg": str(req_dir / "svg"), "grid": str(grid)}
        return [[arg.format(**fill) for arg in cmd] for cmd in self.commands]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve60",
            "default user path: float sweep, 30-digit bisection, Newton to 60 digits, JSON and SVG; no exact arithmetic",
            60,
            (18000, 22000),
            (("solve", "--digits", "60", "--grid", "{grid}", "--json", "{emb}", "--svg", "{svg}"),),
        ),
        Workload(
            "certify60",
            "exact side alone: Sturm chain, root isolation and refinement to 60 digits, then verify a fixed embeddings file",
            60,
            None,
            (("roots", "--digits", "60"), ("verify", "--json", str(DATA / "embeddings60.json"))),
        ),
        Workload(
            "deep300",
            "coarse grid, 300-digit Newton and chain evaluations dominate; verify uses sign_at on huge rationals, no Sturm chain",
            300,
            (4000, 6000),
            (
                ("solve", "--digits", "300", "--grid", "{grid}", "--json", "{emb}"),
                ("verify", "--json", "{emb}"),
            ),
        ),
    )
}

END_TO_END = {"request_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, how to read it from one traced request)
SPAN_TOTALS = {
    "solver.solve_all_s": "solver.solve_all",
    "solver.sweep_s": "solver.sweep",
    "solver.closure_grid_s": "solver.closure_grid",
    "solver.refine_bracket_s": "solver.refine_bracket",
    "chain.build_chain_s": "chain.build_chain",
    "solver.newton_polish_s": "solver.newton_polish",
    "solver.dedupe_s": "solver.dedupe",
    "charpoly.sturm_chain_s": "charpoly.sturm_chain",
    "charpoly.isolate_s": "charpoly.isolate_real_roots",
    "charpoly.refine_root_s": "charpoly.refine_root",
    "verify.certify_s": "verify.certify",
    "chain.dump_s": "chain.dump_candidates",
    "chain.load_s": "chain.load_candidates",
    "render.render_svg_s": "render.render_svg",
    "setup.import_s": "setup.import",
    "setup.charpoly_xl4_s": "setup.charpoly_xl4",
    "setup.reference_tables_s": "setup.reference_tables",
    "cli.run_s": "cli.run",
}
SPAN_SELF = {
    "solver.sweep_self_s": "solver.sweep",
    "charpoly.isolate_self_s": "charpoly.isolate_real_roots",
}
SPAN_CALLS = {
    "solver.closure_grid_calls": "solver.closure_grid",
    "solver.refine_bracket_calls": "solver.refine_bracket",
    "chain.build_chain_calls": "chain.build_chain",
    "solver.newton_polish_calls": "solver.newton_polish",
    "charpoly.refine_root_calls": "charpoly.refine_root",
    "verify.certify_calls": "verify.certify",
}
COUNTS = {
    "solver.brackets": "solver.brackets",
    "solver.brackets_lost": "solver.brackets_lost",
    "solver.brackets_degenerate": "solver.brackets_degenerate",
    "solver.brackets_duplicate": "solver.brackets_duplicate",
    "solver.brackets_kept": "solver.brackets_kept",
    "solver.newton_steps": "solver.newton_steps",
    "geom.circle_circle_intersect_calls": "geom.circle_circle_intersect",
    "charpoly.sign_at_calls": "charpoly.sign_at",
    "charpoly.isolate_intervals": "charpoly.isolate_intervals",
    "verify.certify_pass": "verify.certify_pass",
    "chain.json_bytes": "chain.json_bytes",
}
VALUES = ("charpoly.sturm_len", "charpoly.sturm_max_bits", "charpoly.isolate_width_max", "verify.max_flag_residual_log10")
PER_LAYER_UNITS = {
    **{name: "s" for name in (*SPAN_TOTALS, *SPAN_SELF)},
    **{name: "count" for name in (*SPAN_CALLS, *COUNTS)},
    "chain.json_bytes": "bytes",
    "charpoly.sturm_len": "count",
    "charpoly.sturm_max_bits": "bits",
    "charpoly.isolate_width_max": "1",
    "verify.max_flag_residual_log10": "log10",
    "solver.bracket_yield": "1",
    "trace.request_s": "s",
    "trace.overhead_s": "s",
    "trace.other_s": "s",
}


# ---------------------------------------------------------------------------
# One request


def run_child(spec: dict, req_dir: Path, timeout: float) -> dict:
    """Run child.py on ``spec`` and wait for it; returns wall times, exit
    status, peak RSS and the child's own result (None if it wrote none)."""
    spec_path = req_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(req_dir / "stderr.txt", "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(spec_path)], stdout=err, stderr=err)
        # wait4 reports this child's own peak RSS; the alarm kills a child
        # that overruns, and wait4 then returns
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
        signal.alarm(max(1, math.ceil(timeout)))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result_path = Path(spec["result"])
    return {
        "start": start,
        "end": end,
        "exit": proc.returncode,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "child": json.loads(result_path.read_text()) if result_path.exists() else None,
        "stderr": (req_dir / "stderr.txt").read_text()[-2000:],
    }


def run_request(wl: Workload, request_id: int, grid, traced: bool, work: Path, refs: list, timeout: float) -> dict:
    req_dir = work / f"req{request_id:03d}"
    req_dir.mkdir(parents=True)
    spec = {
        "request_id": request_id,
        "src": str(SRC),
        "steps": wl.steps(req_dir, grid),
        "trace": traced,
        "result": str(req_dir / "result.json"),
    }
    raw = run_child(spec, req_dir, timeout)
    record = {
        "request_id": request_id,
        "grid": grid,
        "traced": traced,
        "request_s": raw["end"] - raw["start"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "exit": raw["exit"],
        "errors": [],
        "sha256": [],
    }
    child = raw["child"]
    if raw["exit"] != 0 or child is None:
        record["errors"].append(f"child exited {raw['exit']}: {raw['stderr'].strip()[-500:]}")
    if child is not None:
        record["setup_s"] = child["setup_end"] - raw["start"]
        try:
            errors, record["sha256"] = check_outputs(wl, child["steps"], refs)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            errors = [f"malformed output: {exc!r}"]
        record["errors"] += errors
        if traced:
            record["trace"] = child["trace"]
            record["layers"], errors = layer_metrics(child["trace"], raw["start"], raw["end"])
            record["errors"] += errors
    shutil.rmtree(req_dir)
    return record


# ---------------------------------------------------------------------------
# Correctness gate

_DEC = Context(prec=400)


def match_roots(values: list, refs: list, digits: int) -> list:
    """Errors unless there are exactly EXPECTED values, each within the
    request's precision of a distinct reference root."""
    tol = max(Decimal(10) ** (4 - digits), Decimal(10) ** (5 - REF_DIGITS))
    if len(values) != EXPECTED:
        return [f"{len(values)} x_l4 values, expected {EXPECTED}"]
    matched = set()
    for text in values:
        x = _DEC.create_decimal(text)
        close = [k for k, r in enumerate(refs) if _DEC.abs(_DEC.subtract(x, r)) < tol]
        if len(close) != 1:
            return [f"x_l4 {text[:25]}... matches {len(close)} reference roots within {tol:.0e}"]
        matched.add(close[0])
    if len(matched) != EXPECTED:
        return [f"x_l4 values match only {len(matched)} distinct reference roots"]
    return []


def check_outputs(wl: Workload, steps: list, refs: list) -> tuple:
    """Correctness errors and the SHA-256 of each JSON output."""
    errors, hashes = [], []
    if len(steps) != len(wl.commands):
        errors.append(f"ran {len(steps)} of {len(wl.commands)} CLI invocations")
    for step in steps:
        argv, out = step["argv"], step["stdout"]
        command = argv[0]
        if step["exit"] != 0:
            errors.append(f"{command} exited {step['exit']}")
            continue
        if command == "solve":
            emb_path = Path(argv[argv.index("--json") + 1])
            text = emb_path.read_text()
            hashes.append(hashlib.sha256(text.encode()).hexdigest())
            values = [e["vertices"]["l4"][0] for e in json.loads(text)]
            errors += match_roots(values, refs, wl.digits)
            if "--svg" in argv:
                svgs = list(Path(argv[argv.index("--svg") + 1]).glob("*.svg"))
                if len(svgs) != EXPECTED:
                    errors.append(f"{len(svgs)} SVG files, expected {EXPECTED}")
        elif command == "roots":
            rows_text, _, _ = out.rpartition("found=")
            hashes.append(hashlib.sha256(rows_text.encode()).hexdigest())
            errors += match_roots([row["root"] for row in json.loads(rows_text)], refs, wl.digits)
        elif command == "verify":
            hashes.append(hashlib.sha256(out.encode()).hexdigest())
            certificates = json.loads(out)
            if len(certificates) != EXPECTED:
                errors.append(f"{len(certificates)} certificates, expected {EXPECTED}")
            failing = [k for k, c in enumerate(certificates, start=1) if not c["pass"]]
            if failing:
                errors.append(f"certificates {failing} do not pass")
    return errors, hashes


# ---------------------------------------------------------------------------
# Traced requests: per-layer metrics and their self-check


def layer_metrics(trace: dict, start: float, end: float) -> tuple:
    """Per-layer metrics of one traced request, and the errors of its
    self-check.  Funnel: every bracket is lost, degenerate, a duplicate or
    kept.  Coverage: every span nests in its parent and in the request, and
    span self times plus the time no span covers add up to the request."""
    spans = trace["spans"]
    durations = [s[2] - s[1] for s in spans]
    self_times = list(durations)
    for s, d in zip(spans, durations):
        if s[3] is not None:
            self_times[s[3]] -= d
    total, own, calls = {}, {}, {}
    for s, d, o in zip(spans, durations, self_times):
        total[s[0]] = total.get(s[0], 0.0) + d
        own[s[0]] = own.get(s[0], 0.0) + o
        calls[s[0]] = calls.get(s[0], 0) + 1
    out = {name: total.get(span, 0.0) for name, span in SPAN_TOTALS.items()}
    out.update({name: own.get(span, 0.0) for name, span in SPAN_SELF.items()})
    out.update({name: calls.get(span, 0) for name, span in SPAN_CALLS.items()})
    out.update({name: trace["counts"].get(key, 0) for name, key in COUNTS.items()})
    out.update({name: trace["values"].get(name, 0.0) for name in VALUES})
    brackets = out["solver.brackets"]
    out["solver.bracket_yield"] = out["solver.brackets_kept"] / brackets if brackets else 0.0
    out["trace.request_s"] = end - start
    out["trace.other_s"] = (end - start) - sum(d for s, d in zip(spans, durations) if s[3] is None)

    errors = []
    funnel = ("solver.brackets_lost", "solver.brackets_degenerate", "solver.brackets_duplicate", "solver.brackets_kept")
    if brackets != sum(out[k] for k in funnel):
        errors.append("funnel: " + ", ".join(f"{k}={out[k]}" for k in ("solver.brackets", *funnel)))
    outside = sum(1 for s in spans if s[1] < start or s[2] > end)
    misnested = 0
    sibling_end: dict = {}  # spans are recorded in start order
    for s in spans:
        parent = spans[s[3]] if s[3] is not None else None
        if s[1] < sibling_end.get(s[3], start) or (parent and not parent[1] <= s[1] <= s[2] <= parent[2]):
            misnested += 1
        sibling_end[s[3]] = s[2]
    covered = sum(self_times) + out["trace.other_s"]
    if outside or misnested or abs(covered - out["trace.request_s"]) > 1e-6:
        errors.append(f"coverage: {outside} spans outside the request, {misnested} misnested, "
                      f"self + other = {covered:.6f} s, request = {out['trace.request_s']:.6f} s")
    return out, errors


# ---------------------------------------------------------------------------
# A run


def load_refs() -> list:
    return [_DEC.create_decimal(row["root"]) for row in json.loads((DATA / "roots60.json").read_text())]


def environment(warmup: dict) -> dict:
    env = {"nproc": os.cpu_count()}
    if warmup["child"] is not None:
        env.update(warmup["child"]["env"])
    return env


def run_workload(wl: Workload, seed: int, seconds: int, trace: bool) -> dict:
    rng = random.Random(seed)
    refs = load_refs()
    work = OUT / "work" / f"{wl.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run_start = time.monotonic()

    def setup_probe(name: str, timeout: float) -> dict:
        probe_dir = work / name
        probe_dir.mkdir(parents=True)
        spec = {"request_id": 0, "src": str(SRC), "steps": [], "trace": False, "result": str(probe_dir / "result.json")}
        return run_child(spec, probe_dir, timeout)

    # an untimed set-up-only child first, so imports come from a warm page cache
    env = environment(setup_probe("warmup", RUN_DEADLINE_S))

    records: list = []
    setup_times: list = []
    begin = time.monotonic()
    longest = 0.0
    min_requests = 2 if trace else 1
    while True:
        pair_open = trace and len(records) % 2 == 1
        next_s = longest * (2 if trace else 1)
        if not pair_open and len(records) >= min_requests and time.monotonic() - begin + next_s > seconds:
            break
        if records and time.monotonic() - run_start + longest > RUN_DEADLINE_S:
            break
        # with tracing, requests come in pairs on one grid: traced, then untraced
        traced = trace and len(records) % 2 == 0
        if not trace or traced:
            grid = rng.randint(*wl.grid_band) if wl.grid_band else None
        unit_start = time.monotonic()
        timeout = RUN_DEADLINE_S - (unit_start - run_start)
        record = run_request(wl, len(records) + 1, grid, traced, work, refs, timeout)
        records.append(record)
        print(describe(record), flush=True)
        if not trace:
            if "setup_s" in record and not record["errors"]:
                setup_times.append(record["setup_s"])
            for k in range(SETUP_PROBES):
                probe = setup_probe(f"probe{len(records)}-{k}", RUN_DEADLINE_S - (time.monotonic() - run_start))
                if probe["exit"] == 0 and probe["child"] is not None:
                    setup_times.append(probe["child"]["setup_end"] - probe["start"])
        longest = max(longest, time.monotonic() - unit_start)
    shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in records if r["errors"])
    summary = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "attempted": len(records),
        "failed": failed,
        "metrics": summarize(records, trace, setup_times),
        "request_times": [r["request_s"] for r in records if not r["errors"] and not r["traced"]],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**summary, "requests": records}, indent=1)
    )
    return summary


def median_of(records: list, key: str) -> tuple:
    values = [r[key] for r in records if key in r]
    return (statistics.median(values) if values else 0.0), len(values)


def summarize(records: list, trace: bool, setup_times: list) -> dict:
    """Metric name -> (value, unit, sample count)."""
    ok = [r for r in records if not r["errors"]] or records
    untraced = [r for r in ok if not r["traced"]]
    if not trace:
        values = {
            "request_s": median_of(untraced, "request_s"),
            "setup_s": (statistics.median(setup_times) if setup_times else 0.0, len(setup_times)),
            "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        }
        return {name: (value, END_TO_END[name], n) for name, (value, n) in values.items()}
    traced = [r["layers"] for r in ok if "layers" in r]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead_s":
            continue
        value, n = median_of(traced, name)
        metrics[name] = (value, unit, n)
    pairs = [(t, u) for t, u in zip(records[0::2], records[1::2]) if not t["errors"] and not u["errors"]]
    overhead = [t["request_s"] - u["request_s"] for t, u in pairs]
    metrics["trace.overhead_s"] = (statistics.median(overhead) if overhead else 0.0, "s", len(overhead))
    return metrics


def describe(record: dict) -> str:
    state = "ok" if not record["errors"] else "FAILED: " + "; ".join(record["errors"])
    parts = [
        f"request {record['request_id']}",
        f"traced={int(record['traced'])}",
        f"grid={record['grid']}",
        f"request_s={record['request_s']:.4f}",
        f"setup_s={record.get('setup_s', float('nan')):.4f}",
        f"peak_rss_mb={record['peak_rss_mb']:.1f}",
        f"sha256={','.join(h[:16] for h in record['sha256'])}",
        state,
    ]
    return " ".join(parts)


def report(summary: dict) -> None:
    print(f"workload {summary['workload']} seed={summary['seed']} seconds={summary['seconds']} trace={summary['trace']}")
    env = summary["environment"]
    print("environment " + json.dumps(env, sort_keys=True))
    recorded = json.loads(BASELINE.read_text())["environment"]
    changed = {k: f"{recorded[k]} -> {env[k]}" for k in env if env[k] != recorded.get(k)}
    if changed:
        # a different backend or machine moves every number; do not credit it to a change
        print("environment differs from perfbench/baseline.json: " + json.dumps(changed))
    for name, (value, unit, n) in summary["metrics"].items():
        print(f"  {name:38s} {value:14.6g} {unit:6s} n={n}")
    attempted, failed = summary["attempted"], summary["failed"]
    if not summary["trace"]:
        times = sorted(summary["request_times"])
        if len(times) > 10:
            # the highest percentile with at least ten samples beyond it
            tail = f"{times[-11]:14.6g} {'s':6s} p{100 * (len(times) - 10) / len(times):.0f}"
        else:
            tail = f"{'n/a':>14s} {'s':6s} needs 11 requests"
        print(f"  {'request_s_tail':38s} {tail} n={len(times)}")
    print(f"  {'failed_frac':38s} {failed / attempted:14.6g} {'1':6s} n={attempted}")


def result_line(summary: dict) -> dict:
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in summary["metrics"].items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Solve/certify benchmark for heawood_udg.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "heawood_udg" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'heawood_udg'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        summary = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        report(summary)
        summaries.append(summary)
    if len(summaries) == 1:
        print(json.dumps(result_line(summaries[0])))
    else:
        print(json.dumps({
            "correct": all(s["failed"] == 0 for s in summaries),
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
            "workloads": {s["workload"]: result_line(s) for s in summaries},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
