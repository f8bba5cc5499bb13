from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

from heawood_udg import charpoly, cli, solver, verify
from heawood_udg.chain import build_chain, dump_candidates, load_candidates
from heawood_udg.cli import run
from heawood_udg.geom import MAX_DIGITS, context
from heawood_udg.render import render_svg

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_ROOTS = ROOT / "perfbench" / "data" / "roots60.json"
BENCHMARK_EMBEDDINGS = ROOT / "perfbench" / "data" / "embeddings60.json"
# SHA-256 of the stdout of `roots --digits 300`, `--digits 1000` and
# `--digits 3000`
ROOTS300_SHA256 = "59ee571ea4803dcd17fc1750e59c18dbec9b66c289074ec389a1c09add3a7324"
ROOTS1000_SHA256 = "4ad0c66d327b6014708330a4ffaa112c06aa14455225cd5709f9f8bbc38e15ea"
ROOTS3000_SHA256 = "475622f3a8e72ce117eaf87976f6298af5dbaf86898f2dd9b4abb7db7ebf13a7"
# SHA-256 of the stdout of `verify --json perfbench/data/embeddings60.json`
VERIFY60_SHA256 = "7bb0c245adbc9338e9195cc874a6cc0366a617df08ca5bc5394d4f7cd274e337"
# SHA-256 of the stdout of `verify` on the JSON of `solve --digits 300 --grid
# 5000` and of `solve --digits 15`
VERIFY300_SHA256 = "b5a312350480a619320f54daf880743e7ee0309ad40ce6c2c066172d8bd663a1"
VERIFY15_SHA256 = "aaf5e64f86e2617aca7c2022cd2f7c498138f3df48d6ddae0e5224f0be6a2e1d"
# SHA-256 of the 11 `render_svg` outputs of perfbench/data/embeddings60.json,
# concatenated
SVG60_SHA256 = "ea2527c3752e6875c0b5755d1a756d3e32ea0cf1ebbe9e497513791f01fd120f"
# SHA-256 of the stdout of `incidence`
INCIDENCE_SHA256 = "2fd84d69f67cce2f0d8dedcfd3afbae19368e6e3d1c36eb3ea3a058c3ee084d2"


def test_incidence_subcommand(capsys):
    assert run(["incidence"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == INCIDENCE_SHA256
    payload = json.loads(out)
    assert len(payload["lines"]) == 7
    assert len(payload["flags"]) == 21
    assert payload["lines"]["l2"] == ["P1", "P2", "P4"]


def test_module_entry_point():
    # `python -m heawood_udg`, as the README documents it
    proc = subprocess.run(
        [sys.executable, "-m", "heawood_udg", "incidence"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["lines"]) == 7


def test_usage_error_exit_code(tmp_path, capsys):
    assert run([]) == 2
    assert run(["solve", "--grid", "not-a-number"]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["solve", "--grid", "10"]) == 2  # below the configured minimum
    # below 15 digits degenerate zeros are counted as embeddings
    assert run(["solve", "--digits", "6"]) == 2
    assert run(["solve", "--digits", "2"]) == 2
    assert run(["verify", "--json", "/nonexistent/path.json"]) == 2
    assert run(["roots", "--digits", "-1"]) == 2
    assert run(["roots", "--digits", "0"]) == 2
    assert run(["roots", "--digits", str(MAX_DIGITS + 1)]) == 2
    # malformed input files: a message and exit 2, not a traceback
    no_vertices = tmp_path / "no_vertices.json"
    no_vertices.write_text('[{"precision": 60}]')
    assert run(["verify", "--json", str(no_vertices)]) == 2
    not_a_list = tmp_path / "not_a_list.json"
    not_a_list.write_text('{"x": 1}')
    assert run(["render", "--json", str(not_a_list), "--svg", str(tmp_path / "out")]) == 2
    # a file holding no embedding is a usage error for both commands
    for text in ("{}", "[]"):
        empty = tmp_path / "empty.json"
        empty.write_text(text)
        assert run(["verify", "--json", str(empty)]) == 2
        assert run(["render", "--json", str(empty), "--svg", str(tmp_path / "out")]) == 2
    one = tmp_path / "one.json"
    one.write_text(dump_candidates([build_chain("2.5", "000000", 30)]))
    # a non-finite or boolean number, a precision that is not a JSON
    # integer from 3 up or a branch that is not six JSON integers 0 or 1 is a
    # usage error for both commands, not a traceback, a NaN drawing, a
    # boolean read as 0 or 1 or silently truncated bits
    for name, field, value in [
        ("inf_x", "x", "inf"),
        ("nan_x", "x", "nan"),
        ("boolean_x", "x", True),
        ("boolean_theta", "theta", True),
        ("boolean_closure", "closure", False),
        ("inf_precision", "precision", float("inf")),
        ("fractional_precision", "precision", 60.7),
        ("float_precision", "precision", 60.0),
        ("negative_precision", "precision", -5),
        ("zero_precision", "precision", 0),
        ("two_digit_precision", "precision", 2),
        ("fractional_branch", "branch", [0.7, 1.2, 0, 1, 0, 1]),
        ("string_branch", "branch", "110110"),
        ("boolean_branch", "branch", [True, False, True, False, True, False]),
        ("five_bit_branch", "branch", [0, 1, 1, 0, 0]),
        ("seven_bit_branch", "branch", [0, 1, 1, 0, 0, 0, 0]),
        ("branch_with_a_two", "branch", [0, 1, 2, 0, 0, 0]),
    ]:
        data = json.loads(one.read_text())
        if field == "x":
            data[0]["vertices"]["l4"][0] = value
        else:
            data[0][field] = value
        bad = tmp_path / f"{name}.json"
        bad.write_text(json.dumps(data))
        figs = tmp_path / f"figs_{name}"
        assert run(["verify", "--json", str(bad)]) == 2, name
        assert run(["render", "--json", str(bad), "--svg", str(figs)]) == 2, name
        assert not figs.exists()
    # a vertex name that is not one of P1..P7, l1..l7, or a vertex that is
    # not a list of two numbers (a string is not unpacked into its digits,
    # a list or null is not a coordinate, and a string must be a finite
    # decimal literal), is a usage error for both commands whose message
    # names the vertex, and no SVG is written
    for k, (name, value) in enumerate(
        [
            ("Q1", ["0", "1"]), ("P8", ["0", "1"]), ("p1", ["0", "1"]),
            ("P1", "12"), ("P1", ["1"]), ("P1", ["1", "2", "3"]),
            ("P1", [[1], "2"]), ("P1", [None, "2"]),
            ("l6", ["abc", "2"]), ("l6", ["1e", "2"]), ("l6", ["inf", "2"]),
        ]
    ):
        data = json.loads(one.read_text())
        data[0]["vertices"][name] = value
        bad = tmp_path / f"vertex_{k}.json"
        bad.write_text(json.dumps(data))
        figs = tmp_path / f"figs_vertex_{k}"
        capsys.readouterr()
        assert run(["verify", "--json", str(bad)]) == 2, value
        assert name in capsys.readouterr().err
        assert run(["render", "--json", str(bad), "--svg", str(figs)]) == 2, value
        assert name in capsys.readouterr().err
        assert not figs.exists()
    # the grid bound is checked before the sweep allocates anything
    assert run(["solve", "--grid", "10000000000"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["roots", "solve", "verify", "render"])
@pytest.mark.parametrize("digits", [MAX_DIGITS + 1, 10 ** 8])
def test_precision_above_max_digits_is_a_usage_error(command, digits, tmp_path, monkeypatch, capsys):
    # the bound is checked before any work at that precision: the stage
    # that would run next fails the test instead of running for minutes.
    # roots checks it in refine_root, after the isolation, which does not
    # depend on the precision
    def past_the_check(*args, **kwargs):
        raise AssertionError("ran past the precision check")

    monkeypatch.setattr(charpoly, "_fixed_value", past_the_check)
    monkeypatch.setattr(solver, "sweep", past_the_check)
    monkeypatch.setattr(verify, "certify", past_the_check)
    monkeypatch.setattr(cli, "render_svg", past_the_check)
    # integer coordinates read fast at any precision
    data = json.loads(dump_candidates([build_chain("2.5", "000000", 30)]))
    data[0].update(precision=digits, theta="2", closure="0")
    data[0]["vertices"] = {name: ["0", "1"] for name in data[0]["vertices"]}
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(data))
    figs = tmp_path / "figs"
    argv = {
        "roots": ["roots", "--digits", str(digits)],
        "solve": ["solve", "--digits", str(digits), "--grid", "1000"],
        "verify": ["verify", "--json", str(huge)],
        "render": ["render", "--json", str(huge), "--svg", str(figs)],
    }[command]
    try:
        status = run(argv)
    except AssertionError:
        # without pytrace the report does not print the stage's arguments,
        # whose 10^8-digit numbers would take minutes to format
        pytest.fail("ran past the precision check", pytrace=False)
    assert status == 2
    assert str(MAX_DIGITS) in capsys.readouterr().err
    assert not figs.exists()


def test_solve_writes_json_and_svg(tmp_path, capsys):
    out = tmp_path / "embeddings.json"
    figs = tmp_path / "figs"
    status = run(
        ["solve", "--grid", "20000", "--digits", "40", "--json", str(out), "--svg", str(figs)]
    )
    captured = capsys.readouterr()
    assert status == 0
    assert "found=11 expected=11" in captured.out
    embeddings = load_candidates(out.read_text())
    assert len(embeddings) == 11
    assert all(e.precision == 40 for e in embeddings)
    svgs = sorted(figs.glob("*.svg"))
    assert len(svgs) == 11


def test_solve_stdout_when_no_json_path(capsys):
    status = run(["solve", "--grid", "2000", "--digits", "30"])
    out = capsys.readouterr().out
    assert status == 0
    payload = json.loads(out[: out.rindex("]") + 1])
    assert len(payload) == 11


def test_roots_subcommand(capsys):
    assert run(["roots", "--digits", "60"]) == 0
    out = capsys.readouterr().out
    # the benchmark's reference file holds the JSON rows of `roots --digits 60`
    assert out.rpartition("found=")[0] == BENCHMARK_ROOTS.read_text()
    rows = json.loads(out[: out.rindex("]") + 1])
    assert len(rows) == 11
    assert "found=11 expected=11" in out
    first = rows[0]
    assert set(first) == {"lo", "hi", "root"}
    assert first["root"].startswith("-0.7301241649097792")
    # interval endpoints are exact rationals
    num, den = first["lo"].split("/")
    assert int(den) > 0


def test_deep_roots_bytes_unchanged(capsys):
    # nothing else pins the exact side's output above 60 digits; at 1,000
    # digits the Newton finish of refine_root takes six steps, and from
    # 300 digits the interval filter decides the confirming exact signs
    pins = (("300", ROOTS300_SHA256), ("1000", ROOTS1000_SHA256), ("3000", ROOTS3000_SHA256))
    for digits, pin in pins:
        assert run(["roots", "--digits", digits]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == pin, digits


def test_verify_bytes_unchanged(capsys):
    # the certificates of the benchmark's embeddings, byte for byte
    assert run(["verify", "--json", str(BENCHMARK_EMBEDDINGS)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == VERIFY60_SHA256


def test_verify_bytes_unchanged_at_15_and_300_digits(low_precision_solutions, deep_solutions, tmp_path, capsys):
    # the certificates of the solves at the least precision and at deep300's
    for solutions, pin in ((low_precision_solutions[15], VERIFY15_SHA256), (deep_solutions, VERIFY300_SHA256)):
        path = tmp_path / "embeddings.json"
        path.write_text(dump_candidates(solutions))
        assert run(["verify", "--json", str(path)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == pin


def test_svg_bytes_unchanged():
    embeddings = load_candidates(BENCHMARK_EMBEDDINGS.read_text())
    svgs = "".join(render_svg(e) for e in embeddings)
    assert hashlib.sha256(svgs.encode()).hexdigest() == SVG60_SHA256


@pytest.mark.parametrize("x_l4", ["1e100000", "1e-100000", "1e-10000", "1e1000000"])
def test_verify_extreme_x_l4_fails_fast(x_l4, tmp_path, capsys):
    # the exact bracket does not evaluate the degree-79 polynomial at a
    # rational of a million bits: verify fails the file in well under a second
    data = json.loads(BENCHMARK_EMBEDDINGS.read_text())[:1]
    data[0]["vertices"]["l4"][0] = x_l4
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(data))
    started = time.perf_counter()
    assert run(["verify", "--json", str(path)]) == 1
    assert time.perf_counter() - started < 10
    assert json.loads(capsys.readouterr().out)[0]["charpoly_bracket_ok"] is False


def test_numbers_past_python_int_string_limit(tmp_path, capsys):
    # 4,400 digits is past the 4,300 that int() reads from a string by
    # default, and within MAX_DIGITS: solve's output must load and render
    cand = build_chain("2.5", "011000", 4400)
    text = dump_candidates([cand])
    assert max(len(x) for x in json.loads(text)[0]["vertices"]["P1"]) > 4300
    (loaded,) = load_candidates(text)
    assert dump_candidates([loaded]) == text
    assert abs(loaded.coords["P1"].x - cand.coords["P1"].x) < cand.context().mpf(10) ** -4390
    path = tmp_path / "deep.json"
    path.write_text(text)
    figs = tmp_path / "figs"
    assert run(["render", "--json", str(path), "--svg", str(figs)]) == 0
    assert len(list(figs.glob("*.svg"))) == 1
    # a number string far longer than any precision is refused up front
    data = json.loads(text)
    data[0].update(precision=60)
    data[0]["vertices"]["P1"][0] = "0." + "1" * 200_000
    path.write_text(json.dumps(data))
    capsys.readouterr()
    started = time.perf_counter()
    assert run(["verify", "--json", str(path)]) == 2
    assert time.perf_counter() - started < 10
    assert "characters in embeddings file" in capsys.readouterr().err


@pytest.mark.parametrize("digits, code", [(5_000, 0), (30_000, 2)])
def test_long_json_integer_literals(digits, code, tmp_path, capsys):
    # json.loads reads integer literals with int(), capped at 4,300 digits;
    # the loader reads them up to its own limit and refuses longer ones
    data = json.loads(BENCHMARK_EMBEDDINGS.read_text())
    text = json.dumps(data).replace('"precision": 60', f'"precision": 60, "extra": {"7" * digits}', 1)
    path = tmp_path / "long_int.json"
    path.write_text(text)
    assert len(json.loads(text, parse_int=str)[0]["extra"]) == digits
    assert run(["verify", "--json", str(path)]) == code
    err = capsys.readouterr().err
    if code:
        assert f"number of {digits} characters in embeddings file, limit 20000" in err
        assert "int_max_str_digits" not in err


def test_render_names_coordinates_too_large_to_draw(tmp_path, capsys):
    # l4.x of 1e100000 overflows a float, and 1e307 the drawing size: the
    # error names the coordinates, not the scale
    for x_l4, x_max in [("1e100000", "inf"), ("1e307", "1e+307")]:
        data = json.loads(BENCHMARK_EMBEDDINGS.read_text())[:1]
        data[0]["vertices"]["l4"][0] = x_l4
        path = tmp_path / "far.json"
        path.write_text(json.dumps(data))
        figs = tmp_path / f"figs_{x_l4}"
        assert run(["render", "--json", str(path), "--svg", str(figs)]) == 2
        err = capsys.readouterr().err
        assert "coordinates too large to draw: x from" in err and f"to {x_max}," in err, x_l4
        assert "scale" not in err
        assert not figs.exists() or not list(figs.iterdir())


def test_json_float_literals_are_read_exactly(tmp_path, capsys):
    # the 60-digit coordinates written as bare JSON numbers verify exactly
    # as the same digits written as strings, not cut to 53-bit floats
    strings = tmp_path / "strings.json"
    strings.write_text(json.dumps(json.loads(BENCHMARK_EMBEDDINGS.read_text())))
    bare = tmp_path / "bare.json"
    bare.write_text(re.sub(r'"(-?[0-9][0-9.e+-]*)"', r"\1", strings.read_text()))
    assert '"P1": [' in bare.read_text() and '"-0.' not in bare.read_text()
    assert run(["verify", "--json", str(strings)]) == 0
    expected = capsys.readouterr().out
    assert run(["verify", "--json", str(bare)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "key, old, new",
    [
        # a bogus P1 ahead of the real one, which would replace it unseen
        ("P1", '"P1": [', '"P1": ["5", "5"], "P1": ['),
        ("precision", '"precision": 60', '"precision": 60, "precision": 60'),
    ],
)
def test_repeated_json_key_is_a_usage_error(key, old, new, tmp_path, capsys):
    text = json.dumps(json.loads(BENCHMARK_EMBEDDINGS.read_text())[:1])
    path = tmp_path / "repeated.json"
    path.write_text(text.replace(old, new, 1))
    figs = tmp_path / "figs"
    assert run(["verify", "--json", str(path)]) == 2
    assert f"repeated key '{key}' in embeddings file" in capsys.readouterr().err
    assert run(["render", "--json", str(path), "--svg", str(figs)]) == 2
    assert f"repeated key '{key}' in embeddings file" in capsys.readouterr().err
    assert not figs.exists()


def test_verify_fails_an_edge_whose_ends_coincide(tmp_path, capsys):
    # l1 on top of P1: the flag P1-l1 has length 0, which fails the
    # certificate rather than dividing by zero
    data = json.loads(BENCHMARK_EMBEDDINGS.read_text())[:1]
    data[0]["vertices"]["l1"] = list(data[0]["vertices"]["P1"])
    path = tmp_path / "collapsed.json"
    path.write_text(json.dumps(data))
    assert run(["verify", "--json", str(path)]) == 1
    (cert,) = json.loads(capsys.readouterr().out)
    assert cert["pass"] is False
    assert cert["max_flag_residual"] == "1.0"
    assert cert["regularity_margin"] == "0.0"


@pytest.mark.parametrize("case", ["coordinate 1e400", "edge shorter than 1/2", "3 digits", "14 digits"])
def test_verify_fails_a_row_the_float_bounds_cannot_pass(case, tmp_path, capsys):
    # a coordinate whose float is not finite gives separation and margin 0,
    # and an edge shorter than 1/2 gives margin 0; a row below 15 digits gets
    # a float bound like any other and fails on its precision.  Each such
    # row gets a failing certificate, and verify exits 1 with no traceback
    data = json.loads(BENCHMARK_EMBEDDINGS.read_text())
    vertices = data[0]["vertices"]
    if case == "coordinate 1e400":
        vertices["P1"][0] = "1e400"
    elif case == "edge shorter than 1/2":
        vertices["l1"] = [str(Decimal(vertices["P1"][0]) + Decimal("0.3")), vertices["P1"][1]]
    else:
        data[0]["precision"] = int(case.split()[0])
    path = tmp_path / "row.json"
    path.write_text(json.dumps(data))
    assert run(["verify", "--json", str(path)]) == 1
    captured = capsys.readouterr()
    assert all(line.startswith("verify: ") for line in captured.err.splitlines())
    cert, *others = json.loads(captured.out)
    assert cert["pass"] is False and all(c["pass"] for c in others)
    row = load_candidates(path.read_text())[0]
    if case.endswith("digits"):
        assert float(cert["regularity_margin"]) > 0.04 and verify.min_vertex_separation(row) > 0.04
    else:
        assert cert["regularity_margin"] == "0.0"
        assert (verify.min_vertex_separation(row) == 0) == (case == "coordinate 1e400")


def test_solve_defaults_are_solve_configs():
    args = cli._build_parser().parse_args(["solve"])
    assert (args.grid, args.digits) == (solver.SolveConfig().grid_points, solver.SolveConfig().digits)


@pytest.mark.parametrize("case", ["row 1 eleven times", "one row", "twelve rows", "flipped branch"])
def test_verify_certifies_the_set(case, tmp_path, capsys):
    # a passing file holds one embedding per real root of p: a repeated
    # row, a wrong row count or a branch that the coordinates do not lie on
    # fails it; stderr names the fault, and stdout stays one JSON list of
    # certificates
    rows = json.loads(BENCHMARK_EMBEDDINGS.read_text())
    rows, faults = {
        "row 1 eleven times": (rows[:1] * 11, [f"rows {k} and {k + 1} may hold one root" for k in range(1, 11)]),
        "one row": (rows[:1], ["expected 11 embeddings, the file holds 1"]),
        "twelve rows": (
            rows + rows[3:4],
            ["expected 11 embeddings, the file holds 12", "rows 4 and 12 may hold one root"],
        ),
        "flipped branch": (rows, []),
    }[case]
    if case == "flipped branch":
        rows[0]["branch"] = [1, 1, 1, 1, 1, 1]
    path = tmp_path / "set.json"
    path.write_text(json.dumps(rows))
    assert run(["verify", "--json", str(path)]) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == len(faults)
    assert all(fault in captured.err for fault in faults)
    certs = json.loads(captured.out)
    assert len(certs) == len(rows)
    assert [c["provenance_ok"] for c in certs] == [case != "flipped branch"] + [True] * (len(rows) - 1)
    assert [c["pass"] for c in certs] == [c["provenance_ok"] for c in certs]


def test_verify_fails_a_mirrored_row(tmp_path, capsys):
    # row 1 mirrored in y keeps every distance, x_l4 and the margin, and its
    # flipped branch bits and angle 2 pi - theta are the mirror's own; but
    # the pinned rectangle now hangs below the x axis, P2 at (0, -2).  The
    # other rows' pinned "0.0", "1.0" and "2.0" are read exactly
    rows = json.loads(BENCHMARK_EMBEDDINGS.read_text())
    for xy in rows[0]["vertices"].values():
        xy[1] = xy[1][1:] if xy[1].startswith("-") else "-" + xy[1]
    rows[0]["branch"] = [1 - b for b in rows[0]["branch"]]
    ctx = context(60)
    rows[0]["theta"] = ctx.nstr(2 * ctx.pi - ctx.mpf(rows[0]["theta"]), 60)
    path = tmp_path / "mirrored.json"
    path.write_text(json.dumps(rows))
    assert run(["verify", "--json", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    certs = json.loads(captured.out)
    assert [c["pinned_ok"] for c in certs] == [False] + [True] * 10
    assert [c["pass"] for c in certs] == [False] + [True] * 10
    assert certs[0]["provenance_ok"] is True
    assert certs[0]["regularity_margin"] == "0.04741145"


@pytest.mark.parametrize("field, value", [("theta", "123.0"), ("closure", "0.5")])
def test_verify_checks_a_rows_provenance(field, value, tmp_path, capsys):
    # a row's theta and closure, like its branch, must be what its
    # coordinates give; the coordinates themselves still certify, and
    # render, which certifies nothing, still draws the row
    rows = json.loads(BENCHMARK_EMBEDDINGS.read_text())
    rows[0][field] = value
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(rows))
    assert run(["verify", "--json", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    certs = json.loads(captured.out)
    assert [c["provenance_ok"] for c in certs] == [False] + [True] * 10
    assert [c["pass"] for c in certs] == [False] + [True] * 10
    assert certs[0]["max_flag_residual"] == "9.1789475e-60" and certs[0]["charpoly_bracket_ok"]
    assert run(["render", "--json", str(path), "--svg", str(tmp_path / "figs")]) == 0


def test_verify_passes_a_fresh_solve(tmp_path, capsys, monkeypatch):
    path = tmp_path / "e15.json"
    assert run(["solve", "--digits", "15", "--json", str(path)]) == 0
    signs = []
    sign_at = verify.sign_at
    monkeypatch.setattr(verify, "sign_at", lambda poly, x: signs.append(x) or sign_at(poly, x))
    capsys.readouterr()
    assert run(["verify", "--json", str(path)]) == 0
    assert capsys.readouterr().err == ""
    # the set check reads the brackets the certificates kept: two signs a row
    assert len(signs) == 2 * 11


def test_verify_subcommand_passes(tmp_path, capsys, solutions):
    src = tmp_path / "sols.json"
    src.write_text(dump_candidates(solutions))
    assert run(["verify", "--json", str(src)]) == 0
    certs = json.loads(capsys.readouterr().out)
    assert len(certs) == 11
    assert all(c["pass"] for c in certs)
    matched = sorted(c["matched_table"] for c in certs if c["matched_table"] is not None)
    assert matched == list(range(1, 12))


def test_verify_rejects_broken_candidate(tmp_path, capsys, solutions):
    data = json.loads(dump_candidates(solutions[:2]))
    data[0]["vertices"]["P1"][0] = "0.5"  # corrupt one coordinate
    src = tmp_path / "broken.json"
    src.write_text(json.dumps(data))
    assert run(["verify", "--json", str(src)]) == 1
    certs = json.loads(capsys.readouterr().out)
    assert certs[0]["pass"] is False
    assert certs[1]["pass"] is True


def test_render_subcommand(tmp_path, capsys, solutions):
    src = tmp_path / "sols.json"
    src.write_text(dump_candidates(solutions))
    outdir = tmp_path / "gallery"
    assert run(["render", "--json", str(src), "--svg", str(outdir)]) == 0
    capsys.readouterr()
    files = sorted(outdir.glob("embedding_*.svg"))
    assert len(files) == 11
    assert files[0].read_text().count("<line") == 21


def test_cli_output_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    run(["solve", "--grid", "2000", "--digits", "30", "--json", str(out1)])
    run(["solve", "--grid", "2000", "--digits", "30", "--json", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_does_not_import_numpy():
    # only the float sweep needs numpy; a fresh interpreter shows whether
    # a command that never sweeps pays for importing it
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from heawood_udg import cli\n"
        f"status = cli.run(['verify', '--json', {str(BENCHMARK_EMBEDDINGS)!r}])\n"
        "print('numpy loaded:', 'numpy' in sys.modules, file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "numpy loaded: False" in proc.stderr
