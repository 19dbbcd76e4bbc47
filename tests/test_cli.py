"""End-to-end command-line tests: happy paths, exit codes, determinism."""
import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import output_check
from expotrans import finiteterm, serialize, series
from expotrans.cli import build_parser, main
from expotrans.gallery import b_for, names, resolve
from expotrans.shapes import Shape

# the tree under test, ahead of any installed copy
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
BASE = [sys.executable, "-m", "expotrans.cli"]


def run(*args, env=None, cwd=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, full_env.get("PYTHONPATH")) if p)
    if env:
        full_env.update(env)
    return subprocess.run(
        BASE + list(args), capture_output=True, text=True, env=full_env, cwd=cwd
    )


def test_gallery_list():
    r = run("gallery")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert "disk" in obj["entries"] and "twodiag" in obj["entries"]


def test_gallery_describe():
    r = run("gallery", "gallery:trifoil")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["kind"] == "operator" and obj["xi_index"] == 1
    r = run("gallery", "gallery:annulus")
    assert json.loads(r.stdout)["type"] == "annulus"


def test_moments_disk():
    r = run("moments", "gallery:disk", "--order", "4")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["order"] == 4
    assert abs(obj["re"][0][0] - 1.0) < 1e-12
    assert abs(obj["re"][1][1] - 0.5) < 1e-12


def test_transform_annulus_diagonal():
    r = run("transform", "gallery:annulus", "--order", "4")
    obj = json.loads(r.stdout)
    diag = [obj["re"][k][k] for k in range(4)]
    want = [0.75 * 0.25**k for k in range(4)]
    assert max(abs(d - w) for d, w in zip(diag, want)) < 1e-8


def test_transform_round_trip(tmp_path):
    a_path, b_path = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run("moments", "gallery:ellipse-shape", "--order", "6", "--out", a_path).returncode == 0
    assert run("transform", a_path, "--order", "6", "--out", b_path).returncode == 0
    r = run("transform", b_path, "--inverse", "--order", "6")
    assert r.returncode == 0
    back = json.loads(r.stdout)
    with open(a_path) as fh:
        orig = json.load(fh)
    err = np.abs(np.array(back["re"]) - np.array(orig["re"])).max()
    assert err < 1e-10


def test_transform_prints_the_sources_own_matrix(tmp_path, monkeypatch, capsys):
    # a source that holds the matrix asked for is printed as it is; only the
    # other matrix goes through the conversion.  At order 48 the offset
    # disk's a fails a_to_b's Hermitian check, so an a -> b -> a round trip
    # exits 2 where `moments` prints the a.
    monkeypatch.chdir(tmp_path)
    disk = "gallery:disk?x=0.4&R=1.1"
    assert _out(capsys, f"transform {disk} --inverse --order 48") == _out(capsys, f"moments {disk} --order 48")
    want = serialize.dumps(serialize.matrix_to_obj(b_for("gallery:trifoil", 10).b)) + "\n"
    assert _out(capsys, "transform gallery:trifoil --order 10") == want
    b_doc = _out(capsys, "transform gallery:ellipse-shape --order 8")
    with open("b.json", "w") as fh:
        fh.write(b_doc)
    assert _out(capsys, "transform b.json --given b --order 8") == b_doc
    block = serialize.matrix_from_obj(serialize.load_json("b.json"))[:4, :4]
    want = serialize.dumps(serialize.matrix_to_obj(block)) + "\n"
    assert _out(capsys, "transform b.json --given b --order 4") == want
    # --inverse reads a matrix file as b unless --given says a
    a_doc = _out(capsys, "moments gallery:ellipse-shape --order 8")
    with open("a.json", "w") as fh:
        fh.write(a_doc)
    assert _out(capsys, "transform a.json --inverse --given a --order 8") == a_doc
    want = _out(capsys, "moments a.json --order 4")
    assert _out(capsys, "transform a.json --inverse --given a --order 4") == want


def test_moments_is_transform_inverse(tmp_path, monkeypatch, capsys):
    # one handler: the same bytes on both streams and the same exit code for
    # every gallery shape, an operator family, a shape file, an a file and a
    # b file, and for sources that fail with exit 2 and exit 4
    monkeypatch.chdir(tmp_path)
    _out(capsys, "gallery ellipse-shape --out shape.json")
    _out(capsys, "moments gallery:annulus --order 8 --out a.json")
    _out(capsys, "transform gallery:annulus --order 8 --out b.json")
    shapes = [name for name in names() if isinstance(resolve(name), Shape)]
    sources = [f"gallery:{name} --order 6" for name in shapes] + [
        "gallery:trifoil --order 6", "shape.json --order 6", "a.json --given a --order 6",
        "b.json --given b --order 6", "gallery:disk?x=1e5&R=1 --order 48", "missing.json",
        "a.json --given a --order 9",
    ]
    assert len(sources) == 11
    codes = set()
    for source in sources:
        results = []
        for command in (f"moments {source}", f"transform {source} --inverse"):
            code = main(command.split())
            results.append((code, *capsys.readouterr()))
        assert results[0] == results[1], source
        codes.add(results[0][0])
    assert codes == {0, 2, 4}


@pytest.mark.parametrize("command", [
    "moments gallery:disk --order 3",
    "evolve gallery:disk --law squeeze --steps 2",
], ids=["json", "csv"])
def test_out_file_holds_stdouts_bytes(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    want = _out(capsys, command)
    assert _out(capsys, f"{command} --out o.txt") == ""
    with open("o.txt", "rb") as fh:
        assert fh.read() == want.encode()


def test_pipeline_ellipse_report():
    r = run("pipeline", "gallery:ellipse", "--order", "10")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["band"]["upper_bandwidth"] == 1
    assert obj["completeness"]["verdict"] == "consistent-with-complete"
    assert obj["certificate"]["d"] == 1
    assert obj["degree"] == 10


def test_pipeline_document_key_order(capsys):
    assert main(["pipeline", "gallery:ellipse", "--order", "10"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert list(obj) == ["source", "order", "degree", "stalled", "gamma", "hessenberg",
                         "certified_block", "band", "completeness", "certificate"]
    assert list(obj["band"]) == ["upper_bandwidth", "recursion_length", "toeplitz_deviation"]
    assert list(obj["completeness"]) == ["lhs", "rhs", "gap", "tail", "bound", "verdict"]


def test_pipeline_deterministic():
    r1 = run("pipeline", "gallery:trifoil", "--order", "10")
    r2 = run("pipeline", "gallery:trifoil", "--order", "10")
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


def test_detect_trifoil():
    r = run("detect", "gallery:trifoil", "--order", "12")
    obj = json.loads(r.stdout)["certificate"]
    assert obj["d"] == 2
    q = np.array([c[0] + 1j * c[1] for c in obj["q"]])
    assert np.max(np.abs(q - np.array([0, 0, 1]))) < 1e-8


@pytest.mark.parametrize("command", ["detect", "pipeline"])
def test_no_certificate_below_order_is_null(command):
    # at order 3 only d = 0..2 can be fitted, and none beats tol 1e-30
    r = run(command, "gallery:ellipse-shape", "--order", "3", "--tol", "1e-30")
    assert r.returncode == 0, r.stderr
    assert r.stdout.rstrip().endswith('"certificate":null}')


@pytest.mark.parametrize("command", ["detect", "pipeline"])
def test_a_column_past_the_squares_range_is_fitted_quietly(capsys, command):
    # the u = 1e40 ellipse's column norm squares past the float range; the fit
    # once raised two overflow warnings and wrote an inf residual (exit 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "gallery:ellipse?u=1e40", "--order", "6"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.rstrip().endswith('"certificate":null}')


def test_reconstruct_default_legendre_order_follows_the_certificate(tmp_path, monkeypatch, capsys):
    # detect -> reconstruct on the trifoil at order 12: the degree-2 fill reaches
    # total order 9, so the default 10 once exited 3; the header names the order used
    monkeypatch.chdir(tmp_path)
    _out(capsys, "detect gallery:trifoil --order 12 --out c.json")
    header = _out(capsys, "reconstruct gallery:trifoil c.json --order 12 --grid 4").split("\n", 1)[0]
    assert json.loads(header[2:])["legendre_order"] == 9
    assert main("reconstruct gallery:trifoil c.json --order 12 --legendre-order 10".split()) == 3
    assert capsys.readouterr().err == "expotrans: domain error: moments cover total order 9, requested 10\n"


def test_fill_and_reconstruct(tmp_path):
    cert_path = str(tmp_path / "cert.json")
    with open(cert_path, "w") as fh:
        json.dump(
            {"d": 2, "q": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
             "residual": 1e-12, "rows_used": 11},
            fh,
        )
    r = run("fill", "gallery:trifoil", cert_path, "--order", "10")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["re"][9][9] is None  # outside the certified triangle
    assert abs(obj["re"][0][0] - 1.0) < 1e-12

    r1 = run("reconstruct", "gallery:trifoil", cert_path,
             "--order", "12", "--legendre-order", "6", "--grid", "12")
    assert r1.returncode == 0
    header_line, csv = r1.stdout.split("\n", 1)
    assert header_line.startswith("# ")
    header = json.loads(header_line[2:])
    assert abs(header["mass"] - math.pi) < 1e-8
    assert header["nx"] == 12
    assert csv.splitlines()[0] == "x,y,value"
    assert len(csv.splitlines()) == 1 + 144
    # byte determinism of the full artifact
    r2 = run("reconstruct", "gallery:trifoil", cert_path,
             "--order", "12", "--legendre-order", "6", "--grid", "12")
    assert r2.stdout == r1.stdout


def test_reconstruct_rejects_sloppy_certificate(tmp_path):
    cert_path = str(tmp_path / "cert.json")
    with open(cert_path, "w") as fh:
        json.dump(
            {"d": 2, "q": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
             "residual": 0.5, "rows_used": 11},
            fh,
        )
    r = run("reconstruct", "gallery:trifoil", cert_path, "--order", "12")
    assert r.returncode == 3
    assert "residual" in r.stderr


def test_reconstruct_takes_the_certificate_detect_returns(tmp_path, monkeypatch, capsys):
    # detect's residual, 1.28, is 5.9e-17 of the column's norm 2.19e16; it
    # once met an absolute --tol of 1e-6 and was refused (exit 3)
    monkeypatch.chdir(tmp_path)
    _out(capsys, "detect gallery:ellipse?u=2.2 --order 40 --out c.json")
    with open("c.json") as fh:
        assert json.load(fh)["certificate"]["residual"] > 1.0
    assert main("reconstruct gallery:ellipse?u=2.2 c.json --order 40".split()) == 0


@pytest.mark.parametrize("u", ["1.5", "3"])
def test_reconstruct_rejects_a_residual_past_the_column_rule(tmp_path, monkeypatch, capsys, u):
    # the benchmark's cli-cold deck: a recorded residual of 1.0 against column
    # norms of 409 (u = 1.5) and 8.2e4 (u = 3) at order 12, above 1e-6 of either
    monkeypatch.chdir(tmp_path)
    doc = json.loads(_out(capsys, f"detect gallery:ellipse?u={u} --order 12 --dmax 4"))
    doc["certificate"]["residual"] = 1.0
    with open("sloppy.json", "w") as fh:
        json.dump(doc, fh)
    assert main(f"reconstruct gallery:ellipse?u={u} sloppy.json --order 12".split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "residual 1.000e+00" in captured.err


@pytest.mark.parametrize("residual, code", [(0.0, 0), (1e-12, 3)], ids=["exact", "near"])
def test_reconstruct_of_an_all_zero_column(tmp_path, monkeypatch, capsys, residual, code):
    # the one CLI path to reconstruct_from_certificate's zero-column branch: a
    # recorded residual of exactly 0, which a zero column's norm still admits;
    # any positive residual misses it by inf
    monkeypatch.chdir(tmp_path)
    with open("zero.json", "w") as fh:
        json.dump({"order": 6, "re": [0.0] * 6, "im": [0.0] * 6}, fh)
    with open("cert.json", "w") as fh:
        json.dump({"d": 1, "q": [[0.0, 0.0], [2.0, 0.0]], "residual": residual, "rows_used": 5}, fh)
    assert main("reconstruct zero.json cert.json --order 6 --grid 8".split()) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert "misses the column by inf" in captured.err
        return
    assert captured.err == ""
    header, _, csv = captured.out.partition("\n")
    doc = json.loads(header[len("# "):])
    assert doc["box"] == [-1, 1, -1, 1] and doc["mass"] == 0
    rows = csv.splitlines()
    assert rows[0] == "x,y,value" and len(rows) == 1 + 8 * 8
    assert all(row.split(",")[2] == "0" for row in rows[1:])


def test_output_check_list_exits_as_expected(tmp_path):
    # the committed parent-against-change list (tests/output_check.py), run
    # whole: every command exits with its expected code, and none ends in an
    # exception that main does not map to an exit code
    rows = output_check.record(str(tmp_path))
    assert len(rows) == len(output_check.commands())
    assert [row[2] for row in rows if isinstance(row[1], str)] == []
    assert [(command.key(), got, command.code) for command, got, _ in rows if got != command.code] == []


@pytest.mark.parametrize("command", [
    "fill gallery:disk c.json --order 6",
    "reconstruct gallery:disk c.json --order 6 --legendre-order 4 --grid 4",
], ids=["fill", "reconstruct"])
def test_column_of_another_shade_than_the_certificate(tmp_path, monkeypatch, capsys, command):
    # the ellipse's certificate fixes an ellipse operator whose first column
    # misses the disk's by 1.1 relative; the recursion would fill b[1, 1] = -1
    monkeypatch.chdir(tmp_path)
    _out(capsys, "detect gallery:ellipse --order 12 --out c.json")
    assert main(command.split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "misses the ellipse" in captured.err


@pytest.mark.parametrize("command", [
    "fill gallery:trifoil c.json --order 6",
    "reconstruct gallery:trifoil c.json --order 6 --legendre-order 4 --grid 4",
], ids=["fill", "reconstruct"])
def test_column_breaking_its_certificate_relation(tmp_path, monkeypatch, capsys, command):
    # the disk's degree-0 certificate q = (0,) says b[m+1, 0] = 0, and the
    # trifoil's b[3, 0] = 2 breaks it
    monkeypatch.chdir(tmp_path)
    _out(capsys, "detect gallery:disk --order 6 --out c.json")
    assert main(command.split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "breaks its degree-0 certificate" in captured.err


def test_column_check_sees_an_entry_whose_square_overflows(tmp_path):
    # the ellipse's order-10 column with entry 9 at 1e160: the unscaled norms
    # overflowed, the check passed and fill printed a numpy warning, exit 0
    cert = tmp_path / "c.json"
    cert.write_text(run("detect", "gallery:ellipse?u=2", "--order", "10").stdout)
    a = json.loads(run("moments", "gallery:ellipse?u=2", "--order", "10").stdout)
    re_col = [row[0] for row in a["re"]]
    for big in (1e10, 1e160):
        col = tmp_path / "col.json"
        re_col[9] = big
        col.write_text(json.dumps({"order": 10, "re": re_col, "im": [row[0] for row in a["im"]]}))
        r = run("fill", str(col), str(cert), "--order", "10")
        assert (r.returncode, r.stdout) == (3, "")
        assert r.stderr.startswith("expotrans: domain error: the column misses the ellipse")
        assert r.stderr.count("\n") == 1


def test_float_range_failures_exit_4_on_one_stderr_line(tmp_path):
    # fill and reconstruct printed twelve numpy warnings and exited 2 on a
    # non-finite number; evolve's math.exp(1000) was a traceback, exit 1.
    # An operator family whose model (u = 1e200) or Krylov Gram leaves the
    # float range, and a finite b whose a = -log(1 - B) does not, are
    # precision errors too
    col, cert = tmp_path / "col.json", tmp_path / "c.json"
    col.write_text(json.dumps({"order": 8, "re": [1, 1e200, 0, 0, 0, 0, 0, 0], "im": [0] * 8}))
    cert.write_text(json.dumps({"d": 0, "q": [[1e200, 0]], "residual": 0.0, "rows_used": 7}))
    ellipse_cert = tmp_path / "e.json"
    ellipse_cert.write_text(run("detect", "gallery:ellipse", "--order", "10").stdout)
    power = "gallery:power?alpha=1e10&beta=1e10&d=1"
    for argv in (
        ["fill", str(col), str(cert), "--order", "8"],
        ["reconstruct", str(col), str(cert), "--order", "8", "--legendre-order", "2"],
        ["evolve", "gallery:disk", "--law", "squeeze", "--t0", "-1000", "--t1", "0"],
        ["detect", power, "--order", "40"],
        ["transform", power, "--order", "40"],
        ["pipeline", "gallery:twodiag?A1=1e200&B1=1", "--order", "8"],
        ["transform", "gallery:ellipse?u=1e200", "--order", "4"],
        ["evolve", "gallery:ellipse?u=1e200", "--order", "4", "--law", "squeeze"],
        ["pipeline", "gallery:ellipse?u=1e100", "--order", "4"],
        ["transform", "gallery:ellipse?u=1e100", "--order", "4", "--inverse"],
        ["fill", "gallery:ellipse?u=1e100", str(ellipse_cert), "--order", "4"],
        ["transform", "gallery:ellipse?u=1e3", "--order", "52", "--inverse"],
    ):
        r = run(*argv)
        assert (r.returncode, r.stdout) == (4, ""), argv
        assert r.stderr.startswith("expotrans: precision error:") and r.stderr.count("\n") == 1, argv


def test_evolve_squeeze():
    r = run("evolve", "gallery:disk", "--law", "squeeze", "--order", "4", "--steps", "4")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "t,j,re,im"
    assert len(lines) == 1 + 5 * 4
    last = lines[-1].split(",")
    assert abs(float(last[0]) - math.log(2.0)) < 1e-12
    assert r.stderr == ""


def test_evolve_backward_note():
    r = run("evolve", "gallery:disk", "--law", "squeeze", "--t0", "-1", "--t1", "0")
    assert r.returncode == 0
    assert "backward squeeze" in r.stderr


@pytest.mark.parametrize("option", ["--t0", "--t1"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_evolve_times_must_be_finite(capsys, option, value):
    # a non-finite time once ran the flow and then failed to serialize
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "gallery:disk", "--law", "squeeze", f"{option}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be finite" in err and "Traceback" not in err


def test_evolve_suction_stops():
    r = run("evolve", "gallery:disk", "--law", "inject", "--t0", "0", "--t1", "-2")
    assert r.returncode == 3
    assert "domain error" in r.stderr


def test_evolve_reads_a_column(tmp_path, monkeypatch, capsys):
    # a and b share their first column, and evolve reads only that, with no
    # a <-> b conversion: a column file, fill's own output (nulls off column
    # 0) and a b file give the CSV of the gallery source
    monkeypatch.chdir(tmp_path)
    a = json.loads(_out(capsys, "moments gallery:trifoil --order 10"))
    with open("col.json", "w") as fh:
        json.dump({"order": 10, "re": [r[0] for r in a["re"]], "im": [r[0] for r in a["im"]]}, fh)
    _out(capsys, "detect gallery:trifoil --order 10 --out cert.json")
    _out(capsys, "fill gallery:trifoil cert.json --order 10 --out filled.json")
    _out(capsys, "transform gallery:trifoil --order 10 --out b.json")
    for name in ("a_to_b", "b_to_a"):
        monkeypatch.setattr(series, name, lambda *args: pytest.fail("evolve converted a <-> b"))
    want = _out(capsys, "evolve gallery:trifoil --order 10 --law squeeze")
    for column in ("col.json", "filled.json", "b.json"):
        assert _out(capsys, f"evolve {column} --order 10 --law squeeze") == want, column


def test_far_disk_transform_is_quiet():
    # matmul overflows in the series' intermediate products while b's
    # entries, R^2 c^j conj(c)^k up to 1e282, stay in range: exit 0, no warning
    r = run("transform", "gallery:disk?x=1e3&R=1", "--order", "48")
    assert r.returncode == 0 and r.stderr == ""
    obj = json.loads(r.stdout)
    b = np.array(obj["re"]) + 1j * np.array(obj["im"])
    c = np.array([1e3**j for j in range(48)], dtype=complex)
    want = np.outer(c, c.conj())
    assert np.max(np.abs(b - want) / np.abs(want)) <= 1e-12


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("given, want", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
], ids=["unset", "user-setting"])
def test_cli_pins_blas_threads_unless_set(given, want):
    # a fresh process: main sets each variable the user left unset to 1
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(given)
    code = ("import os; from expotrans.cli import main; main(['gallery']); "
            f"print(*map(os.environ.get, {_BLAS_VARS!r}))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1].split() == want


def test_exit_code_bad_input(tmp_path):
    assert run("moments", "gallery:heptagon").returncode == 2
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write("{not json")
    assert run("moments", bad).returncode == 2
    stray = str(tmp_path / "stray.json")
    with open(stray, "w") as fh:
        json.dump({"hello": 1}, fh)
    assert run("moments", stray).returncode == 2
    shape = str(tmp_path / "shape.json")
    with open(shape, "w") as fh:
        json.dump({"type": "disk", "center": "x", "R": 1}, fh)
    assert run("moments", shape).returncode == 2
    # a zero b file stalls at degree 0, leaving the band nothing to read
    zero = str(tmp_path / "zero.json")
    with open(zero, "w") as fh:
        json.dump({"order": 3, "re": [[0] * 3] * 3, "im": [[0] * 3] * 3}, fh)
    r = run("pipeline", zero, "--given", "b", "--order", "3")
    assert r.returncode == 2 and "band: empty Hessenberg block" in r.stderr


def test_exit_code_budget(tmp_path):
    r = run("moments", "gallery:ellipse-shape?p=3&q=1", "--order", "10",
            env={"EXPOTRANS_QUAD_BUDGET": "40"})
    assert r.returncode == 4
    assert "precision error" in r.stderr


@pytest.mark.parametrize("x", ["1e5", "1e7"])
def test_moments_past_the_float_range_are_precision_errors(tmp_path, monkeypatch, capsys, x):
    # at x = 1e7 Python's c**k overflowed (a traceback, exit 1); at 1e5 the
    # matrix held inf, refused later as a non-finite number or series tail
    monkeypatch.chdir(tmp_path)
    address = f"gallery:disk?x={x}&R=1"
    _out(capsys, f"gallery {address} --out disk.json")
    for argv in (f"moments {address}", "moments disk.json", f"transform {address}"):
        assert main(f"{argv} --order 48".split()) == 4
        err = capsys.readouterr().err
        assert "precision error: moments of order 48" in err and "Traceback" not in err


def test_mass_underflowing_to_zero_is_a_precision_error(tmp_path, monkeypatch, capsys):
    # R = 1e-200: a[0, 0] = R^2 underflows to 0; pipeline refused the valid
    # source as bad input ("band: empty Hessenberg block", exit 2) and
    # transform printed an all-zero b; a zero b file still exits 2
    # (test_exit_code_bad_input)
    monkeypatch.chdir(tmp_path)
    address = "gallery:disk?R=1e-200"
    _out(capsys, f"gallery {address} --out disk.json")
    for argv in (f"pipeline {address}", f"transform {address}", f"moments {address}", "transform disk.json"):
        assert main(f"{argv} --order 4".split()) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("expotrans: precision error:") and captured.err.count("\n") == 1
        assert "mass a[0, 0] underflows to 0" in captured.err


def test_selftest():
    r = run("selftest")
    assert r.returncode == 0
    assert r.stdout.count("ok - ") == 5
    assert "selftest: 5 passed, 0 failed" in r.stdout


def test_selftest_failure_names_the_bound_it_checks(monkeypatch, capsys):
    # with no degree-2 certificate, the trifoil case fails against the same
    # bound it checks on success
    monkeypatch.setattr(finiteterm, "detect_order", lambda *args: None)
    assert main(["selftest"]) == 4
    out = capsys.readouterr().out
    assert "FAIL - trifoil certificate (inf > 1e-08)\n" in out
    assert "selftest: 4 passed, 1 failed" in out


def test_matrix_file_smaller_than_order(tmp_path):
    path = str(tmp_path / "a4.json")
    with open(path, "w") as fh:
        json.dump({"order": 4, "re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()}, fh)
    for cmd in ("moments", "transform", "pipeline"):
        r = run(cmd, path, "--order", "6")
        assert r.returncode == 2
        assert "smaller than requested" in r.stderr


def test_options_a_command_does_not_read_are_rejected(tmp_path):
    assert run("gallery", "--order", "3").returncode == 2
    # evolve reads a column, which a and b share
    r = run("evolve", "gallery:disk", "--law", "squeeze", "--given", "b")
    assert r.returncode == 2 and "unrecognized arguments: --given" in r.stderr
    out = str(tmp_path / "selftest.txt")
    assert run("selftest", "--out", out).returncode == 2
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    "fill gallery:trifoil cert.json --order 0",
    "reconstruct gallery:trifoil cert.json --order 0",
    "pipeline gallery:ellipse --order 0",
    "pipeline gallery:trifoil --order 0",
    "detect gallery:ellipse --order 0",
    "detect gallery:trifoil --order 0",
    "transform gallery:ellipse --order 0",
    "transform gallery:trifoil --order 0",
    "moments mat.json --order 0",
    "transform mat.json --order 0",
    "evolve gallery:disk --law squeeze --steps -1",
    "reconstruct gallery:trifoil cert.json --grid 0",
    "reconstruct gallery:trifoil cert.json --legendre-order -1",
    "detect gallery:trifoil --dmax -1",
    "detect gallery:ellipse --order 1",
    "pipeline gallery:disk --order 1",
    # a --tol must be finite and >= 0: inf once let any degree through, and
    # NaN or a negative value once gave a null certificate or skipped the check
    "detect gallery:trifoil --order 10 --tol=inf",
    "detect gallery:trifoil --order 10 --tol=nan",
    "detect gallery:trifoil --order 10 --tol=-1",
    "pipeline gallery:ellipse --tol=inf",
    # a negative seed once reached numpy's generator and died with its traceback
    "selftest --seed -1",
])
def test_count_below_range_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    with open(tmp_path / "cert.json", "w") as fh:
        json.dump({"d": 2, "q": [[0, 0], [0, 0], [1, 0]], "residual": 0, "rows_used": 9}, fh)
    with open(tmp_path / "mat.json", "w") as fh:
        json.dump({"order": 2, "re": [[1, 0.5], [0.5, 1]], "im": [[0, 0], [0, 0]]}, fh)
    monkeypatch.chdir(tmp_path)
    # argparse exits 2; any other exception would escape pytest.raises
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be >=" in err and "Traceback" not in err


@pytest.mark.parametrize("doc", [
    {"order": 3, "re": [1.0, 0.5, 0.2], "im": [0, 0, 0]},  # a column document
    {"order": 2, "re": [[1, "x"], [0, 1]], "im": [[0, 0], [0, 0]]},
    {"order": 2, "re": [[1, 0, 5], [0, 1, 7]], "im": [[0, 0, 0], [0, 0, 0]]},  # once cut to 2 x 2
], ids=["column-document", "non-numeric-entry", "non-square"])
def test_malformed_matrix_document_is_input_error(tmp_path, doc):
    path = str(tmp_path / "m.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    r = run("moments", path, "--order", "2")
    assert r.returncode == 2
    assert "malformed matrix JSON" in r.stderr and "Traceback" not in r.stderr


_MATRIX_DOCS = {
    "ragged-row": {"order": 2, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]},
    "string-entry": {"order": 2, "re": [[1, "x"], [0, 1]], "im": [[0, 0], [0, 0]]},
    "nested-object": {"order": 2, "re": [[1, {"re": 0}], [0, 1]], "im": [[0, 0], [0, 0]]},
    "re-im-mismatch": {"order": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0]]},
    "null-in-column": {"order": 2, "re": [1, None], "im": [0, 0]},
    "top-level-list": [[1, 0], [0, 1]],
    "non-square": {"order": 2, "re": [[1, 0, 5], [0, 1, 7]], "im": [[0, 0, 0], [0, 0, 0]]},
    "order-not-length": {"order": 5, "re": [1.0, 0.5, 0.2], "im": [0, 0, 0]},
}
_CERT_DOCS = {
    "missing-key": {"d": 2, "q": [[0, 0], [0, 0], [1, 0]], "residual": 0},
    "q-length": {"d": 2, "q": [[0, 0]], "residual": 0, "rows_used": 3},
    "null-certificate": {"certificate": None},
    "string-entry": {"d": 2, "q": [[0, "x"], [0, 0], [1, 0]], "residual": 0, "rows_used": 3},
    "top-level-list": [[0, 0], [0, 0], [1, 0]],
}
_SLOTS = {  # argv with the document in the slot under test
    "moments-source": ("moments doc.json --order 2", _MATRIX_DOCS),
    "pipeline-source": ("pipeline doc.json --order 2", _MATRIX_DOCS),
    "evolve-source": ("evolve doc.json --law squeeze --order 2", _MATRIX_DOCS),
    "fill-column": ("fill doc.json cert.json --order 2", _MATRIX_DOCS),
    "reconstruct-column": ("reconstruct doc.json cert.json --order 2", _MATRIX_DOCS),
    "fill-cert": ("fill gallery:trifoil doc.json --order 4", _CERT_DOCS),
    "reconstruct-cert": ("reconstruct gallery:trifoil doc.json --order 4", _CERT_DOCS),
}


@pytest.mark.parametrize("slot, doc", [
    pytest.param(slot, doc, id=f"{slot}-{name}")
    for slot, (_, docs) in _SLOTS.items() for name, doc in docs.items()
])
def test_malformed_document_in_every_slot_is_input_error(tmp_path, monkeypatch, capsys, slot, doc):
    with open(tmp_path / "cert.json", "w") as fh:
        json.dump({"d": 0, "q": [[0.5, 0]], "residual": 0, "rows_used": 1}, fh)
    with open(tmp_path / "doc.json", "w") as fh:
        json.dump(doc, fh)
    monkeypatch.chdir(tmp_path)
    # any exception other than an ExpotransError would escape main and fail the test
    assert main(_SLOTS[slot][0].split()) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "Traceback" not in err


def _out(capsys, argv: str) -> str:
    assert main(argv.split()) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", [
    "fill gallery:trifoil {} --order 10",
    "reconstruct gallery:trifoil {} --order 12 --legendre-order 6 --grid 8",
], ids=["fill", "reconstruct"])
def test_cert_reads_detect_and_pipeline_documents(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    for name in ("detect", "pipeline"):
        _out(capsys, f"{name} gallery:trifoil --order 10 --out {name}.json")
    with open("detect.json") as fh:
        bare = json.load(fh)["certificate"]
    with open("cert.json", "w") as fh:
        json.dump(bare, fh)
    want = _out(capsys, command.format("cert.json"))
    assert _out(capsys, command.format("detect.json")) == want
    assert _out(capsys, command.format("pipeline.json")) == want


def test_column_reads_shape_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _out(capsys, "gallery ellipse-shape --out s.json")
    _out(capsys, "detect gallery:ellipse-shape --order 10 --out cert.json")
    want = _out(capsys, "fill gallery:ellipse-shape cert.json --order 10")
    assert _out(capsys, "fill s.json cert.json --order 10") == want


@pytest.mark.parametrize("source, name", [
    ("gallery:ellipse?u=inf", "u"),
    ("gallery:ellipse?u=-inf", "u"),
    ("gallery:power?alpha=nan", "alpha"),
    ("gallery:twodiag?A1=inf", "A1"),
    ("shape.json", "Infinity"),
], ids=["ellipse-inf", "ellipse-minus-inf", "power-nan", "twodiag-inf", "shape-file-infinity"])
def test_non_finite_input_is_input_error(tmp_path, source, name):
    with open(tmp_path / "shape.json", "w") as fh:
        fh.write('{"type": "disk", "center": [0, 0], "R": Infinity}')
    r = run("pipeline", source, "--order", "6", cwd=str(tmp_path))
    assert r.returncode == 2
    assert name in r.stderr and "Traceback" not in r.stderr and "Warning" not in r.stderr


def _readme_command_table() -> dict:
    """README's command table: subcommand -> (argument words, {option: shown default or ''})."""
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            options = dict(re.findall(r"`(--[\w-]+)`(?: \(([^)]*)\))?", cells[2]))
            rows[cells[0].strip("`")] = (cells[1].split(), options)
    return rows


def test_readme_command_table_matches_parser():
    (subcommands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    table = _readme_command_table()
    assert set(table) == set(subcommands.choices)
    for name, (words, shown) in table.items():
        actions = subcommands.choices[name]._actions
        positionals = [a for a in actions if not a.option_strings]
        assert [w.strip("[]").lower() for w in words] == [a.dest for a in positionals], name
        assert [w.startswith("[") for w in words] == [a.nargs == "?" for a in positionals], name
        options = {a.option_strings[-1]: a for a in actions if a.option_strings and a.dest != "help"}
        assert set(shown) == set(options), name
        for option, default in shown.items():
            action = options[option]
            if default == "required":
                assert action.required, (name, option)
            elif default == "log 2":
                assert action.default == math.log(2), (name, option)
            elif default.endswith("if smaller"):  # a cap the command lowers at run time
                assert action.default is None, (name, option)
            elif default:
                want = default if re.fullmatch(r"[a-z]+", default) else float(default)
                assert action.default == want, (name, option)
