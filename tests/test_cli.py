"""End-to-end command-line tests: happy paths, exit codes, determinism."""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from expotrans.cli import main

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


def test_pipeline_ellipse_report():
    r = run("pipeline", "gallery:ellipse", "--order", "10")
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["band"]["upper_bandwidth"] == 1
    assert obj["completeness"]["verdict"] == "consistent-with-complete"
    assert obj["certificate"]["d"] == 1
    assert obj["degree"] == 10


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


def test_evolve_suction_stops():
    r = run("evolve", "gallery:disk", "--law", "inject", "--t0", "0", "--t1", "-2")
    assert r.returncode == 3
    assert "domain error" in r.stderr


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


def test_exit_code_budget(tmp_path):
    r = run("moments", "gallery:ellipse-shape?p=3&q=1", "--order", "10",
            env={"EXPOTRANS_QUAD_BUDGET": "40"})
    assert r.returncode == 4
    assert "precision error" in r.stderr


def test_selftest():
    r = run("selftest")
    assert r.returncode == 0
    assert r.stdout.count("ok - ") == 5
    assert "selftest: 5 passed, 0 failed" in r.stdout


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
], ids=["column-document", "non-numeric-entry"])
def test_malformed_matrix_document_is_input_error(tmp_path, doc):
    path = str(tmp_path / "m.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    r = run("moments", path, "--order", "2")
    assert r.returncode == 2
    assert "malformed matrix JSON" in r.stderr and "Traceback" not in r.stderr


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
