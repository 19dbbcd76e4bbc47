"""The package namespace: lazy re-exports and per-subcommand imports."""
import importlib
import json
import os
import subprocess
import sys
import types

import pytest

import expotrans

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the public names of the eagerly importing package, modules included
PUBLIC = [
    "Annulus", "BandCertificate", "BandProfile", "BandedOperator", "BiSeries",
    "Box", "CompletenessReport", "Disk", "Ellipse", "ExpMoments", "ExpotransError",
    "ExteriorMoments", "FilledMoments", "Grid", "GridFunction", "Hessenberg", "InputError",
    "LegendreField", "MathDomainError", "MatrixSource", "MomentMatrix", "OperatorFamily",
    "PolyBasis", "PrecisionError", "RealMoments", "RecursionState", "Shape", "Sum",
    "Weighted", "a_for", "a_to_b", "b_for", "b_from_operator", "b_to_a",
    "band_profile", "boundary_root", "cauchy_kernel_log", "commutator_defect",
    "completeness_gap", "confocal_ellipse", "detect_order", "ellipse_operator", "errors",
    "eval_E", "exp_neg", "exptransform", "exterior_moments", "fill_from_first_column",
    "finiteterm", "fit_certificate", "gallery", "heleshaw", "hessenberg", "inject",
    "legendre_fit", "log_neg", "moments", "mother_body", "mother_body_moment",
    "nevanlinna_density", "operators", "orthonormalize", "orthopoly", "poly_zeros",
    "real_moments", "reconstruct", "reconstruct_from_certificate", "resolve", "rot_diag_b",
    "series", "shapes", "squeeze", "support_box", "toeplitz_ellipse", "toeplitz_power",
    "trifoil_curve", "trifoil_operator", "two_diagonal", "two_diagonal_state",
    "zero_attraction",
]


def fresh(*args: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
                          cwd=cwd)


def test_import_loads_no_module_and_no_numpy():
    r = fresh("-c", "import sys, expotrans; print(sorted(m for m in sys.modules"
                    " if m == 'numpy' or m.startswith('expotrans.')))")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_public_names_are_unchanged():
    assert sorted(expotrans.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(expotrans))


def test_each_name_is_its_home_modules_object():
    for name in PUBLIC:
        value = getattr(expotrans, name)
        if isinstance(value, types.ModuleType):
            assert value is importlib.import_module(f"expotrans.{name}")
        else:
            assert value is getattr(importlib.import_module(value.__module__), name), name
        assert value is vars(expotrans)[name], name  # bound in the package on first use


def test_star_import_and_unknown_name():
    namespace = {}
    exec("from expotrans import *", namespace)
    assert {k for k in namespace if not k.startswith("__")} == set(PUBLIC)
    assert namespace["exp_neg"] is expotrans.series.exp_neg
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(expotrans, "no_such_name")
    with pytest.raises(ImportError):
        exec("from expotrans import no_such_name", {})


# listing or misnaming a gallery entry, or a usage error, loads none of the
# numerical modules nor numpy; a shape's moments need no a <-> b conversion;
# an operator family's or a matrix file's a <-> b needs only `series`, neither
# a shape module nor `exptransform`, which imports one; and only the
# two-diagonal family's exact recursion loads fractions
NUMERICAL = ("numpy", "expotrans.exptransform", "expotrans.shapes", "expotrans.series",
             "expotrans.operators", "expotrans.orthopoly", "expotrans.finiteterm",
             "expotrans.reconstruct", "expotrans.heleshaw")
SHAPE_ONLY = ("expotrans.exptransform", "expotrans.operators", "expotrans.orthopoly",
              "expotrans.finiteterm", "expotrans.reconstruct")
NO_SHAPES = ("expotrans.exptransform", "expotrans.shapes", "expotrans.reconstruct", "expotrans.heleshaw")
CERT = {"d": 2, "q": [[0, 0], [0, 0], [1, 0]], "residual": 0, "rows_used": 8}
B_FILE = {"order": 2, "re": [[1, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}


@pytest.mark.parametrize("argv, code, skipped, home", [
    (["gallery"], 0, NUMERICAL, None),
    (["moments", "gallery:no-such-entry"], 2, NUMERICAL, None),
    (["moments", "--order", "0"], 2, NUMERICAL, None),
    (["moments", "gallery:disk", "--order", "4"], 0, SHAPE_ONLY + ("expotrans.heleshaw",), "shapes"),
    (["detect", "gallery:trifoil", "--order", "8"], 0, NO_SHAPES + ("expotrans.orthopoly",), "operators"),
    (["evolve", "gallery:disk", "--law", "squeeze"], 0, SHAPE_ONLY, "shapes"),
    (["pipeline", "gallery:ellipse", "--order", "12"], 0, NO_SHAPES, "operators"),
    (["fill", "gallery:trifoil", "cert.json", "--order", "10"], 0, NO_SHAPES, "operators"),
    (["transform", "b.json", "--inverse", "--given", "b", "--order", "2"], 0, NO_SHAPES, None),
    (["detect", "gallery:twodiag", "--order", "8"], 0, NO_SHAPES, "operators"),
], ids=["gallery", "unknown-entry", "usage-error", "moments", "detect", "evolve", "pipeline", "fill",
        "transform-b-file", "twodiag"])
def test_subcommand_imports_only_its_route(tmp_path, argv, code, skipped, home):
    (tmp_path / "cert.json").write_text(json.dumps(CERT))
    (tmp_path / "b.json").write_text(json.dumps(B_FILE))
    r = fresh("-X", "importtime", "-m", "expotrans.cli", *argv, cwd=tmp_path)
    assert r.returncode == code, r.stderr
    loaded = {line.rpartition("|")[2].strip() for line in r.stderr.splitlines() if "import time" in line}
    assert {"expotrans.gallery", "expotrans.serialize"} <= loaded
    assert not set(skipped) & loaded
    assert ("fractions" in loaded) == ("gallery:twodiag" in argv)
    # the gallery's own import of an entry's home module shows in -X importtime
    assert home is None or f"expotrans.{home}" in loaded
