"""Known defects of the baseline program, each reproduced on fixed inputs.

The workloads draw their inputs where the program gets every operation
right, so a run's `failed` counts regressions only.  The defects below lie
just outside those inputs.  A traced run reproduces the ones of its workload
and reports how many still show (per-layer metric `defects.shown`, with each
outcome in the record), so a fix reads as a drop and none is hidden.

Each function returns (shows, detail).  A defect shows when the program
fails in the way described; any other outcome, a correct one included, is
reported with its detail and does not count.
"""
from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import refs
from expotrans import cli, exptransform, finiteterm, gallery, orthopoly, reconstruct, shapes
from workloads import recon_verdict

ADVERTISED_TOL = 1e-5  # boundary_root's default tol


def _raises(fn, text: str) -> tuple[bool, str]:
    try:
        fn()
    except Exception as exc:  # the defect is the failure itself
        detail = f"{type(exc).__name__}: {exc}"
        return text in str(exc), detail
    return False, "no failure"


def _b(shape, n: int):
    return exptransform.a_to_b(shapes.moments(shape, n))


def nested_sum():
    """A disk inside an annulus's hole is a valid input; Sum rejects it."""
    return _raises(lambda: shapes.moments(shapes.Sum((shapes.Disk(0j, 0.3), shapes.Annulus(0j, 0.5, 1.0))), 8),
                   "overlap")


def precision_loss_n24():
    """An offset disk reaching past the unit circle: b fails the 1e-9 Hermitian check at N = 24."""
    return _raises(lambda: _b(shapes.Disk(0.43 + 0.033j, 1.176), 24), "not Hermitian")


def precision_loss_n48():
    """A disjoint disk and annulus far from 0: b fails the Hermitian check at N = 48."""
    shape = shapes.Sum((shapes.Disk(-2.2 + 0j, 0.7), shapes.Annulus(1.6 + 0j, 0.45, 1.0)))
    return _raises(lambda: _b(shape, 48), "not Hermitian")


def grid_indefinite():
    """The midpoint moments of a rough Grid give an indefinite b at N = 24."""
    values = np.random.default_rng(0).uniform(0.0, 1.0, (24, 24)).round(6)
    grid = shapes.Grid(shapes.Box(-1.0, 1.0, -1.0, 1.0), values)
    return _raises(lambda: orthopoly.orthonormalize(_b(grid, 24)), "indefinite")


def _recover_family(u: float, n: int, L: int):
    b = gallery.b_for(f"gallery:ellipse?u={u!r}", n)
    fld, info = reconstruct.reconstruct_from_certificate(b.b[:, 0], finiteterm.detect_order(b, 4), n, L)
    return fld.sample(64, 64), info


def real_moment_residue():
    """Recovery of an ellipse family at N = 48 raises on a real moment's imaginary residue."""
    return _raises(lambda: _recover_family(2.6, 48, 10), "imaginary residue")


def recon_l1_n40():
    """Recovery of an ellipse family at N = 40 misses criterion 12's L1/area bound of 0.35."""
    v = recon_verdict(1.5, *_recover_family(1.5, 40, 6))
    return not v.ok, v.detail or f"L1/area {v.err:.3f}"


def support_box_nan():
    """Recovery from a rotated ellipse's quadrature column raises: support_box's NaN spreads."""
    def run():
        b = _b(shapes.Ellipse(0j, 0.8, 0.5, 0.7), 12)
        reconstruct.reconstruct_from_certificate(b.b[:, 0], finiteterm.detect_order(b, 4), 12, 6)
    return _raises(run, "cover total order -1")


def _misses_tol(shape, d: complex, bracket, t_true: float):
    err = abs(exptransform.boundary_root(shape, d, bracket) - t_true)
    return err > ADVERTISED_TOL, f"|t* - t_true| = {err:.3e} (tol {ADVERTISED_TOL:g})"


def boundary_tol_annulus():
    """Criterion 11's annulus ray misses boundary_root's advertised tol."""
    return _misses_tol(shapes.Annulus(0j, 0.5, 1.0), 1.0, (0.8, 2.0), 1.0)


def boundary_tol_ellipse_major():
    """Criterion 11's ray along an ellipse's major axis misses the advertised tol."""
    return _misses_tol(shapes.Ellipse(0j, 1.5, 0.5), 1.0, (1.0, 3.0), refs.ray_ellipse(1.5, 0.5, 0.0, 1.0))


def boundary_tol_ellipse_minor():
    """Criterion 11's ray along an ellipse's minor axis misses the advertised tol."""
    return _misses_tol(shapes.Ellipse(0j, 1.5, 0.5), 1j, (0.2, 2.0), refs.ray_ellipse(1.5, 0.5, 0.0, 1j))


def nested_sum_cli(out_dir: str):
    """The CLI rejects a shape file holding a disk inside an annulus's hole (exit 2)."""
    path = os.path.join(out_dir, "nested.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"type": "sum", "parts": [
            {"type": "disk", "center": [0.0, 0.0], "R": 0.3},
            {"type": "annulus", "center": [0.0, 0.0], "r": 0.5, "R": 1.0},
        ]}, fh)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["moments", path, "--order", "8"])
    text = err.getvalue().strip()
    return code == 2 and "overlap" in text, f"exit {code}: {text[-200:]}"


DEFECTS = {
    "moment-pipeline": (nested_sum, precision_loss_n24, precision_loss_n48, grid_indefinite),
    "recover": (real_moment_residue, recon_l1_n40, support_box_nan),
    "boundary-trace": (boundary_tol_annulus, boundary_tol_ellipse_major, boundary_tol_ellipse_minor),
    "cli-cold": (nested_sum_cli,),
}


def run_defects(workload: str, out_dir: str) -> dict[str, dict]:
    """Every defect of the workload: name -> {"shows": bool, "detail": str}."""
    result = {}
    for fn in DEFECTS[workload]:
        shows, detail = fn(out_dir) if fn is nested_sum_cli else fn()
        result[fn.__name__] = {"shows": bool(shows), "detail": detail}
    return result
