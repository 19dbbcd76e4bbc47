"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import defects  # noqa: E402
import refs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from expotrans import exptransform, finiteterm, gallery, reconstruct, shapes  # noqa: E402
from expotrans.errors import InputError, MathDomainError  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_follow_the_seed(name):
    wl = run.make_workload(name)
    assert run.inputs_digest(wl, 7) == run.inputs_digest(wl, 7)
    assert run.inputs_digest(wl, 7) != run.inputs_digest(wl, 8)
    assert wl.deck(7, 1) != wl.deck(7, 0)


def test_decks_hold_every_class_once():
    wl = workloads.MomentPipeline()
    for seed in (1, 2):
        kinds = sorted((s["kind"], s["n"]) for s in wl.deck(seed, 0))
        assert kinds == sorted(wl.classes())
    assert ("grid", 12) in kinds and ("grid", 24) not in kinds and ("disk", 48) in kinds


def test_ray_crossing_offset_disk():
    c, R = 0.3 - 0.2j, 1.1
    for theta in np.linspace(0, 2 * math.pi, 7):
        d = complex(np.exp(1j * theta))
        t = refs.ray_disk(c, R, d)
        assert abs(abs(t * d - c) - R) < 1e-12
        assert abs(0.999 * t * d - c) < R < abs(1.001 * t * d - c)


def test_ray_crossing_rotated_ellipse():
    p, q, phi = 1.6, 0.7, 0.4
    for theta in np.linspace(0, 2 * math.pi, 7):
        d = complex(np.exp(1j * theta))
        t = refs.ray_ellipse(p, q, phi, d)
        w = t * d * np.exp(-1j * phi)
        assert abs((w.real / p) ** 2 + (w.imag / q) ** 2 - 1.0) < 1e-12
    assert abs(refs.ray_ellipse(1.5, 0.5, 0.0, 1j) - 0.5) < 1e-15


@pytest.mark.parametrize("u", [1.5, 2.0, 2.7])
def test_ellipse_family_semiaxes(u):
    """gallery ellipse?u=... is the ellipse with semiaxes u + 1 and u - 1."""
    n = 10
    fam = gallery.b_for(f"gallery:ellipse?u={u!r}", n).b
    quad = exptransform.a_to_b(shapes.moments(shapes.Ellipse(0j, u + 1.0, u - 1.0), n)).b
    assert refs.rel_err(fam, quad) < 1e-9
    assert refs.rel_err(fam, refs.ellipse_b(n, u + 1.0, u - 1.0)) < 1e-12


def test_closed_forms_match_quadrature():
    n = 12
    cases = [
        (shapes.Disk(0.3 - 0.2j, 1.1), refs.disk_b(n, 1.1, 0.3 - 0.2j)),
        (shapes.Annulus(0.2j, 0.4, 1.0), refs.annulus_b(n, 0.4, 1.0, 0.2j)),
        (shapes.Weighted(shapes.Disk(0.1, 0.9), 0.35), refs.weighted_disk_b(n, 0.9, 0.35, 0.1)),
        (shapes.Ellipse(0.2 + 0.1j, 1.6, 0.7, 0.4), refs.ellipse_b(n, 1.6, 0.7, 0.4, 0.2 + 0.1j)),
    ]
    for shape, ref in cases:
        assert refs.rel_err(exptransform.a_to_b(shapes.moments(shape, n)).b, ref) < 1e-10


class _WrongDisk(workloads.MomentPipeline):
    """Returns a b that is off by 1e-6: the check must count it."""

    KINDS = ("disk",)

    def __init__(self, n):
        self.ORDERS = (n,)

    def run(self, s, ctx):
        out = super().run(s, ctx)
        out["b"] = out["b"] * (1 + 1e-6)
        return out


@pytest.mark.parametrize("n", [12, 24])
def test_wrong_output_is_counted_as_failure(n):
    wl = _WrongDisk(n)
    rows, decks = run.measure(wl, seed=3, seconds=0.0, ctx={})
    assert decks == 1 and len(rows) == 1
    assert not rows[0]["verdict"].ok
    assert run.e2e_figures(rows, wl.name)["fail_ratio"] == 1.0


def test_a_raise_is_counted_as_failure():
    mp = workloads.MomentPipeline()
    assert not mp.check({"kind": "disk", "n": 24}, None, InputError("b matrix is not Hermitian"), {}).ok
    rec = workloads.Recover()
    ctx = {"sources": rec.sources(1)}
    residue = MathDomainError("real moment (5,1) has imaginary residue 1.0e-08")
    assert not rec.check({"src": 0, "n": 24, "L": 6}, None, residue, ctx).ok
    cli = workloads.CliCold(".", "out", "src")
    spec = next(s for s in cli.deck(1, 0) if s["argv"][0] == "gallery")
    assert not cli.check(spec, (2, b"", b"expotrans: input error"), None, {}).ok


def test_wrong_recovery_is_counted_as_failure():
    b = gallery.b_for("gallery:ellipse?u=2.0", 12)
    cert = finiteterm.detect_order(b, 4)
    fld, info = reconstruct.reconstruct_from_certificate(b.b[:, 0], cert, 12, 6)
    gf = fld.sample(64, 64)
    assert workloads.recon_verdict(2.0, gf, info).ok
    assert not workloads.recon_verdict(2.4, gf, info).ok


def test_boundary_check_uses_criterion_11_bounds():
    wl = workloads.BoundaryTrace()
    deck = wl.deck(1, 0)
    for spec in deck:
        assert wl.check(spec, spec["t_true"], None, {}).ok
        assert not wl.check(spec, spec["t_true"] + 0.01, None, {}).ok
    disk = next(s for s in deck if s["kind"] == "disk")
    assert not wl.check(disk, disk["t_true"] + 2e-4, None, {}).ok
    ellipse = next(s for s in deck if s["kind"] == "ellipse-major")
    assert wl.check(ellipse, ellipse["t_true"] + 2e-4, None, {}).ok


@pytest.mark.parametrize("workload", ["moment-pipeline", "recover", "cli-cold"])
def test_known_defects_show_at_baseline(workload, tmp_path):
    """The defects the workloads leave out are reproduced (boundary-trace's take 10 s and are left to the run)."""
    found = defects.run_defects(workload, str(tmp_path))
    assert found and all(d["shows"] for d in found.values()), found


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    inner = tr.wrap("m.inner", lambda: sum(range(20000)))
    outer = tr.wrap("m.outer", lambda: inner() + inner())
    with tr.span("op", op=0):
        outer()
    rows = tracer.summarize(tr.spans, {0})
    assert rows["m.inner"]["calls"] == 2 and rows["m.outer"]["calls"] == 1
    assert rows["m.outer"]["self"] == pytest.approx(rows["m.outer"]["busy"] - rows["m.inner"]["busy"])
    assert tr.op_id is None


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.E2E_UNITS)
    spec = run.per_layer_spec()
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == spec
