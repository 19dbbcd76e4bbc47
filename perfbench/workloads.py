"""The four workloads: seeded inputs, set-up, one operation, and its check.

Inputs come in decks.  A deck holds every operation class of a workload
once (with fresh seeded parameters) in a seeded order, and a run executes
whole decks, so every run has the same mix of classes whatever the seed.
Deck k of seed s is drawn from default_rng([s, k]) and depends on nothing
else.

Each check compares an output with a route that does not share the code
under test (refs.py, or another route of the program) and returns a
Verdict.  Any failure makes the run incorrect: the inputs are drawn where
the baseline program gets every operation right.  The baseline's known
defects lie outside those inputs and are reproduced on fixed inputs by
defects.py instead.
"""
from __future__ import annotations

import io
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import refs
from expotrans import (
    cli,
    exptransform,
    finiteterm,
    gallery,
    heleshaw,
    operators,
    orthopoly,
    reconstruct,
    serialize,
    shapes,
)

ROUTE_TOL = 1e-8  # relative; quadrature works to 1e-10 of scale, a_to_b may lose two digits
# boundary-trace: acceptance criterion 11's bound on |t* - t_true|, by ray kind
BOUNDARY_TOL = {"disk": 1e-4, "annulus": 1e-4, "ellipse-major": 5e-3, "ellipse-minor": 5e-3}
RECON_L1_MAX = 0.35  # acceptance criterion 12
RECON_MASS_REL = 0.02  # acceptance criterion 12
PIPE_DMAX, PIPE_TOL = 6, 1e-8  # the CLI pipeline defaults


@dataclass
class Verdict:
    ok: bool
    err: float = 0.0  # the workload's accuracy figure for this operation
    detail: str = ""


def _exc_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _polar(rng, rmax) -> complex:
    return complex(_u(rng, 0, rmax) * np.exp(1j * _u(rng, 0, 2 * math.pi)))


# ---------------------------------------------------------------------------
# moment-pipeline


class MomentPipeline:
    name = "moment-pipeline"
    ORDERS = (12, 24, 48)
    KINDS = (
        "disk", "annulus", "ellipse", "ellipse-centred", "weighted", "sum",
        "grid", "op-ellipse", "op-trifoil", "op-power", "op-twodiag",
    )
    # the midpoint moments of a rough Grid give an indefinite b from N = 24 on
    # (defects.py), so a Grid is taken at N = 12 only
    ORDERS_OF = {"grid": (12,)}

    def classes(self) -> list[tuple[str, int]]:
        return [(kind, n) for kind in self.KINDS for n in self.ORDERS_OF.get(kind, self.ORDERS)]

    def deck(self, seed: int, k: int) -> list[dict]:
        rng = np.random.default_rng([seed, k])
        specs = [self._spec(kind, n, rng) for kind, n in self.classes()]
        return [specs[i] for i in rng.permutation(len(specs))]

    def _spec(self, kind: str, n: int, rng) -> dict:
        """Seeded parameters.  Every shape lies inside the unit disk: there the
        moments decay with the order, and a_to_b keeps b Hermitian to 1e-9 up
        to N = 48.  Larger or farther shapes lose that at N = 24 to 48
        (defects.py)."""
        s = {"kind": kind, "n": n}
        if kind == "disk":
            R = _u(rng, 0.4, 0.75)
            s.update(R=R, c=_polar(rng, 0.2))
        elif kind == "annulus":
            R = _u(rng, 0.5, 0.9)
            s.update(R=R, r=_u(rng, 0.3, 0.7) * R)
        elif kind in ("ellipse", "ellipse-centred"):
            p = _u(rng, 0.6, 0.95)
            s.update(p=p, q=_u(rng, 0.35, 0.85) * p, phi=_u(rng, 0, math.pi))
            s["c"] = _polar(rng, 0.2) if kind == "ellipse" else 0j
        elif kind == "weighted":
            R = _u(rng, 0.4, 0.75)
            s.update(R=R, t=_u(rng, 0.2, 0.9), c=_polar(rng, 0.2))
        elif kind == "sum":
            s.update(c1=complex(-0.5, _u(rng, -0.1, 0.1)), R1=_u(rng, 0.2, 0.35),
                     c2=complex(0.45, _u(rng, -0.1, 0.1)), R2=_u(rng, 0.3, 0.42))
            s["r2"] = _u(rng, 0.3, 0.6) * s["R2"]
        elif kind == "grid":
            s.update(box=(-0.6, _u(rng, 0.5, 0.7), -0.6, _u(rng, 0.5, 0.7)),
                     values=rng.uniform(0.0, 1.0, (24, 24)).round(6).tolist())
        elif kind == "op-ellipse":
            # b's closed-form error at N = 48 grows from 1e-10 at u = 2.7 to 2.5e-9 at u = 3
            s["u"] = _u(rng, 1.5, 2.7)
            s["address"] = f"gallery:ellipse?u={s['u']!r}"
        elif kind == "op-trifoil":
            s["address"] = "gallery:trifoil"
        elif kind == "op-power":
            a = _u(rng, 0.7, 1.3)
            s["address"] = f"gallery:power?alpha={a!r}&beta={a!r}&d={int(rng.integers(1, 4))}"
        elif kind == "op-twodiag":
            # B1 = 1 keeps the recursion positive (acceptance criterion 7)
            s["address"] = f"gallery:twodiag?A1={_u(rng, 0.5, 2.0)!r}&B1=1"
        return s

    def prepare(self, seed: int) -> dict:
        return {}

    @staticmethod
    def shape(s: dict):
        kind = s["kind"]
        if kind == "disk":
            return shapes.Disk(s["c"], s["R"])
        if kind == "annulus":
            return shapes.Annulus(0j, s["r"], s["R"])
        if kind in ("ellipse", "ellipse-centred"):
            return shapes.Ellipse(s["c"], s["p"], s["q"], s["phi"])
        if kind == "weighted":
            return shapes.Weighted(shapes.Disk(s["c"], s["R"]), s["t"])
        if kind == "sum":
            return shapes.Sum((shapes.Disk(s["c1"], s["R1"]), shapes.Annulus(s["c2"], s["r2"], s["R2"])))
        if kind == "grid":
            return shapes.Grid(shapes.Box(*s["box"]), np.array(s["values"]))
        raise ValueError(kind)

    def run(self, s: dict, ctx: dict) -> dict:
        """The CLI pipeline chain, plus the round trip and exterior moments."""
        n = s["n"]
        out = {}
        if s["kind"].startswith("op-"):
            fam = gallery.resolve(s["address"])
            b = operators.b_from_operator(fam.sized_for(n), n)
            out["a"] = exptransform.b_to_a(b).a
        else:
            shape = self.shape(s)
            a = shapes.moments(shape, n)
            b = exptransform.a_to_b(a)
            out["a"] = a.a
            out["a_back"] = exptransform.b_to_a(b).a
            if s["kind"] in ("disk", "annulus", "ellipse-centred"):
                out["ext"] = heleshaw.exterior_moments(shape, 8).t
        basis = orthopoly.orthonormalize(b)
        h = orthopoly.hessenberg(b, basis)
        out["completeness"] = orthopoly.completeness_gap(h, b.b[0, 0].real)
        out["cert"] = finiteterm.detect_order(b, PIPE_DMAX, PIPE_TOL)
        out["band"] = finiteterm.band_profile(h)
        out["b"] = b.b
        return out

    def reference_b(self, s: dict) -> np.ndarray | None:
        n, kind = s["n"], s["kind"]
        if kind == "disk":
            return refs.disk_b(n, s["R"], s["c"])
        if kind == "annulus":
            return refs.annulus_b(n, s["r"], s["R"])
        if kind in ("ellipse", "ellipse-centred"):
            return refs.ellipse_b(n, s["p"], s["q"], s["phi"], s["c"])
        if kind == "weighted":
            return refs.weighted_disk_b(n, s["R"], s["t"], s["c"])
        if kind == "sum":
            return refs.union_b(refs.disk_b(n, s["R1"], s["c1"]), refs.annulus_b(n, s["r2"], s["R2"], s["c2"]))
        if kind == "op-ellipse":
            return refs.ellipse_b(n, s["u"] + 1.0, s["u"] - 1.0)
        return None

    def check(self, s: dict, out: dict | None, exc: BaseException | None, ctx: dict) -> Verdict:
        if exc is not None:
            return Verdict(False, detail=_exc_text(exc))
        b, a = out["b"], out["a"]
        errs = {"first-column": refs.rel_err(b[:, 0], a[:, 0])}
        if "a_back" in out:
            errs["round-trip"] = refs.rel_err(out["a_back"], a)
        else:
            errs["round-trip"] = refs.rel_err(exptransform.a_to_b(a).b, b)
        ref = self.reference_b(s)
        if ref is not None:
            errs["closed-form"] = refs.rel_err(b, ref)
        if s["kind"] == "op-ellipse":
            # the quadrature route at a low order: b is nested in the order
            m = min(s["n"], 12)
            quad = exptransform.a_to_b(shapes.moments(shapes.Ellipse(0j, s["u"] + 1.0, s["u"] - 1.0), m)).b
            errs["quadrature"] = refs.rel_err(b[:m, :m], quad)
        if "ext" in out:
            if s["kind"] == "disk":
                ext = refs.disk_exterior(8, s["c"])
            elif s["kind"] == "annulus":
                ext = np.zeros(8, dtype=complex)
            else:
                ext = refs.ellipse_exterior(8, s["p"], s["q"], s["phi"])
            errs["exterior"] = refs.rel_err(out["ext"], ext)
        if s["kind"] == "op-trifoil":
            cert = out["cert"]
            if cert is None or cert.d != 2:
                return Verdict(False, detail=f"trifoil certificate {cert and cert.d}, expected d=2")
            errs["certificate"] = refs.rel_err(cert.q, np.array([0.0, 0.0, 1.0]))
        worst = max(errs, key=errs.get)
        err = errs[worst]
        if not err <= ROUTE_TOL:
            return Verdict(False, err, detail=f"{worst} error {err:.3e} > {ROUTE_TOL:g}")
        return Verdict(True, err)


# ---------------------------------------------------------------------------
# recover


class Recover:
    name = "recover"
    # every fourth order up to 24: from N = 28 on the baseline raises or
    # misses criterion 12's L1 bound, and a shape's column (rather than a
    # family's) fails at every order (defects.py)
    ORDERS = (12, 16, 20, 24)
    LEGENDRE = (6, 10)
    # u strata keep every run's mix of families alike; from u = 2.85 on, N = 24
    # already raises on a real moment's imaginary residue
    U_STRATA = ((1.5, 1.7), (1.7, 1.9), (1.9, 2.1), (2.1, 2.3), (2.3, 2.5), (2.5, 2.7))

    def sources(self, seed: int) -> list[dict]:
        """One gallery ellipse family per u stratum, used at every order."""
        rng = np.random.default_rng([seed, 1_000_000])
        return [{"kind": "family", "u": _u(rng, lo, hi)} for lo, hi in self.U_STRATA]

    def deck(self, seed: int, k: int) -> list[dict]:
        rng = np.random.default_rng([seed, k])
        specs = [
            {"src": i, "n": n, "L": L}
            for i in range(len(self.U_STRATA))
            for n in self.ORDERS
            for L in self.LEGENDRE
        ]
        return [specs[i] for i in rng.permutation(len(specs))]

    def prepare(self, seed: int) -> dict:
        """Columns and certificates for every source at every order."""
        sources = self.sources(seed)
        prepared = {}
        for i, src in enumerate(sources):
            for n in self.ORDERS:
                b = gallery.b_for(f"gallery:ellipse?u={src['u']!r}", n)
                prepared[i, n] = (b.b[:, 0].copy(), finiteterm.detect_order(b, 4))
        return {"sources": sources, "prepared": prepared}

    def run(self, s: dict, ctx: dict):
        col, cert = ctx["prepared"][s["src"], s["n"]]
        fld, info = reconstruct.reconstruct_from_certificate(col, cert, s["n"], s["L"])
        return fld.sample(64, 64), info

    def check(self, s: dict, out, exc, ctx) -> Verdict:
        if exc is not None:
            return Verdict(False, detail=_exc_text(exc))
        return recon_verdict(ctx["sources"][s["src"]]["u"], *out)


def recon_verdict(u: float, gf, info) -> Verdict:
    """Criterion 12 for a recovery of the ellipse with semiaxes u + 1 and u - 1."""
    x, y = np.meshgrid(gf.xs, gf.ys)
    truth = ((x / (u + 1.0)) ** 2 + (y / (u - 1.0)) ** 2 <= 1.0).astype(float)
    area = math.pi * (u + 1.0) * (u - 1.0)
    cell = gf.box.area / gf.values.size
    l1 = float(np.abs(gf.values - truth).sum() * cell) / area
    mass = abs(info["mass_from_moments"] - area) / area
    if l1 <= RECON_L1_MAX and mass <= RECON_MASS_REL:
        return Verdict(True, l1)
    return Verdict(False, l1, detail=f"L1/area {l1:.3f} (max {RECON_L1_MAX}), mass error {mass:.3%}")


# ---------------------------------------------------------------------------
# boundary-trace


class BoundaryTrace:
    name = "boundary-trace"
    # criterion 11's four rays: a disk, an annulus, and an ellipse along its
    # major and along its minor axis (here offset, rotated and seeded)
    KINDS = ("disk", "annulus", "ellipse-major", "ellipse-minor")
    # bracket ends as multiples of the true crossing, as in criterion 11: the
    # lower end inside the support (past an annulus's hole), the upper outside.
    # Fixed multiples give every ray the same bisection path, so costs compare.
    BRACKET = {"disk": (0.5, 2.0), "annulus": (0.8, 2.0),
               "ellipse-major": (2.0 / 3.0, 2.0), "ellipse-minor": (0.4, 4.0)}

    def deck(self, seed: int, k: int) -> list[dict]:
        rng = np.random.default_rng([seed, k])
        specs = []
        for kind in self.KINDS:
            s = {"kind": kind}
            # sizes and aspect near criterion 11's shapes: a ray's cost grows with
            # them (a thin ellipse's minor-axis ray costs 1.5x a round one's),
            # and narrow ranges keep one run's median close to another's
            if kind == "disk":
                R = _u(rng, 0.95, 1.05)
                s.update(R=R, c=_polar(rng, 0.15), d=complex(np.exp(1j * _u(rng, 0, 2 * math.pi))))
                s["t_true"] = refs.ray_disk(s["c"], R, s["d"])
            elif kind == "annulus":
                R = _u(rng, 0.95, 1.05)
                s.update(R=R, r=_u(rng, 0.38, 0.42) * R, d=complex(np.exp(1j * _u(rng, 0, 2 * math.pi))), t_true=R)
            else:
                p = _u(rng, 1.45, 1.55)
                s.update(p=p, q=_u(rng, 0.48, 0.52) * p, phi=_u(rng, 0, math.pi))
                axis = s["phi"] + (0.0 if kind == "ellipse-major" else 0.5 * math.pi)
                s["d"] = complex(np.exp(1j * (axis + _u(rng, -0.15, 0.15))))
                s["t_true"] = refs.ray_ellipse(p, s["q"], s["phi"], s["d"])
            lo, hi = self.BRACKET[kind]
            s["bracket"] = (lo * s["t_true"], hi * s["t_true"])
            specs.append(s)
        return [specs[i] for i in rng.permutation(len(specs))]

    def prepare(self, seed: int) -> dict:
        return {}

    @staticmethod
    def shape(s: dict):
        if s["kind"] == "disk":
            return shapes.Disk(s["c"], s["R"])
        if s["kind"] == "annulus":
            return shapes.Annulus(0j, s["r"], s["R"])
        return shapes.Ellipse(0j, s["p"], s["q"], s["phi"])  # both ellipse rays

    def run(self, s: dict, ctx: dict) -> float:
        return exptransform.boundary_root(self.shape(s), s["d"], s["bracket"])

    def check(self, s: dict, out, exc, ctx) -> Verdict:
        if exc is not None:
            return Verdict(False, detail=_exc_text(exc))
        err = abs(out - s["t_true"])
        tol = BOUNDARY_TOL[s["kind"]]
        if err <= tol:
            return Verdict(True, err)
        return Verdict(False, err, detail=f"|t* - t_true| = {err:.3e} > {tol:g}")


# ---------------------------------------------------------------------------
# cli-cold


def child_env(src_dir: str, extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    env.pop("EXPOTRANS_QUAD_BUDGET", None)
    env.update(extra or {})
    return env


CLI_ENTRY = "import sys; from expotrans.cli import main; sys.exit(main())"


class CliCold:
    name = "cli-cold"
    CHILD_TIMEOUT = 60

    def __init__(self, root: str, out_dir: str, src_dir: str):
        self.root = root  # children run here; out_dir is relative to it
        self.out_dir = out_dir
        self.src_dir = src_dir

    def deck(self, seed: int, k: int) -> list[dict]:
        rng = np.random.default_rng([seed, k])
        d = os.path.join(self.out_dir, f"cli-{seed}")
        u = _u(rng, 1.5, 3.0)
        cert, sloppy, bmat = (os.path.join(d, f) for f in ("cert.json", "sloppy.json", "bmat.json"))
        R, x, y = _u(rng, 0.6, 1.4), _u(rng, -0.3, 0.3), _u(rng, -0.3, 0.3)
        Ra = _u(rng, 0.8, 1.2)
        ra = _u(rng, 0.3, 0.7) * Ra
        a = _u(rng, 0.7, 1.3)
        ell = f"gallery:ellipse?u={u!r}"
        fam = f"gallery:ellipse?u={_cli_family_u(seed)!r}"
        cmds = [
            ("moments", ["moments", f"gallery:disk?R={R!r}&x={x!r}&y={y!r}", "--order", "8"], 0, {}),
            ("transform", ["transform", f"gallery:annulus?r={ra!r}&R={Ra!r}", "--order", "8"], 0, {}),
            ("transform", ["transform", bmat, "--inverse", "--given", "b", "--order", "8"], 0, {}),
            ("pipeline", ["pipeline", ell, "--order", "12"], 0, {}),
            ("detect", ["detect", f"gallery:power?alpha={a!r}&beta={a!r}&d=2", "--order", "12"], 0, {}),
            ("fill", ["fill", fam, cert, "--order", "12"], 0, {}),
            ("reconstruct", ["reconstruct", fam, cert, "--order", "12", "--legendre-order", "6", "--grid", "32"], 0, {}),
            ("evolve", ["evolve", f"gallery:tdisk?t={_u(rng, 0.2, 0.9)!r}", "--law", "squeeze", "--steps", "8"], 0, {}),
            ("gallery", ["gallery"], 0, {}),
            ("selftest", ["selftest", "--seed", str(int(rng.integers(0, 2**31)))], 0, {}),
            ("moments", ["moments", "gallery:nosuch", "--order", "8"], 2, {}),
            ("reconstruct", ["reconstruct", fam, sloppy, "--order", "12"], 3, {}),
            ("moments", ["moments", "gallery:ellipse-shape", "--order", "10"], 4, {"EXPOTRANS_QUAD_BUDGET": "40"}),
        ]
        specs = [{"cmd": c, "argv": argv, "expect": e, "env": env} for c, argv, e, env in cmds]
        return [specs[i] for i in rng.permutation(len(specs))]

    def prepare(self, seed: int) -> dict:
        """Certificate, matrix and shape documents the commands read."""
        d = os.path.join(self.out_dir, f"cli-{seed}")
        os.makedirs(d, exist_ok=True)
        u = _cli_family_u(seed)
        b = gallery.b_for(f"gallery:ellipse?u={u!r}", 12)
        cert = serialize.certificate_to_obj(finiteterm.detect_order(b, 4))
        sloppy = dict(cert, residual=1.0)
        bdisk = gallery.b_for("gallery:disk?R=0.9&x=0.2", 8)
        docs = {
            "cert.json": serialize.dumps(cert),
            "sloppy.json": serialize.dumps(sloppy),
            "bmat.json": serialize.dumps(serialize.matrix_to_obj(bdisk.b)),
        }
        for name, text in docs.items():
            with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        return {}

    def run(self, s: dict, ctx: dict):
        proc = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, *s["argv"]],
            capture_output=True,
            cwd=self.root,
            env=child_env(self.src_dir, s["env"]),
            timeout=self.CHILD_TIMEOUT,
        )
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def in_process(s: dict) -> tuple[int, bytes, float]:
        """cli.main with the same arguments and environment; exit code, stdout, CPU ms."""
        out, err = io.StringIO(), io.StringIO()
        saved = os.environ.get("EXPOTRANS_QUAD_BUDGET")
        os.environ.pop("EXPOTRANS_QUAD_BUDGET", None)
        os.environ.update(s["env"])
        try:
            t0 = time.process_time()  # CPU time, as the child's cold_ms
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(s["argv"]))
            ms = (time.process_time() - t0) * 1e3
        finally:
            os.environ.pop("EXPOTRANS_QUAD_BUDGET", None)
            if saved is not None:
                os.environ["EXPOTRANS_QUAD_BUDGET"] = saved
        return code, out.getvalue().encode("utf-8"), ms

    def check(self, s: dict, out, exc, ctx) -> Verdict:
        if exc is not None:
            return Verdict(False, detail=_exc_text(exc))
        code, stdout, stderr = out
        icode, istdout, ims = self.in_process(s)
        ctx.setdefault("inproc_ms", {}).setdefault(s["cmd"], []).append(ims)
        if code != s["expect"]:
            text = stderr.decode("utf-8", "replace").strip()
            return Verdict(False, detail=f"exit {code}, expected {s['expect']}: {text[-200:]}")
        if icode != code or istdout != stdout:
            return Verdict(False, detail=f"child and in-process cli.main differ (exit {code} vs {icode})")
        return Verdict(True)


def _cli_family_u(seed: int) -> float:
    """The ellipse family whose certificate files cli-cold prepares."""
    return _u(np.random.default_rng([seed, 3_000_000]), 1.5, 3.0)
