"""Command-line front end.

Every subcommand reads shapes, matrices, or certificates from JSON (or a
"gallery:" address), runs one slice of the pipeline, and writes a single
deterministic JSON or CSV document to --out or stdout.  Exit code 0 is
success; every other code, with its stderr label, is the raised error's
(see `errors`).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict

# what every subcommand needs; each cmd_* imports the modules of its own route
from . import gallery, serialize
from .errors import ExpotransError, InputError, PrecisionError


def _load_source(path_or_addr: str, given: str = "a"):
    """A gallery address, a shape JSON file, or a matrix or column JSON file
    as a `MatrixSource` holding ``given``."""
    if path_or_addr.startswith("gallery:"):
        return gallery.resolve(path_or_addr)
    obj = serialize.load_json(path_or_addr)
    if isinstance(obj, dict) and "type" in obj:
        return serialize.shape_from_obj(obj)
    if isinstance(obj, dict) and "re" in obj:
        return gallery.MatrixSource(serialize.matrix_from_obj(obj), given)
    raise InputError(f"{path_or_addr} is neither a shape nor a matrix document")


def _emit(text: str, out: str | None):
    text = text if text.endswith("\n") else text + "\n"
    if out:
        serialize.write_text(out, text)
    else:
        sys.stdout.write(text)


def _stage(name: str, fn):
    try:
        return fn()
    except ExpotransError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_transform(args) -> int:
    source = _load_source(args.source, args.given or ("b" if args.inverse else "a"))
    if args.inverse:
        out = gallery.a_for(source, args.order).a
    else:
        out = gallery.b_for(source, args.order).b
    _emit(serialize.dumps(serialize.matrix_to_obj(out)), args.out)
    return 0


def cmd_pipeline(args) -> int:
    from .finiteterm import band_profile, detect_order
    from .orthopoly import completeness_gap, hessenberg, orthonormalize

    source = _load_source(args.source, args.given)
    label = args.source
    b = _stage("moments", lambda: gallery.b_for(source, args.order))
    basis = _stage("orthonormalize", lambda: orthonormalize(b))
    h = _stage("hessenberg", lambda: hessenberg(b, basis))
    report_c = _stage("completeness", lambda: completeness_gap(h, b.b[0, 0].real))
    cert = _stage("detect", lambda: detect_order(b, args.dmax, args.tol))
    prof = _stage("band", lambda: band_profile(h))
    report = {
        "source": label,
        "order": args.order,
        "degree": basis.degree,
        "stalled": basis.stopped,
        "gamma": [float(g) for g in basis.gamma],
        "hessenberg": serialize.matrix_to_obj(h.h),
        "certified_block": h.certified,
        "band": asdict(prof),
        "completeness": asdict(report_c),
        "certificate": serialize.certificate_to_obj(cert),
    }
    _emit(serialize.dumps(report), args.out)
    return 0


def cmd_detect(args) -> int:
    from .finiteterm import detect_order

    b = gallery.b_for(_load_source(args.source, args.given), args.order)
    cert = detect_order(b, args.dmax, args.tol)
    _emit(serialize.dumps({"certificate": serialize.certificate_to_obj(cert)}), args.out)
    return 0


def _shade_fill(col, cert, order: int):
    """The certificate's fill of col, refused (exit 3) when no shade in [0, 1] has it."""
    from .finiteterm import fill_from_first_column
    from .orthopoly import require_shade

    filled = fill_from_first_column(col, cert.q, order)
    require_shade(filled.values, filled.certified)
    return filled


def cmd_fill(args) -> int:
    col = _load_source(args.column).column(args.order)
    cert = serialize.certificate_from_obj(serialize.load_json(args.cert))
    filled = _shade_fill(col, cert, args.order)
    _emit(serialize.dumps(serialize.matrix_to_obj(filled.values, filled.certified)), args.out)
    return 0


def cmd_reconstruct(args) -> int:
    from .finiteterm import require_column
    from .reconstruct import reconstruct_from_certificate

    col = _load_source(args.column).column(args.order)
    cert = serialize.certificate_from_obj(serialize.load_json(args.cert))
    what = f"the certificate's residual {cert.residual:.3e} misses the column"
    require_column(cert.residual, col, what)
    # a zero column recovers the zero field, whose b = 0 is a shade's
    filled = _shade_fill(col, cert, args.order) if col.any() else None
    field, info = reconstruct_from_certificate(col, cert, args.order, args.legendre_order, filled)
    gf = field.sample(args.grid, args.grid)
    header = serialize.grid_header_obj(gf, field.order, info["mass_from_field"])
    text = "# " + serialize.dumps(header) + "\n" + serialize.grid_to_csv(gf)
    _emit(text, args.out)
    return 0


def cmd_evolve(args) -> int:
    import numpy as np

    from .heleshaw import inject_trajectory, squeeze_trajectory

    col = _load_source(args.column).column(args.order)
    ts = np.linspace(args.t0, args.t1, args.steps + 1)
    if args.law == "squeeze":
        rows = squeeze_trajectory(col, ts)
        if ts.min() < 0:
            sys.stderr.write("expotrans: note: backward squeeze amplifies truncation error\n")
    else:
        rows = inject_trajectory(col, ts)
    _emit(serialize.trajectory_to_csv(rows), args.out)
    return 0


def cmd_gallery(args) -> int:
    if not args.name:
        _emit(serialize.dumps({"entries": gallery.names()}), args.out)
        return 0
    _emit(serialize.dumps(gallery.resolve(args.name).to_obj()), args.out)
    return 0


def _selftest_cases(seed: int):
    import numpy as np

    from .finiteterm import detect_order
    from .operators import commutator_defect, toeplitz_ellipse
    from .orthopoly import hessenberg, orthonormalize
    from .series import BiSeries, a_to_b, exp_neg, log_neg
    from .shapes import Annulus, moments

    rng = np.random.default_rng(seed)

    def roundtrip():
        worst = 0.0
        for _ in range(5):
            n = 8
            raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            tail = 0.3 * (raw + raw.conj().T) / 2
            back = log_neg(exp_neg(BiSeries.from_tail(tail)))
            worst = max(worst, float(np.max(np.abs(back.tail - tail))))
        return worst, 1e-10

    def annulus_diag():
        ann = Annulus(0j, 0.5, 1.0)
        b = a_to_b(moments(ann, 6)).b
        ks = np.arange(6)
        ref = (1.0 - 0.25) * 0.25**ks
        return float(np.max(np.abs(np.diag(b) - ref))), 1e-8

    def ellipse_tridiagonal():
        b = gallery.b_for("gallery:ellipse?u=2", 8)
        h = hessenberg(b, orthonormalize(b)).h
        # above the first superdiagonal; hessenberg leaves exact zeros below the subdiagonal
        return float(np.abs(np.triu(h[:8, :7], 2)).max()), 1e-8

    def trifoil_cert():
        b = gallery.b_for("gallery:trifoil", 10)
        cert = detect_order(b, 4, 1e-8)
        if cert is None or cert.d != 2:
            return math.inf, 1e-8
        return float(np.max(np.abs(cert.q - np.array([0, 0, 1.0])))), 1e-8

    def interior_commutator():
        return float(commutator_defect(toeplitz_ellipse(2.0, 40))), 1e-12

    return [
        ("exp-log round trip", roundtrip),
        ("annulus diagonal closed form", annulus_diag),
        ("ellipse operator tridiagonality", ellipse_tridiagonal),
        ("trifoil certificate", trifoil_cert),
        ("interior commutator defect", interior_commutator),
    ]


def cmd_selftest(args) -> int:
    cases = _selftest_cases(args.seed)
    failures = 0
    for name, fn in cases:
        err, tol = fn()
        if err <= tol:
            sys.stdout.write(f"ok - {name} ({err:.2e} <= {tol:.0e})\n")
        else:
            failures += 1
            sys.stdout.write(f"FAIL - {name} ({err:.2e} > {tol:.0e})\n")
    sys.stdout.write(f"selftest: {len(cases) - failures} passed, {failures} failed\n")
    if failures:
        raise PrecisionError(f"{failures} selftest case(s) out of tolerance")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _count(least: int):
    def count(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {text}")
        return int(text)
    return count


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be >= 0 and finite, got {text}")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _add_order(p, order: int, least: int = 1):
    p.add_argument("--order", type=_count(least), default=order, help="moment matrix order N")


def _add_out(p):
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_source(p, order: int = 8, least: int = 1):
    """A SOURCE and the options that read it: --order (>= least), --given, --out."""
    p.add_argument("source")
    _add_order(p, order, least)
    p.add_argument(
        "--given",
        choices=("a", "b"),
        default="a",
        help="how to interpret a bare matrix input file",
    )
    _add_out(p)


def _add_column(p):
    """A COLUMN and a CERT with --order and --out."""
    p.add_argument("column")
    p.add_argument("cert")
    _add_order(p, 12)
    _add_out(p)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="expotrans",
        description="moment transforms, finite term relations, and shape recovery",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="power moment matrix of a shape")
    _add_source(p)
    p.set_defaults(fn=cmd_transform, inverse=True)  # --given keeps its default, a

    p = sub.add_parser("transform", help="the source's b, or its a with --inverse")
    _add_source(p)
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(given=None)  # a matrix file is read as b under --inverse, else as a
    p.set_defaults(fn=cmd_transform)

    for name, fn, text in (
        ("pipeline", cmd_pipeline, "full report: basis, Hessenberg, certificate"),
        ("detect", cmd_detect, "smallest band certificate, if any"),
    ):
        p = sub.add_parser(name, help=text)
        _add_source(p, order=12, least=2)  # a certificate fit needs one row
        p.add_argument("--dmax", type=_count(0), default=6, help="largest certificate degree to try")
        p.add_argument("--tol", type=_tolerance, default=1e-8, help="residual tolerance")
        p.set_defaults(fn=fn)

    p = sub.add_parser("fill", help="propagate a certificate over the moment triangle")
    _add_column(p)
    p.set_defaults(fn=cmd_fill)

    p = sub.add_parser("reconstruct", help="density field from column + certificate")
    _add_column(p)
    p.add_argument("--grid", type=_count(1), default=64, help="samples per axis in the CSV")
    p.add_argument("--legendre-order", type=_count(0), default=None, dest="legendre_order")
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("evolve", help="moment trajectories under squeeze or inject")
    p.add_argument("column")
    _add_order(p, 8)
    _add_out(p)
    p.add_argument("--law", choices=("squeeze", "inject"), required=True)
    p.add_argument("--t0", type=_finite, default=0.0)
    p.add_argument("--t1", type=_finite, default=math.log(2.0))
    p.add_argument("--steps", type=_count(0), default=8)
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("gallery", help="list or describe named examples")
    p.add_argument("name", nargs="?", default=None)
    _add_out(p)
    p.set_defaults(fn=cmd_gallery)

    p = sub.add_parser("selftest", help="fast internal consistency battery")
    p.add_argument("--seed", type=_count(0), default=0)
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    # one command never repays BLAS worker threads' start-up; a user's setting is kept
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ExpotransError as exc:
        sys.stderr.write(f"expotrans: {exc.label}: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
