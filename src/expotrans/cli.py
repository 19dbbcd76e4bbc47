"""Command-line front end.

Every subcommand reads shapes, matrices, or certificates from JSON (or a
"gallery:" address), runs one slice of the pipeline, and writes a single
deterministic JSON or CSV document to --out or stdout.  Exit codes: 0 ok,
2 bad input, 3 mathematical precondition violated, 4 tolerance or budget
failure.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import gallery, serialize
from .errors import ExpotransError, InputError, MathDomainError, PrecisionError
from .exptransform import ExpMoments, a_to_b, b_to_a
from .finiteterm import band_profile, detect_order, fill_from_first_column
from .gallery import OperatorFamily
from .heleshaw import inject_trajectory, squeeze_trajectory
from .operators import b_from_operator, commutator_defect, toeplitz_ellipse, trifoil_operator
from .orthopoly import completeness_gap, hessenberg, orthonormalize
from .reconstruct import reconstruct_from_certificate
from .series import BiSeries, exp_neg, log_neg
from .shapes import Annulus, MomentMatrix, Shape, moments


def _load_source(path_or_addr: str):
    """A gallery address, a shape JSON file, or a matrix JSON file."""
    if path_or_addr.startswith("gallery:"):
        return gallery.resolve(path_or_addr)
    obj = serialize.load_json(path_or_addr)
    if isinstance(obj, dict) and "type" in obj:
        return serialize.shape_from_obj(obj)
    if isinstance(obj, dict) and "re" in obj:
        arr, mask = serialize.matrix_from_obj(obj)
        if not mask.all():
            raise InputError(f"{path_or_addr} has uncertified (null) entries")
        return arr
    raise InputError(f"{path_or_addr} is neither a shape nor a matrix document")


def _block(arr: np.ndarray, order: int) -> np.ndarray:
    """The leading order x order block of a matrix read from a file."""
    if arr.shape[0] < order:
        raise InputError(f"matrix of order {arr.shape[0]} smaller than requested {order}")
    return arr[:order, :order]


def _b_of(source, order: int, given: str) -> ExpMoments:
    if isinstance(source, (Shape, OperatorFamily)):
        return gallery.b_for(source, order)
    arr = _block(source, order)
    if given == "b":
        return ExpMoments(order, arr)
    return a_to_b(MomentMatrix(order, arr))


def _a_of(source, order: int, given: str) -> MomentMatrix:
    if isinstance(source, Shape):
        return moments(source, order)
    if isinstance(source, OperatorFamily):
        return b_to_a(gallery.b_for(source, order))
    arr = _block(source, order)
    if given == "b":
        return b_to_a(ExpMoments(order, arr))
    return MomentMatrix(order, arr)


def _column_of(path_or_addr: str, order: int) -> np.ndarray:
    if path_or_addr.startswith("gallery:"):
        return gallery.b_for(path_or_addr, order).b[:, 0].copy()
    obj = serialize.load_json(path_or_addr)
    col = serialize.column_from_obj(obj)
    if col.shape[0] < order:
        raise InputError(f"column of length {col.shape[0]} shorter than order {order}")
    return col[:order]


def _emit(text: str, out: str | None):
    if out:
        serialize.write_text(out, text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _stage(name: str, fn):
    try:
        return fn()
    except ExpotransError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_moments(args) -> int:
    source = _load_source(args.source)
    a = _a_of(source, args.order, args.given)
    _emit(serialize.dumps(serialize.matrix_to_obj(a.a)), args.out)
    return 0


def cmd_transform(args) -> int:
    source = _load_source(args.source)
    if args.inverse:
        b = _b_of(source, args.order, "b")
        out = b_to_a(b).a
    else:
        a = _a_of(source, args.order, args.given)
        out = a_to_b(a).b
    _emit(serialize.dumps(serialize.matrix_to_obj(out)), args.out)
    return 0


def cmd_pipeline(args) -> int:
    source = _load_source(args.source)
    label = args.source
    b = _stage("moments", lambda: _b_of(source, args.order, args.given))
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
        "band": {
            "upper_bandwidth": prof.upper_bandwidth,
            "recursion_length": prof.recursion_length,
            "toeplitz_deviation": float(prof.toeplitz_deviation),
        },
        "completeness": {
            "lhs": float(report_c.lhs),
            "rhs": float(report_c.rhs),
            "gap": float(report_c.gap),
            "tail": float(report_c.tail),
            "bound": float(report_c.bound),
            "verdict": report_c.verdict,
        },
        "certificate": serialize.certificate_to_obj(cert) if cert is not None else None,
    }
    _emit(serialize.dumps(report), args.out)
    return 0


def cmd_detect(args) -> int:
    source = _load_source(args.source)
    b = _b_of(source, args.order, args.given)
    cert = detect_order(b, args.dmax, args.tol)
    obj = {"certificate": serialize.certificate_to_obj(cert) if cert is not None else None}
    _emit(serialize.dumps(obj), args.out)
    return 0


def cmd_fill(args) -> int:
    col = _column_of(args.column, args.order)
    cert = serialize.certificate_from_obj(serialize.load_json(args.cert))
    filled = fill_from_first_column(col, cert.q, args.order)
    _emit(serialize.dumps(serialize.filled_to_obj(filled)), args.out)
    return 0


def cmd_reconstruct(args) -> int:
    col = _column_of(args.column, args.order)
    cert = serialize.certificate_from_obj(serialize.load_json(args.cert))
    if cert.residual > args.tol:
        raise MathDomainError(
            f"certificate residual {cert.residual:.3e} exceeds tolerance {args.tol:.3e}"
        )
    field, info = reconstruct_from_certificate(col, cert, args.order, args.legendre_order)
    gf = field.sample(args.grid, args.grid)
    header = serialize.grid_header_obj(gf, args.legendre_order, info["mass_from_field"])
    text = "# " + serialize.dumps(header) + "\n" + serialize.grid_to_csv(gf)
    _emit(text, args.out)
    return 0


def cmd_evolve(args) -> int:
    source = _load_source(args.source)
    a = _a_of(source, args.order, args.given)
    col = a.a[:, 0].copy()
    ts = np.linspace(args.t0, args.t1, args.steps + 1)
    if args.law == "squeeze":
        if ts.min() < 0:
            sys.stderr.write("expotrans: note: backward squeeze amplifies truncation error\n")
        rows = squeeze_trajectory(col, ts)
    else:
        rows = inject_trajectory(col, ts)
    _emit(serialize.trajectory_to_csv(rows), args.out)
    return 0


def cmd_gallery(args) -> int:
    if not args.name:
        _emit(serialize.dumps({"entries": gallery.names()}), args.out)
        return 0
    entry = gallery.resolve(args.name)
    if isinstance(entry, OperatorFamily):
        obj = {
            "kind": "operator",
            "name": entry.name,
            "xi_index": entry.xi_index,
            "max_offset": entry.max_offset,
        }
    else:
        obj = entry.to_obj()
    _emit(serialize.dumps(obj), args.out)
    return 0


def _selftest_cases(seed: int):
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
        b = b_from_operator(toeplitz_ellipse(2.0, 12), 8)
        h = hessenberg(b, orthonormalize(b)).h
        block = h[:8, :7]
        worst = 0.0
        for j in range(8):
            for k in range(7):
                if abs(j - k) > 1:
                    worst = max(worst, abs(block[j, k]))
        return worst, 1e-8

    def trifoil_cert():
        b = b_from_operator(trifoil_operator(30), 10)
        cert = detect_order(b, 4, 1e-8)
        if cert is None or cert.d != 2:
            return math.inf, 1e-10
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


def _add_order(p, order: int):
    p.add_argument("--order", type=_count(1), default=order, help="moment matrix order N")


def _add_out(p):
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_source(p, order: int = 8):
    """A SOURCE and the options that read it: --order, --given, --out."""
    p.add_argument("source")
    _add_order(p, order)
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
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("transform", help="a -> b (or b -> a with --inverse)")
    _add_source(p)
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(fn=cmd_transform)

    for name, fn, text in (
        ("pipeline", cmd_pipeline, "full report: basis, Hessenberg, certificate"),
        ("detect", cmd_detect, "smallest band certificate, if any"),
    ):
        p = sub.add_parser(name, help=text)
        _add_source(p, order=12)
        p.add_argument("--dmax", type=_count(0), default=6, help="largest certificate degree to try")
        p.add_argument("--tol", type=float, default=1e-8, help="residual tolerance")
        p.set_defaults(fn=fn)

    p = sub.add_parser("fill", help="propagate a certificate over the moment triangle")
    _add_column(p)
    p.set_defaults(fn=cmd_fill)

    p = sub.add_parser("reconstruct", help="density field from column + certificate")
    _add_column(p)
    p.add_argument("--grid", type=_count(1), default=64, help="samples per axis in the CSV")
    p.add_argument("--tol", type=float, default=1e-6, help="residual tolerance")
    p.add_argument("--legendre-order", type=_count(0), default=10, dest="legendre_order")
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("evolve", help="moment trajectories under squeeze or inject")
    _add_source(p)
    p.add_argument("--law", choices=("squeeze", "inject"), required=True)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=math.log(2.0))
    p.add_argument("--steps", type=_count(0), default=8)
    p.set_defaults(fn=cmd_evolve)

    p = sub.add_parser("gallery", help="list or describe named examples")
    p.add_argument("name", nargs="?", default=None)
    _add_out(p)
    p.set_defaults(fn=cmd_gallery)

    p = sub.add_parser("selftest", help="fast internal consistency battery")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        sys.stderr.write(f"expotrans: input error: {exc}\n")
        return 2
    except MathDomainError as exc:
        sys.stderr.write(f"expotrans: domain error: {exc}\n")
        return 3
    except PrecisionError as exc:
        sys.stderr.write(f"expotrans: precision error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
