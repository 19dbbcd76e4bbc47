"""The CLI's outputs over a fixed command list, recorded to compare two trees.

Every command of `commands()` runs in process through `expotrans.cli.main`
in a temporary directory that holds the files the commands read.  stdout and
stderr are captured, the command's environment overrides are applied and
then restored, and numpy's warnings print once per place, as in a fresh
process.  Each command gives one line: the argv, the exit code, and the
sha256 of stdout and of stderr, with the temporary directory's path and the
path of the imported package masked in stderr.  Record the list with two
trees on one machine, then name the commands whose lines differ:

    PYTHONPATH=<old tree>/src python tests/output_check.py old.txt
    PYTHONPATH=src python tests/output_check.py new.txt
    python tests/output_check.py --diff old.txt new.txt

No expected hash is kept: float bits differ across numpy and BLAS builds.
Each command carries its expected exit code, which `test_cli.py` checks on
the whole list.  The file name keeps pytest from collecting this module.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
import warnings
from dataclasses import dataclass
from math import comb

ORDERS = (4, 6, 12, 24, 48)
GALLERY = (
    "gallery:disk", "gallery:disk?x=0.3&y=-0.2&R=0.9",
    "gallery:annulus", "gallery:annulus?x=0.1&y=0.05&r=0.4&R=0.95",
    "gallery:ellipse-shape", "gallery:ellipse-shape?x=0.2&y=0.1&p=1.2&q=0.6&phi=0.4",
    "gallery:tdisk", "gallery:tdisk?t=0.3&R=0.8",
    "gallery:ellipse", "gallery:ellipse?u=1.5", "gallery:trifoil",
    "gallery:power", "gallery:power?d=2", "gallery:twodiag", "gallery:twodiag?A1=0.5",
)
# the tdisk the gallery cannot offset, and a disjoint sum, as shape files
SHAPE_FILES = {
    "tdisk-offset.json": {"type": "weighted", "t": 0.4,
                          "base": {"type": "disk", "center": [0.2, -0.1], "R": 0.7}},
    "sum.json": {"type": "sum", "parts": [{"type": "disk", "center": [-0.5, 0], "R": 0.3},
                                          {"type": "disk", "center": [0.5, 0.1], "R": 0.25}]},
}
DISK_C, DISK_R = 0.3 - 0.2j, 0.9  # the disk behind the matrix and column files


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    code: int = 0  # the expected exit code
    env: tuple[tuple[str, str], ...] = ()  # overrides for this command only
    save: str | None = None  # a file that receives stdout, for later commands to read

    def key(self) -> str:
        return " ".join([f"{k}={v}" for k, v in self.env] + [shlex.join(self.argv)])


def _cmd(line: str, code: int = 0, env: dict | None = None, save: str | None = None) -> Command:
    return Command(tuple(shlex.split(line)), code, tuple((env or {}).items()), save)


def _matrix_doc(rows) -> dict:
    return {"order": len(rows), "re": [[v.real for v in r] for r in rows], "im": [[v.imag for v in r] for r in rows]}


def _column_doc(col) -> dict:
    return {"order": len(col), "re": [v.real for v in col], "im": [v.imag for v in col]}


def write_inputs(directory: str) -> None:
    """The files the commands read: the disk's a and b in closed form, its
    column, shape files, and the documents of the exit-2 and zero-column cases."""
    c, r2 = DISK_C, DISK_R**2

    def a(j, k):  # (1/pi) integral of z^j conj(z)^k over the disk
        return sum(comb(j, i) * comb(k, i) * c ** (j - i) * c.conjugate() ** (k - i) * r2 ** (i + 1) / (i + 1)
                   for i in range(min(j, k) + 1))

    docs = {
        "a.json": _matrix_doc([[a(j, k) for k in range(8)] for j in range(8)]),
        "b.json": _matrix_doc([[r2 * c**j * c.conjugate() ** k for k in range(8)] for j in range(8)]),
        "col.json": _column_doc([a(j, 0) for j in range(12)]),
        "col-big.json": _column_doc([a(j, 0) if j != 9 else 1e160 for j in range(10)]),
        "zero.json": _column_doc([0j] * 6),
        "zero-exact.json": {"d": 1, "q": [[0.0, 0.0], [2.0, 0.0]], "residual": 0.0, "rows_used": 5},
        "zero-near.json": {"d": 1, "q": [[0.0, 0.0], [2.0, 0.0]], "residual": 1e-12, "rows_used": 5},
        **SHAPE_FILES,
    }
    for name, doc in docs.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    with open(os.path.join(directory, "nan.json"), "w", encoding="utf-8") as fh:
        fh.write('{"order": 2, "re": [[1, 0], [0, NaN]], "im": [[0, 0], [0, 0]]}\n')


def commands() -> list[Command]:
    """The list, in run order: later commands read what earlier ones save."""
    out = [_cmd("gallery"), _cmd("gallery nosuch", 2), _cmd("gallery 'power?d=0'", 2)]
    out += [_cmd(f"gallery {name}") for name in ("disk", "annulus", "ellipse-shape", "tdisk", "ellipse",
                                                 "trifoil", "power", "twodiag")]
    out += [_cmd(f"selftest --seed {seed}") for seed in (0, 1, 2)]
    # every source through the a <-> b routes, the report and the detector
    for source in GALLERY + tuple(SHAPE_FILES):
        for n in ORDERS:
            for sub in ("moments", "transform", "transform --inverse", "pipeline", "detect"):
                out.append(_cmd(f"{sub} {shlex.quote(source)} --order {n}"))
    # matrix files: a read as a, b read as b, either under --inverse
    out += [_cmd(line, code) for line, code in (
        ("moments a.json", 0), ("transform a.json", 0), ("transform a.json --inverse --given a", 0),
        ("transform a.json --order 4", 0), ("transform a.json --order 9", 2),
        ("pipeline a.json --order 8", 0), ("detect a.json --order 8 --dmax 2", 0),
        ("transform b.json --given b", 0), ("transform b.json --inverse", 0),
        ("pipeline b.json --given b --order 8", 0), ("detect b.json --given b --order 8", 0),
        ("moments b.json --given b --order 6", 0), ("moments col.json", 2),
        ("transform nan.json --given b", 2), ("moments missing.json", 2),
    )]
    # detect -> fill -> reconstruct, with and without --legendre-order
    for source, n, recon in (
        ("gallery:ellipse", 10, (12, 24, 40)), ("gallery:ellipse?u=1.5", 10, (12,)),
        ("gallery:ellipse?u=2.2", 40, (40,)), ("gallery:trifoil", 10, (12,)), ("gallery:disk", 12, (12,)),
    ):
        cert = "cert-" + source[len("gallery:"):].replace("?", "-").replace("=", "") + ".json"
        out.append(_cmd(f"detect {shlex.quote(source)} --order {n}", save=cert))
        out.append(_cmd(f"fill {shlex.quote(source)} {cert} --order {n}", save=cert.replace("cert", "filled")))
        for m in recon:
            out.append(_cmd(f"reconstruct {shlex.quote(source)} {cert} --order {m} --grid 24"))
            out.append(_cmd(f"reconstruct {shlex.quote(source)} {cert} --order {m} --legendre-order 6"))
    # COLUMN read from a column file and from fill's own output (nulls off column 0)
    out += [_cmd(line, code) for line, code in (
        ("fill col.json cert-trifoil.json --order 10", 3), ("fill filled-trifoil.json cert-trifoil.json --order 10", 0),
        ("evolve filled-trifoil.json --order 10 --law squeeze", 0), ("detect filled-trifoil.json --order 8", 2),
        ("fill col-big.json cert-ellipse.json --order 10", 3),
        ("reconstruct zero.json zero-exact.json --order 6 --grid 8", 0),
        ("reconstruct zero.json zero-near.json --order 6 --grid 8", 3),
    )]
    # both evolve laws, and the exit-2, 3 and 4 cases of the CLI smoke step
    out += [_cmd(line, code) for line, code in (
        ("evolve gallery:disk --law squeeze", 0), ("evolve gallery:disk --law inject", 0),
        ("evolve col.json --order 12 --law squeeze --t0 -0.5 --steps 4", 0),
        ("evolve col.json --order 12 --law inject --t0 0 --t1 -2 --steps 2", 3),
        ("evolve gallery:trifoil --order 10 --law squeeze", 0),
        ("evolve gallery:disk --law squeeze --t0 -1000 --t1 0", 4), ("evolve gallery:disk", 2),
        ("moments 'gallery:disk?R=1e+0'", 0), ("moments gallery:disk --out o.json", 0),
        ("transform o.json --inverse --given a", 0),
        ("transform 'gallery:disk?x=1e3&R=1' --order 48", 0),
        ("transform 'gallery:ellipse?u=1e200' --order 4", 4),
        ("detect 'gallery:power?alpha=1e10&beta=1e10&d=1' --order 40", 4),
        ("transform 'gallery:ellipse?u=1e3' --order 52 --inverse", 4),
        ("pipeline 'gallery:disk?R=1e-200' --order 4", 4), ("transform 'gallery:disk?R=1e-200' --order 4", 4),
        ("detect 'gallery:ellipse?u=1e40' --order 6", 0), ("pipeline 'gallery:ellipse?u=1e40' --order 6", 0),
        ("detect gallery:disk --order 1", 2), ("pipeline gallery:disk --tol nan", 2),
    )]
    out.append(_cmd("moments gallery:ellipse-shape --order 10", 4, env={"EXPOTRANS_QUAD_BUDGET": "40"}))
    return out


def run(command: Command) -> tuple[int | str, str, str]:
    """Exit code (or "uncaught <exception>"), stdout and stderr of one command run
    in the current directory."""
    from expotrans.cli import main

    saved = dict(os.environ)
    os.environ.update(command.env)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("default")  # a new filter also clears the record of warnings shown
            try:
                code = main(list(command.argv))
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # noqa: BLE001 - recorded, and the tier-1 test fails on it
                code = f"uncaught {type(exc).__name__}"
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return code, stdout.getvalue(), stderr.getvalue()


def record(directory: str) -> list[tuple[Command, int | str, str]]:
    """Run every command in ``directory`` (inputs written first); each with its
    exit code and its record line."""
    import expotrans

    tree = os.path.dirname(os.path.dirname(os.path.abspath(expotrans.__file__)))
    write_inputs(directory)
    here = os.getcwd()
    os.chdir(directory)
    try:
        rows = []
        for command in commands():
            code, out, err = run(command)
            if command.save:
                with open(command.save, "w", encoding="utf-8") as fh:
                    fh.write(out)
            err = err.replace(os.path.realpath(directory), "<tmp>").replace(directory, "<tmp>").replace(tree, "<src>")
            digest = [hashlib.sha256(text.encode()).hexdigest() for text in (out, err)]
            rows.append((command, code, f"{command.key()}\texit={code}\tstdout={digest[0]}\tstderr={digest[1]}"))
        return rows
    finally:
        os.chdir(here)


def diff(old: list[str], new: list[str]) -> list[str]:
    """One line for each command whose record differs or that only one side ran."""
    def keyed(lines):
        out, seen = {}, {}
        for line in lines:
            key = line.split("\t", 1)[0]
            seen[key] = seen.get(key, 0) + 1
            out[(key, seen[key])] = line
        return out

    a, b = keyed(old), keyed(new)
    report = []
    for key in list(a) + [k for k in b if k not in a]:
        if key not in b:
            report.append(f"only in the first: {key[0]}")
        elif key not in a:
            report.append(f"only in the second: {key[0]}")
        elif a[key] != b[key]:
            fields = [f.split("=", 1)[0] for f, g in zip(a[key].split("\t")[1:], b[key].split("\t")[1:]) if f != g]
            report.append(f"differs ({', '.join(fields)}): {key[0]}")
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", nargs="?", help="record the list's lines to this file")
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"), help="name the commands whose lines differ")
    args = ap.parse_args(argv)
    if args.diff:
        lines = []
        for path in args.diff:
            with open(path, encoding="utf-8") as fh:
                lines.append(fh.read().splitlines())
        report = diff(*lines)
        print("\n".join(report + [f"{len(lines[1])} commands, {len(report)} differ"]))
        return 1 if report else 0
    if not args.out:
        ap.error("give a file to record to, or --diff A B")
    with tempfile.TemporaryDirectory() as tmp:
        rows = record(tmp)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for _, _, line in rows))
    wrong = [f"{command.key()}: exit {code}, expected {command.code}" for command, code, _ in rows if code != command.code]
    print("\n".join(wrong + [f"{len(rows)} commands recorded, {len(wrong)} with an unexpected exit code"]))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
