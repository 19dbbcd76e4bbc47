"""Deterministic JSON and CSV serialization.

All floats are written with 17 significant digits, keys keep insertion
order, and nothing time- or environment-dependent is emitted, so identical
inputs produce byte-identical files.  Complex scalars are [re, im] pairs;
matrices are {"order", "re", "im"} with null marking absent entries.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .errors import InputError
from .finiteterm import BandCertificate, FilledMoments
from .reconstruct import GridFunction
from .shapes import Shape


def fmt(x: float) -> str:
    """One float, 17 significant digits, valid JSON."""
    x = float(x)
    if not math.isfinite(x):
        raise InputError("cannot serialize a non-finite number")
    return format(x, ".17g")


def dumps(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, complex):
        return f"[{fmt(obj.real)},{fmt(obj.imag)}]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    raise InputError(f"cannot serialize {type(obj).__name__}")


def write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# matrices and columns


def matrix_to_obj(m: np.ndarray, certified: np.ndarray | None = None) -> dict:
    m = np.asarray(m, dtype=complex)
    order = m.shape[0]
    re, im = [], []
    for j in range(order):
        re_row, im_row = [], []
        for k in range(m.shape[1]):
            if certified is not None and not certified[j, k]:
                re_row.append(None)
                im_row.append(None)
            else:
                re_row.append(float(m[j, k].real))
                im_row.append(float(m[j, k].imag))
        re.append(re_row)
        im.append(im_row)
    return {"order": order, "re": re, "im": im}


def matrix_from_obj(obj: dict) -> tuple[np.ndarray, np.ndarray]:
    """Matrix plus certification mask (False where entries were null)."""
    try:
        order = int(obj["order"])
        re = obj["re"]
        im = obj["im"]
        arr = np.full((order, len(re[0]) if re else 0), np.nan, dtype=complex)
        mask = np.zeros(arr.shape, dtype=bool)
        if len(re) != order or len(im) != order:
            raise InputError("matrix JSON rows do not match order")
        for j in range(order):
            if len(re[j]) != arr.shape[1] or len(im[j]) != arr.shape[1]:
                raise InputError("ragged matrix JSON")
            for k in range(arr.shape[1]):
                if re[j][k] is None or im[j][k] is None:
                    continue
                arr[j, k] = float(re[j][k]) + 1j * float(im[j][k])
                mask[j, k] = True
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed matrix JSON: {exc}") from exc
    return arr, mask


def column_to_obj(col: np.ndarray) -> dict:
    col = np.asarray(col, dtype=complex).ravel()
    return {
        "order": col.shape[0],
        "re": [float(v.real) for v in col],
        "im": [float(v.imag) for v in col],
    }


def column_from_obj(obj: dict) -> np.ndarray:
    try:
        re = obj["re"]
        im = obj["im"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed column JSON: {exc}") from exc
    re = np.asarray(re, dtype=float)
    im = np.asarray(im, dtype=float)
    if re.ndim == 2:  # a full matrix doubles as its first column
        re, im = re[:, 0], im[:, 0]
    if re.shape != im.shape or re.ndim != 1:
        raise InputError("column JSON re/im mismatch")
    return re + 1j * im


def filled_to_obj(filled: FilledMoments) -> dict:
    return matrix_to_obj(filled.values, filled.certified)


# ---------------------------------------------------------------------------
# certificates


def certificate_to_obj(cert: BandCertificate) -> dict:
    return {
        "d": cert.d,
        "q": [[float(v.real), float(v.imag)] for v in np.asarray(cert.q, dtype=complex)],
        "residual": float(cert.residual),
        "rows_used": cert.rows_used,
    }


def certificate_from_obj(obj: dict) -> BandCertificate:
    try:
        d = int(obj["d"])
        q = np.array([float(p[0]) + 1j * float(p[1]) for p in obj["q"]], dtype=complex)
        residual = float(obj["residual"])
        rows_used = int(obj["rows_used"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InputError(f"malformed certificate JSON: {exc}") from exc
    if q.shape[0] != d + 1:
        raise InputError("certificate q length does not match d + 1")
    return BandCertificate(d, q, residual, rows_used)


# ---------------------------------------------------------------------------
# shapes


def shape_from_obj(obj: dict) -> Shape:
    """A shape from a JSON document read from outside; every defect is an InputError."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError("shape JSON needs a 'type' field")
    try:
        return Shape.from_obj(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {obj['type']} shape JSON: {exc}") from exc


def _reject_constant(name: str):
    raise InputError(f"non-finite number {name} in JSON input")


def load_json(path: str):
    """Parse a JSON file; the NaN and Infinity literals Python would accept are rejected."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV outputs


def grid_to_csv(gf: GridFunction) -> str:
    lines = ["x,y,value"]
    for iy, y in enumerate(gf.ys):
        for ix, x in enumerate(gf.xs):
            lines.append(f"{fmt(x)},{fmt(y)},{fmt(gf.values[iy, ix])}")
    return "\n".join(lines) + "\n"


def grid_header_obj(gf: GridFunction, legendre_order: int, mass: float) -> dict:
    return {
        "kind": "gridfunction",
        "box": list(gf.box.as_tuple()),
        "nx": len(gf.xs),
        "ny": len(gf.ys),
        "legendre_order": legendre_order,
        "mass": mass,
        "below_range": gf.below,
        "above_range": gf.above,
    }


def trajectory_to_csv(rows) -> str:
    lines = ["t,j,re,im"]
    for t, j, v in rows:
        lines.append(f"{fmt(t)},{int(j)},{fmt(v.real)},{fmt(v.imag)}")
    return "\n".join(lines) + "\n"
