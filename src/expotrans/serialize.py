"""Deterministic JSON and CSV serialization.

All floats are written with 17 significant digits, keys keep insertion
order, and nothing time- or environment-dependent is emitted, so identical
inputs produce byte-identical files.  Complex scalars are [re, im] pairs;
matrices are {"order", "re", "im"} with null marking absent entries, and a
column holds one list each of re and im.  numpy is imported where an
array is built or read, so writing a document of plain Python values, such
as the gallery's listing, loads none of it.
"""
from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

from .errors import InputError

if TYPE_CHECKING:  # reading or writing a document loads no compute module
    import numpy as np

    from .finiteterm import BandCertificate
    from .reconstruct import GridFunction
    from .shapes import Shape


def fmt(x: float) -> str:
    """One float, 17 significant digits, valid JSON."""
    x = float(x)
    if not math.isfinite(x):
        raise InputError("cannot serialize a non-finite number")
    return format(x + 0.0, ".17g")  # -0.0 + 0.0 is 0.0: JSON reads "-0" back as 0


def dumps(obj) -> str:
    """Plain Python values only; numpy's float64 and complex128 are a float and a complex."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, complex):
        return f"[{fmt(obj.real)},{fmt(obj.imag)}]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, list) and all(type(v) is float or v is None for v in obj):
        # a matrix row from ndarray.tolist(): one join, no call per entry through dumps
        return "[" + ",".join("null" if v is None else fmt(v) for v in obj) + "]"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    raise InputError(f"cannot serialize {type(obj).__name__}")


def write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# matrices and columns


def matrix_to_obj(m: np.ndarray, certified: np.ndarray | None = None) -> dict:
    import numpy as np

    m = np.asarray(m, dtype=complex)
    mask = np.ones(m.shape, dtype=bool) if certified is None else np.asarray(certified)
    re, im = (np.where(mask, part, None).tolist() for part in (m.real, m.imag))
    return {"order": m.shape[0], "re": re, "im": im}


def matrix_from_obj(obj: dict) -> np.ndarray:
    """A square matrix document, or a column document (one list of ``order``
    entries), as re + i im with NaN where an entry is null."""
    import numpy as np

    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:  # ragged, string or nested entries
        raise InputError(f"malformed matrix JSON: {exc}") from exc
    if re.shape != im.shape:
        raise InputError("malformed matrix JSON: re/im shapes differ")
    if np.isinf([re, im]).any():  # a literal such as 1e400
        raise InputError("non-finite number in matrix JSON")
    if re.ndim not in (1, 2) or re.shape[0] != obj.get("order"):
        raise InputError("malformed matrix JSON: need one re and im row (or column entry) per order")
    if re.ndim == 2 and re.shape[1] != re.shape[0]:
        raise InputError("malformed matrix JSON: need order entries in every row")
    return np.where(np.isnan(re) | np.isnan(im), np.nan, re + 1j * im)


# ---------------------------------------------------------------------------
# certificates


def certificate_to_obj(cert: BandCertificate | None) -> dict | None:
    if cert is None:
        return None
    import numpy as np

    return {
        "d": cert.d,
        "q": [[float(v.real), float(v.imag)] for v in np.asarray(cert.q, dtype=complex)],
        "residual": float(cert.residual),
        "rows_used": cert.rows_used,
    }


def certificate_from_obj(obj: dict) -> BandCertificate:
    """A certificate document, or the certificate a detect or pipeline document holds."""
    import numpy as np

    from .finiteterm import BandCertificate

    if isinstance(obj, dict) and "certificate" in obj:
        obj = obj["certificate"]
        if obj is None:
            raise InputError("the document holds no certificate (null)")
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
    from .shapes import Shape

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
