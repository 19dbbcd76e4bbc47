"""Named example domains and operators, addressable as "gallery:<name>?k=v",
and the one interface every moment source answers.

The gallery keeps docs and tests free of JSON boilerplate: every entry is
either a Shape or an operator family whose truncation size is derived from
the requested moment order via the exactness rule.

A source is a Shape, an OperatorFamily or a MatrixSource read from a file.
Each answers ``data(order)`` with its native moments (a `MomentMatrix` a or
an `ExpMoments` b) and ``column(order)`` with its native first column, which
a and b share.  `b_for` and `a_for` are the one place that converts a <-> b.
The numerical modules, numpy among them, are imported where an entry is
built, a file's matrix is read or a <-> b is converted, so listing or
misnaming an entry loads none of them.  The conversion lives in `series`,
so an operator family or a matrix file loads no shape module.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import InputError

if TYPE_CHECKING:
    import numpy as np

    from .operators import BandedOperator
    from .series import ExpMoments, MomentMatrix
    from .shapes import Shape


@dataclass(frozen=True)
class OperatorFamily:
    """A banded-operator model with the truncation size left open."""

    name: str
    build: Callable[[int], BandedOperator]
    xi_index: int
    max_offset: int

    def sized_for(self, order: int) -> BandedOperator:
        from .operators import exact_size

        return self.build(exact_size(self.xi_index, self.max_offset, order))

    def data(self, order: int) -> ExpMoments:
        """b, the Krylov Gram of the model sized for ``order``; PrecisionError
        when building the model or its Gram leaves the float range."""
        from .operators import krylov_gram
        from .series import ExpMoments, in_float_range

        message = f"the Krylov Gram of {self.name} at order {order} leaves the float range"
        return ExpMoments(in_float_range(lambda: krylov_gram(self.sized_for(order), order), message))

    def column(self, order: int) -> np.ndarray:
        return self.data(order).b[:, 0]

    def to_obj(self) -> dict:
        return {"kind": "operator", "name": self.name, "xi_index": self.xi_index, "max_offset": self.max_offset}


class MatrixSource:
    """A matrix read from a file, holding a or b as ``given`` says, or a
    column read from a file (1-D), with NaN for each null.  ``data`` needs a
    matrix with no null, ``column`` a null-free first column."""

    def __init__(self, arr: np.ndarray, given: str = "a"):
        self.arr, self.given = arr, given

    def data(self, order: int) -> MomentMatrix | ExpMoments:
        """The leading order x order block."""
        import numpy as np

        from .series import ExpMoments, MomentMatrix

        if self.arr.ndim != 2:
            raise InputError("malformed matrix JSON: a column document holds no moment matrix")
        if np.isnan(self.arr).any():
            raise InputError("the matrix has uncertified (null) entries")
        if self.arr.shape[0] < order:
            raise InputError(f"matrix of order {self.arr.shape[0]} smaller than requested {order}")
        block = self.arr[:order, :order]
        return ExpMoments(block) if self.given == "b" else MomentMatrix(block)

    def column(self, order: int) -> np.ndarray:
        import numpy as np

        col = self.arr if self.arr.ndim == 1 else self.arr[:, 0]
        if np.isnan(col).any():
            raise InputError("the column has a null entry")
        if col.shape[0] < order:
            raise InputError(f"column of length {col.shape[0]} shorter than order {order}")
        return col[:order]


def _params(query: str, allowed: dict[str, float]) -> dict[str, float]:
    """The defaults updated by the query's k=v pieces, split on & and the first =;
    a + stays a sign and no escape is decoded."""
    out = dict(allowed)
    for key, _, val in (piece.partition("=") for piece in query.split("&") if piece):
        if key not in allowed:
            raise InputError(f"unknown gallery parameter {key!r}")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise InputError(f"gallery parameter {key}={val!r} is not a number") from exc
        if not math.isfinite(out[key]):
            raise InputError(f"gallery parameter {key}={val!r} is not finite")
    return out


def _power(m, p: dict[str, float]) -> OperatorFamily:
    d = int(p["d"])
    if d != p["d"] or d < 1:
        raise InputError("gallery power needs integer d >= 1")
    a, b = p["alpha"], p["beta"]
    return OperatorFamily(f"power a={a:g} b={b:g} d={d}", lambda size: m.toeplitz_power(a, b, d, size), d, d + 1)


# name -> (parameter defaults, home module, builder(module, parameters)), in
# listing order: shapes, then operator families
_TABLE: dict[str, tuple[dict[str, float], str, Callable]] = {
    "disk": ({"R": 1.0, "x": 0.0, "y": 0.0}, "shapes", lambda m, p: m.Disk(complex(p["x"], p["y"]), p["R"])),
    "annulus": ({"r": 0.5, "R": 1.0, "x": 0.0, "y": 0.0}, "shapes",
                lambda m, p: m.Annulus(complex(p["x"], p["y"]), p["r"], p["R"])),
    "ellipse-shape": ({"p": 1.5, "q": 0.5, "phi": 0.0, "x": 0.0, "y": 0.0}, "shapes",
                      lambda m, p: m.Ellipse(complex(p["x"], p["y"]), p["p"], p["q"], p["phi"])),
    "tdisk": ({"t": 0.5, "R": 1.0}, "shapes", lambda m, p: m.Weighted(m.Disk(0j, p["R"]), p["t"])),
    "ellipse": ({"u": 2.0}, "operators", lambda m, p: OperatorFamily(
        f"ellipse u={p['u']:g}", lambda size: m.toeplitz_ellipse(p["u"], size), 0, 1)),
    "trifoil": ({}, "operators", lambda m, p: OperatorFamily("trifoil", m.trifoil_operator, 1, 2)),
    "power": ({"alpha": 1.0, "beta": 1.0, "d": 1.0}, "operators", _power),
    "twodiag": ({"A1": 1.0, "B1": 1.0}, "operators", lambda m, p: OperatorFamily(
        f"twodiag A1={p['A1']:g} B1={p['B1']:g}", lambda size: m.two_diagonal(p["A1"], p["B1"], size), 0, 2)),
}


def resolve(address: str) -> Shape | OperatorFamily:
    """Parse "gallery:<name>?param=value" into a Shape or OperatorFamily;
    the entry's home module is imported once the address has parsed."""
    if address.startswith("gallery:"):
        address = address[len("gallery:"):]
    name, _, query = address.partition("?")
    name = name.strip().lower()
    if name not in _TABLE:
        raise InputError(f"unknown gallery entry {name!r}")
    defaults, module, build = _TABLE[name]
    params = _params(query, defaults)
    home = f"{__package__}.{module}"
    __import__(home)  # the builtin import, which -X importtime reports
    return build(sys.modules[home], params)


def names() -> list[str]:
    return list(_TABLE)


def b_for(source: str | Shape | OperatorFamily | MatrixSource, order: int) -> ExpMoments:
    """b for a gallery address or a source: its data, through `a_to_b` when that is a."""
    data = (resolve(source) if isinstance(source, str) else source).data(order)
    from .series import MomentMatrix, a_to_b

    return a_to_b(data) if isinstance(data, MomentMatrix) else data


def a_for(source: str | Shape | OperatorFamily | MatrixSource, order: int) -> MomentMatrix:
    """a for a gallery address or a source: its data, through `b_to_a` when that is b."""
    data = (resolve(source) if isinstance(source, str) else source).data(order)
    from .series import MomentMatrix, b_to_a

    return data if isinstance(data, MomentMatrix) else b_to_a(data)
