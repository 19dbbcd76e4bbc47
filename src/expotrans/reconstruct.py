"""Shade-function recovery from moments.

Complex moments convert exactly to real monomial moments m[p, q] by the
binomial expansion of x = (z + conj(z))/2, y = (z - conj(z))/(2i); a square
support box is estimated from the diagonal growth; and the density is
approximated by its L2 projection onto tensor Legendre polynomials on the
box, computed directly from the moments.  The projection is reported as is,
Gibbs oscillations included; values outside [-0.1, 1.1] are only counted,
never clipped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, MathDomainError
from .finiteterm import BandCertificate, fill_from_first_column
from .series import BiSeries, log_neg, square_matrix
from .shapes import Box, translate_moments

DEFAULT_PAD = 0.15


@dataclass
class RealMoments:
    """m[p, q] = (1/pi) integral of x^p y^q g dA for p + q <= total_order."""

    total_order: int
    m: np.ndarray


@dataclass
class GridFunction:
    box: Box
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    below: int = 0
    above: int = 0


def _covered_order(am: np.ndarray) -> int:
    n = am.shape[0]
    finite = np.isfinite(am.real) & np.isfinite(am.imag)
    best = -1
    for p in range(n):
        diag = [finite[j, p - j] for j in range(p + 1)]
        if all(diag):
            best = p
        else:
            break
    return best


def real_moments(a, total_order: int | None = None) -> RealMoments:
    """Exact binomial conversion of complex moments to real moments.

    NaN entries are tolerated outside the requested total order, so a
    certified-triangle fill can be converted as far as it reaches.  Residual
    imaginary parts beyond 1e-10 of scale raise rather than being dropped.
    """
    am = square_matrix(a, "a")
    covered = _covered_order(am)
    p_max = covered if total_order is None else total_order
    if p_max < 0 or p_max > covered:
        raise MathDomainError(
            f"moments cover total order {covered}, requested {total_order}"
        )
    finite = am[np.isfinite(am.real)]
    scale = max(1.0, float(np.abs(finite).max()) if finite.size else 1.0)
    mm = np.full((p_max + 1, p_max + 1), np.nan)
    for p in range(p_max + 1):
        for q in range(p_max + 1 - p):
            acc = 0.0 + 0.0j
            for r in range(p + 1):
                for s in range(q + 1):
                    sign = -1.0 if (q - s) % 2 else 1.0
                    acc += math.comb(p, r) * math.comb(q, s) * sign * am[r + s, p + q - r - s]
            acc /= 2 ** (p + q) * (1j) ** q
            if abs(acc.imag) > 1e-10 * scale:
                raise MathDomainError(
                    f"real moment ({p},{q}) has imaginary residue {acc.imag:.3e}"
                )
            mm[p, q] = acc.real
    return RealMoments(p_max, mm)


def complex_moments(rm: RealMoments, order: int) -> np.ndarray:
    """Inverse of real_moments; entries with j + k beyond the data are NaN."""
    a = np.full((order, order), np.nan, dtype=complex)
    for j in range(order):
        for k in range(order):
            if j + k > rm.total_order:
                continue
            acc = 0.0 + 0.0j
            for r in range(j + 1):
                for s in range(k + 1):
                    acc += (
                        math.comb(j, r)
                        * math.comb(k, s)
                        * (1j) ** (j - r)
                        * (-1j) ** (k - s)
                        * rm.m[r + s, j + k - r - s]
                    )
            a[j, k] = acc
    return a


def _axis_mu(j: int) -> float:
    # (1/pi) * integral of x^(2j) over the unit disk; calibrates the
    # per-axis extent estimator to be exact on disks for every j.
    return math.exp(math.lgamma(j + 0.5) - 0.5 * math.log(math.pi) - math.lgamma(j + 2))


def support_box(a, pad: float = DEFAULT_PAD) -> Box:
    """Box around the support, from the centroid and even-moment growth.

    Each half-extent comes from the highest available even moment along its
    axis, (m[2j,0] / mu_j)^(1/(2j+2)); the estimate tends to the true
    half-extent from below for indicator-like densities, hence the padding
    factor.  Elongated supports get elongated boxes, which is what keeps a
    low-order Legendre projection from wasting resolution on empty space.
    """
    am = square_matrix(a, "a")
    a00 = am[0, 0].real
    if not np.isfinite(a00) or a00 <= 0:
        raise MathDomainError("a[0, 0] must be positive to locate the support")
    center = am[1, 0] / a00 if am.shape[0] > 1 and np.isfinite(am[1, 0]) else 0.0 + 0.0j
    rm = real_moments(translate_moments(am, -center) if center != 0 else am)
    half_x = half_y = 0.0
    for j in range(rm.total_order // 2 + 1):
        mx, my = rm.m[2 * j, 0], rm.m[0, 2 * j]
        if np.isfinite(mx) and mx > 0:
            half_x = (mx / _axis_mu(j)) ** (1.0 / (2 * j + 2))
        if np.isfinite(my) and my > 0:
            half_y = (my / _axis_mu(j)) ** (1.0 / (2 * j + 2))
    if half_x <= 0 or half_y <= 0:
        raise MathDomainError("no positive even moments; support unbounded?")
    half_x *= 1.0 + pad
    half_y *= 1.0 + pad
    cx, cy = center.real, center.imag
    return Box(cx - half_x, cx + half_x, cy - half_y, cy + half_y)


def _scaled_legendre_coeffs(deg: int, lo: float, hi: float) -> np.ndarray:
    """Power-basis coefficients of the L2-normalized Legendre poly on [lo, hi]."""
    base = np.polynomial.legendre.leg2poly(np.eye(deg + 1)[deg])
    alpha = 2.0 / (hi - lo)
    beta = -(hi + lo) / (hi - lo)
    acc = np.array([base[-1]])
    for c in base[-2::-1]:
        acc = np.polynomial.polynomial.polymul(acc, np.array([beta, alpha]))
        acc[0] += c
    return acc * math.sqrt((2 * deg + 1) / (hi - lo))


@dataclass
class LegendreField:
    """Tensor Legendre projection sum_{p+q<=order} c[p,q] Lp(x) Lq(y) on a box."""

    box: Box
    order: int
    coeffs: np.ndarray
    _legmat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w, h = self.box.width, self.box.height
        p = np.arange(self.order + 1)
        scale = np.sqrt((2 * p + 1) / w)[:, None] * np.sqrt((2 * p + 1) / h)[None, :]
        self._legmat = self.coeffs * scale

    def __call__(self, x, y):
        xi = (2.0 * np.asarray(x, dtype=float) - self.box.x0 - self.box.x1) / self.box.width
        eta = (2.0 * np.asarray(y, dtype=float) - self.box.y0 - self.box.y1) / self.box.height
        return np.polynomial.legendre.legval2d(xi, eta, self._legmat)

    def mass(self) -> float:
        return float(self.coeffs[0, 0].real * math.sqrt(self.box.area))

    def sample(self, nx: int, ny: int) -> GridFunction:
        xs = self.box.x0 + self.box.width * (np.arange(nx) + 0.5) / nx
        ys = self.box.y0 + self.box.height * (np.arange(ny) + 0.5) / ny
        # legval2d evaluates pointwise and refuses mismatched shapes
        xg, yg = np.meshgrid(xs, ys)
        vals = self(xg, yg)
        if not np.all(np.isfinite(vals)):
            raise MathDomainError("non-finite values in sampled reconstruction")
        return GridFunction(
            self.box,
            xs,
            ys,
            vals,
            below=int((vals < -0.1).sum()),
            above=int((vals > 1.1).sum()),
        )


def legendre_fit(rm: RealMoments, box: Box, order: int) -> LegendreField:
    """Project onto normalized tensor Legendre polynomials up to total order.

    Coefficients are exact linear combinations of the real moments, so the
    box integral of the projection equals pi * m[0, 0] regardless of how
    well the box covers the support.
    """
    if order > rm.total_order:
        raise InputError(f"moments cover total order {rm.total_order}, requested {order}")
    lx = [_scaled_legendre_coeffs(p, box.x0, box.x1) for p in range(order + 1)]
    ly = [_scaled_legendre_coeffs(p, box.y0, box.y1) for p in range(order + 1)]
    coeffs = np.zeros((order + 1, order + 1))
    for p in range(order + 1):
        for q in range(order + 1 - p):
            acc = 0.0
            for r in range(p + 1):
                for s in range(q + 1):
                    acc += lx[p][r] * ly[q][s] * rm.m[r, s]
            coeffs[p, q] = math.pi * acc
    return LegendreField(box, order, coeffs)


def reconstruct_from_certificate(
    col,
    cert,
    order: int,
    legendre_order: int,
    pad: float = DEFAULT_PAD,
) -> tuple[LegendreField, dict]:
    """Full pipeline: column + certificate -> b fill -> a -> projection.

    The certified triangle of the fill must cover the requested Legendre
    order; the log-series step only ever reads entries inside the triangle,
    so the masked values are exact there.
    """
    q = cert.q if isinstance(cert, BandCertificate) else np.asarray(cert, dtype=complex)
    col = np.asarray(col, dtype=complex)
    if col.ndim == 2:
        col = col[:, 0]
    if np.all(col == 0):
        # nothing to reconstruct; a support box cannot be located, so report
        # the zero field on a unit reference box
        box = Box(-1.0, 1.0, -1.0, 1.0)
        fld = LegendreField(box, legendre_order,
                            np.zeros((legendre_order + 1, legendre_order + 1)))
        return fld, {
            "box": box.as_tuple(),
            "mass_from_moments": 0.0,
            "mass_from_field": 0.0,
            "covered_order": legendre_order,
        }
    filled = fill_from_first_column(col, q, order)
    e_tail = -filled.masked_values(0.0)
    avals = log_neg(BiSeries(order, 1.0, e_tail)).tail
    avals = np.where(filled.certified, avals, np.nan + 0j)
    rm = real_moments(avals, total_order=legendre_order)
    box = support_box(avals, pad)
    fld = legendre_fit(rm, box, legendre_order)
    diagnostics = {
        "box": box.as_tuple(),
        "mass_from_moments": math.pi * rm.m[0, 0],
        "mass_from_field": fld.mass(),
        "covered_order": _covered_order(avals),
    }
    return fld, diagnostics
