"""Shade-function recovery from moments.

Complex moments convert to real monomial moments m[p, q], and back, by
exact basis-change matrices: on each antidiagonal j + k = n the substitution
x = (z + conj(z))/2, y = (z - conj(z))/(2i), or z = x + iy, z-bar = x - iy,
is one (n+1) x (n+1) matrix of binomials times powers of 1/2 and i.  A box
around the support is estimated from the even-moment growth, and the density
is approximated by its L2 projection onto tensor Legendre polynomials on the
box, pi * Lx m Ly^T, where the rows of Lx and Ly are the power-basis
coefficients of the normalized Legendre polynomials.  The projection is
reported as is, Gibbs oscillations included; values outside [-0.1, 1.1] are
only counted, never clipped.
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
    """Largest p such that every entry with j + k <= p is finite (-1 if none)."""
    n = am.shape[0]
    jk = np.add.outer(np.arange(n), np.arange(n))
    return int(np.where(np.isfinite(am), n, jk).min(initial=n)) - 1


def _substitute(src: np.ndarray, top: int, f, g) -> np.ndarray:
    """The linear substitution X, Y -> f0 X + f1 Y, g0 X + g1 Y on moments.

    out[p, n - p] = sum_r C_n[p, r] src[r, n - r] for n <= top, NaN beyond,
    where C_n[p, r] is the coefficient of X^r Y^(n-r) in
    (f0 X + f1 Y)^p (g0 X + g1 Y)^(n-p).  C_n comes from C_(n-1) by
    multiplying each row by the g form and the last row also by the f form.
    For the factors 1/2 and i used here its entries are integers below 2^n
    times a power of 1/2 and of i, so they are exact for n <= 53.
    """
    out = np.full((top + 1, top + 1), np.nan + 0j)
    out[0, 0] = src[0, 0]
    c = np.ones((1, 1), dtype=complex)
    for n in range(1, top + 1):
        prev, c = c, np.zeros((n + 1, n + 1), dtype=complex)
        c[:n, 1:] += g[0] * prev
        c[:n, :n] += g[1] * prev
        c[n, 1:] += f[0] * prev[n - 1]
        c[n, :n] += f[1] * prev[n - 1]
        r = np.arange(n + 1)
        out[r, n - r] = c @ src[r, n - r]
    return out


def real_moments(a, total_order: int | None = None) -> RealMoments:
    """Exact binomial conversion of complex moments to real moments.

    NaN entries are tolerated outside the requested total order, so a
    certified-triangle fill can be converted as far as it reaches.  Residual
    imaginary parts beyond 1e-10 of the largest entry with j + k <= the
    converted order raise rather than being dropped.
    """
    am = square_matrix(a, "a")
    covered = _covered_order(am)
    p_max = covered if total_order is None else total_order
    if p_max < 0 or p_max > covered:
        raise MathDomainError(
            f"moments cover total order {covered}, requested {total_order}"
        )
    r = np.arange(am.shape[0])
    scale = max(1.0, float(np.abs(am[np.add.outer(r, r) <= p_max]).max()))
    mc = _substitute(am, p_max, (0.5, 0.5), (-0.5j, 0.5j))
    residue = np.argwhere(np.abs(mc.imag) > 1e-10 * scale)
    if residue.size:
        p, q = residue[0]
        raise MathDomainError(
            f"real moment ({p},{q}) has imaginary residue {mc[p, q].imag:.3e}"
        )
    return RealMoments(p_max, mc.real)


def complex_moments(rm: RealMoments, order: int) -> np.ndarray:
    """Inverse of real_moments; entries with j + k beyond the data are NaN."""
    tri = _substitute(rm.m, rm.total_order, (1.0, 1j), (1.0, -1j))
    a = np.full((order, order), np.nan + 0j)
    k = min(order, rm.total_order + 1)
    a[:k, :k] = tri[:k, :k]
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
    # translation is lower-triangular: a non-finite entry reaches only the
    # entries (j, k) >= its own, so the others translate exactly with it set to 0
    spread = np.logical_or.accumulate(np.logical_or.accumulate(~np.isfinite(am), 0), 1)
    rm = real_moments(np.where(spread, np.nan, translate_moments(np.nan_to_num(am), -center)))
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


def _legendre_rows(order: int, lo: float, hi: float) -> np.ndarray:
    """Row k: power-basis coefficients of the L2-normalized Legendre
    polynomial of degree k on [lo, hi], k = 0..order.

    Uses (k+1) P_(k+1) = (2k+1) t P_k - k P_(k-1) with t = alpha x + beta.
    """
    alpha, beta = 2.0 / (hi - lo), -(hi + lo) / (hi - lo)
    rows = np.zeros((order + 1, order + 1))
    rows[0, 0] = 1.0
    for k in range(order):
        tp = beta * rows[k]
        tp[1:] += alpha * rows[k, :-1]
        rows[k + 1] = ((2 * k + 1) * tp - (k * rows[k - 1] if k else 0.0)) / (k + 1)
    return rows * np.sqrt((2 * np.arange(order + 1) + 1) / (hi - lo))[:, None]


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
    lx = _legendre_rows(order, box.x0, box.x1)
    ly = _legendre_rows(order, box.y0, box.y1)
    p, q = np.indices((order + 1, order + 1))
    m = np.nan_to_num(rm.m[: order + 1, : order + 1])
    coeffs = np.where(p + q <= order, math.pi * lx @ m @ ly.T, 0.0)
    return LegendreField(box, order, coeffs)


def reconstruct_from_certificate(
    col,
    cert,
    order: int,
    legendre_order: int,
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
    e_tail = -filled.masked_values()
    avals = log_neg(BiSeries(order, 1.0, e_tail)).tail
    avals = np.where(filled.certified, avals, np.nan + 0j)
    rm = real_moments(avals, total_order=legendre_order)
    box = support_box(avals)
    fld = legendre_fit(rm, box, legendre_order)
    diagnostics = {
        "box": box.as_tuple(),
        "mass_from_moments": math.pi * rm.m[0, 0],
        "mass_from_field": fld.mass(),
        "covered_order": _covered_order(avals),
    }
    return fld, diagnostics
