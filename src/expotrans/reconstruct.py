"""Shade-function recovery from moments.

Complex moments convert to real monomial moments m[p, q] by exact
basis-change matrices: on each antidiagonal j + k = n the substitution
x = (z + conj(z))/2, y = (z - conj(z))/(2i) is one (n+1) x (n+1) matrix of
binomials times powers of 1/2 and i, built once and reused by every later
call, as are each top order's gather and scatter indices.  A box around the
support is estimated from the even-moment growth, and the density is
approximated by its L2 projection onto tensor Legendre polynomials on the
box, pi * Lx m Ly^T, where the rows of Lx and Ly are the power-basis
coefficients of the normalized Legendre polynomials: on a box centred near
the origin, per axis one product of P_0..P_L's coefficients on [-1, 1], kept
per order L, with the interval's binomial substitution matrix, and on any
other box one recurrence pass for both axes.  A grid's cell centres sit at
the same unit coordinates on every box, so a sample is two matrix products
with a table of P_0..P_L at those coordinates, kept per (grid size, order).
The projection is reported as is, Gibbs oscillations included; values
outside [-0.1, 1.1] are only counted, never clipped.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MathDomainError, PrecisionError
from .finiteterm import FilledMoments, fill_from_first_column
from .series import BiSeries, degree_grid, in_float_range, log_neg, square_matrix
from .shapes import Box, _pascal_table, translate_moments

# relative padding of the support box's half-extents
BOX_PAD = 0.15
# the Legendre order of a reconstruction given none, when the fill reaches it
LEGENDRE_ORDER = 10


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
    return int(np.where(np.isfinite(am), n, degree_grid(n)).min(initial=n)) - 1


@functools.cache
def _substitution_matrix(n: int) -> np.ndarray:
    """C_n (see `_substitute`), built from C_(n-1) once per process, read-only."""
    if n == 0:
        c = np.ones((1, 1), dtype=complex)
    else:
        prev, c = _substitution_matrix(n - 1), np.zeros((n + 1, n + 1), dtype=complex)
        c[:n, 1:] += -0.5j * prev  # y = (z - conj(z))/2i
        c[:n, :n] += 0.5j * prev
        c[n, 1:] += 0.5 * prev[n - 1]  # x = (z + conj(z))/2
        c[n, :n] += 0.5 * prev[n - 1]
    c.flags.writeable = False
    return c


@functools.cache
def _antidiagonals(top: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of every entry with j + k <= top, antidiagonal by
    antidiagonal and j increasing along each: antidiagonal n is the slice
    n(n+1)/2 : (n+1)(n+2)/2.  Built once per top order, read-only."""
    rows = np.concatenate([np.arange(n + 1) for n in range(top + 1)])
    cols = np.repeat(np.arange(top + 1), np.arange(1, top + 2)) - rows
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _substitute(src: np.ndarray, top: int) -> np.ndarray:
    """Complex moments src[j, k] of z^j conj(z)^k to real moments out[p, q]
    of x^p y^q, by x = (z + conj(z))/2, y = (z - conj(z))/2i.

    out[p, n - p] = sum_r C_n[p, r] src[r, n - r] for n <= top, NaN beyond,
    where C_n[p, r] is the coefficient of z^r conj(z)^(n-r) in x^p y^(n-p).
    C_n comes from C_(n-1) by multiplying each row by y and the last row
    also by x.  Its entries are integers below 2^n times a power of 1/2 and
    of i, so they are exact for n <= 53.  Each C_n is built once and kept
    read-only for the life of the process: sum (n+1)^2 complex entries,
    0.86 MB up to n = 53.  So is each top order's plan (`_antidiagonals`):
    two int64 index arrays of (top+1)(top+2)/2 entries, 12 KB at top = 38,
    all tops up to 53 together 0.44 MB.  One gather reads the triangle into
    a flat array, whose antidiagonals are contiguous slices; C_n times its
    slice is the same matrix-vector product as one antidiagonal at a time,
    and one scatter writes the results back.
    """
    rows, cols = _antidiagonals(top)
    flat = src[rows, cols]
    res = np.empty_like(flat)
    res[0] = flat[0]
    for n in range(1, top + 1):  # increasing n: each C_n is built from a cached C_(n-1)
        lo = n * (n + 1) // 2
        np.matmul(_substitution_matrix(n), flat[lo : lo + n + 1], out=res[lo : lo + n + 1])
    out = np.full((top + 1, top + 1), np.nan + 0j)
    out[rows, cols] = res
    return out


def _short_reach(covered: int, requested) -> MathDomainError:
    """The one refusal of moments that do not reach a requested total order."""
    return MathDomainError(f"moments cover total order {covered}, requested {requested}")


def real_moments(a, total_order: int | None = None) -> RealMoments:
    """Exact binomial conversion of complex moments to real moments.

    NaN entries are tolerated outside the requested total order, so a
    certified-triangle fill can be converted as far as it reaches; only the
    gathered triangle is checked.  Residual imaginary parts beyond 1e-10 of
    its largest entry raise rather than being dropped.
    """
    am = square_matrix(a, "a")
    n = am.shape[0]
    p_max = _covered_order(am) if total_order is None else total_order
    if not (0 <= p_max < n and np.isfinite(tri := am[degree_grid(n) <= p_max]).all()):
        raise _short_reach(_covered_order(am), total_order)
    scale = max(1.0, float(np.abs(tri).max()))
    mc = _substitute(am, p_max)
    residue = np.argwhere(np.abs(mc.imag) > 1e-10 * scale)
    if residue.size:
        p, q = residue[0]
        raise MathDomainError(
            f"real moment ({p},{q}) has imaginary residue {mc[p, q].imag:.3e}"
        )
    return RealMoments(p_max, mc.real)


def _axis_mu(j: int) -> float:
    # (1/pi) * integral of x^(2j) over the unit disk; calibrates the
    # per-axis extent estimator to be exact on disks for every j.
    return math.exp(math.lgamma(j + 0.5) - 0.5 * math.log(math.pi) - math.lgamma(j + 2))


def _half_extent(even: np.ndarray) -> float:
    """(even[j] / mu_j)^(1/(2j+2)) at the last j whose even axis moment
    even[j] = m[2j] is finite and positive; 0 when none is."""
    usable = np.flatnonzero(np.isfinite(even) & (even > 0))
    if not usable.size:
        return 0.0
    j = int(usable[-1])
    return (even[j] / _axis_mu(j)) ** (1.0 / (2 * j + 2))


def support_box(a) -> Box:
    """Box around the support, from the centroid and even-moment growth.

    Each half-extent comes from the highest available even moment along its
    axis, (m[2j,0] / mu_j)^(1/(2j+2)); the estimate tends to the true
    half-extent from below for indicator-like densities, hence the padding
    factor 1 + BOX_PAD.  Elongated supports get elongated boxes, which is
    what keeps a low-order Legendre projection from wasting resolution on
    empty space.  A partly certified a takes the full one's path, converted
    to the total order it covers: translation is lower-triangular, so those
    entries read no others.  PrecisionError, naming the centroid, when they
    leave the float range or the box vanishes in the centroid's rounding.
    """
    am = square_matrix(a, "a")
    a00 = am[0, 0].real
    if not np.isfinite(a00) or a00 <= 0:
        raise MathDomainError("a[0, 0] must be positive to locate the support")
    center = 0.0 + 0.0j
    if am.shape[0] > 1 and np.isfinite(am[1, 0]):
        center = in_float_range(lambda: am[1, 0] / a00, "the centroid a[1, 0] / a[0, 0] leaves the float range")
    covered = _covered_order(am)
    inside = degree_grid(am.shape[0]) <= covered
    message = f"translating the moments to the centroid {center} overflows the float range"
    moved = in_float_range(lambda: translate_moments(np.where(np.isfinite(am), am, 0.0), -center), message, inside)
    rm = real_moments(moved, covered)
    half_x = _half_extent(rm.m[::2, 0]) * (1.0 + BOX_PAD)
    half_y = _half_extent(rm.m[0, ::2]) * (1.0 + BOX_PAD)
    cx, cy = center.real, center.imag
    if min(half_x, half_y) > 0 and (cx - half_x == cx + half_x or cy - half_y == cy + half_y):
        raise PrecisionError(f"the support box vanishes in the rounding of the centroid {center}")
    return Box(cx - half_x, cx + half_x, cy - half_y, cy + half_y)


@functools.cache
def _legendre_power(order: int) -> np.ndarray:
    """c[k, i], the coefficient of t^i in the Legendre polynomial P_k(t) on
    [-1, 1], k, i <= order: 2^-k (-1)^m C(k, m) C(2k - 2m, k) at i = k - 2m,
    each the float of the exact rational.  Built once per order and read-only:
    8 (order+1)^2 bytes, 968 B at order 10, all orders up to 47 together 0.3 MB."""
    c = np.zeros((order + 1, order + 1))
    for k in range(order + 1):
        for m in range(k // 2 + 1):
            c[k, k - 2 * m] = math.ldexp(float((-1) ** m * math.comb(k, m) * math.comb(2 * k - 2 * m, k)), -k)
    c.flags.writeable = False
    return c


def _legendre_rows(order: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Slice i, row k: power-basis coefficients of the L2-normalized Legendre
    polynomial of degree k on [lo[i], hi[i]], k = 0..order.

    With t = alpha x + beta, P_k(t) = sum_i c[k, i] t^i, so the rows are
    `_legendre_power`'s table times the substitution matrix
    s[i, r] = comb(i, r) alpha^r beta^(i-r), one product for every interval,
    its binomials from `shapes._pascal_table`.  That product keeps each entry
    within a few ulps only while order * |beta| <= 1, on a box centred near
    the origin; past it an entry's terms cancel (2 * 10^4 ulps lost at
    order * |beta| near 2), so the rows run (k+1) P_(k+1) = (2k+1) t P_k -
    k P_(k-1) instead, one step for every interval at once.
    """
    lo, hi = np.asarray(lo, dtype=float)[:, None], np.asarray(hi, dtype=float)[:, None]
    alpha, beta = 2.0 / (hi - lo), -(hi + lo) / (hi - lo)
    if order * np.abs(beta).max() <= 1.0:
        i, r, i_r, comb = _pascal_table(order + 1)
        sub = np.zeros((lo.shape[0], order + 1, order + 1))
        sub[:, i, r] = comb * alpha**r * beta**i_r
        rows = _legendre_power(order) @ sub
    else:
        rows = np.zeros((lo.shape[0], order + 1, order + 1))
        rows[:, 0, 0] = 1.0
        for k in range(order):
            tp = beta * rows[:, k]
            tp[:, 1:] += alpha * rows[:, k, :-1]
            rows[:, k + 1] = ((2 * k + 1) * tp - (k * rows[:, k - 1] if k else 0.0)) / (k + 1)
    return rows * np.sqrt((2 * np.arange(order + 1) + 1) / (hi - lo))[:, :, None]


@functools.lru_cache(maxsize=32)
def _legendre_grid(n: int, order: int) -> np.ndarray:
    """v[i, k] = P_k(t_i) at a grid's unit coordinates t_i = (2i + 1)/n - 1,
    k <= order, by `legvander`'s steps, without importing numpy.polynomial.
    Built once per (n, order) and read-only, the 32 latest kept: 8 n (order+1)
    bytes, 5.6 KB for a 64-point axis at order 10."""
    t = (2 * np.arange(n) + 1) / n - 1
    v = np.ones((n, order + 1))
    for k in range(1, order + 1):  # k P_k = (2k - 1) t P_(k-1) - (k - 1) P_(k-2)
        v[:, k] = (v[:, k - 1] * t * (2 * k - 1) - (v[:, k - 2] * (k - 1) if k > 1 else 0.0)) / k
    v.flags.writeable = False
    return v


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

    def _unit(self, x, y):
        """The box's affine map onto [-1, 1] x [-1, 1]."""
        xi = (2.0 * np.asarray(x, dtype=float) - self.box.x0 - self.box.x1) / self.box.width
        eta = (2.0 * np.asarray(y, dtype=float) - self.box.y0 - self.box.y1) / self.box.height
        return xi, eta

    def __call__(self, x, y):
        return np.polynomial.legendre.legval2d(*self._unit(x, y), self._legmat)

    def mass(self) -> float:
        return float(self.coeffs[0, 0].real * math.sqrt(self.box.area))

    def sample(self, nx: int, ny: int) -> GridFunction:
        xs = self.box.x0 + self.box.width * (np.arange(nx) + 0.5) / nx
        ys = self.box.y0 + self.box.height * (np.arange(ny) + 0.5) / ny
        # the cell centres' unit coordinates depend on nx and ny only
        vals = _legendre_grid(ny, self.order) @ (_legendre_grid(nx, self.order) @ self._legmat).T
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
        raise _short_reach(rm.total_order, order)
    lx, ly = _legendre_rows(order, (box.x0, box.y0), (box.x1, box.y1))
    m = np.nan_to_num(rm.m[: order + 1, : order + 1])
    coeffs = np.where(degree_grid(order + 1) <= order, math.pi * lx @ m @ ly.T, 0.0)
    return LegendreField(box, order, coeffs)


def reconstruct_from_certificate(
    col, cert, order: int, legendre_order: int | None = None, filled: FilledMoments | None = None
) -> tuple[LegendreField, dict]:
    """Full pipeline: first column of b + `BandCertificate` -> b fill -> a -> projection.

    The certified triangle of the fill must cover the Legendre order, by
    default LEGENDRE_ORDER or the fill's reach if smaller; the log-series step
    only ever reads entries inside the triangle, so the masked values are exact there.
    A caller that has already made the fill, `fill_from_first_column(col,
    cert.q, order)`, passes it as ``filled`` (the CLI checks it first).
    """
    col = np.asarray(col, dtype=complex)
    if np.all(col == 0):
        # nothing to reconstruct; a support box cannot be located, so report
        # the zero field on a unit reference box
        box = Box(-1.0, 1.0, -1.0, 1.0)
        lo = LEGENDRE_ORDER if legendre_order is None else legendre_order
        fld = LegendreField(box, lo, np.zeros((lo + 1, lo + 1)))
        return fld, {"box": box.as_tuple(), "mass_from_moments": 0.0, "mass_from_field": 0.0,
                     "covered_order": lo}
    if filled is None:
        filled = fill_from_first_column(col, cert.q, order)
    avals = log_neg(BiSeries(1.0, -filled.masked_values())).tail
    avals = np.where(filled.certified, avals, np.nan + 0j)
    covered = _covered_order(avals)
    rm = real_moments(avals, min(LEGENDRE_ORDER, covered) if legendre_order is None else legendre_order)
    box = support_box(avals)
    fld = legendre_fit(rm, box, rm.total_order)
    return fld, {"box": box.as_tuple(), "mass_from_moments": math.pi * rm.m[0, 0],
                 "mass_from_field": fld.mass(), "covered_order": covered}
