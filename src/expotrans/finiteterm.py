"""Band certificates: finite term relations in the b moment matrix.

A certificate of order d is a vector q with

    b[m+1, 0] = sum_{k=0}^{d} q[k] b[m, k]   for every row m,

the moment shadow of the operator identity T xi = Q(T*) xi with Q of
degree d.  Certificates are fitted by least squares, detected by scanning
d upward, and used to fill a moment matrix out of its first column.  A
degree-1 certificate is a three-term relation, which holds exactly for
uniform ellipses: with b00 it fixes the ellipse operator
T = c + alpha S + beta S*, whose Krylov Gram fills the triangle in O(N)
matrix-vector products, provided its first column matches the given one.
Every other degree runs the entrywise recursion by per-row reach (which
for d >= 3 stalls short of the triangle at orders d + 5 .. d*d - 1): no
closed form exists for d >= 2, and for d = 0 the disk's rule (centre q0,
radius^2 b00) would also change the annulus fill that acceptance
criterion 6 pins.  The recursion only reads the first column, so the fill
then checks the certificate's relation on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, MathDomainError, PrecisionError
from .operators import ellipse_operator, exact_size, krylov_gram
from .series import degree_grid, in_float_range, square_matrix

# largest normwise gap, relative to the column's norm, between a given first
# column and the one its certificate predicts (the ellipse operator's for
# d = 1, the relation on column 0 otherwise); a column that misses by more
# belongs to another shade
COLUMN_RTOL = 1e-6
# the refusal of a certificate fit of degree {} past the float range
_FIT_REFUSAL = "the degree-{} certificate fit leaves the float range"


@dataclass
class BandCertificate:
    d: int
    q: np.ndarray
    residual: float
    rows_used: int


@dataclass
class FilledMoments:
    """Moment matrix known only on the certified index set."""

    values: np.ndarray
    certified: np.ndarray

    def masked_values(self) -> np.ndarray:
        """The values with every uncertified entry set to 0."""
        return np.where(self.certified, self.values, 0.0).astype(complex)


@dataclass
class BandProfile:
    upper_bandwidth: int
    recursion_length: int
    toeplitz_deviation: float


def fit_certificate(b, d: int) -> BandCertificate:
    """Least-squares certificate of order d over every usable row (order - 1).

    A rank-deficient design matrix yields the minimal-norm solution.  Columns
    0..d are scaled by `column_scale` of column 0, so b times 2^k gives the same
    q and 2^k the residual; a scaled entry or residual past the float range is a
    PrecisionError.
    """
    bm = square_matrix(b, "b")
    n = bm.shape[0]
    if not 0 <= d < n or n < 2:
        raise InputError("need 0 <= d < order and order >= 2")
    scale = column_scale(bm[:, 0])
    return _fit(in_float_range(lambda: bm[:, : d + 1] * scale, _FIT_REFUSAL.format(d)), scale, d)


def _fit(bs: np.ndarray, scale: float, d: int) -> BandCertificate:
    """`fit_certificate` on bs, whose columns 0..d are b's times scale and finite."""
    n = bs.shape[0]
    design, target = bs[: n - 1, : d + 1], bs[1:, 0]
    q = np.linalg.lstsq(design, target, rcond=None)[0]
    rms = in_float_range(lambda: np.sqrt(np.mean(np.abs(target - design @ q) ** 2)) / scale, _FIT_REFUSAL.format(d))
    return BandCertificate(d, q, float(rms), n - 1)


def detect_order(b, dmax: int, tol: float = 1e-8) -> BandCertificate | None:
    """Smallest d whose certificate residual beats tol * ||b[:, 0]||.

    Residuals are non-increasing in d (nested design matrices), so the scan
    stops at the first hit; None when nothing fits up to min(dmax, order - 3).
    Every fit keeps a spare row (order - 1 rows for at most order - 2
    unknowns): an exactly determined fit would match any b to rounding.
    The norm is taken on the column scaled by `column_scale`, as the fit's.
    The scan scales columns 0..min(dmax, order - 3) once; only when one of
    them leaves the float range does each degree scale its own, so that the
    refusal names the first degree that reads it, as `fit_certificate` would.
    """
    bm = square_matrix(b, "b")
    top = min(dmax, bm.shape[0] - 3)
    scale = column_scale(bm[:, 0])
    cutoff = tol * float(np.linalg.norm(bm[:, 0] * scale)) / scale
    try:
        bs = in_float_range(lambda: bm[:, : top + 1] * scale, _FIT_REFUSAL.format(top))
    except PrecisionError:
        bs = None
    for d in range(top + 1):
        cert = fit_certificate(bm, d) if bs is None else _fit(bs, scale, d)
        if cert.residual <= cutoff:
            return cert
    return None


def fill_from_first_column(col, q, order: int) -> FilledMoments:
    """Fill b on the certified triangle m + n + d < order from its first column.

    Row 0 is the conjugate column; entries outside the triangle are NaN
    with a False mask.  A degree-1 certificate fixes the ellipse operator
    (see `_ellipse_gram`), and the triangle is that operator's Krylov Gram:
    exact to rounding at every order, where the recursion below loses
    digits as the order grows.  MathDomainError when |q[1]| <= 1, when b00
    is not a positive number, or when the operator's first column misses
    the given one by more than COLUMN_RTOL, normwise: the column then
    belongs to another shade than the certificate.  Every other
    degree runs the recursion

        b[m+1, n] = sum_k q[k] b[m, k+n] - sum_{j<n} b[m, j] b[0, n-1-j].

    Row m is known on columns 0..reach[m], and reach never increases with
    m.  Each round applies the relation forward, mirrors across the
    diagonal and, when the leading coefficient allows, solves it backward
    for the next column, until the triangle is filled.  Off an operator's b
    the relation and symmetry disagree, so the rule that computes an entry
    fixes it.  The recursion never re-derives column 0, so the fill then
    checks the certificate's own relation b[m+1, 0] = sum_k q[k] b[m, k] on
    every row whose b[m, 0..d] is certified: MathDomainError when it misses
    by more than COLUMN_RTOL of the column, normwise.  Even with q[d] != 0
    the rules stall for d >= 3 at orders d + 5 .. d*d - 1 (MathDomainError).  A
    degree-0 certificate, which a disk's b fits, runs the same rules, so a
    disk of radius R centred at 0 fills b[1, 1] = -R^4 where its b is 0:
    T xi = q0 xi is incompatible with [T*, T] = xi (x) xi.  This function
    returns that fill; the CLI refuses it (`orthopoly.require_shade`).  Either
    way, a finite certificate whose fill has a certified entry past the float
    range raises PrecisionError, naming the entry, before the column is checked.
    """
    col = np.asarray(col, dtype=complex).ravel()
    q = np.asarray(q, dtype=complex).ravel()
    d = q.shape[0] - 1
    if d < 0:
        raise InputError("certificate must have at least one coefficient")
    if not 1 <= order <= col.shape[0]:
        raise InputError(f"fill order {order} outside 1..{col.shape[0]} (the column length)")
    certified = degree_grid(order) + d < order
    certified[0, :] = certified[:, 0] = True
    fill = _ellipse_gram if d == 1 else _propagate
    message = f"the degree-{d} fill leaves the float range"
    vals = in_float_range(lambda: fill(col, q, order), message, certified & np.isfinite(q).all())
    if d == 1:
        what = "the column misses the ellipse its degree-1 certificate fixes"
        require_column(vals[:, 0] - col[:order], col[:order], what)
        vals[:, 0] = col[:order]
        vals[0, :] = np.conj(col[:order])
    elif d < order:
        # the rows whose b[m, 0..d] is certified
        m = np.flatnonzero(certified[: order - 1, : d + 1].all(axis=1))
        require_column(
            vals[m + 1, 0] - vals[m, : d + 1] @ q, col[:order],
            f"the column breaks its degree-{d} certificate's relation b[m+1, 0] = sum q[k] b[m, k]",
        )
    return FilledMoments(np.where(certified, vals, np.nan + 0j), certified)


def _ellipse_gram(col: np.ndarray, q: np.ndarray, order: int) -> np.ndarray:
    """Krylov Gram of the ellipse operator fixed by b00 and q = (q0, q1).

    T = c + alpha S + beta S* has T xi = q0 xi + q1 T* xi with q1 = alpha /
    conj(beta) and q0 = c - q1 conj(c), and b00 = |alpha|^2 - |beta|^2.  In
    the gauge beta > 0 that gives beta = sqrt(b00 / (|q1|^2 - 1)),
    alpha = q1 beta and c = (q0 + q1 conj(q0)) / (1 - |q1|^2).
    """
    b00 = col[0]
    if not (np.isfinite(b00) and b00.real > 0):
        raise MathDomainError(f"a degree-1 fill needs b00 > 0, got {b00:.6g}")
    if not abs(q[1]) > 1:
        raise MathDomainError(f"a degree-1 fill needs |q[1]| > 1, got {abs(q[1]):.6g}")
    beta = math.sqrt(b00.real / (abs(q[1]) ** 2 - 1.0))
    c = (q[0] + q[1] * np.conj(q[0])) / (1.0 - abs(q[1]) ** 2)
    # the raw Gram: entries past the float range outside the certified triangle are masked
    return krylov_gram(ellipse_operator(c, q[1] * beta, beta, exact_size(0, 1, order)), order)


def column_scale(col: np.ndarray) -> float:
    """The power of two, at most 2^1000, that brings max |col| into [1/2, 1): the exact scale
    of every column norm and certificate fit, whose squares then cannot overflow to inf."""
    return 2.0 ** -max(math.frexp(float(np.abs(col).max()))[1], -1000)


def require_column(miss, col: np.ndarray, what: str) -> None:
    """MathDomainError unless ||miss|| <= COLUMN_RTOL ||col|| (NaN fails), both scaled by `column_scale(col)`."""
    scale = column_scale(col)
    miss_norm, col_norm = np.linalg.norm(miss * scale), np.linalg.norm(col * scale)
    if not miss_norm <= COLUMN_RTOL * col_norm:
        ratio = miss_norm / col_norm if col_norm else math.inf  # a zero column misses by any miss
        raise MathDomainError(f"{what} by {ratio:.3e} (relative, normwise; at most {COLUMN_RTOL:g})")


def _propagate(col: np.ndarray, q: np.ndarray, order: int) -> np.ndarray:
    """The recursion of `fill_from_first_column`, on the whole triangle."""
    d = q.shape[0] - 1
    vals = np.full((order, order), np.nan, dtype=complex)
    vals[:, 0] = col[:order]
    vals[0, :] = np.conj(col[:order])
    reach = np.zeros(order, dtype=int)
    reach[0] = order - 1
    need = order - 1 - d - np.arange(order)  # last triangle column of each row
    use_backward = abs(q[d]) > 1e-12 * max(1.0, float(np.abs(q).max()))

    def cross(m, n):  # sum_{j<n} b[m, j] b[0, n-1-j]
        return vals[m, :n] @ vals[0, n - 1 :: -1] if n else 0.0 + 0.0j

    while (reach < need).any():
        before = reach.copy()
        for m in range(order - 1):
            last = min(reach[m] - d, order - 1 - d)
            for n in range(reach[m + 1] + 1, last + 1):
                vals[m + 1, n] = q @ vals[m, n : n + d + 1] - cross(m, n)
            reach[m + 1] = max(reach[m + 1], last)
        # rows 0..top[j] know column j; -reach is sorted, so count by bisection
        top = np.searchsorted(-reach, -np.arange(order), side="right") - 1
        for j in range(order):
            vals[j, reach[j] + 1 : top[j] + 1] = np.conj(vals[reach[j] + 1 : top[j] + 1, j])
        reach = np.maximum(reach, top)
        if use_backward:
            for m in range(order - 1):
                while d - 1 <= reach[m] < order - 1 and reach[m] + 1 - d <= reach[m + 1]:
                    n = reach[m] + 1 - d
                    rhs = vals[m + 1, n] - q[:d] @ vals[m, n : n + d] + cross(m, n)
                    vals[m, n + d] = rhs / q[d]
                    reach[m] += 1
        if (reach == before).all():
            m = int(np.argmax(reach < need))
            cause = "" if use_backward else " (the leading coefficient vanishes)"
            raise MathDomainError(
                f"certificate of degree {d} stalls at order {order}: entry ({m}, {reach[m] + 1}) "
                f"of the certified triangle is not reached{cause}"
            )
    return vals


def band_profile(h) -> BandProfile:
    """Bandwidth of the `orthopoly.Hessenberg` h above the diagonal.

    ``recursion_length`` counts the terms in z P_n = sum h[j, n] P_j, i.e.
    upper bandwidth plus the diagonal and subdiagonal terms.  The Toeplitz
    deviation is the largest change along any diagonal of the certified
    block.  Entries count as nonzero above 1e-8 of the block's largest.
    """
    block = h.h[: h.certified, : h.certified]
    if block.size == 0:
        raise InputError("empty Hessenberg block")
    jj, kk = np.indices(block.shape)
    above = (np.abs(block) > 1e-8 * np.abs(block).max()) & (kk > jj)
    ubw = int((kk - jj)[above].max(initial=0))
    dev = float(np.abs(block[1:, 1:] - block[:-1, :-1]).max(initial=0.0))
    return BandProfile(ubw, ubw + 2, dev)
