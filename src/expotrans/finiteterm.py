"""Band certificates: finite term relations in the b moment matrix.

A certificate of order d is a vector q with

    b[m+1, 0] = sum_{k=0}^{d} q[k] b[m, k]   for every row m,

the moment shadow of the operator identity T xi = Q(T*) xi with Q of
degree d.  Certificates are fitted by least squares, detected by scanning
d upward, cross-checked against the Cauchy-transform route, and used to
propagate a full moment matrix out of its first column by per-row reach
(which for d >= 3 stalls short of the triangle at orders d + 5 .. d*d - 1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, MathDomainError
from .series import BiSeries, exp_neg, square_matrix


@dataclass
class BandCertificate:
    d: int
    q: np.ndarray
    residual: float
    rows_used: int
    row_residuals: np.ndarray | None = None

    @property
    def underdetermined(self) -> bool:
        return self.rows_used < self.d + 1


@dataclass
class FilledMoments:
    """Moment matrix known only on the certified index set."""

    order: int
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


def fit_certificate(b, d: int, rows: int | None = None) -> BandCertificate:
    """Least-squares certificate of order d over the leading rows.

    ``rows`` defaults to every usable row (order - 1).  Fewer rows than
    d + 1 leaves the system underdetermined; that is permitted but flagged,
    and a rank-deficient design matrix yields the minimal-norm solution.
    """
    bm = square_matrix(b, "b")
    n = bm.shape[0]
    if d < 0 or d >= n:
        raise InputError("need 0 <= d < order")
    m = n - 1 if rows is None else rows
    if not 1 <= m <= n - 1:
        raise InputError("rows must lie in 1..order-1")
    design = bm[:m, : d + 1]
    target = bm[1 : m + 1, 0]
    q = np.linalg.lstsq(design, target, rcond=None)[0]
    res = target - design @ q
    rms = float(np.sqrt(np.mean(np.abs(res) ** 2)))
    return BandCertificate(d, q, rms, m, res)


def detect_order(b, dmax: int, tol: float = 1e-8) -> BandCertificate | None:
    """Smallest d whose certificate residual beats tol * ||b[:, 0]||.

    Residuals are non-increasing in d (nested design matrices), so the scan
    stops at the first hit; None when nothing fits up to min(dmax, order - 3).
    Every fit keeps a spare row (order - 1 rows for at most order - 2
    unknowns): an exactly determined fit would match any b to rounding.
    """
    bm = square_matrix(b, "b")
    cutoff = tol * float(np.linalg.norm(bm[:, 0]))
    for d in range(min(dmax, bm.shape[0] - 3) + 1):
        cert = fit_certificate(bm, d)
        if cert.residual <= cutoff:
            return cert
    return None


def certificate_from_cauchy(cols, q, order: int) -> np.ndarray:
    """Certificate residuals computed through the Cauchy-transform route.

    ``cols`` holds the moment columns F_0..F_d (entry [j, k] multiplies
    u^(j+1) in F_k).  The truncated kernel sum_k F_k(u) v^(k+1) is pushed
    through the exponential; the residual vector read off the result equals
    the least-squares row residuals of the direct fit.
    """
    cols = np.asarray(cols, dtype=complex)
    if cols.ndim != 2:
        raise InputError("cols must be a 2-D array (order, d+1)")
    q = np.asarray(q, dtype=complex)
    d = q.shape[0] - 1
    if cols.shape[1] < d + 1:
        raise InputError("not enough columns for the certificate degree")
    if cols.shape[0] < order:
        raise InputError("columns shorter than requested order")
    tail = np.zeros((order, order), dtype=complex)
    tail[:, : d + 1] = cols[:order, : d + 1]
    bhat = -exp_neg(BiSeries.from_tail(tail)).tail
    res = bhat[1:, 0] - bhat[:-1, : d + 1] @ q
    return res


def fill_from_first_column(col, q, order: int) -> FilledMoments:
    """Propagate b out of its first column with the certificate relation

        b[m+1, n] = sum_k q[k] b[m, k+n] - sum_{j<n} b[m, j] b[0, n-1-j].

    Row 0 is the conjugate column.  Row m is known on columns 0..reach[m], and
    reach never increases with m.  Each round applies the relation forward,
    mirrors across the diagonal and, when the leading coefficient allows,
    solves it backward for the next column, until the certified triangle
    m + n + d < order is filled.  Off an operator's b the relation and
    symmetry disagree, so the rule that computes an entry fixes it.  Entries
    outside the triangle are NaN with a False mask.  Even with q[d] != 0 the
    rules stall for d >= 3 at orders d + 5 .. d*d - 1 (MathDomainError).
    A degree-0 certificate, which a disk's b fits, runs the same rules, so
    a disk of radius R centred at 0 fills b[1, 1] = -R^4 where its b is 0:
    T xi = q0 xi is incompatible with [T*, T] = xi (x) xi.
    """
    col = np.asarray(col, dtype=complex).ravel()
    q = np.asarray(q, dtype=complex).ravel()
    d = q.shape[0] - 1
    if d < 0:
        raise InputError("certificate must have at least one coefficient")
    if not 1 <= order <= col.shape[0]:
        raise InputError(f"fill order {order} outside 1..{col.shape[0]} (the column length)")
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

    jj, kk = np.indices((order, order))
    certified = (jj + kk + d < order) | (jj == 0) | (kk == 0)
    return FilledMoments(order, np.where(certified, vals, np.nan + 0j), certified)


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
    scale = float(np.abs(block).max())
    ubw = 0
    if scale > 0:
        jj, kk = np.indices(block.shape)
        sig = np.abs(block) > 1e-8 * scale
        above = sig & (kk > jj)
        if above.any():
            ubw = int((kk - jj)[above].max())
    dev = 0.0
    if block.shape[0] > 1:
        dev = float(np.abs(block[1:, 1:] - block[:-1, :-1]).max())
    return BandProfile(ubw, ubw + 2, dev)
