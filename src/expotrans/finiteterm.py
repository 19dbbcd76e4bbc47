"""Band certificates: finite term relations in the b moment matrix.

A certificate of order d is a vector q with

    b[m+1, 0] = sum_{k=0}^{d} q[k] b[m, k]   for every row m,

the moment shadow of the operator identity T xi = Q(T*) xi with Q of
degree d.  Certificates are fitted by least squares, detected by scanning
d upward, cross-checked against the Cauchy-transform route, and used to
propagate a full moment matrix out of its first column.
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
    rank: int = -1
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

    def masked_values(self, fill: complex = 0.0) -> np.ndarray:
        out = np.where(self.certified, self.values, fill)
        return out.astype(complex)


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
    q, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    res = target - design @ q
    rms = float(np.sqrt(np.mean(np.abs(res) ** 2)))
    return BandCertificate(d, q, rms, m, int(rank), res)


def detect_order(b, dmax: int, tol: float = 1e-8) -> BandCertificate | None:
    """Smallest d whose certificate residual beats tol * ||b[:, 0]||.

    Residuals are non-increasing in d (nested design matrices), so the scan
    stops at the first hit; None when nothing fits up to dmax.
    """
    bm = square_matrix(b, "b")
    cutoff = tol * float(np.linalg.norm(bm[:, 0]))
    for d in range(dmax + 1):
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

    Row 0 comes from Hermitian symmetry of the given column.  The relation
    is applied forward, mirrored across the diagonal, and (when the leading
    coefficient allows) solved backward for the highest column, until the
    certified triangle m + n + d < order is filled.  Entries outside it are
    absent (NaN with a False mask), never zero-filled.
    """
    col = np.asarray(col, dtype=complex).ravel()
    q = np.asarray(q, dtype=complex).ravel()
    d = q.shape[0] - 1
    if d < 0:
        raise InputError("certificate must have at least one coefficient")
    if col.shape[0] < order:
        raise InputError("column shorter than requested order")
    n_ord = order
    vals = np.full((n_ord, n_ord), np.nan, dtype=complex)
    known = np.zeros((n_ord, n_ord), dtype=bool)
    vals[:, 0] = col[:n_ord]
    known[:, 0] = True
    vals[0, :] = np.conj(col[:n_ord])
    known[0, :] = True

    qd = q[d]
    use_backward = abs(qd) > 1e-12 * max(1.0, float(np.abs(q).max()))

    def cross(m, n):
        # sum_{j<n} b[m, j] b[0, n-1-j]
        if n == 0:
            return 0.0 + 0.0j
        return vals[m, :n] @ vals[0, n - 1 :: -1]

    changed = True
    while changed:
        changed = False
        for m in range(n_ord - 1):
            for n in range(1, n_ord):
                if known[m + 1, n] or n + d >= n_ord:
                    continue
                if known[m, : n + d + 1].all():
                    vals[m + 1, n] = q @ vals[m, n : n + d + 1] - cross(m, n)
                    known[m + 1, n] = True
                    changed = True
        mirror = known.T & ~known
        if mirror.any():
            vals[mirror] = np.conj(vals.T[mirror])
            known |= mirror
            changed = True
        if use_backward:
            for m in range(n_ord - 1):
                for n in range(n_ord - d):
                    if known[m, n + d] or not known[m + 1, n]:
                        continue
                    if known[m, : n + d].all():
                        rhs = vals[m + 1, n] - q[:d] @ vals[m, n : n + d] + cross(m, n)
                        vals[m, n + d] = rhs / qd
                        known[m, n + d] = True
                        changed = True

    jj, kk = np.indices((n_ord, n_ord))
    triangle = jj + kk + d < n_ord
    triangle[:, 0] = True
    triangle[0, :] = True
    missing = triangle & ~known
    if missing.any():
        raise MathDomainError(
            "certificate cannot propagate to the full certified triangle "
            "(vanishing leading coefficient?)"
        )
    certified = triangle
    out = np.where(certified, vals, np.nan + 0j)
    return FilledMoments(n_ord, out, certified)


def band_profile(h, tol: float = 1e-8) -> BandProfile:
    """Bandwidth of the Hessenberg matrix above the diagonal.

    ``recursion_length`` counts the terms in z P_n = sum h[j, n] P_j, i.e.
    upper bandwidth plus the diagonal and subdiagonal terms.  The Toeplitz
    deviation is the largest change along any diagonal of the certified
    block.
    """
    mat = h.h if hasattr(h, "h") else np.asarray(h, dtype=complex)
    cert = h.certified if hasattr(h, "certified") else mat.shape[0]
    block = mat[:cert, :cert]
    if block.size == 0:
        raise InputError("empty Hessenberg block")
    scale = float(np.abs(block).max())
    ubw = 0
    if scale > 0:
        jj, kk = np.indices(block.shape)
        sig = np.abs(block) > tol * scale
        above = sig & (kk > jj)
        if above.any():
            ubw = int((kk - jj)[above].max())
    dev = 0.0
    if block.shape[0] > 1:
        dev = float(np.abs(block[1:, 1:] - block[:-1, :-1]).max())
    return BandProfile(ubw, ubw + 2, dev)
