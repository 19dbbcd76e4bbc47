"""Orthonormal polynomials of the b inner product and their Hessenberg matrix.

The inner product on polynomials is <z^m, z^n> = b[n, m].  Orthonormalizing
the monomials with a pivoted Cholesky factorization yields polynomials P_k
with positive leading coefficients gamma_k; a vanishing pivot stops the
process, which is the degree-D signature of a quadrature domain (the span
of the monomials degenerates there).  Multiplication by z compresses to a
lower Hessenberg matrix h[j, k] = <z P_k, P_j> whose structure encodes the
finite term relations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, MathDomainError
from .series import square_matrix

PIVOT_TOL = 1e-10


@dataclass
class PolyBasis:
    """Rows of ``coeffs`` hold monomial coefficients of P_0 .. P_{D-1}."""

    degree: int
    coeffs: np.ndarray
    stopped: bool

    @property
    def gamma(self) -> np.ndarray:
        """Leading coefficients; positive by construction."""
        return np.real(np.diag(self.coeffs))


@dataclass
class Hessenberg:
    h: np.ndarray
    certified: int


@dataclass
class CompletenessReport:
    lhs: float
    rhs: float
    gap: float
    tail: float
    bound: float
    verdict: str


def _indefinite(value: float, bm: np.ndarray) -> bool:
    """Whether a stalled pivot lies below -1e-9 ||b||_2.

    max |b_jj| <= ||b||_2, so the SVD for ||b||_2 runs only for a value below
    -1e-9 max(1e-30, max |b_jj|), never for one >= 0, even with a NaN b_jj; that end
    is widened by 1e-8 relative, so that it never decides otherwise than the SVD would.
    """
    if value >= -1e-9 * max(1e-30, float(np.abs(np.diagonal(bm)).max()) * (1 - 1e-8)):
        return False
    return value < -1e-9 * max(float(np.linalg.norm(bm, 2)), 1e-30)


def orthonormalize(b) -> PolyBasis:
    """Gram-Schmidt on monomials under the b inner product, with pivot stop.

    Stops at the first relative pivot below PIVOT_TOL and returns the
    polynomials found so far; raises if the matrix is indefinite beyond
    tolerance.  b00 <= 0 takes that same path: the first pivot is b00, and
    b00 <= PIVOT_TOL * b00 holds exactly then (a stopped degree-0 basis).
    """
    bm = square_matrix(b, "b")
    n = bm.shape[0]
    gram = bm.conj()  # gram[m, n] = <z^m, z^n> = b[n, m]
    b00 = gram[0, 0].real
    chol = np.zeros((n, n), dtype=complex)
    degree = n
    stopped = False
    for k in range(n):
        pivot = gram[k, k].real - float(np.sum(np.abs(chol[k, :k]) ** 2))
        if pivot <= PIVOT_TOL * b00:
            if _indefinite(pivot, bm):
                raise MathDomainError("b matrix is indefinite beyond tolerance")
            degree = k
            stopped = True
            break
        chol[k, k] = math.sqrt(pivot)
        rest = gram[k + 1 :, k] - chol[k + 1 :, :k] @ chol[k, :k].conj()
        chol[k + 1 :, k] = rest / chol[k, k]
    c = chol[:degree, :degree]
    coeffs = np.linalg.solve(c, np.eye(degree, dtype=complex)) if degree else np.zeros((0, 0), complex)
    return PolyBasis(degree, coeffs, stopped)


def hessenberg(b, basis: PolyBasis) -> Hessenberg:
    """h[j, k] = <z P_k, P_j>.

    Needs the shifted columns b[:, m+1]; when the basis runs to the full
    order the last column of h is truncation affected, so the certified
    block is one smaller.  Entries below the first subdiagonal are exact
    structural zeros (never computed).  A degree-0 basis runs no column and
    gives the empty block, certified 0.
    """
    bm = square_matrix(b, "b")
    n = bm.shape[0]
    d = basis.degree
    lmat = basis.coeffs
    certified = d if d < n else n - 1
    shifted = np.zeros((d, d), dtype=complex)  # shifted[m, nn] = b[nn, m+1]
    shifted[: n - 1] = bm[:d, 1 : d + 1].T
    h = np.zeros((d, d), dtype=complex)
    for k in range(d):
        y = lmat[k, : k + 1] @ shifted[: k + 1]  # y[nn] = sum_m L[k,m] b[nn, m+1]
        top = min(k + 2, d)
        h[:top, k] = lmat[:top].conj() @ y
    return Hessenberg(h, certified)


def completeness_gap(h: Hessenberg, b00: float) -> CompletenessReport:
    """Test the trace identity sum_k |h_0k|^2 - |h_10|^2 = b00.

    Equality characterizes completeness of the polynomial model; the left
    side can only fall short, so a positive gap beyond the truncation bound
    reads as incomplete.  A verdict is issued only when the last included
    term is negligible against the accumulated sum.

    The annulus r < |z| < R is the worked incomplete case.  Its b is
    diag((R^2 - r^2) r^(2k)), so P_k = z^k / sqrt(b_kk), h has subdiagonal r
    and row 0 vanishes beyond h_00: lhs = -r^2 and gap = b00 - lhs = R^2,
    the squared norm of the part of T e_0 outside the closure of the
    polynomials.
    """
    k = h.certified
    if k < 1:
        return CompletenessReport(math.nan, b00, math.nan, math.nan, math.nan, "inconclusive")
    terms = np.abs(h.h[0, 1:k]) ** 2
    h10sq = float(abs(h.h[1, 0]) ** 2) if h.h.shape[0] > 1 else 0.0
    lhs = float(terms.sum()) - h10sq
    gap = b00 - lhs
    tail = float(terms[-1]) if terms.size else 0.0
    bound = 10.0 * tail + 1e-9 * max(1.0, abs(b00), abs(lhs))
    settled = tail <= 1e-3 * max(abs(lhs), abs(b00))
    if not settled:
        verdict = "inconclusive"
    elif gap > bound:
        verdict = "incomplete"
    elif abs(gap) <= bound:
        verdict = "consistent-with-complete"
    else:
        verdict = "inconclusive"
    return CompletenessReport(lhs, float(b00), gap, tail, bound, verdict)


def poly_zeros(h: Hessenberg, n: int) -> np.ndarray:
    """Zeros of P_n: the eigenvalues of the leading n x n block of h.

    z P_k = sum_(j <= k+1) h[j, k] P_j, so that block is multiplication by
    z compressed to the span of P_0 .. P_(n-1), and its characteristic
    polynomial is P_n / gamma_n.  n runs to the certified block.
    """
    if not 0 <= n <= h.certified:
        raise InputError(f"polynomial index {n} outside certified block {h.certified}")
    return np.linalg.eigvals(h.h[:n, :n])
