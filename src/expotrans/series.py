"""Truncated double power series in u = 1/z and v = 1/conj(w).

A series is stored as a constant term plus an ``order x order`` tail whose
entry ``tail[j, k]`` multiplies u**(j+1) * v**(k+1).  Every operation
truncates at total degree ``order`` in each variable separately, and the
grading (each tail monomial carries at least one u and one v) makes the
exponential and logarithm finite triangular recursions rather than limits.
``mul``, ``exp_neg`` and ``log_neg`` build each tail row j from the rows
before it with one matrix product (order x j times j x order) followed by
sums along its antidiagonals: order**4 / 2 multiply-adds per call.
The module also holds the two input checks every matrix entry point shares:
coercion to a square complex array and the Hermitian test.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


def square_matrix(x, attr: str) -> np.ndarray:
    """``x.<attr>`` when x carries that field, else x, as a square complex array."""
    m = np.asarray(getattr(x, attr, x), dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("expected a square matrix")
    return m


def hermitian_matrix(m, order: int, what: str) -> np.ndarray:
    """m as an order x order complex matrix, symmetrized once it is Hermitian
    to 1e-9 of its largest entry; ``what`` names the matrix in the errors."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (order, order):
        raise InputError(f"{what} shape does not match order")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.conj().T).max() > 1e-9 * scale:
        raise InputError(f"{what} is not Hermitian")
    return 0.5 * (m + m.conj().T)


@dataclass
class BiSeries:
    """c + sum_{j,k < order} tail[j,k] u^(j+1) v^(k+1)."""

    order: int
    const: complex
    tail: np.ndarray

    def __post_init__(self):
        self.tail = np.asarray(self.tail, dtype=complex)
        if self.order < 1:
            raise InputError("series order must be >= 1")
        if self.tail.shape != (self.order, self.order):
            raise InputError(
                f"tail shape {self.tail.shape} does not match order {self.order}"
            )
        if not np.all(np.isfinite(self.tail.view(float))):
            raise InputError("series tail contains non-finite entries")

    @classmethod
    def zero(cls, order: int) -> "BiSeries":
        return cls(order, 0.0, np.zeros((order, order), dtype=complex))

    @classmethod
    def one(cls, order: int) -> "BiSeries":
        return cls(order, 1.0, np.zeros((order, order), dtype=complex))

    @classmethod
    def from_tail(cls, tail) -> "BiSeries":
        tail = np.asarray(tail, dtype=complex)
        return cls(tail.shape[0], 0.0, tail.copy())


def _cross_row(xt: np.ndarray, y: np.ndarray, j: int) -> np.ndarray:
    # Entry c is sum_{p<j} sum_{q+r=c-1} xt[q,p] y[j-1-p,r], reading rows < j of
    # x and y: G = xt[:, :j] @ y[j-1::-1] summed along q + r, row q of a padded
    # (n, 2n) buffer shifted left by q when read back with row length 2n - 1.
    n = xt.shape[0]
    buf = np.zeros((n, 2 * n), dtype=complex)
    buf[:, 1 : n + 1] = xt[:, :j] @ y[:j][::-1]
    return buf.ravel()[: n * (2 * n - 1)].reshape(n, 2 * n - 1)[:, :n].sum(axis=0)


def mul(f: BiSeries, g: BiSeries) -> BiSeries:
    """Product, truncated to the common order."""
    if f.order != g.order:
        raise InputError(f"order mismatch: {f.order} vs {g.order}")
    n = f.order
    tail = f.const * g.tail + g.const * f.tail
    for j in range(1, n):
        tail[j] += _cross_row(f.tail.T, g.tail, j)
    return BiSeries(n, f.const * g.const, tail)


def exp_neg(f: BiSeries) -> BiSeries:
    """exp(-f) for a series with zero constant term.

    Uses the derivative identity E_u = -f_u * E, which determines each tail
    row of E from earlier rows in one triangular pass.  The v^1 column of
    the result is exactly -f's v^1 column (the cross terms are empty there).
    """
    if f.const != 0.0:
        raise InputError("exp_neg expects a series with zero constant term")
    n = f.order
    a = f.tail
    w = np.arange(1, n + 1)[:, None] * a  # rows of f_u: (p + 1) * a[p]
    e = np.zeros((n, n), dtype=complex)
    for j in range(n):
        e[j] = -a[j] - _cross_row(w.T, e, j) / (j + 1)
    return BiSeries(n, 1.0, e)


def log_neg(f: BiSeries) -> BiSeries:
    """-log(f) for a series with constant term 1.  Inverse of exp_neg."""
    if f.const != 1.0:
        raise InputError("log_neg expects a series with constant term 1")
    n = f.order
    e = f.tail
    a = np.zeros((n, n), dtype=complex)
    w = np.zeros((n, n), dtype=complex)  # rows of a_u: (p + 1) * a[p]
    for j in range(n):
        # exp_neg's identity and cross sum, bit for bit, solved for the new row of a
        a[j] = -e[j] - _cross_row(w.T, e, j) / (j + 1)
        w[j] = (j + 1) * a[j]
    return BiSeries(n, 0.0, a)


def v1_column(f: BiSeries) -> np.ndarray:
    """Coefficients of v^1: entry m multiplies u^(m+1) v."""
    return f.tail[:, 0].copy()
