"""Truncated double power series in u = 1/z and v = 1/conj(w).

A series is stored as a constant term plus an ``order x order`` tail whose
entry ``tail[j, k]`` multiplies u**(j+1) * v**(k+1).  Every operation
truncates at total degree ``order`` in each variable separately, and the
grading (each tail monomial carries at least one u and one v) makes the
exponential and logarithm finite triangular recursions rather than limits.
``mul``, ``exp_neg`` and ``log_neg`` build each tail row j from the rows
before it with one matrix product (order x j times j x order) followed by
sums along its antidiagonals: order**4 / 2 multiply-adds per call.
The module also holds the checks every entry point shares (coercion to a
square complex array, the Hermitian test, the one float-range rule) and the moment
identity of the exponential transform: with u = 1/z and v = 1/conj(w),

    exp(-sum a[j,k] u^(j+1) v^(k+1)) = 1 - sum b[j,k] u^(j+1) v^(k+1),

which `a_to_b` and `b_to_a` apply to the moment matrix a (`MomentMatrix`)
and the positive-definite matrix b (`ExpMoments`).  The first columns agree
exactly.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, PrecisionError


def in_float_range(compute, message: str, mask=None):
    """compute(), with numpy's overflow, divide and invalid warnings off: the one float-range rule.

    PrecisionError(message) when compute raises OverflowError or returns a number or
    array with a non-finite entry; given a boolean mask, only masked entries count and
    the message names the first.
    """
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = compute()
    except OverflowError:
        raise PrecisionError(message) from None
    finite = np.isfinite(out)
    if mask is not None:
        finite |= ~mask
    if not finite.all():
        where = "" if mask is None else f" at entry {tuple(map(int, np.argwhere(~finite)[0]))}"
        raise PrecisionError(message + where)
    return out


def square_matrix(x, attr: str = "") -> np.ndarray:
    """``x.<attr>`` when x carries that field, else x, as a square complex array:
    the one coercion of a matrix input."""
    m = np.asarray(getattr(x, attr, x), dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("expected a square matrix")
    return m


@functools.cache
def degree_grid(n: int) -> np.ndarray:
    """The n x n grid of total degrees j + k, built once per order and read-only
    (8 n^2 bytes: 18 KB at n = 48)."""
    grid = np.add.outer(np.arange(n), np.arange(n))
    grid.flags.writeable = False
    return grid


def hermitian_matrix(m, what: str) -> np.ndarray:
    """m as a square complex matrix (`square_matrix`), symmetrized once it is
    finite and Hermitian to 1e-9 of its largest entry, by the float-range rule;
    ``what`` names the matrix in the error."""
    m = square_matrix(m)
    finite = np.isfinite(m)
    if not finite.all():
        raise InputError(f"{what} has a non-finite entry at {tuple(map(int, np.argwhere(~finite)[0]))}")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.conj().T).max() > 1e-9 * scale:
        raise InputError(f"{what} is not Hermitian")
    return in_float_range(lambda: 0.5 * (m + m.conj().T), f"{what} leaves the float range when symmetrized")


@dataclass
class MomentMatrix:
    """Complex moments a[j, k] for j, k < N, the array's order; Hermitian."""

    a: np.ndarray

    def __post_init__(self):
        self.a = hermitian_matrix(self.a, "moment matrix")


@dataclass
class ExpMoments:
    """Exponential-transform moments b[j, k], checked Hermitian.

    Positive definiteness is checked where b is factored, in
    `orthopoly.orthonormalize`.
    """

    b: np.ndarray

    def __post_init__(self):
        self.b = hermitian_matrix(self.b, "b matrix")


@dataclass
class BiSeries:
    """c + sum_{j,k < order} tail[j,k] u^(j+1) v^(k+1); the square tail's size is the order."""

    const: complex
    tail: np.ndarray

    def __post_init__(self):
        self.tail = square_matrix(self.tail)
        if self.order < 1:
            raise InputError("series order must be >= 1")
        if not np.all(np.isfinite(self.tail.view(float))):
            raise InputError("series tail contains non-finite entries")

    @property
    def order(self) -> int:
        return self.tail.shape[0]

    @classmethod
    def from_tail(cls, tail) -> "BiSeries":
        return cls(0.0, np.array(tail, dtype=complex))


def _cross_kernel(n: int):
    """The row kernel of `mul`, `exp_neg` and `log_neg` at order n, its buffers
    built once per call of theirs.  row(xt, rev, j) returns, in one array that it
    overwrites each time, entry c = sum_{p<j} sum_{q+r=c-1} xt[q,p] y[j-1-p,r] over
    rows < j of x and y, where rev holds y's rows in reverse (rev[n-1-i] = y[i]):
    G = xt[:, :j] @ rev[n-j:] lands in columns 1..n of a zero-padded (n, 2n)
    buffer, summed along q + r by the view that reads row q shifted left by q.
    Callers run it under `in_float_range`: matmul may overflow inside a finite
    row's products, and a non-finite result is a PrecisionError."""
    buf, out = np.zeros((n, 2 * n), dtype=complex), np.empty(n, dtype=complex)
    antidiagonals = buf.ravel()[: n * (2 * n - 1)].reshape(n, 2 * n - 1)[:, :n]

    def row(xt: np.ndarray, rev: np.ndarray, j: int) -> np.ndarray:
        np.matmul(xt[:, :j], rev[n - j :], out=buf[:, 1 : n + 1])
        return antidiagonals.sum(axis=0, out=out)

    return row


def mul(f: BiSeries, g: BiSeries) -> BiSeries:
    """Product, truncated to the common order."""
    if f.order != g.order:
        raise InputError(f"order mismatch: {f.order} vs {g.order}")
    n = f.order
    rev, cross = np.ascontiguousarray(g.tail[::-1]), _cross_kernel(n)

    def rows():
        tail, ft = f.const * g.tail + g.const * f.tail, f.tail.T
        for j in range(1, n):
            tail[j] += cross(ft, rev, j)
        return tail

    tail = in_float_range(rows, f"the series product of order {n} leaves the float range")
    return BiSeries(f.const * g.const, tail)


def exp_neg(f: BiSeries) -> BiSeries:
    """exp(-f) for a series with zero constant term.

    Uses the derivative identity E_u = -f_u * E, which determines each tail
    row of E from earlier rows in one triangular pass.  The v^1 column of
    the result is exactly -f's v^1 column (the cross terms are empty there).
    Each row is written in place, with no temporary array.
    """
    if f.const != 0.0:
        raise InputError("exp_neg expects a series with zero constant term")
    n = f.order
    a = f.tail
    rev, cross = np.zeros((n, n), dtype=complex), _cross_kernel(n)  # rev[n-1-j] = row j of E

    def rows():
        wt, neg = (np.arange(1, n + 1)[:, None] * a).T, -a  # rows of f_u: (p + 1) * a[p]
        for j in range(n):
            s = cross(wt, rev, j)
            np.subtract(neg[j], np.divide(s, j + 1, out=s), out=rev[n - 1 - j])
        return rev[::-1].copy()

    return BiSeries(1.0, in_float_range(rows, f"the series exp(-f) of order {n} leaves the float range"))


def log_neg(f: BiSeries) -> BiSeries:
    """-log(f) for a series with constant term 1.  Inverse of exp_neg."""
    if f.const != 1.0:
        raise InputError("log_neg expects a series with constant term 1")
    n = f.order
    e = f.tail
    rev, cross = np.ascontiguousarray(e[::-1]), _cross_kernel(n)
    a = np.zeros((n, n), dtype=complex)
    w = np.zeros((n, n), dtype=complex)  # rows of a_u: (p + 1) * a[p]

    def rows():
        wt, neg = w.T, -e
        for j in range(n):
            # exp_neg's identity and cross sum, bit for bit, solved for the new row of a
            s = cross(wt, rev, j)
            np.subtract(neg[j], np.divide(s, j + 1, out=s), out=a[j])
            np.multiply(a[j], j + 1, out=w[j])
        return a

    return BiSeries(0.0, in_float_range(rows, f"the series -log(f) of order {n} leaves the float range"))


def a_to_b(a) -> ExpMoments:
    """Moments to exponential-transform moments via exp(-A) = 1 - B."""
    am = square_matrix(a, "a")
    series = exp_neg(BiSeries.from_tail(am))
    return ExpMoments(-series.tail)


def b_to_a(b) -> MomentMatrix:
    """Inverse of a_to_b via -log(1 - B)."""
    bm = square_matrix(b, "b")
    series = log_neg(BiSeries(1.0, -bm))
    return MomentMatrix(series.tail)
