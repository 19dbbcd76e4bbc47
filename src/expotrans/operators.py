"""Finite banded models of hyponormal operators with rank-one self-commutator.

Each model is a truncated banded matrix T together with the distinguished
vector xi, normalized so that [T*, T] = xi (x) xi away from the truncation
boundary.  The Krylov Gram matrix b[j, k] = <T*^k xi, T*^j xi> feeds the
rest of the pipeline; the exactness rule for the truncation size keeps the
computed Gram entries identical to the infinite model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, MathDomainError
from .exptransform import ExpMoments


@dataclass
class BandedOperator:
    """Matrix sum of diagonals; offsets follow numpy (negative below main)."""

    size: int
    diagonals: dict
    xi_index: int
    xi_norm: float

    def __post_init__(self):
        for off, vals in self.diagonals.items():
            vals = np.asarray(vals, dtype=complex)
            if vals.shape != (self.size - abs(off),):
                raise InputError(f"diagonal {off} has wrong length")
            self.diagonals[off] = vals
        if not 0 <= self.xi_index < self.size:
            raise InputError("xi_index outside the matrix")

    @property
    def max_offset(self) -> int:
        return max(abs(o) for o in self.diagonals)

    def matrix(self) -> np.ndarray:
        t = np.zeros((self.size, self.size), dtype=complex)
        for off, vals in self.diagonals.items():
            t += np.diag(vals, off)
        return t

    def xi(self) -> np.ndarray:
        v = np.zeros(self.size, dtype=complex)
        v[self.xi_index] = self.xi_norm
        return v


def toeplitz_ellipse(u: complex, size: int) -> BandedOperator:
    """T = u S + S*, the model of an ellipse; needs |u| > 1."""
    if not abs(u) > 1:
        raise MathDomainError("ellipse model needs |u| > 1")
    ones = np.ones(size - 1, dtype=complex)
    return BandedOperator(
        size,
        {-1: u * ones, +1: ones},
        xi_index=0,
        xi_norm=math.sqrt(abs(u) ** 2 - 1.0),
    )


def toeplitz_power(alpha: complex, beta: complex, d: int, size: int) -> BandedOperator:
    """V = alpha S^(d+1) + beta S*^d with |alpha| = |beta|, xi = |alpha| e_d.

    The self-commutator is |alpha|^2 e_d (x) e_d, yet for d > 1 the
    Hessenberg matrix of the model is not finitely banded; the pair
    (trifoil, powers d > 1) brackets where finite term relations live.
    """
    if d < 1:
        raise InputError("need d >= 1")
    if abs(alpha) == 0 or abs(abs(alpha) - abs(beta)) > 1e-12 * abs(alpha):
        raise MathDomainError("power model needs |alpha| = |beta| != 0")
    if size <= d + 1:
        raise InputError("size too small for the band offsets")
    return BandedOperator(
        size,
        {
            -(d + 1): alpha * np.ones(size - d - 1, dtype=complex),
            d: beta * np.ones(size - d, dtype=complex),
        },
        xi_index=d,
        xi_norm=abs(alpha),
    )


def trifoil_operator(size: int) -> BandedOperator:
    """T = S^2 + S*, the model whose spectrum is bounded by the trifoil."""
    return toeplitz_power(1.0, 1.0, 1, size)


def trifoil_curve(theta) -> np.ndarray:
    """Polar radius r(theta) = 2 max(cos(3 theta), 0) of the trifoil boundary.

    The boundary is the symbol curve e^(2it) + e^(-it) = 2 cos(3t/2) e^(it/2):
    at polar angle theta = t/2 (mod pi) its radius is 2 cos(3 theta), and the
    three sectors where cos(3 theta) < 0 meet the curve only at the origin.
    """
    theta = np.asarray(theta, dtype=float)
    return 2.0 * np.maximum(np.cos(3.0 * theta), 0.0)


# ---------------------------------------------------------------------------
# two-diagonal family


@dataclass
class RecursionState:
    """Squared entries A_n = a_n^2 (n >= 1) and B_n = b_n^2 (n >= 0).

    Stored 1-based for A (A[0] is a placeholder) to match the subscripts
    of the generating identities.
    """

    A: np.ndarray
    B: np.ndarray
    C: float

    def sum_b_residual(self) -> float:
        # B_n + B_{n-1} = A_{n+1} + 1 for n >= 1
        n = np.arange(1, len(self.B))
        return float(np.abs(self.B[n] + self.B[n - 1] - self.A[n + 1] - 1.0).max())

    def quotient_residual(self) -> float:
        # B_{n-1} A_{n+2} = A_n B_n for n >= 1
        hi = min(len(self.A) - 2, len(self.B) - 1)
        n = np.arange(1, hi)
        return float(np.abs(self.B[n - 1] * self.A[n + 2] - self.A[n] * self.B[n]).max())

    def telescope_residual(self) -> float:
        # A_{n+3} + A_{n+1} = C (1 + 1/A_{n+2}) for n >= 0
        a = self.A
        n = np.arange(0, len(a) - 3)
        lhs = a[n + 3] + a[n + 1]
        rhs = self.C * (1.0 + 1.0 / a[n + 2])
        return float(np.abs(lhs - rhs).max())


def two_diagonal_state(a1: float, b1: float, count: int) -> RecursionState:
    """Generate A_1..A_count and B_0..B_(count-2) from the starting pair.

    With T e_n = a_n e_{n-1} + b_n e_{n+2}, xi = e_0, A_n = a_n^2 and
    B_n = b_n^2, the equation [T*, T] = xi (x) xi constrains two kinds of
    entry, and nothing else:

    * the diagonal: A_n + B_n - A_{n+1} - B_{n-2} = delta_{n0}
      (A_0 = B_{-1} = B_{-2} = 0);
    * the (n+3, n) entry: A_{n+3} B_n = A_{n+1} B_{n+1}.

    They fix every term from (A_1, B_1).  Generation uses the diagonal
    identity summed over n, B_n = A_{n+1} + 1 - B_{n-1}, together with the
    quotient rule A_{n+2} = A_n B_n / B_{n-1}, carried out in exact rational
    arithmetic: the recursion is only neutrally stable, and in floating
    point an orbit can drift out of the positive cone it actually stays in.
    Working over the rationals makes a nonpositive term a fact about the
    recursion itself, which is reported by raising: then no operator of
    this form has the start.  From (1/2, 1/2) the terms are B_0 = 3/2,
    A_2 = 1, A_3 = 1/6, B_2 = 2/3, A_4 = 4/3, B_3 = 5/3, A_5 = 5/12 and
    B_4 = -1/4, so that start raises naming B_4.  Among the starts in
    {1/2, 1, 2}^2, only those with B_1 = 1 were seen to stay positive over
    10,000 terms, with A_{3k+1} = A_1 and B_{3k+1} = 1 throughout; that
    pattern is observed, not proved.
    """
    if not (a1 > 0 and b1 > 0):
        raise MathDomainError("starting values must be positive")
    if count < 4:
        raise InputError("need count >= 4")
    a = [Fraction(0)] * (count + 1)
    b = [Fraction(0)] * (count - 1)
    a[1] = Fraction(a1)
    b[1] = Fraction(b1)
    b[0] = a[1] + 1
    a[2] = a[1] + b[1]
    a[3] = a[1] * b[1] / b[0]
    for n in range(2, count - 1):
        b[n] = a[n + 1] + 1 - b[n - 1]
        if b[n] <= 0:
            raise MathDomainError(f"B_{n} became nonpositive")
        a[n + 2] = a[n] * b[n] / b[n - 1]
        if a[n + 2] <= 0:
            raise MathDomainError(f"A_{n + 2} became nonpositive")
    c = (a[3] + a[1]) / (1 + 1 / a[2])
    af = np.array([float(x) for x in a])
    af[0] = math.nan
    return RecursionState(af, np.array([float(x) for x in b]), float(c))


def two_diagonal(a1: float, b1: float, size: int) -> BandedOperator:
    """Assemble T with a_1, a_2, ... on offset +1 and b_0, b_1, ... on offset -2."""
    if size < 4:
        raise InputError("need size >= 4")
    state = two_diagonal_state(a1, b1, size + 1)
    sup = np.sqrt(state.A[1:size])  # a_1 .. a_{size-1}
    sub = np.sqrt(state.B[: size - 2])  # b_0 .. b_{size-3}
    return BandedOperator(size, {+1: sup, -2: sub}, xi_index=0, xi_norm=1.0)


# ---------------------------------------------------------------------------
# shared diagnostics


def commutator_defect(op: BandedOperator) -> float:
    """Max |([T*, T] - xi (x) xi)[i, j]| over the interior index block.

    The interior excludes the last 2 * max_offset rows and columns, where
    truncation corrupts the commutator.
    """
    t = op.matrix()
    comm = t.conj().T @ t - t @ t.conj().T
    xi = op.xi()
    comm -= np.outer(xi, xi.conj())
    interior = op.size - 2 * op.max_offset
    if interior <= 0:
        raise InputError("operator too small for an interior block")
    return float(np.abs(comm[:interior, :interior]).max())


def b_from_operator(op: BandedOperator, order: int) -> ExpMoments:
    """Krylov Gram matrix b[j, k] = <T*^k xi, T*^j xi>.

    Requires size >= xi_index + order * max_offset + 2 so the truncation
    never touches the vectors entering the Gram matrix; the result then
    agrees with the infinite model exactly.
    """
    if order < 1:
        raise InputError("operator Gram order must be >= 1")
    needed = op.xi_index + order * op.max_offset + 2
    if op.size < needed:
        raise InputError(
            f"operator size {op.size} below exactness threshold {needed} for order {order}"
        )
    tstar = op.matrix().conj().T
    vecs = np.zeros((order, op.size), dtype=complex)
    vecs[0] = op.xi()
    for k in range(1, order):
        vecs[k] = tstar @ vecs[k - 1]
    b = vecs.conj() @ vecs.T  # b[j, k] = <v_k, v_j>
    return ExpMoments(order, b)
