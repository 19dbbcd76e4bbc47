"""The exponential transform and its moment identity.

With u = 1/z and v = 1/conj(w), the transform of a shade function obeys

    exp(-sum a[j,k] u^(j+1) v^(k+1)) = 1 - sum b[j,k] u^(j+1) v^(k+1),

which converts the moment matrix a into the positive-definite matrix b and
back.  The first columns agree exactly.  The module also evaluates the
transform E(z, w) at points outside the support by direct quadrature, finds
boundary crossings along rays, and carries the closed forms for the
rotationally invariant profiles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import shapes
from .errors import InputError, MathDomainError, PrecisionError
from .series import BiSeries, exp_neg, hermitian_matrix, log_neg, square_matrix

PSD_TOL = 1e-9


@dataclass
class ExpMoments:
    """Exponential-transform moments b[j, k]; Hermitian and PSD within PSD_TOL."""

    order: int
    b: np.ndarray

    def __post_init__(self):
        self.b = hermitian_matrix(self.b, self.order, "b matrix")

    def min_eig(self) -> float:
        return float(np.linalg.eigvalsh(self.b).min())

    def check_psd(self):
        norm = float(np.linalg.norm(self.b, 2))
        if self.min_eig() < -PSD_TOL * max(norm, 1e-30):
            raise MathDomainError("b matrix is indefinite beyond tolerance")


def a_to_b(a) -> ExpMoments:
    """Moments to exponential-transform moments via exp(-A) = 1 - B."""
    am = square_matrix(a, "a")
    series = exp_neg(BiSeries.from_tail(am))
    return ExpMoments(am.shape[0], -series.tail)


def b_to_a(b) -> shapes.MomentMatrix:
    """Inverse of a_to_b via -log(1 - B)."""
    bm = square_matrix(b, "b")
    series = log_neg(BiSeries(bm.shape[0], 1.0, -bm))
    return shapes.MomentMatrix(bm.shape[0], series.tail)


def eval_E(shape: shapes.Shape, z: complex, w: complex) -> complex:
    """E(z, w) for points z, w strictly outside the support."""
    return complex(np.exp(-shapes.cauchy_kernel_log(shape, z, w)))


def boundary_root(
    shape: shapes.Shape,
    direction: complex,
    bracket: tuple[float, float],
    tol: float = 1e-5,
) -> float:
    """Radius t* along ``direction`` where E(t d, t d) vanishes.

    E(z, z) is positive outside the support and vanishes linearly at the
    boundary, so the root is located by bisecting on evaluability (the
    evaluator rejects points inside or too close), then extrapolating the
    last safe samples across the standoff gap with a quadratic model.

    The bracket must straddle the crossing with the upper end outside.
    """
    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    if not 0 < t_lo < t_hi:
        raise InputError("bracket must satisfy 0 < t_lo < t_hi")
    d = direction / abs(direction)

    def sample(t: float):
        try:
            val = eval_E(shape, t * d, t * d)
        except (MathDomainError, PrecisionError):
            return None
        return float(val.real)

    hi_val = sample(t_hi)
    if hi_val is None:
        raise MathDomainError("bracket upper end is not evaluable (inside support?)")

    lo_val = sample(t_lo)
    scale = t_hi - t_lo
    if lo_val is None:
        # bisect on evaluability to close in on the safe standoff radius
        lo, hi = t_lo, t_hi
        while hi - lo > max(tol, 1e-4 * scale):
            mid = 0.5 * (lo + hi)
            if sample(mid) is None:
                lo = mid
            else:
                hi = mid
        gap = hi - lo
    else:
        # both ends evaluable: the crossing, if any, must still lie inside
        hi = t_lo
        gap = max(tol, 1e-3 * scale)

    # quadratic extrapolation toward the boundary from three safe samples
    root = hi
    for step in (4.0, 2.0, 1.0):
        h = max(gap, tol) * step
        ts = np.array([hi, hi + h, hi + 2 * h])
        vals = np.array([sample(t) for t in ts], dtype=float)
        if np.any(np.isnan(vals)):
            continue
        coeffs = np.polyfit(ts - hi, vals, 2)
        roots = np.roots(coeffs)
        real = roots[np.abs(roots.imag) < 1e-9].real + hi
        candidates = real[(real <= hi + 1e-12) & (real > hi - 10 * h)]
        if candidates.size:
            root = float(candidates.max())
        else:
            # fall back to the secant through the two nearest samples
            root = float(hi - vals[0] * h / (vals[1] - vals[0]))
    if not (t_lo - 10 * max(gap, tol) <= root <= t_hi):
        raise MathDomainError("no boundary crossing found in bracket")
    if lo_val is not None and root <= t_lo:
        raise MathDomainError("no boundary crossing found in bracket")
    return root


# ---------------------------------------------------------------------------
# rotationally invariant profiles


@dataclass(frozen=True)
class TDiskProfile:
    """Unit disk shaded with constant weight t in (0, 1]."""

    t: float

    def __post_init__(self):
        if not 0 < self.t <= 1:
            raise InputError("tdisk weight must lie in (0, 1]")


@dataclass(frozen=True)
class AnnulusProfile:
    r: float
    R: float

    def __post_init__(self):
        if not 0 < self.r < self.R:
            raise InputError("annulus profile needs 0 < r < R")


RotProfile = Union[TDiskProfile, AnnulusProfile]


def rot_diag_b(profile: RotProfile, k: int) -> float:
    """Diagonal entry b[k, k] of a rotationally invariant profile.

    For the weighted disk the off-diagonal entries vanish and

        b[k, k] = t (1-t) (2-t) ... (k-t) / (k+1)!

    while the annulus gives b[k, k] = (R^2 - r^2) r^(2k).
    """
    if k < 0:
        raise InputError("need k >= 0")
    if isinstance(profile, TDiskProfile):
        num = profile.t
        for i in range(1, k + 1):
            num *= i - profile.t
        return num / math.factorial(k + 1)
    if isinstance(profile, AnnulusProfile):
        return (profile.R**2 - profile.r**2) * profile.r ** (2 * k)
    raise InputError(f"unknown profile {type(profile).__name__}")


def nevanlinna_density(t: float, x) -> np.ndarray:
    """Density (sin(pi t)/pi) (1/x - 1)^t on (0, 1).

    Its power moments reproduce the weighted-disk diagonal:
    integral of x^k against the density equals rot_diag_b(TDiskProfile(t), k).
    """
    if not 0 < t < 1:
        raise MathDomainError("density defined for 0 < t < 1")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or np.any(x >= 1):
        raise MathDomainError("density defined on the open interval (0, 1)")
    return (math.sin(math.pi * t) / math.pi) * (1.0 / x - 1.0) ** t
