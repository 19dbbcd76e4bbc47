"""The exponential transform E(z, w) = exp(-K(z, w)) of a shape.

K is the Cauchy kernel integral of `shapes.cauchy_kernel_log` (each shape
class carries its own kernel: closed forms for disks and annuli, a
trapezoid contour rule for ellipses whose points share each level's nodes).
The module evaluates E at batches of points outside the support, finds
boundary crossings along rays as zeros of E(z, z), one batch of samples per
round, using the shapes' own membership test and shade value, and carries
the closed form of the weighted unit disk's b diagonal.  The moment
identity that turns a into b lives in `series`.
"""
from __future__ import annotations

import math

import numpy as np

from . import shapes
from .errors import InputError, MathDomainError, PrecisionError
# perfbench's workloads, defect probes and tracer call a <-> b by these names
from .series import a_to_b, b_to_a


def eval_E(shape: shapes.Shape, z, w):
    """E(z, w) for points z, w strictly outside the support.

    z and w are equal-length 1-D arrays of points and give the array of
    E(z[i], w[i]), all from one `shapes.cauchy_kernel_log` call; a scalar
    pair is a one-point batch and gives a complex.
    """
    e = np.exp(-shapes.cauchy_kernel_log(shape, z, w))
    return complex(e) if np.ndim(e) == 0 else e


# Inverse of the Vandermonde matrix of the sample offsets k = 1..5, highest
# power first: it maps the five samples to the coefficients of the quartic
# through them, the exact interpolant.
_QUARTIC_FIT = np.linalg.inv(np.vander(np.arange(1.0, 6.0)))


def boundary_root(
    shape: shapes.Shape,
    direction: complex,
    bracket: tuple[float, float],
    tol: float = 1e-5,
) -> float:
    """Radius t* along ``direction`` where E(t d, t d) vanishes, to within tol.

    E(t d, t d) is positive outside the support and vanishes at the
    boundary to the order g of the shade there, so F = E^(1/g), continued
    inward, has a simple zero at the boundary.  For an ellipse that
    continuation is singular at the foci, which may lie close to the
    boundary, so the zero is approached in rounds.  Each round bisects on
    membership in the support down to a width w (1 % of the bracket at
    first), samples F at hi + k w, k = 1..5, where hi is the bisection's
    outer end, with one `eval_E` call, interpolates the quartic through the
    five samples, and takes its root nearest the bisection interval.  Then w
    shrinks threefold, until two successive roots agree to tol/4: a round
    costs about 1/w contour nodes while its fit error falls like w^5, so a
    small shrink keeps the accepting round from landing far below the width
    it needed.  E is sampled only outside the support.

    The direction must be finite and non-zero, and the bracket must be
    finite and straddle the crossing: lower end inside the support, upper
    end outside.
    """
    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    if not (0 < t_lo < t_hi and math.isfinite(t_hi)):
        raise InputError("bracket must be finite and satisfy 0 < t_lo < t_hi")
    size = abs(direction)
    if not (0 < size and math.isfinite(size)):
        raise InputError("direction must be finite and non-zero")
    d = direction / size

    def outside(t: float) -> bool:
        return not shape.contains(t * d)

    if not outside(t_hi):
        raise MathDomainError("bracket upper end lies inside the support")
    if outside(t_lo):
        raise MathDomainError("no boundary crossing found in bracket")
    lo, hi = t_lo, t_hi
    width = 0.01 * (t_hi - t_lo)
    ks = np.arange(1, 6)
    root = None
    while width >= 1e-3 * tol:
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            if outside(mid):
                hi = mid
            else:
                lo = mid
        power = 1.0 / shape.shade_at(lo * d)
        samples = (hi + ks * width) * d
        fit_roots = np.roots(_QUARTIC_FIT @ eval_E(shape, samples, samples).real ** power)
        middle = 0.5 * (lo - hi) / width
        s = fit_roots[np.argmin(np.abs(fit_roots - middle))].real
        prev, root = root, hi + s * width
        if prev is not None and abs(root - prev) <= 0.25 * tol:
            if not t_lo <= root <= t_hi:
                raise MathDomainError("no boundary crossing found in bracket")
            return float(root)
        width /= 3.0
    raise PrecisionError("boundary root did not settle to tol")


# ---------------------------------------------------------------------------
# the weighted unit disk


def rot_diag_b(t: float, k: int) -> float:
    """Diagonal entry b[k, k] of the unit disk shaded with weight t in (0, 1].

    The off-diagonal entries vanish and

        b[k, k] = t (1-t) (2-t) ... (k-t) / (k+1)!,

    formed as the running product t (1-t)/2 (2-t)/3 ... (k-t)/(k+1), whose
    factors lie in [0, 1), so no k leaves the float range.
    """
    if not 0 < t <= 1:
        raise InputError("tdisk weight must lie in (0, 1]")
    if k < 0:
        raise InputError("need k >= 0")
    b = t
    for i in range(1, k + 1):
        b *= (i - t) / (i + 1)
    return b


def nevanlinna_density(t: float, x) -> np.ndarray:
    """Density (sin(pi t)/pi) (1/x - 1)^t on (0, 1).

    Its power moments reproduce the weighted unit disk's b diagonal: the
    integral of x^k against the density equals rot_diag_b(t, k).
    """
    if not 0 < t < 1:
        raise MathDomainError("density defined for 0 < t < 1")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or np.any(x >= 1):
        raise MathDomainError("density defined on the open interval (0, 1)")
    return (math.sin(math.pi * t) / math.pi) * (1.0 / x - 1.0) ** t
