"""Moment dynamics of Hele-Shaw type flows.

Only the first moment column moves in closed form: squeezing decays every
a[j, 0] exponentially at unit rate, injection at the origin advances a[0, 0]
alone.  Exterior moments t_k are contour integrals over the boundary, the
confocal ellipse family realizes the squeeze flow geometrically, and its
common potential is carried by the mother body density on the focal
segment, which also attracts the zeros of the orthogonal polynomials.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, MathDomainError
from .series import in_float_range
from .shapes import Ellipse, Shape, boundary_nodes


def squeeze(col, t: float) -> np.ndarray:
    """First-column flow a[j, 0](t) = e^(-t) a[j, 0](0).

    PrecisionError when e^(-t) or the scaled column leaves the float range.
    """
    message = f"the squeeze to t = {t:g} leaves the float range"
    return in_float_range(lambda: np.asarray(col, dtype=complex) * math.exp(-t), message)


def inject(col, dt: float) -> np.ndarray:
    """Source at the origin: a[0, 0] grows by dt, higher moments are fixed."""
    out = np.array(col, dtype=complex)
    if out.size == 0:
        raise InputError("empty moment column")
    new_mass = out[0].real + dt
    if new_mass <= 0:
        raise MathDomainError("suction would empty the domain (a[0,0] <= 0)")
    out[0] = out[0] + dt
    return out


@dataclass
class ExteriorMoments:
    """t[k-1] holds t_k = (1/(2 pi i k)) contour integral of z^-k conj(z) dz."""

    kmax: int
    t: np.ndarray


def exterior_moments(shape: Shape, kmax: int) -> ExteriorMoments:
    """Exterior harmonic moments t_1..t_kmax by the 1024-node trapezoid rule.

    Spectrally accurate for these analytic boundaries.  The origin must be
    strictly enclosed by the outer boundary (z^-k blows up on the contour
    otherwise); a sum past the float range is a PrecisionError.
    """
    if kmax < 1:
        raise InputError("need kmax >= 1")
    comps = boundary_nodes(shape, 1024)
    z_outer = comps[0][0]
    if np.abs(z_outer).min() < 1e-12:
        raise MathDomainError("boundary passes through the origin")
    # winding of the outer contour about 0 must be 1
    if abs(np.angle(z_outer / np.roll(z_outer, 1)).sum() - 2 * math.pi) > 1e-6:
        raise MathDomainError("origin is not strictly inside the outer boundary")
    ks = np.arange(1, kmax + 1)
    vals = in_float_range(  # (1/(2 pi i k)) with the trapezoid weight 2 pi / n folded in
        lambda: sum((z ** -ks[:, None] * np.conj(z) * dz).sum(axis=1) / len(z) for z, dz in comps) / (1j * ks),
        f"the exterior moments to k = {kmax} leave the float range",
    )
    return ExteriorMoments(kmax, vals)


def confocal_ellipse(c: float, s: float) -> Ellipse:
    """Ellipse with foci at +-c and elliptic coordinate s > 0."""
    if c <= 0 or s <= 0:
        raise InputError("need c > 0 and s > 0")
    return Ellipse(0.0 + 0.0j, c * math.cosh(s), c * math.sinh(s))


def mother_body(c: float, mass_total: float, x) -> np.ndarray:
    """Density rho(x) = (2 mass / (pi c^2)) sqrt(c^2 - x^2) on [-c, c].

    The semicircle profile on the focal segment reproduces every exterior
    moment of each confocal ellipse carrying the same mass.
    """
    if c <= 0:
        raise InputError("need c > 0")
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) <= c
    out = np.zeros_like(x)
    out[inside] = (2.0 * mass_total / (math.pi * c * c)) * np.sqrt(c * c - x[inside] ** 2)
    return out


def mother_body_moment(c: float, mass_total: float, j: int) -> float:
    """integral of x^j rho(x) dx over the focal segment, in closed form.

    It is 0 for odd j, and mass c^(2m) C_m / 4^m for j = 2m, where
    C_m = (2m)! / (m! (m+1)!) is the Catalan number; past the float range, PrecisionError.
    """
    if c <= 0:
        raise InputError("need c > 0")
    m, odd = divmod(j, 2)
    if odd:
        return 0.0
    message = f"the mother-body moment of order {j} leaves the float range"
    return in_float_range(lambda: mass_total * c**j * (math.comb(j, m) / ((m + 1) * 4**m)), message)


def zero_attraction(zeros, c: float) -> float:
    """Largest distance from the zeros to the focal segment [-c, c] x {0}."""
    if c <= 0:
        raise InputError("need c > 0")
    zeros = np.asarray(zeros, dtype=complex).ravel()
    dx = np.maximum(np.abs(zeros.real) - c, 0.0)
    return float(np.hypot(dx, zeros.imag).max(initial=0.0))


def _trajectory(col, t_grid, flow) -> list[tuple[float, int, complex]]:
    """Rows (t, j, v) for each entry v of flow(col, t) on a time grid."""
    col = np.asarray(col, dtype=complex)
    return [(t, j, complex(v)) for t in np.asarray(t_grid, dtype=float).tolist()
            for j, v in enumerate(flow(col, t))]


def squeeze_trajectory(col, t_grid) -> list[tuple[float, int, complex]]:
    """Rows (t, j, a[j, 0](t)) for the squeeze flow on a time grid."""
    return _trajectory(col, t_grid, squeeze)


def inject_trajectory(col, t_grid) -> list[tuple[float, int, complex]]:
    """Rows (t, j, a[j, 0](t)) for injection at unit rate from t_grid[0]."""
    ts = np.asarray(t_grid, dtype=float)
    return _trajectory(col, ts, lambda c, t: inject(c, float(t - ts[0])) if t != ts[0] else c)
