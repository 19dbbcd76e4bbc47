"""Shade functions g: C -> [0, 1] with compact support, and their moments.

Supported shapes are disks, annuli, ellipses, weighted copies (0 < t <= 1),
disjoint unions, and sampled grids.  The moment matrix is

    a[j, k] = (1/pi) * integral of z^j conj(z)^k g(z) dA(z).

Disks and annuli reduce to radial closed forms.  Ellipses use the smooth
substitution x = p s cos(theta), y = q s sin(theta) with a fixed rule,
Gauss-Legendre in s times the trapezoid rule in theta, that is exact for
every requested moment; there is no indicator-function sampling anywhere.
Off-center and rotated shapes are handled by exact binomial translation and
phase rotation of the centered moments.

The Cauchy kernel integral behind the exponential transform has closed
forms for disks and annuli and is a contour integral over the boundary for
ellipses; `boundary_nodes` is the one boundary parametrization, shared with
the exterior moments.
"""
from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InputError, MathDomainError, PrecisionError
from .series import hermitian_matrix

DEFAULT_QUAD_BUDGET = 4_194_304


def quad_budget() -> int:
    """Node cap for a single quadrature rule (env EXPOTRANS_QUAD_BUDGET).

    It bounds the ellipse moment rule and the ellipse contour rule; a rule
    that would need more nodes raises PrecisionError.
    """
    raw = os.environ.get("EXPOTRANS_QUAD_BUDGET")
    if raw is None:
        return DEFAULT_QUAD_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputError(f"EXPOTRANS_QUAD_BUDGET is not an integer: {raw!r}") from exc
    if value <= 0:
        raise InputError("EXPOTRANS_QUAD_BUDGET must be positive")
    return value


@dataclass(frozen=True)
class Box:
    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise InputError("box must satisfy x0 < x1 and y0 < y1")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x0, self.x1, self.y0, self.y1)


@dataclass(frozen=True)
class Disk:
    center: complex
    R: float

    def __post_init__(self):
        if not self.R > 0:
            raise InputError("disk radius must be positive")


@dataclass(frozen=True)
class Annulus:
    center: complex
    r: float
    R: float

    def __post_init__(self):
        if not 0 < self.r < self.R:
            raise InputError("annulus needs 0 < r < R")


@dataclass(frozen=True)
class Ellipse:
    center: complex
    p: float
    q: float
    phi: float = 0.0

    def __post_init__(self):
        if not self.q > 0 or not self.p >= self.q:
            raise InputError("ellipse needs p >= q > 0")


@dataclass(frozen=True)
class Weighted:
    base: "Shape"
    t: float

    def __post_init__(self):
        if not 0 < self.t <= 1:
            raise InputError("weight must lie in (0, 1]")


@dataclass(frozen=True)
class Sum:
    parts: tuple

    def __post_init__(self):
        if len(self.parts) < 1:
            raise InputError("sum needs at least one part")
        _check_disjoint(self.parts)


@dataclass(frozen=True, eq=False)
class Grid:
    box: Box
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.size == 0:
            raise InputError("grid values must be a non-empty 2-D array")
        if not np.all(np.isfinite(values)):
            raise InputError("grid values contain non-finite entries")
        if values.min() < -1e-12 or values.max() > 1 + 1e-12:
            raise InputError("grid values must lie in [0, 1]")
        object.__setattr__(self, "values", values)

    @property
    def cell(self) -> tuple[float, float]:
        ny, nx = self.values.shape
        return (self.box.width / nx, self.box.height / ny)

    def centers(self) -> np.ndarray:
        ny, nx = self.values.shape
        dx, dy = self.cell
        xs = self.box.x0 + dx * (np.arange(nx) + 0.5)
        ys = self.box.y0 + dy * (np.arange(ny) + 0.5)
        return xs[None, :] + 1j * ys[:, None]


Shape = Union[Disk, Annulus, Ellipse, Weighted, Sum, Grid]


@dataclass
class MomentMatrix:
    """Complex moments a[j, k] up to order N in each index; Hermitian."""

    order: int
    a: np.ndarray

    def __post_init__(self):
        self.a = hermitian_matrix(self.a, self.order, "moment matrix")


# ---------------------------------------------------------------------------
# geometry helpers


def bounding_circle(shape: Shape) -> tuple[complex, float]:
    if isinstance(shape, Disk):
        return shape.center, shape.R
    if isinstance(shape, Annulus):
        return shape.center, shape.R
    if isinstance(shape, Ellipse):
        return shape.center, shape.p
    if isinstance(shape, Weighted):
        return bounding_circle(shape.base)
    if isinstance(shape, Sum):
        circles = [bounding_circle(p) for p in shape.parts]
        center = sum(c for c, _ in circles) / len(circles)
        radius = max(abs(c - center) + r for c, r in circles)
        return center, radius
    if isinstance(shape, Grid):
        c = shape.box.center
        return c, math.hypot(shape.box.width, shape.box.height) / 2
    raise InputError(f"unknown shape {type(shape).__name__}")


def _check_disjoint(parts):
    circles = [bounding_circle(p) for p in parts]
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            ci, ri = circles[i]
            cj, rj = circles[j]
            if abs(ci - cj) <= ri + rj:
                raise InputError(
                    "sum parts may overlap (bounding circles intersect); "
                    "supports must be disjoint"
                )


def support_distance(shape: Shape, z: complex) -> float:
    """Signed distance from z to the support: positive outside, <= 0 inside."""
    if isinstance(shape, Disk):
        return abs(z - shape.center) - shape.R
    if isinstance(shape, Annulus):
        rho = abs(z - shape.center)
        # positive both outside the outer circle and inside the hole
        return max(rho - shape.R, shape.r - rho)
    if isinstance(shape, Ellipse):
        return _ellipse_signed_distance(shape, z)
    if isinstance(shape, Weighted):
        return support_distance(shape.base, z)
    if isinstance(shape, Sum):
        return min(support_distance(p, z) for p in shape.parts)
    if isinstance(shape, Grid):
        dx, dy = shape.cell
        cell_r = 0.5 * math.hypot(dx, dy)
        pos = shape.values > 0
        if not pos.any():
            return math.inf
        d = np.abs(shape.centers()[pos] - z).min() - cell_r
        return d
    raise InputError(f"unknown shape {type(shape).__name__}")


def _ellipse_signed_distance(e: Ellipse, z: complex) -> float:
    w = (z - e.center) * np.exp(-1j * e.phi)
    x, y = abs(w.real), abs(w.imag)
    level = (x / e.p) ** 2 + (y / e.q) ** 2
    # distance to the boundary: shrink a bracket around the closest parameter
    lo, hi = 0.0, math.pi / 2
    best = math.inf
    for _ in range(30):
        th = np.linspace(lo, hi, 17)
        d2 = (e.p * np.cos(th) - x) ** 2 + (e.q * np.sin(th) - y) ** 2
        i = int(np.argmin(d2))
        best = float(d2[i])
        lo, hi = th[max(i - 1, 0)], th[min(i + 1, 16)]
        if hi - lo < 1e-13:
            break
    dist = math.sqrt(best)
    return dist if level > 1.0 else -dist


# ---------------------------------------------------------------------------
# quadrature core


def _leggauss_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def boundary_nodes(shape: Shape, n: int, shift: float = 0.0):
    """Boundary parametrization(s) as (points, dz/dtheta) pairs, outer first.

    Nodes sit at theta = 2 pi (k + shift) / n, k = 0..n-1, so shift = 1/2
    gives the midpoints that refine an n-node trapezoid rule to 2n nodes.
    """
    th = 2.0 * math.pi * (np.arange(n) + shift) / n
    if isinstance(shape, Disk):
        z = shape.center + shape.R * np.exp(1j * th)
        dz = 1j * shape.R * np.exp(1j * th)
        return [(z, dz)]
    if isinstance(shape, Ellipse):
        rot = np.exp(1j * shape.phi)
        z = shape.center + rot * (shape.p * np.cos(th) + 1j * shape.q * np.sin(th))
        dz = rot * (-shape.p * np.sin(th) + 1j * shape.q * np.cos(th))
        return [(z, dz)]
    if isinstance(shape, Annulus):
        zo = shape.center + shape.R * np.exp(1j * th)
        zi = shape.center + shape.r * np.exp(1j * th)
        # inner component is traversed clockwise as part of the boundary
        return [(zo, 1j * shape.R * np.exp(1j * th)), (zi, -1j * shape.r * np.exp(1j * th))]
    raise InputError(
        f"no boundary parametrization for {type(shape).__name__}; "
        "exterior moments need a built-in shape"
    )


def _ellipse_centered_moments(p: float, q: float, order: int) -> np.ndarray:
    """Fixed rule, exact for every z^j conj(z)^k with j, k < order.

    Under z = s (p cos(theta) + i q sin(theta)) the integrand is s^(j+k+1),
    of degree <= 2 order - 1 (exact under order Gauss nodes in s), times a
    trigonometric polynomial of degree <= 2 order - 2 in theta (exact under
    2 order - 1 trapezoid nodes).
    """
    nt = 2 * order - 1
    if order * nt > quad_budget():
        raise PrecisionError(
            f"quadrature budget exceeded: ellipse moments of order {order} need {order * nt} nodes"
        )
    s, ws = _leggauss_01(order)
    ((rim, _),) = boundary_nodes(Ellipse(0.0, p, q), nt)
    z = (s[:, None] * rim[None, :]).ravel()
    w = np.repeat(ws * s * (2.0 * p * q / nt), nt)
    powers = z[None, :] ** np.arange(order)[:, None]
    a = (powers * w) @ powers.conj().T
    return 0.5 * (a + a.conj().T)


def _radial_diagonal(order: int, inner: float, outer: float) -> np.ndarray:
    j = np.arange(order)
    return np.diag((outer ** (2 * j + 2) - inner ** (2 * j + 2)) / (j + 1)).astype(complex)


def translate_moments(a: np.ndarray, c: complex) -> np.ndarray:
    """Exact binomial transform of moments under z -> z + c."""
    if c == 0:
        return np.array(a, dtype=complex)
    n = a.shape[0]
    t = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for p in range(j + 1):
            t[j, p] = math.comb(j, p) * c ** (j - p)
    return t @ np.asarray(a, dtype=complex) @ t.conj().T


def rotate_moments(a: np.ndarray, phi: float) -> np.ndarray:
    """Exact phase transform of moments under z -> e^{i phi} z."""
    n = a.shape[0]
    d = np.exp(1j * phi * np.arange(n))
    return d[:, None] * np.asarray(a, dtype=complex) * d.conj()[None, :]


def moments(shape: Shape, order: int) -> MomentMatrix:
    """Moment matrix a[j, k] for j, k < order."""
    if order < 1:
        raise InputError("moment order must be >= 1")
    return MomentMatrix(order, _moments(shape, order))


def _moments(shape: Shape, order: int) -> np.ndarray:
    if isinstance(shape, Disk):
        a = _radial_diagonal(order, 0.0, shape.R)
        return translate_moments(a, shape.center)
    if isinstance(shape, Annulus):
        a = _radial_diagonal(order, shape.r, shape.R)
        return translate_moments(a, shape.center)
    if isinstance(shape, Ellipse):
        a = _ellipse_centered_moments(shape.p, shape.q, order)
        a = rotate_moments(a, shape.phi)
        return translate_moments(a, shape.center)
    if isinstance(shape, Weighted):
        return shape.t * _moments(shape.base, order)
    if isinstance(shape, Sum):
        return sum(_moments(p, order) for p in shape.parts)
    if isinstance(shape, Grid):
        z = shape.centers().ravel()
        g = shape.values.ravel()
        dx, dy = shape.cell
        w = g * (dx * dy / math.pi)
        powers = z[None, :] ** np.arange(order)[:, None]
        a = (powers * w) @ powers.conj().T
        return 0.5 * (a + a.conj().T)
    raise InputError(f"unknown shape {type(shape).__name__}")


def cauchy_columns(shape: Shape, d: int, order: int) -> np.ndarray:
    """Coefficient columns F_k, k = 0..d: entry [j, k] multiplies u^(j+1) in F_k(u).

    F_k is the k-th moment column, the Cauchy-transform data entering the
    residue form of a band certificate.
    """
    if d < 0:
        raise InputError("need d >= 0")
    if d >= order:
        raise InputError("need d < order")
    return moments(shape, order).a[:, : d + 1].copy()


def mass(shape: Shape) -> float:
    """Integral of g over the plane (the L1 norm of the shade function)."""
    if isinstance(shape, Disk):
        return math.pi * shape.R**2
    if isinstance(shape, Annulus):
        return math.pi * (shape.R**2 - shape.r**2)
    if isinstance(shape, Ellipse):
        return math.pi * shape.p * shape.q
    if isinstance(shape, Weighted):
        return shape.t * mass(shape.base)
    if isinstance(shape, Sum):
        return sum(mass(p) for p in shape.parts)
    if isinstance(shape, Grid):
        dx, dy = shape.cell
        return float(shape.values.sum() * dx * dy)
    raise InputError(f"unknown shape {type(shape).__name__}")


# ---------------------------------------------------------------------------
# Cauchy kernel integral, shared by the exponential transform evaluator


def cauchy_kernel_log(shape: Shape, z: complex, w: complex, tol: float = 1e-9) -> complex:
    """(1/pi) * integral of g(zeta) / ((zeta - z)(conj(zeta) - conj(w))) dA.

    Disks and annuli use closed forms.  For an ellipse with centre c, Green's
    theorem turns the area integral into the contour integral

        (1/(2 pi i)) * contour integral of log((conj(zeta) - conj(w)) / (conj(c) - conj(w))) dzeta / (zeta - z),

    whose principal logarithm is single-valued because the support is convex
    and w lies outside.  The integrand is analytic on the boundary, so the
    trapezoid rule converges geometrically; the node count doubles until two
    sums agree to tol (relative to the sum, floor 1), and exceeding the
    quadrature budget raises PrecisionError.  Weights and unions act
    linearly; a grid is summed cell by cell.  Points inside or on the support
    are rejected.
    """
    return _kernel_log(shape, complex(z), complex(w), tol, quad_budget())


def _kernel_log(shape: Shape, z: complex, w: complex, tol: float, budget: int) -> complex:
    if isinstance(shape, Weighted):
        return shape.t * _kernel_log(shape.base, z, w, tol, budget)
    if isinstance(shape, Sum):
        return sum(_kernel_log(p, z, w, tol, budget) for p in shape.parts)
    gap = min(support_distance(shape, z), support_distance(shape, w))
    if gap <= 0:
        raise MathDomainError("evaluation point lies inside or on the support")
    if isinstance(shape, Grid):
        dx, dy = shape.cell
        if gap < 2.0 * math.hypot(dx, dy):
            raise MathDomainError(
                "evaluation point is within two quadrature cells of the support"
            )
        zeta = shape.centers().ravel()
        wgt = shape.values.ravel() * (dx * dy / math.pi)
        return complex(np.sum(wgt / ((zeta - z) * (np.conj(zeta) - np.conj(w)))))
    if isinstance(shape, Disk):
        x = 1.0 / ((z - shape.center) * np.conj(w - shape.center))
        return -cmath.log(1.0 - shape.R**2 * x)
    if isinstance(shape, Annulus):
        zc, wc = z - shape.center, w - shape.center
        z_hole, w_hole = abs(zc) < shape.r, abs(wc) < shape.r
        if z_hole != w_hole:
            # the integrand has no angle-independent term: rotation symmetry
            return 0j
        if z_hole:
            y = zc * np.conj(wc)
            return (2.0 * math.log(shape.R / shape.r)
                    - cmath.log(1.0 - y / shape.r**2) + cmath.log(1.0 - y / shape.R**2))
        x = 1.0 / (zc * np.conj(wc))
        return -cmath.log(1.0 - shape.R**2 * x) + cmath.log(1.0 - shape.r**2 * x)
    if isinstance(shape, Ellipse):
        return _ellipse_contour(shape, z, w, tol, budget)
    raise InputError(f"unknown shape {type(shape).__name__}")


def _ellipse_contour(e: Ellipse, z: complex, w: complex, tol: float, budget: int) -> complex:
    wbar, cbar = np.conj(w), np.conj(e.center - w)

    def node_sum(n: int, shift: float) -> complex:
        ((zeta, dzeta),) = boundary_nodes(e, n, shift)
        return complex(np.sum(np.log((np.conj(zeta) - wbar) / cbar) * dzeta / (zeta - z)))

    n = 64
    total = node_sum(n, 0.0)
    while True:
        if 2 * n > budget:
            raise PrecisionError(
                f"quadrature budget exceeded: the ellipse contour needs more than {n} nodes"
            )
        coarse = total / (1j * n)
        total += node_sum(n, 0.5)
        n *= 2
        fine = total / (1j * n)
        if abs(fine - coarse) <= tol * max(1.0, abs(fine)):
            return complex(fine)
