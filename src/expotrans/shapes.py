"""Shade functions g: C -> [0, 1] with compact support, and their moments.

Supported shapes are disks, annuli, ellipses, weighted copies (0 < t <= 1),
disjoint unions, and sampled grids.  The moment matrix is

    a[j, k] = (1/pi) * integral of z^j conj(z)^k g(z) dA(z).

Disks and annuli reduce to radial closed forms.  Ellipses use the smooth
substitution x = p s cos(theta), y = q s sin(theta) with tensor
Gauss-Legendre quadrature and adaptive node doubling; there is no
indicator-function sampling anywhere.  Off-center and rotated shapes are
handled by exact binomial translation and phase rotation of the centered
moments.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InputError, MathDomainError, PrecisionError
from .series import hermitian_matrix

DEFAULT_QUAD_BUDGET = 4_194_304
MOMENT_QUAD_TOL = 1e-10


def quad_budget() -> int:
    """Node cap for a single quadrature evaluation (env EXPOTRANS_QUAD_BUDGET)."""
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


def _leggauss_ab(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w


def _adaptive_pair(evaluate, ns0: int, nt0: int, tol: float, budget: int, what: str):
    """Double node counts until a 50% refinement moves nothing beyond tol.

    The tolerance is relative to the largest magnitude present (floor 1):
    high-order moments of large shapes reach radius^(2N), and entries that
    vanish by symmetry carry cancellation noise on the scale of their own
    integrand, so a single absolute threshold cannot serve both.
    """
    ns, nt = ns0, nt0
    while True:
        ns_f, nt_f = math.ceil(1.5 * ns), math.ceil(1.5 * nt)
        if ns_f * nt_f > budget:
            raise PrecisionError(
                f"quadrature budget exceeded without meeting internal tolerance ({what})"
            )
        coarse = evaluate(ns, nt)
        fine = evaluate(ns_f, nt_f)
        scale = max(1.0, float(np.max(np.abs(fine))))
        if np.max(np.abs(fine - coarse)) <= tol * scale:
            return fine
        ns, nt = 2 * ns, 2 * nt


def _ellipse_centered_moments(p: float, q: float, order: int) -> np.ndarray:
    budget = quad_budget()

    def evaluate(ns: int, nt: int) -> np.ndarray:
        s, ws = _leggauss_01(ns)
        th, wt = _leggauss_ab(nt, 0.0, 2.0 * math.pi)
        z = s[:, None] * (p * np.cos(th) + 1j * q * np.sin(th))[None, :]
        w = (ws * s)[:, None] * wt[None, :] * (p * q / math.pi)
        zf, wf = z.ravel(), w.ravel()
        powers = zf[None, :] ** np.arange(order)[:, None]
        a = (powers * wf) @ powers.conj().T
        return a

    a = _adaptive_pair(evaluate, order + 4, 4 * order + 16, MOMENT_QUAD_TOL, budget, "ellipse moments")
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


def _pole_gap(shape: Shape, z: complex, w: complex, scale: float, budget: int, ns_hint: int):
    gap = min(support_distance(shape, z), support_distance(shape, w))
    if gap <= 0:
        raise MathDomainError("evaluation point lies inside or on the support")
    nt_cap = max(budget // max(ns_hint, 1), 16)
    if gap < 2.0 * (2.0 * math.pi * scale) / nt_cap:
        raise MathDomainError(
            "evaluation point is within two quadrature cells of the support"
        )
    return gap


def _kernel_quad(zeta: np.ndarray, weight: np.ndarray, z: complex, w: complex) -> complex:
    return complex(np.sum(weight / ((zeta - z) * (np.conj(zeta) - np.conj(w)))))


def cauchy_kernel_log(shape: Shape, z: complex, w: complex, tol: float = 1e-9) -> complex:
    """(1/pi) * integral of g(zeta) / ((zeta - z)(conj(zeta) - conj(w))) dA.

    The integrand is sampled on the same smooth parametrizations used for
    moments; the radial and angular integrals are iterated tensor rules.
    Points inside, or too close to, the support are rejected.
    """
    budget = quad_budget()
    return _kernel_log(shape, z, w, tol, budget)


def _kernel_log(shape: Shape, z: complex, w: complex, tol: float, budget: int) -> complex:
    if isinstance(shape, Weighted):
        return shape.t * _kernel_log(shape.base, z, w, tol, budget)
    if isinstance(shape, Sum):
        return sum(_kernel_log(p, z, w, tol, budget) for p in shape.parts)
    if isinstance(shape, Grid):
        dx, dy = shape.cell
        gap = min(support_distance(shape, z), support_distance(shape, w))
        if gap <= 0:
            raise MathDomainError("evaluation point lies inside or on the support")
        if gap < 2.0 * math.hypot(dx, dy):
            raise MathDomainError(
                "evaluation point is within two quadrature cells of the support"
            )
        zeta = shape.centers().ravel()
        wgt = shape.values.ravel() * (dx * dy / math.pi)
        return _kernel_quad(zeta, wgt, z, w)

    if isinstance(shape, Disk):
        scale, ns_hint = shape.R, 32
        gap = _pole_gap(shape, z, w, scale, budget, ns_hint)
        rel = gap / scale

        def evaluate(ns, nt):
            s, ws = _leggauss_01(ns)
            th = 2.0 * math.pi * np.arange(nt) / nt
            wt = 2.0 * math.pi / nt
            zeta = shape.center + shape.R * s[:, None] * np.exp(1j * th)[None, :]
            wgt = (ws * s)[:, None] * wt * (shape.R**2 / math.pi)
            return _kernel_quad(zeta.ravel(), np.broadcast_to(wgt, zeta.shape).ravel(), z, w)

    elif isinstance(shape, Annulus):
        scale, ns_hint = shape.R, 32
        gap = _pole_gap(shape, z, w, scale, budget, ns_hint)
        rel = gap / scale

        def evaluate(ns, nt):
            rho, wr = _leggauss_ab(ns, shape.r, shape.R)
            th = 2.0 * math.pi * np.arange(nt) / nt
            wt = 2.0 * math.pi / nt
            zeta = shape.center + rho[:, None] * np.exp(1j * th)[None, :]
            wgt = (wr * rho)[:, None] * wt / math.pi
            return _kernel_quad(zeta.ravel(), np.broadcast_to(wgt, zeta.shape).ravel(), z, w)

    elif isinstance(shape, Ellipse):
        scale, ns_hint = shape.p, 48
        gap = _pole_gap(shape, z, w, scale, budget, ns_hint)
        # the angular parametrization slows down near the minor axis
        rel = (gap / scale) * (shape.q / shape.p)

        def evaluate(ns, nt):
            s, ws = _leggauss_01(ns)
            th = 2.0 * math.pi * np.arange(nt) / nt
            wt = 2.0 * math.pi / nt
            boundary = shape.p * np.cos(th) + 1j * shape.q * np.sin(th)
            zeta = shape.center + np.exp(1j * shape.phi) * s[:, None] * boundary[None, :]
            wgt = (ws * s)[:, None] * wt * (shape.p * shape.q / math.pi)
            return _kernel_quad(zeta.ravel(), np.broadcast_to(wgt, zeta.shape).ravel(), z, w)

    else:
        raise InputError(f"unknown shape {type(shape).__name__}")

    nt0 = int(min(max(256, 24.0 / rel), budget // ns_hint))
    ns0 = int(max(24, 8.0 / math.sqrt(rel)))

    def as_pair(ns, nt):
        return np.array([evaluate(ns, nt)])

    out = _adaptive_pair(as_pair, ns0, nt0, tol, budget, "cauchy kernel")
    return complex(out[0])
