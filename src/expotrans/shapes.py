"""Shade functions g: C -> [0, 1] with compact support, and their moments.

Supported shapes are disks, annuli, ellipses, weighted copies (0 < t <= 1),
disjoint unions, and sampled grids.  Each is a `Shape` subclass that carries
all of its own rules, so a new shape type is one class; the support is
known only through membership, `contains(z)`.  The moment matrix is

    a[j, k] = (1/pi) * integral of z^j conj(z)^k g(z) dA(z).

Disks and annuli reduce to radial closed forms.  Ellipses use the smooth
substitution x = p s cos(theta), y = q s sin(theta): the s integral is a
closed form and the trapezoid rule in theta is exact for every requested
moment; there is no indicator-function sampling anywhere.
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


class Shape:
    """A shade function g with compact support; each subclass owns its rules.

    A subclass provides `bounding_circle()`, `contains(z)` (whether z lies
    in the support, boundary included), `moment_array(order)`, `mass()` (the
    integral of g), `kernel_log(z, w, tol, budget)` (the Cauchy kernel for
    z, w outside the support), `to_obj()` and a `from_obj(obj)` classmethod.
    The defaults here serve plain shapes: shade 1 and no boundary
    parametrization.
    """

    def shade_at(self, z: complex) -> float:
        """Value of g at a point z inside the support."""
        return 1.0

    def boundary(self, th: np.ndarray) -> list:
        raise InputError(
            f"no boundary parametrization for {type(self).__name__}; "
            "exterior moments need a built-in shape"
        )

    def _doc(self, **fields) -> dict:
        return {"type": type(self).__name__.lower(), **fields}

    @classmethod
    def from_obj(cls, obj: dict) -> Shape:
        """The shape a JSON document describes; its "type", the class name in
        lower case, picks the class."""
        kind = obj["type"]
        if kind not in SHAPE_TYPES:
            raise InputError(f"unknown shape type {kind!r}")
        return SHAPE_TYPES[kind].from_obj(obj)


def _center(obj: dict) -> complex:
    """A document's "center": an [re, im] pair or a real number, 0 if absent."""
    c = obj.get("center", [0, 0])
    if isinstance(c, (list, tuple)) and len(c) == 2:
        return float(c[0]) + 1j * float(c[1])
    if isinstance(c, (int, float)):
        return complex(float(c))
    raise InputError(f"expected [re, im], got {c!r}")


@dataclass(frozen=True)
class Disk(Shape):
    center: complex
    R: float

    def __post_init__(self):
        if not self.R > 0:
            raise InputError("disk radius must be positive")

    def bounding_circle(self) -> tuple[complex, float]:
        return self.center, self.R

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) <= self.R

    def boundary(self, th: np.ndarray) -> list:
        e = np.exp(1j * th)
        return [(self.center + self.R * e, 1j * self.R * e)]

    def moment_array(self, order: int) -> np.ndarray:
        return translate_moments(_radial_diagonal(order, 0.0, self.R), self.center)

    def mass(self) -> float:
        return math.pi * self.R**2

    def kernel_log(self, z: complex, w: complex, tol: float, budget: int) -> complex:
        x = 1.0 / ((z - self.center) * np.conj(w - self.center))
        return -cmath.log(1.0 - self.R**2 * x)

    def to_obj(self) -> dict:
        return self._doc(center=[self.center.real, self.center.imag], R=self.R)

    @classmethod
    def from_obj(cls, obj: dict) -> Disk:
        return cls(_center(obj), float(obj["R"]))


@dataclass(frozen=True)
class Annulus(Shape):
    center: complex
    r: float
    R: float

    def __post_init__(self):
        if not 0 < self.r < self.R:
            raise InputError("annulus needs 0 < r < R")

    def bounding_circle(self) -> tuple[complex, float]:
        return self.center, self.R

    def contains(self, z: complex) -> bool:
        return self.r <= abs(z - self.center) <= self.R

    def boundary(self, th: np.ndarray) -> list:
        e = np.exp(1j * th)
        outer = (self.center + self.R * e, 1j * self.R * e)
        # inner component is traversed clockwise as part of the boundary
        return [outer, (self.center + self.r * e, -1j * self.r * e)]

    def moment_array(self, order: int) -> np.ndarray:
        return translate_moments(_radial_diagonal(order, self.r, self.R), self.center)

    def mass(self) -> float:
        return math.pi * (self.R**2 - self.r**2)

    def kernel_log(self, z: complex, w: complex, tol: float, budget: int) -> complex:
        zc, wc = z - self.center, w - self.center
        z_hole, w_hole = abs(zc) < self.r, abs(wc) < self.r
        if z_hole != w_hole:
            # the integrand has no angle-independent term: rotation symmetry
            return 0j
        if z_hole:
            y = zc * np.conj(wc)
            return (2.0 * math.log(self.R / self.r)
                    - cmath.log(1.0 - y / self.r**2) + cmath.log(1.0 - y / self.R**2))
        x = 1.0 / (zc * np.conj(wc))
        return -cmath.log(1.0 - self.R**2 * x) + cmath.log(1.0 - self.r**2 * x)

    def to_obj(self) -> dict:
        return self._doc(center=[self.center.real, self.center.imag], r=self.r, R=self.R)

    @classmethod
    def from_obj(cls, obj: dict) -> Annulus:
        return cls(_center(obj), float(obj["r"]), float(obj["R"]))


@dataclass(frozen=True)
class Ellipse(Shape):
    center: complex
    p: float
    q: float
    phi: float = 0.0

    def __post_init__(self):
        if not self.q > 0 or not self.p >= self.q:
            raise InputError("ellipse needs p >= q > 0")

    def _local(self, z: complex) -> complex:
        """z in the ellipse's own frame: centred, major axis along the real line."""
        return (z - self.center) * np.exp(-1j * self.phi)

    def bounding_circle(self) -> tuple[complex, float]:
        return self.center, self.p

    def contains(self, z: complex) -> bool:
        u = self._local(z)
        return (u.real / self.p) ** 2 + (u.imag / self.q) ** 2 <= 1.0

    def boundary(self, th: np.ndarray) -> list:
        rot = np.exp(1j * self.phi)
        z = self.center + rot * (self.p * np.cos(th) + 1j * self.q * np.sin(th))
        dz = rot * (-self.p * np.sin(th) + 1j * self.q * np.cos(th))
        return [(z, dz)]

    def moment_array(self, order: int) -> np.ndarray:
        a = rotate_moments(_ellipse_centered_moments(self.p, self.q, order), self.phi)
        return translate_moments(a, self.center)

    def mass(self) -> float:
        return math.pi * self.p * self.q

    def _sigma(self, z: complex) -> float:
        """ln((P + Q)/(p + q)), P and Q the semi-axes of the confocal ellipse through z."""
        u, c = self._local(z), math.sqrt(self.p**2 - self.q**2)
        big = 0.5 * (abs(u - c) + abs(u + c))
        return math.log((big + math.sqrt(big**2 - c**2)) / (self.p + self.q))

    def kernel_log(self, z: complex, w: complex, tol: float, budget: int) -> complex:
        """Trapezoid rule on the contour form of `cauchy_kernel_log`.  The
        integrand continues analytically out to the confocal ellipse through
        z or w, so the rule needs at least ln(1/tol)/sigma nodes; when that
        exceeds the budget (tol < exp(-sigma budget)) it fails before any
        node is summed."""
        sigma = min(self._sigma(z), self._sigma(w))
        if sigma <= 0 or tol < math.exp(-sigma * budget):
            raise PrecisionError(
                f"quadrature budget exceeded: the ellipse contour needs more than {budget} nodes"
            )
        wbar, cbar = np.conj(w), np.conj(self.center - w)

        def node_sum(n: int, shift: float) -> complex:
            ((zeta, dzeta),) = boundary_nodes(self, n, shift)
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

    def to_obj(self) -> dict:
        center = [self.center.real, self.center.imag]
        return self._doc(center=center, p=self.p, q=self.q, phi=self.phi)

    @classmethod
    def from_obj(cls, obj: dict) -> Ellipse:
        return cls(_center(obj), float(obj["p"]), float(obj["q"]), float(obj.get("phi", 0.0)))


@dataclass(frozen=True)
class Weighted(Shape):
    """The base shape's shade scaled by t; it has no boundary parametrization of its own."""

    base: Shape
    t: float

    def __post_init__(self):
        if not 0 < self.t <= 1:
            raise InputError("weight must lie in (0, 1]")

    def bounding_circle(self) -> tuple[complex, float]:
        return self.base.bounding_circle()

    def contains(self, z: complex) -> bool:
        return self.base.contains(z)

    def shade_at(self, z: complex) -> float:
        return self.t * self.base.shade_at(z)

    def moment_array(self, order: int) -> np.ndarray:
        return self.t * self.base.moment_array(order)

    def mass(self) -> float:
        return self.t * self.base.mass()

    def kernel_log(self, z: complex, w: complex, tol: float, budget: int) -> complex:
        return self.t * self.base.kernel_log(z, w, tol, budget)

    def to_obj(self) -> dict:
        return self._doc(t=self.t, base=self.base.to_obj())

    @classmethod
    def from_obj(cls, obj: dict) -> Weighted:
        return cls(Shape.from_obj(obj["base"]), float(obj["t"]))


@dataclass(frozen=True)
class Sum(Shape):
    """Disjoint union; parts whose bounding circles meet are rejected."""

    parts: tuple

    def __post_init__(self):
        if len(self.parts) < 1:
            raise InputError("sum needs at least one part")
        circles = [p.bounding_circle() for p in self.parts]
        for i, (ci, ri) in enumerate(circles):
            if any(abs(ci - cj) <= ri + rj for cj, rj in circles[i + 1:]):
                raise InputError(
                    "sum parts may overlap (bounding circles intersect); "
                    "supports must be disjoint"
                )

    def bounding_circle(self) -> tuple[complex, float]:
        circles = [p.bounding_circle() for p in self.parts]
        center = sum(c for c, _ in circles) / len(circles)
        radius = max(abs(c - center) + r for c, r in circles)
        return center, radius

    def contains(self, z: complex) -> bool:
        return any(p.contains(z) for p in self.parts)

    def shade_at(self, z: complex) -> float:
        return next(p for p in self.parts if p.contains(z)).shade_at(z)

    def moment_array(self, order: int) -> np.ndarray:
        return sum(p.moment_array(order) for p in self.parts)

    def mass(self) -> float:
        return sum(p.mass() for p in self.parts)

    def kernel_log(self, z: complex, w: complex, tol: float, budget: int) -> complex:
        return sum(p.kernel_log(z, w, tol, budget) for p in self.parts)

    def to_obj(self) -> dict:
        return self._doc(parts=[p.to_obj() for p in self.parts])

    @classmethod
    def from_obj(cls, obj: dict) -> Sum:
        return cls(tuple(Shape.from_obj(p) for p in obj["parts"]))


@dataclass(frozen=True, eq=False)
class Grid(Shape):
    """Cell-centred samples of g on a box; each positive cell counts as a disk
    of the cell's half-diagonal for membership and the kernel's guard."""

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

    def bounding_circle(self) -> tuple[complex, float]:
        return self.box.center, math.hypot(self.box.width, self.box.height) / 2

    def _cell_distance(self, z: complex) -> float:
        """Distance from z to the nearest positive cell's disk, negative inside."""
        pos = self.values > 0
        if not pos.any():
            return math.inf
        return np.abs(self.centers()[pos] - z).min() - 0.5 * math.hypot(*self.cell)

    def contains(self, z: complex) -> bool:
        return self._cell_distance(z) <= 0

    def moment_array(self, order: int) -> np.ndarray:
        z = self.centers().ravel()
        dx, dy = self.cell
        w = self.values.ravel() * (dx * dy / math.pi)
        powers = z[None, :] ** np.arange(order)[:, None]
        a = (powers * w) @ powers.conj().T
        return 0.5 * (a + a.conj().T)

    def mass(self) -> float:
        dx, dy = self.cell
        return float(self.values.sum() * dx * dy)

    def kernel_log(self, z: complex, w: complex, tol: float, budget: int) -> complex:
        dx, dy = self.cell
        if min(self._cell_distance(z), self._cell_distance(w)) < 2.0 * math.hypot(dx, dy):
            raise MathDomainError(
                "evaluation point is within two quadrature cells of the support"
            )
        zeta = self.centers().ravel()
        wgt = self.values.ravel() * (dx * dy / math.pi)
        return complex(np.sum(wgt / ((zeta - z) * (np.conj(zeta) - np.conj(w)))))

    def to_obj(self) -> dict:
        values = [[float(v) for v in row] for row in self.values]
        return self._doc(box=list(self.box.as_tuple()), values=values)

    @classmethod
    def from_obj(cls, obj: dict) -> Grid:
        x0, x1, y0, y1 = (float(v) for v in obj["box"])
        return cls(Box(x0, x1, y0, y1), np.asarray(obj["values"], dtype=float))


SHAPE_TYPES = {cls.__name__.lower(): cls for cls in (Disk, Annulus, Ellipse, Weighted, Sum, Grid)}


@dataclass
class MomentMatrix:
    """Complex moments a[j, k] up to order N in each index; Hermitian."""

    order: int
    a: np.ndarray

    def __post_init__(self):
        self.a = hermitian_matrix(self.a, self.order, "moment matrix")


# ---------------------------------------------------------------------------
# quadrature core


def boundary_nodes(shape: Shape, n: int, shift: float = 0.0):
    """Boundary parametrization(s) as (points, dz/dtheta) pairs, outer first.

    Nodes sit at theta = 2 pi (k + shift) / n, k = 0..n-1, so shift = 1/2
    gives the midpoints that refine an n-node trapezoid rule to 2n nodes.
    """
    return shape.boundary(2.0 * math.pi * (np.arange(n) + shift) / n)


def _ellipse_centered_moments(p: float, q: float, order: int) -> np.ndarray:
    """Fixed rule, exact for every z^j conj(z)^k with j, k < order.

    Under z = s (p cos(theta) + i q sin(theta)), dA = p q s ds dtheta and the
    integrand splits into s^(j+k+1), whose integral over [0, 1] is
    1/(j+k+2), times a trigonometric polynomial of degree <= 2 order - 2 in
    theta, exact under 2 order - 1 trapezoid nodes.  The budget counts the
    order x (2 order - 1) nodes of the product rule in (s, theta).
    """
    nt = 2 * order - 1
    if order * nt > quad_budget():
        raise PrecisionError(
            f"quadrature budget exceeded: ellipse moments of order {order} need {order * nt} nodes"
        )
    ((rim, _),) = boundary_nodes(Ellipse(0.0, p, q), nt)
    powers = rim[None, :] ** np.arange(order)[:, None]
    jk = np.add.outer(np.arange(order), np.arange(order))
    a = (2.0 * p * q / nt) * (powers @ powers.conj().T) / (jk + 2)
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
    return MomentMatrix(order, shape.moment_array(order))


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


# ---------------------------------------------------------------------------
# Cauchy kernel integral, shared by the exponential transform evaluator


def cauchy_kernel_log(shape: Shape, z: complex, w: complex) -> complex:
    """(1/pi) * integral of g(zeta) / ((zeta - z)(conj(zeta) - conj(w))) dA.

    Disks and annuli use closed forms.  For an ellipse with centre c, Green's
    theorem turns the area integral into the contour integral

        (1/(2 pi i)) * contour integral of log((conj(zeta) - conj(w)) / (conj(c) - conj(w))) dzeta / (zeta - z),

    whose principal logarithm is single-valued because the support is convex
    and w lies outside.  The integrand is analytic on the boundary, so the
    trapezoid rule converges geometrically; the node count doubles until two
    sums agree to 1e-9 (relative to the sum, floor 1), and a rule that needs
    more nodes than the quadrature budget raises PrecisionError.  Weights and
    unions act linearly; a grid is summed cell by cell.  Points inside or on
    the support are rejected.
    """
    budget = quad_budget()
    z, w = complex(z), complex(w)
    if shape.contains(z) or shape.contains(w):
        raise MathDomainError("evaluation point lies inside or on the support")
    return shape.kernel_log(z, w, 1e-9, budget)
