"""Shade functions g: C -> [0, 1] with compact support, and their moments.

Supported shapes are disks, annuli, ellipses, weighted copies (0 < t <= 1),
disjoint unions, and sampled grids.  Each is a `Shape` subclass that carries
all of its own rules, so a new shape type is one class; the support is
known only through membership, `contains(z)`.  The moment matrix is

    a[j, k] = (1/pi) * integral of z^j conj(z)^k g(z) dA(z).

Disks and annuli reduce to radial closed forms, moved off centre by exact
binomial translation.  Ellipses, offset and rotated or not, use Green's
theorem on their own boundary: a[j, k] is a contour integral of
z^j conj(z)^(k+1) dz, and the trapezoid rule on 2N + 1 boundary nodes is
exact for every moment of order N; there is no indicator-function sampling
anywhere.

The Cauchy kernel integral behind the exponential transform has closed
forms for disks and annuli and is a contour integral over the boundary for
ellipses; `boundary_nodes` is the one boundary parametrization, shared with
the exterior moments, and it keeps the unit-circle node sets that the rules
use again and again in read-only tables.  The contour rule's principal
logarithm is formed as log|x| + i arg x from numpy's real log, hypot and
arctan2, since numpy's complex log (the C library's clog) dominated the
rule's cost.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import InputError, MathDomainError, PrecisionError
from .series import MomentMatrix, in_float_range

DEFAULT_QUAD_BUDGET = 4_194_304
# unit-circle node sets kept for the process: power-of-two n up to this, shift 0 or 1/2
TABLED_NODES = 2**14
KERNEL_TOL = 1e-9  # the Cauchy kernel's ellipse contour rule: relative tolerance, floor 1


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
    in the support, boundary included: a bool for a point, a boolean array
    of z's shape for an array of points), `moment_array(order)` (a, Hermitian
    to rounding: `MomentMatrix` symmetrizes it),
    `kernel_log(z, w)` (the Cauchy kernels at the pairs of two
    equal-length 1-D complex arrays of points outside the support, as an
    array, to relative tolerance KERNEL_TOL where a rule approximates them),
    `to_obj()` and a `from_obj(obj)` classmethod.  A shape whose shade can
    be 0 everywhere overrides `has_shade()`.  A shape with a boundary
    parametrization provides `boundary(e)`: given unit-circle points
    e = exp(i theta), it returns one (points, dz/dtheta) pair of arrays per
    boundary component, outer first, and leaves e unchanged (it may be a
    read-only shared table; see `boundary_nodes`).
    The defaults here serve plain shapes: shade 1 and no boundary
    parametrization.  As a moment source (see `gallery`) a shape's data is
    its moment matrix a.
    """

    def data(self, order: int) -> MomentMatrix:
        return moments(self, order)

    def column(self, order: int) -> np.ndarray:
        return moments(self, order).a[:, 0]

    def shade_at(self, z: complex) -> float:
        """Value of g at a point z inside the support."""
        return 1.0

    def has_shade(self) -> bool:
        """Whether g > 0 somewhere, so that its mass a[0, 0] is positive."""
        return True

    def boundary(self, e: np.ndarray) -> list:
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

    def contains(self, z):
        return abs(z - self.center) <= self.R

    def boundary(self, e: np.ndarray) -> list:
        return [(self.center + self.R * e, 1j * self.R * e)]

    def moment_array(self, order: int) -> np.ndarray:
        return translate_moments(_radial_diagonal(order, 0.0, self.R), self.center)

    def kernel_log(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        x = 1.0 / ((z - self.center) * np.conj(w - self.center))
        return -np.log(1.0 - self.R**2 * x)

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

    def contains(self, z):
        rho = abs(z - self.center)
        return (self.r <= rho) & (rho <= self.R)

    def boundary(self, e: np.ndarray) -> list:
        outer = (self.center + self.R * e, 1j * self.R * e)
        # inner component is traversed clockwise as part of the boundary
        return [outer, (self.center + self.r * e, -1j * self.r * e)]

    def moment_array(self, order: int) -> np.ndarray:
        return translate_moments(_radial_diagonal(order, self.r, self.R), self.center)

    def kernel_log(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        zc, wc = z - self.center, w - self.center
        z_hole, w_hole = np.abs(zc) < self.r, np.abs(wc) < self.r
        y = zc * np.conj(wc)
        # one point in the hole and one outside: the integrand has no
        # angle-independent term, by rotation symmetry
        k = np.zeros(len(y), dtype=complex)
        hole, out = z_hole & w_hole, ~(z_hole | w_hole)
        k[hole] = (2.0 * math.log(self.R / self.r)
                   - np.log(1.0 - y[hole] / self.r**2) + np.log(1.0 - y[hole] / self.R**2))
        x = 1.0 / y[out]
        k[out] = -np.log(1.0 - self.R**2 * x) + np.log(1.0 - self.r**2 * x)
        return k

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

    def contains(self, z):
        u = self._local(z)
        return (u.real / self.p) ** 2 + (u.imag / self.q) ** 2 <= 1.0

    def boundary(self, e: np.ndarray) -> list:
        rot, cos, sin = np.exp(1j * self.phi), e.real, e.imag
        z = self.center + rot * (self.p * cos + 1j * self.q * sin)
        dz = rot * (-self.p * sin + 1j * self.q * cos)
        return [(z, dz)]

    def moment_array(self, order: int) -> np.ndarray:
        """Green's theorem: a[j, k] = (1/(2 pi i (k+1))) * contour integral of
        z^j conj(z)^(k+1) dz, a trigonometric polynomial of degree <= 2 order in
        theta, so 2 order + 1 trapezoid nodes are exact.  The entries k >= j
        (the larger divisor) are kept and mirrored; `MomentMatrix` makes the
        diagonal real."""
        n = 2 * order + 1
        if order * n > quad_budget():
            raise PrecisionError(
                f"quadrature budget exceeded: ellipse moments of order {order} need {order * n} nodes"
            )
        ((z, dz),) = boundary_nodes(self, n)
        powers = z[None, :] ** np.arange(order + 1)[:, None]
        g = (powers[:-1] @ (powers[1:].conj() * dz).T) / (1j * n * np.arange(1, order + 1))
        return np.triu(g) + np.triu(g, 1).conj().T

    def _sigma(self, z: complex) -> float:
        """ln((P + Q)/(p + q)), P and Q the semi-axes of the confocal ellipse through z."""
        u, c = self._local(z), math.sqrt(self.p**2 - self.q**2)
        big = 0.5 * (abs(u - c) + abs(u + c))
        return math.log((big + math.sqrt(big**2 - c**2)) / (self.p + self.q))

    def kernel_log(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Trapezoid rule on the contour form of `cauchy_kernel_log`, to
        tol = KERNEL_TOL.  The integrand continues analytically out to the
        confocal ellipse through z or w, so the n-node sum T_n errs by about
        exp(-sigma n) and a point needs at least ln(1/tol)/sigma nodes; when
        that exceeds the budget `quad_budget()` (sigma budget < ln(1/tol))
        for any point of the batch, the rule fails before any node is built.
        A point on or inside the rim (sigma <= 0) fails that same test.

        Each point's nested doubling starts at the smallest n = 64 2^k with
        2 n sigma > ln(1/tol), so its first refinement sums the predicted
        count.  After refining to n it returns T_n once
        2 |T_n - T_(n/2)| exp(-sigma n/2) <= tol max(1, |T_n|): the difference
        estimates T_(n/2)'s error and exp(-sigma n/2) carries it down to
        T_n's.  That estimate runs short of the true error (by a median 1.2
        to 1.6 times on offset, rotated ellipses), which the factor 2 covers:
        the delivered error stays below about tol/2.  The points share
        nodes: each level (n, shift) is built once per call and summed for
        every point that reaches it, and each point's value is bit for bit
        the one its own rule would give.  The node terms' logarithm is
        `_principal_log`, log|x| + i arg x from real kernels: np.log on
        complex input costs four times as much and was most of the rule's
        time.
        """
        budget, tol = quad_budget(), KERNEL_TOL
        sigma = [min(self._sigma(zi), self._sigma(wi)) for zi, wi in zip(z, w)]
        if min(sigma) * budget < math.log(1.0 / tol):
            raise PrecisionError(
                f"quadrature budget exceeded: the ellipse contour needs more than {budget} nodes"
            )
        wbar, cbar, zs = np.conj(w)[:, None], np.conj(self.center - w)[:, None], z[:, None]

        def node_sums(n: int, shift: float, idx: list) -> list:
            ((zeta, dzeta),) = boundary_nodes(self, n, shift)
            terms = np.conj(zeta) - wbar[idx]
            terms /= cbar[idx]
            _principal_log(terms)
            terms *= dzeta
            terms /= zeta - zs[idx]
            return [complex(t) for t in terms.sum(axis=1)]

        start = []
        for s in sigma:
            n = 64
            while 2 * n * s <= math.log(1.0 / tol):
                n *= 2
            start.append(n)
        total = [0j] * len(sigma)
        out = np.empty(len(sigma), dtype=complex)
        pending = list(range(len(sigma)))
        n = min(start)
        while pending:
            first = [i for i in pending if start[i] == n]
            if first:
                for i, t in zip(first, node_sums(n, 0.0, first)):
                    total[i] = t
            refine = [i for i in pending if start[i] <= n]
            if refine:
                if 2 * n > budget:
                    raise PrecisionError(
                        f"quadrature budget exceeded: the ellipse contour needs more than {budget} nodes"
                    )
                # refining n to 2n nodes: exp(-sigma n) is the docstring's exp(-sigma (2n)/2)
                for i, t in zip(refine, node_sums(n, 0.5, refine)):
                    coarse = total[i] / (1j * n)
                    total[i] += t
                    fine = total[i] / (1j * (2 * n))
                    if 2.0 * abs(fine - coarse) * math.exp(-sigma[i] * n) <= tol * max(1.0, abs(fine)):
                        out[i] = fine
                        pending.remove(i)
            n *= 2
        return out

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

    def contains(self, z):
        return self.base.contains(z)

    def shade_at(self, z: complex) -> float:
        return self.t * self.base.shade_at(z)

    def has_shade(self) -> bool:
        return self.base.has_shade()

    def moment_array(self, order: int) -> np.ndarray:
        return self.t * self.base.moment_array(order)

    def kernel_log(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        return self.t * self.base.kernel_log(z, w)

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

    def contains(self, z):
        return np.logical_or.reduce([p.contains(z) for p in self.parts])

    def shade_at(self, z: complex) -> float:
        return next(p for p in self.parts if p.contains(z)).shade_at(z)

    def has_shade(self) -> bool:
        return any(p.has_shade() for p in self.parts)

    def moment_array(self, order: int) -> np.ndarray:
        return sum(p.moment_array(order) for p in self.parts)

    def kernel_log(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        return sum(p.kernel_log(z, w) for p in self.parts)

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

    def _cell_distances(self, points) -> np.ndarray:
        """Distance from each point to the nearest positive cell's disk, negative
        inside, in the points' shape; the positive cells' centres are built once."""
        points = np.asarray(points, dtype=complex)
        cells = self.centers()[self.values > 0]
        radius = 0.5 * math.hypot(*self.cell)
        dist = [np.abs(cells - p).min(initial=math.inf) - radius for p in points.ravel()]
        return np.array(dist).reshape(points.shape)

    def contains(self, z):
        return self._cell_distances(z) <= 0

    def has_shade(self) -> bool:
        return bool((self.values > 0).any())

    def _point_masses(self) -> tuple[np.ndarray, np.ndarray]:
        """The cells as point masses: their centres and weights g dx dy / pi, flat."""
        dx, dy = self.cell
        return self.centers().ravel(), self.values.ravel() * (dx * dy / math.pi)

    def moment_array(self, order: int) -> np.ndarray:
        z, w = self._point_masses()
        powers = z[None, :] ** np.arange(order)[:, None]
        a = (powers * w) @ powers.conj().T
        # MomentMatrix repeats this bit for bit, but a Weighted grid scales a first
        return 0.5 * (a + a.conj().T)

    def kernel_log(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        if self._cell_distances(np.concatenate([z, w])).min() < 2.0 * math.hypot(*self.cell):
            raise MathDomainError(
                "evaluation point is within two quadrature cells of the support"
            )
        zeta, wgt = self._point_masses()
        return np.sum(wgt / ((zeta - z[:, None]) * (np.conj(zeta) - np.conj(w)[:, None])), axis=1)

    def to_obj(self) -> dict:
        values = [[float(v) for v in row] for row in self.values]
        return self._doc(box=list(self.box.as_tuple()), values=values)

    @classmethod
    def from_obj(cls, obj: dict) -> Grid:
        x0, x1, y0, y1 = (float(v) for v in obj["box"])
        return cls(Box(x0, x1, y0, y1), np.asarray(obj["values"], dtype=float))


SHAPE_TYPES = {cls.__name__.lower(): cls for cls in (Disk, Annulus, Ellipse, Weighted, Sum, Grid)}


# ---------------------------------------------------------------------------
# quadrature core


def boundary_nodes(shape: Shape, n: int, shift: float = 0.0):
    """Boundary parametrization(s) as (points, dz/dtheta) pairs, outer first.

    Nodes sit at theta = 2 pi (k + shift) / n, k = 0..n-1, so shift = 1/2
    gives the midpoints that refine an n-node trapezoid rule to 2n nodes.
    The shape's `boundary` gets the unit-circle points exp(i theta).  For
    power-of-two n up to TABLED_NODES and shift 0 or 1/2, the sizes the
    contour rule and the exterior moments use again and again, they come
    from a read-only table built once per process: at most 30 tables,
    about 1 MB.  Any other size is computed for the call and not kept.
    """
    if 0 < n <= TABLED_NODES and n & (n - 1) == 0 and shift in (0.0, 0.5):
        return shape.boundary(_unit_circle_table(n, float(shift)))
    return shape.boundary(_unit_circle(n, shift))


def _unit_circle(n: int, shift: float) -> np.ndarray:
    """exp(i theta) at theta = 2 pi (k + shift) / n.  Its real and imaginary
    parts are np.cos and np.sin of the same theta bit for bit, which the
    tests check, so a shape may read cos and sin from it."""
    return np.exp(1j * (2.0 * math.pi * (np.arange(n) + shift) / n))


@functools.cache
def _unit_circle_table(n: int, shift: float) -> np.ndarray:
    e = _unit_circle(n, shift)
    e.flags.writeable = False
    return e


def _principal_log(x: np.ndarray) -> np.ndarray:
    """Principal logarithm of a complex array, in place: log|x| + i arg x.

    It is np.log's branch, with the sign of +-pi on the negative real axis
    following the sign of a zero imaginary part, but it is formed from the
    real kernels log, hypot and arctan2: for complex input numpy calls the C
    library's clog, which costs about four times as much.  hypot neither
    overflows nor underflows, and the result stays within about eps
    max(1, |log x|) of np.log's.
    """
    arg = np.arctan2(x.imag, x.real)
    np.log(np.hypot(x.real, x.imag), out=x.real)
    x.imag = arg
    return x


def _radial_diagonal(order: int, inner: float, outer: float) -> np.ndarray:
    j = np.arange(order)
    return np.diag((outer ** (2 * j + 2) - inner ** (2 * j + 2)) / (j + 1)).astype(complex)


@functools.cache
def _pascal_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(j, p, j - p, comb(j, p) as floats) over the lower triangle of order n,
    row by row as `tril_indices` runs; built once per order, read-only."""
    j, p = np.tril_indices(n)
    comb = np.array([math.comb(row, col) for row in range(n) for col in range(row + 1)], dtype=float)
    table = (j, p, j - p, comb)
    for arr in table:
        arr.flags.writeable = False
    return table


def translate_moments(a: np.ndarray, c: complex) -> np.ndarray:
    """Exact binomial transform of moments under z -> z + c.

    The Pascal matrix t[j, p] = comb(j, p) c^(j - p) has Python's roundings:
    the float of the exact binomial times Python's c**k.  Its indices and
    binomials come from a table kept per order n for the life of the
    process (`_pascal_table`): four arrays of n(n+1)/2 eight-byte entries,
    36 KB at n = 48, all orders up to 48 together 0.6 MB; only c's powers
    are formed per call.
    """
    if c == 0:
        return np.array(a, dtype=complex)
    n = a.shape[0]
    j, p, k, comb = _pascal_table(n)
    powers = np.array([c**i for i in range(n)], dtype=complex)
    t = np.zeros((n, n), dtype=complex)
    t[j, p] = comb * powers[k]
    return t @ np.asarray(a, dtype=complex) @ t.conj().T


def moments(shape: Shape, order: int) -> MomentMatrix:
    """Moment matrix a[j, k] for j, k < order.

    Moments past the float range, such as those of a shape far from the
    origin at a high order, raise PrecisionError, and so does a mass a[0, 0]
    that underflows to 0 although g > 0 somewhere (a disk of radius 1e-200).
    """
    if order < 1:
        raise InputError("moment order must be >= 1")
    a = in_float_range(lambda: shape.moment_array(order), f"moments of order {order} overflow the float range")
    if a[0, 0] == 0 and shape.has_shade():
        raise PrecisionError("the shape's mass a[0, 0] underflows to 0")
    return MomentMatrix(a)


# ---------------------------------------------------------------------------
# Cauchy kernel integral, shared by the exponential transform evaluator


def cauchy_kernel_log(shape: Shape, z, w):
    """(1/pi) * integral of g(zeta) / ((zeta - z)(conj(zeta) - conj(w))) dA.

    z and w are equal-length 1-D arrays of points, and the result is the
    array of kernels at the pairs (z[i], w[i]); a scalar pair is a one-point
    batch and gives a complex.  Every point must be finite and lie strictly
    outside the support: one inside or on it rejects the whole batch.

    Disks and annuli use closed forms.  For an ellipse with centre c, Green's
    theorem turns the area integral into the contour integral

        (1/(2 pi i)) * contour integral of
            log((conj(zeta) - conj(w)) / (conj(c) - conj(w))) dzeta / (zeta - z),

    whose principal logarithm is single-valued because the support is convex
    and w lies outside.  `Ellipse.kernel_log` sums it by a doubling trapezoid
    rule to within about tol/2 of the value (relative, floor 1) at
    tol = KERNEL_TOL, and the points of a batch share each level's nodes; its
    docstring states the rule's start level, stop test and factor 2.  A rule that
    needs more nodes than the quadrature budget raises PrecisionError.
    Weights and unions act linearly; a grid is summed cell by cell.  It
    returns ``shape.kernel_log(z, w)``; the ellipse rule reads the
    tolerance and the budget itself.
    """
    scalar = np.ndim(z) == 0 and np.ndim(w) == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    if z.ndim != 1 or z.shape != w.shape or z.size == 0:
        raise InputError("z and w must be equal-length, non-empty 1-D arrays of points")
    points = np.concatenate([z, w])
    if not np.isfinite(points).all():
        raise InputError("evaluation points must be finite")
    if shape.contains(points).any():
        raise MathDomainError("evaluation point lies inside or on the support")
    k = shape.kernel_log(z, w)
    return complex(k[0]) if scalar else k
