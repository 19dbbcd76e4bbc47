"""Moment computation against closed-form integrals.

Centered disks and annuli have exact radial moments, centered axis-aligned
ellipses have the polynomial formulas a00 = pq, a20 = pq(p^2-q^2)/4,
a40 = pq(p^2-q^2)^2/8, and translations expand by the binomial theorem;
those hand results anchor everything else.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from expotrans.errors import InputError, MathDomainError, PrecisionError
from expotrans.shapes import (
    Annulus,
    Box,
    Disk,
    Ellipse,
    Grid,
    Sum,
    Weighted,
    boundary_nodes,
    cauchy_columns,
    cauchy_kernel_log,
    moments,
    rotate_moments,
    translate_moments,
)


def test_unit_disk_moments():
    a = moments(Disk(0.0, 1.0), 4).a
    want = np.diag([1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0])
    assert np.max(np.abs(a - want)) < 1e-14


def test_annulus_moments():
    a = moments(Annulus(0.0, 0.5, 1.0), 6).a
    for j in range(6):
        want = (1.0 - 0.25 ** (j + 1)) / (j + 1)
        assert abs(a[j, j] - want) < 1e-14
    off = a - np.diag(np.diag(a))
    assert np.max(np.abs(off)) == 0.0


def test_weighted_scales_linearly():
    base = moments(Disk(0.0, 1.0), 5).a
    half = moments(Weighted(Disk(0.0, 1.0), 0.5), 5).a
    assert np.max(np.abs(half - 0.5 * base)) < 1e-15


def test_ellipse_closed_forms():
    p, q = 1.5, 0.5
    a = moments(Ellipse(0.0, p, q, 0.0), 6).a
    assert abs(a[0, 0] - p * q) < 1e-10
    assert abs(a[2, 0] - p * q * (p**2 - q**2) / 4.0) < 1e-10
    assert abs(a[4, 0] - p * q * (p**2 - q**2) ** 2 / 8.0) < 1e-10
    # parity: a_jk vanishes unless j-k is even
    for j in range(6):
        for k in range(6):
            if (j - k) % 2:
                assert abs(a[j, k]) < 1e-12


@pytest.mark.parametrize("p, q", [(1.25, 0.75), (1.5, 0.5)])
def test_ellipse_moments_match_binomial_expansion(p, q):
    # z = s (alpha e^(it) + beta e^(-it)) with alpha = (p+q)/2, beta = (p-q)/2
    # gives a[j,k] = 2pq/(j+k+2) * sum_r C(j,r) C(k,s) alpha^(r+s) beta^(j+k-r-s)
    # over the r, s with 2r - j = 2s - k, summed here in exact rationals.
    n = 48
    al, be = (Fraction(p) + Fraction(q)) / 2, (Fraction(p) - Fraction(q)) / 2
    want = np.zeros((n, n))
    for j in range(n):
        for k in range(j % 2, n, 2):
            terms = (
                (r, (2 * r - j + k) // 2) for r in range(j + 1) if 0 <= 2 * r - j + k <= 2 * k
            )
            tot = sum(
                math.comb(j, r) * math.comb(k, t) * al ** (r + t) * be ** (j + k - r - t)
                for r, t in terms
            )
            want[j, k] = float(2 * Fraction(p) * Fraction(q) / (j + k + 2) * tot)
    got = moments(Ellipse(0.0, p, q, 0.0), n).a
    assert np.abs(got - want).max() <= 2e-14 * np.abs(want).max()


def test_rotation_covariance():
    phi = 0.7
    n = 6
    base = moments(Ellipse(0.0, 2.0, 1.0, 0.0), n).a
    rotated = moments(Ellipse(0.0, 2.0, 1.0, phi), n).a
    j = np.arange(n)
    phase = np.exp(1j * phi * (j[:, None] - j[None, :]))
    assert np.max(np.abs(rotated - phase * base)) < 1e-8
    assert np.max(np.abs(rotate_moments(base, phi) - rotated)) < 1e-8


def test_translated_disk_hand_values():
    c = 0.3 + 0.2j
    a = moments(Disk(c, 1.0), 3).a
    assert abs(a[0, 0] - 1.0) < 1e-12
    assert abs(a[1, 0] - c) < 1e-12
    assert abs(a[1, 1] - (0.5 + abs(c) ** 2)) < 1e-12
    assert abs(a[2, 0] - c**2) < 1e-12
    assert abs(a[2, 1] - (c + c**2 * c.conjugate())) < 1e-12


def test_translate_moments_matches_direct():
    c = -0.4 + 0.1j
    n = 8
    centered = moments(Disk(0.0, 1.0), n).a
    direct = moments(Disk(c, 1.0), n).a
    assert np.max(np.abs(translate_moments(centered, c) - direct)) < 1e-8


def test_sum_additivity():
    d1 = Disk(-2.0, 0.5)
    d2 = Disk(2.0, 0.75)
    total = moments(Sum((d1, d2)), 5).a
    parts = moments(d1, 5).a + moments(d2, 5).a
    assert np.max(np.abs(total - parts)) < 1e-12


def test_sum_rejects_overlap():
    with pytest.raises(InputError):
        Sum((Disk(0.0, 1.0), Disk(0.5, 1.0)))


def test_grid_constant_box():
    box = Box(-1.0, 1.0, -0.5, 0.5)
    g = Grid(box, np.full((8, 16), 1.0))
    a = moments(g, 3).a
    assert abs(a[0, 0] - box.area / math.pi) < 1e-12
    assert abs(g.mass() - box.area) < 1e-12


def test_grid_approximates_disk_loosely():
    n = 160
    xs = np.linspace(-1.0, 1.0, n, endpoint=False) + 1.0 / n
    vals = (xs[None, :] ** 2 + xs[:, None] ** 2 <= 1.0).astype(float)
    g = Grid(Box(-1.0, 1.0, -1.0, 1.0), vals)
    a = moments(g, 3).a
    assert abs(a[0, 0] - 1.0) < 5e-3
    assert abs(a[1, 1] - 0.5) < 5e-3


def test_mass_values():
    assert abs(Disk(0.0, 2.0).mass() - 4 * math.pi) < 1e-12
    assert abs(Annulus(0.0, 0.5, 1.0).mass() - math.pi * 0.75) < 1e-12
    assert abs(Weighted(Disk(0.0, 1.0), 0.25).mass() - 0.25 * math.pi) < 1e-12
    assert abs(Ellipse(0.0, 1.5, 0.5, 0.3).mass() - math.pi * 0.75) < 1e-9


def test_moment_matrices_hermitian():
    shapes = [
        Disk(0.2 + 0.1j, 1.0),
        Annulus(0.0, 0.3, 0.8),
        Ellipse(0.5j, 2.0, 1.0, 0.4),
        Weighted(Disk(0.0, 1.0), 0.5),
    ]
    for s in shapes:
        a = moments(s, 6).a
        assert np.max(np.abs(a - a.conj().T)) < 1e-10


def test_cauchy_columns():
    cols = cauchy_columns(Disk(0.0, 1.0), 0, 5)
    assert np.max(np.abs(cols[:, 0] - np.array([1, 0, 0, 0, 0]))) < 1e-14
    a = moments(Annulus(0.0, 0.5, 1.0), 5).a
    cols = cauchy_columns(Annulus(0.0, 0.5, 1.0), 1, 5)
    assert np.max(np.abs(cols[:, 1] - a[:, 1])) < 1e-14
    assert abs(cols[1, 1] - (1.0 - 1.0 / 16.0) / 2.0) < 1e-14
    with pytest.raises(InputError):
        cauchy_columns(Disk(0.0, 1.0), 5, 5)


def test_geometry_helpers():
    c, r = Ellipse(1.0 + 1.0j, 2.0, 0.5, 0.3).bounding_circle()
    assert c == 1.0 + 1.0j and r == 2.0
    # 1e-9 inside each boundary is in the support, 1e-9 outside is not
    disk, ring = Disk(0.0, 1.0), Annulus(0.0, 0.5, 1.0)
    assert disk.contains(1.0 - 1e-9) and not disk.contains(1.0 + 1e-9)
    assert ring.contains((1.0 - 1e-9) * 1j) and not ring.contains((1.0 + 1e-9) * 1j)
    assert ring.contains(-(0.5 + 1e-9)) and not ring.contains(-(0.5 - 1e-9))


def test_shape_validation():
    with pytest.raises(InputError):
        Disk(0.0, 0.0)
    with pytest.raises(InputError):
        Annulus(0.0, 1.0, 0.5)
    with pytest.raises(InputError):
        Ellipse(0.0, 0.5, 1.0)
    with pytest.raises(InputError):
        Weighted(Disk(0.0, 1.0), 1.5)
    with pytest.raises(InputError):
        Grid(Box(0.0, 1.0, 0.0, 1.0), np.array([[0.5, 2.0]]))


def test_quad_budget_env(monkeypatch):
    monkeypatch.setenv("EXPOTRANS_QUAD_BUDGET", "40")
    with pytest.raises(PrecisionError):
        moments(Ellipse(0.0, 3.0, 1.0, 0.0), 10)
    monkeypatch.setenv("EXPOTRANS_QUAD_BUDGET", "zero")
    with pytest.raises(InputError):
        moments(Ellipse(0.0, 3.0, 1.0, 0.0), 4)


def _rule_set_shapes():
    rng = np.random.default_rng(11)
    values = np.where(rng.random((6, 8)) < 0.3, 0.0, rng.random((6, 8)))
    values[0, 0] = 1.0
    return [
        Disk(0.3 - 0.2j, 1.1),
        Annulus(0.2j, 0.4, 1.0),
        Ellipse(0.2 + 0.1j, 1.6, 0.7, 0.4),
        Weighted(Ellipse(0.1j, 1.2, 0.5, -0.3), 0.35),
        Sum((Disk(-2.0, 0.5), Weighted(Annulus(2.0 + 0.5j, 0.3, 0.75), 0.6))),
        Grid(Box(-1.0, 1.0, -0.5, 0.5), values),
    ]


def _oracle(shape, z) -> bool:
    """Membership from the geometry alone: foci for ellipses, cell disks for grids."""
    if isinstance(shape, Weighted):
        return _oracle(shape.base, z)
    if isinstance(shape, Sum):
        return any(_oracle(p, z) for p in shape.parts)
    if isinstance(shape, Grid):
        radius = 0.5 * math.hypot(*shape.cell)
        return any(abs(c - z) <= radius for c in shape.centers()[shape.values > 0])
    if isinstance(shape, Ellipse):
        f = math.sqrt(shape.p**2 - shape.q**2) * np.exp(1j * shape.phi)
        return abs(z - shape.center - f) + abs(z - shape.center + f) <= 2.0 * shape.p
    rho = abs(z - shape.center)
    return rho <= shape.R and (isinstance(shape, Disk) or rho >= shape.r)


def _edge_points(shape):
    """Points 1e-9 inside and 1e-9 outside the boundary of a shape, in pairs."""
    if isinstance(shape, Weighted):
        return _edge_points(shape.base)
    if isinstance(shape, Sum):
        return np.concatenate([_edge_points(p) for p in shape.parts])
    if isinstance(shape, Grid):
        # the lower-left cell counts as a disk of the cell's half-diagonal
        corner = shape.centers()[0, 0]
        radius = 0.5 * math.hypot(*shape.cell)
        return corner + (radius + np.array([-1e-9, 1e-9])) * np.exp(1.25j * math.pi)
    pts = []
    for z, dz in boundary_nodes(shape, 16):
        outward = -1j * dz / np.abs(dz)
        pts.append(np.stack([z - 1e-9 * outward, z + 1e-9 * outward], axis=1).ravel())
    return np.concatenate(pts)


def test_rule_set_of_every_shape():
    rng = np.random.default_rng(5)
    for shape in _rule_set_shapes():
        name = type(shape).__name__
        a = moments(shape, 4).a
        assert shape.mass() == pytest.approx(math.pi * a[0, 0].real, rel=1e-12), name
        c, r = shape.bounding_circle()
        seeded = c + 1.5 * r * np.sqrt(rng.random(200)) * np.exp(2j * math.pi * rng.random(200))
        edge = _edge_points(shape)
        for z in seeded:
            assert shape.contains(z) == _oracle(shape, z), (name, z)
        assert [bool(shape.contains(z)) for z in edge] == [True, False] * (len(edge) // 2), name
        assert any(shape.contains(z) for z in edge) and not all(shape.contains(z) for z in edge)
        inside = next(z for z in seeded if shape.contains(z))
        far = c + 3.0 * r
        with pytest.raises(MathDomainError):
            cauchy_kernel_log(shape, inside, far)
        with pytest.raises(MathDomainError):
            cauchy_kernel_log(shape, far, inside)
        if isinstance(shape, (Weighted, Sum, Grid)):
            # a weight must not borrow its base's boundary: exterior moments would lose t
            with pytest.raises(InputError):
                boundary_nodes(shape, 8)
    union = _rule_set_shapes()[4]
    assert union.shade_at(2.0 + 0.5j + 0.5) == 0.6 and union.shade_at(-2.0) == 1.0
