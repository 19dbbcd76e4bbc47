"""Moment computation against closed-form integrals.

Centered disks and annuli have exact radial moments, centered axis-aligned
ellipses have the polynomial formulas a00 = pq, a20 = pq(p^2-q^2)/4,
a40 = pq(p^2-q^2)^2/8, and translations expand by the binomial theorem;
those hand results anchor everything else.
"""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from expotrans import heleshaw, shapes
from expotrans.errors import InputError, MathDomainError, PrecisionError
from expotrans.exptransform import boundary_root
from expotrans.operators import b_from_operator, ellipse_operator
from expotrans.series import MomentMatrix, a_to_b
from expotrans.shapes import (
    Annulus,
    Box,
    Disk,
    Ellipse,
    Grid,
    Sum,
    Weighted,
    boundary_nodes,
    cauchy_kernel_log,
    moments,
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


def test_offset_ellipse_b_matches_its_operator_gram():
    # the boundary rule has no translation step to lose digits in: b of an
    # offset, rotated ellipse meets the Gram of T = c + alpha S + beta S*
    c, p, q, phi = 0.6 + 0.1j, 1.2, 0.7, -1.1
    turn = complex(math.cos(phi), math.sin(phi))
    alpha, beta = turn * (p + q) / 2, turn * (p - q) / 2
    b = a_to_b(moments(Ellipse(c, p, q, phi), 24).a).b
    want = b_from_operator(ellipse_operator(c, alpha, beta, 26), 24).b
    assert np.linalg.norm(b - want) <= 5e-11 * np.linalg.norm(want)


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


def _translate_by_loop(a: np.ndarray, c: complex) -> np.ndarray:
    # the Pascal matrix t[j, p] = comb(j, p) c^(j - p) built entry by entry
    n = a.shape[0]
    t = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for p in range(j + 1):
            t[j, p] = math.comb(j, p) * c ** (j - p)
    return t @ np.asarray(a, dtype=complex) @ t.conj().T


def test_translate_moments_bit_identical_to_loop():
    # binomials beyond 2^53 (n > 57) round once, as in the loop
    rng = np.random.default_rng(15)
    for n in list(range(1, 13)) + [24, 48, 60, 100]:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for c in (complex(*rng.standard_normal(2)), complex(rng.uniform(-0.5, 0.5), 0.0), 1.7j):
            assert np.array_equal(translate_moments(a, c), _translate_by_loop(a, c))


@pytest.mark.parametrize("x", [1e5, 1e7])
def test_moments_past_the_float_range(x):
    # 1e7**47 overflows Python's c**k; at 1e5 the products overflow to inf
    disk = Disk(complex(x, 0.0), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way either
        with pytest.raises(PrecisionError, match="order 48"):
            moments(disk, 48)
        with pytest.raises(PrecisionError, match="order 48"):
            moments(Sum((disk, Disk(0j, 0.5))), 48)
        assert np.isfinite(moments(disk, 8).a).all()


def test_mass_underflowing_to_zero_is_a_precision_error():
    # R = 1e-200: a[0, 0] = R^2 underflows to 0, and the zero b that followed
    # made pipeline refuse a valid source as bad input ("empty Hessenberg block")
    tiny = Disk(0.3, 1e-200)
    for shape in (tiny, Weighted(tiny, 0.5), Sum((tiny, Disk(5.0, 1e-200))), Ellipse(0.0, 1e-170, 1e-170)):
        with pytest.raises(PrecisionError, match=r"mass a\[0, 0\] underflows to 0"):
            moments(shape, 4)
    # a tiny mass that does not underflow, a sum with a visible part and a grid
    # of zeros, whose mass is 0 and not an underflow, keep their moments
    assert moments(Disk(0.0, 1e-150), 2).a[0, 0] == 1e-300
    assert moments(Sum((tiny, Disk(5.0, 1.0))), 2).a[0, 0] == 1.0
    zeros = Grid(Box(-1.0, 1.0, -1.0, 1.0), np.zeros((3, 4)))
    assert not zeros.has_shade() and not Weighted(zeros, 0.5).has_shade()
    assert not np.any(moments(zeros, 4).a)
    assert not np.any(moments(Weighted(zeros, 0.5), 4).a)
    assert Sum((zeros, Disk(5.0, 1e-200))).has_shade()


def test_pascal_tables_are_cached_and_read_only():
    for n in (1, 5, 48):
        table = shapes._pascal_table(n)
        assert table is shapes._pascal_table(n)
        j, p, k, comb = table
        assert np.array_equal(k, j - p)
        assert comb.tolist() == [float(math.comb(int(r), int(c))) for r, c in zip(j, p)]
        for arr in table:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0


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


def test_grid_approximates_disk_loosely():
    n = 160
    xs = np.linspace(-1.0, 1.0, n, endpoint=False) + 1.0 / n
    vals = (xs[None, :] ** 2 + xs[:, None] ** 2 <= 1.0).astype(float)
    g = Grid(Box(-1.0, 1.0, -1.0, 1.0), vals)
    a = moments(g, 3).a
    assert abs(a[0, 0] - 1.0) < 5e-3
    assert abs(a[1, 1] - 0.5) < 5e-3


def test_grid_kernel_builds_the_cells_once(monkeypatch):
    # the two-cell guard scans the positive cells built once per call; the
    # distances, the guard's verdicts and the kernel values are bit for bit
    # those of a scan that rebuilds the cells for every point
    rng = np.random.default_rng(12)
    values = np.where(rng.random((9, 13)) < 0.4, 0.0, rng.random((9, 13)))
    g = Grid(Box(-1.0, 1.5, -0.7, 0.6), values)
    radius, guard = 0.5 * math.hypot(*g.cell), 2.0 * math.hypot(*g.cell)

    def scan(p):
        return np.abs(g.centers()[g.values > 0] - p).min() - radius

    c, r = g.bounding_circle()
    z = c + r * rng.uniform(0.9, 2.5, 40) * np.exp(2j * math.pi * rng.random(40))
    w = c + r * rng.uniform(0.9, 2.5, 40) * np.exp(2j * math.pi * rng.random(40))
    assert list(g._cell_distances(z)) == [scan(p) for p in z]
    zeta = g.centers().ravel()
    wgt = g.values.ravel() * (g.cell[0] * g.cell[1] / math.pi)
    rejected = 0
    for zi, wi in zip(z, w):
        if min(scan(zi), scan(wi)) < guard:
            rejected += 1
            with pytest.raises(MathDomainError):
                g.kernel_log(np.array([zi]), np.array([wi]))
        else:
            want = np.sum(wgt / ((zeta - zi) * (np.conj(zeta) - np.conj(wi))))
            assert g.kernel_log(np.array([zi]), np.array([wi]))[0] == want
    assert 0 < rejected < len(z)
    # the cells are built as often for a batch of eight points as for one
    builds = []
    centers = Grid.centers
    monkeypatch.setattr(Grid, "centers", lambda self: builds.append(1) or centers(self))
    far = c + 3.0 * r * np.exp(2j * math.pi * np.arange(8) / 8)
    g.kernel_log(far[:1], far[:1])
    once = len(builds)
    builds.clear()
    g.kernel_log(far, far[::-1])
    assert len(builds) == once
    assert Grid(g.box, np.zeros_like(values))._cell_distances(far).tolist() == [math.inf] * 8


def test_principal_log_is_numpys_branch():
    # log|x| + i arg x from real kernels against np.log (the C library's
    # clog): seeded magnitudes 1e-300 to 1e300, and |x| within 1e-6 of 1,
    # where log|x| cancels; on the real axis the signed zero of the
    # imaginary part picks the same sign of pi (and of 0); no warnings
    rng = np.random.default_rng(21)
    n = 100_000
    far = 10 ** rng.uniform(-300, 300, n) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    near = (1 + rng.uniform(-1e-6, 1e-6, n)) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    axis = np.array([complex(re, im) for re in (-2.0, -1e-300, -1e300, 1.0, 3.0, 1e300) for im in (0.0, -0.0)])
    eps = np.finfo(float).eps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (far, near, axis):
            want = np.log(x)
            got = shapes._principal_log(x.copy())
            assert np.all(np.abs(got - want) <= 2 * eps * np.maximum(1.0, np.abs(want)))
            assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
        assert np.array_equal(shapes._principal_log(axis.copy()).imag, np.log(axis).imag)


def test_mass_values():
    def mass(s):
        return math.pi * moments(s, 1).a[0, 0].real

    assert abs(mass(Disk(0.0, 2.0)) - 4 * math.pi) < 1e-12
    assert abs(mass(Annulus(0.0, 0.5, 1.0)) - math.pi * 0.75) < 1e-12
    assert abs(mass(Weighted(Disk(0.0, 1.0), 0.25)) - 0.25 * math.pi) < 1e-12
    assert abs(mass(Ellipse(0.0, 1.5, 0.5, 0.3)) - math.pi * 0.75) < 1e-9


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


def _seeded_ellipse(rng) -> Ellipse:
    q = rng.uniform(0.1, 0.8)
    return Ellipse(complex(*rng.uniform(-0.5, 0.5, 2)), q * rng.uniform(1.0, 3.0), q, rng.uniform(-math.pi, math.pi))


def _seeded_grid(rng) -> Grid:
    ny, nx = rng.integers(2, 12, 2)
    values = rng.uniform(0.0, 1.0, (ny, nx)) * (rng.random((ny, nx)) < 0.8)
    x0, y0 = rng.uniform(-1.0, 0.0, 2)
    return Grid(Box(x0, x0 + rng.uniform(0.2, 1.2), y0, y0 + rng.uniform(0.2, 1.2)), values)


def test_moment_matrix_owns_the_hermitian_rule():
    # an ellipse's moment_array leaves its diagonal's rounding-level imaginary
    # parts to MomentMatrix; zeroing them in place first (old_ellipse_rule)
    # gives the same bits, signs of zero included, alone and under Weighted and Sum
    rng = np.random.default_rng(31)

    def old_ellipse_rule(shape, order):
        a = shape.moment_array(order)
        np.fill_diagonal(a, a.diagonal().real)
        return a

    for _ in range(60):
        shape, order = _seeded_ellipse(rng), int(rng.integers(2, 40))
        t, far = rng.uniform(0.1, 1.0), Disk(complex(3.0, 0.5), 0.7)
        for got, rule in (
            (shape, old_ellipse_rule(shape, order)),
            (Weighted(shape, t), t * old_ellipse_rule(shape, order)),
            (Sum((shape, far)), old_ellipse_rule(shape, order) + far.moment_array(order)),
        ):
            assert moments(got, order).a.tobytes() == MomentMatrix(rule).a.tobytes()
        # the old rule's output was exactly Hermitian already: it is a itself
        rule = old_ellipse_rule(shape, order)
        assert moments(shape, order).a.tobytes() == rule.tobytes()
    # a grid's rule symmetrizes, and MomentMatrix's second pass keeps every
    # bit; a grey grid is its weight times that symmetrized array, bit for bit
    for _ in range(30):
        shape, order, t = _seeded_grid(rng), int(rng.integers(2, 40)), rng.uniform(0.1, 1.0)
        rule = shape.moment_array(order)
        assert np.array_equal(rule, rule.conj().T)
        assert moments(shape, order).a.tobytes() == MomentMatrix(rule).a.tobytes() == rule.tobytes()
        assert moments(Weighted(shape, t), order).a.tobytes() == (t * rule).tobytes()


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
    for values in (np.array([0.5, 0.2]), np.zeros((2, 2, 2)), np.zeros((0, 3))):
        with pytest.raises(InputError, match="non-empty 2-D"):
            Grid(Box(0.0, 1.0, 0.0, 1.0), values)
    with pytest.raises(InputError, match="non-finite"):
        Grid(Box(0.0, 1.0, 0.0, 1.0), np.array([[0.5, np.nan]]))
    with pytest.raises(InputError, match="at least one part"):
        Sum(())
    with pytest.raises(InputError, match="x0 < x1"):
        Box(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(InputError, match="order must be >= 1"):
        moments(Disk(0.0, 1.0), 0)


def test_quad_budget_env(monkeypatch):
    monkeypatch.setenv("EXPOTRANS_QUAD_BUDGET", "40")
    with pytest.raises(PrecisionError):
        moments(Ellipse(0.0, 3.0, 1.0, 0.0), 10)
    monkeypatch.setenv("EXPOTRANS_QUAD_BUDGET", "zero")
    with pytest.raises(InputError):
        moments(Ellipse(0.0, 3.0, 1.0, 0.0), 4)
    monkeypatch.setenv("EXPOTRANS_QUAD_BUDGET", "0")
    with pytest.raises(InputError, match="must be positive"):
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


def test_contains_answers_a_batch_as_it_answers_each_point():
    rng = np.random.default_rng(17)
    for shape in _rule_set_shapes():
        name = type(shape).__name__
        c, r = shape.bounding_circle()
        z = c + 1.5 * r * np.sqrt(rng.random(300)) * np.exp(2j * math.pi * rng.random(300))
        if isinstance(shape, Annulus):
            assert (abs(z - shape.center) < shape.r).any(), "no seeded point in the hole"
        got = shape.contains(z)
        assert got.shape == z.shape and got.dtype == bool, name
        assert got.tolist() == [bool(shape.contains(complex(zi))) for zi in z], name
        assert got.any() and not got.all(), name
        assert np.array_equal(shape.contains(z.reshape(20, 15)), got.reshape(20, 15)), name
        # a point still gives a scalar
        assert np.ndim(shape.contains(complex(z[0]))) == 0, name
        # one inside or one non-finite point rejects the kernel's whole batch
        far = c + 3.0 * r * np.exp(2j * math.pi * rng.random(4))
        with pytest.raises(MathDomainError, match="^evaluation point lies inside or on the support$"):
            cauchy_kernel_log(shape, np.append(far, z[got][0]), np.append(far, far[0]))
        with pytest.raises(InputError, match="^evaluation points must be finite$"):
            cauchy_kernel_log(shape, far, np.append(far[:-1], complex(np.nan, 0.0)))


# ---------------------------------------------------------------------------
# unit-circle node tables


def _angle_nodes(shape, n, shift=0.0):
    """The boundary nodes from the angles, as they were formed before the
    unit-circle tables: np.exp(1j theta) for circles, np.cos and np.sin for
    the ellipse.  Frozen here as the reference for bit-identity."""
    th = 2.0 * math.pi * (np.arange(n) + shift) / n
    if isinstance(shape, Ellipse):
        rot = np.exp(1j * shape.phi)
        z = shape.center + rot * (shape.p * np.cos(th) + 1j * shape.q * np.sin(th))
        dz = rot * (-shape.p * np.sin(th) + 1j * shape.q * np.cos(th))
        return [(z, dz)]
    e = np.exp(1j * th)
    outer = (shape.center + shape.R * e, 1j * shape.R * e)
    if isinstance(shape, Disk):
        return [outer]
    return [outer, (shape.center + shape.r * e, -1j * shape.r * e)]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=complex).tobytes()


NODE_SHAPES = (Disk(0.3 - 0.2j, 1.1), Annulus(-0.1 + 0.25j, 0.4, 1.2), Ellipse(0.2 + 0.1j, 1.5, 0.6, 0.7))


@pytest.mark.parametrize("n", [8, 47, 64, 1024, 4096, 2**15])
@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_boundary_nodes_are_the_angle_formulas_bit_for_bit(n, shift):
    # tabled (8, 64, 1024, 4096) and computed (47, 2^15) sizes alike; np.exp's
    # real and imaginary parts must be np.cos's and np.sin's exactly
    for shape in NODE_SHAPES:
        got, want = boundary_nodes(shape, n, shift), _angle_nodes(shape, n, shift)
        assert len(got) == len(want), shape
        for (z, dz), (z0, dz0) in zip(got, want):
            assert _bits(z) == _bits(z0) and _bits(dz) == _bits(dz0), (shape, n, shift)


def test_unit_circle_tables_are_read_only_and_bounded():
    for k in range(3, 21):
        for shift in (0.0, 0.5):
            boundary_nodes(NODE_SHAPES[0], 2**k, shift)
    for n in (1, 3, 47, 95, 1023, 4097):
        boundary_nodes(NODE_SHAPES[2], n, 0.25)
        boundary_nodes(NODE_SHAPES[2], n)
    # power-of-two n up to 2^14, shift 0 or 1/2: 30 tables at most, about 1 MB
    assert shapes._unit_circle_table.cache_info().currsize <= 30
    table = shapes._unit_circle_table(64, 0.5)
    assert table is shapes._unit_circle_table(64, 0.5)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0.0
    with pytest.raises(ValueError):
        table.real[0] = 0.0
    assert _bits(table) == _bits(shapes._unit_circle(64, 0.5))


def _ray_crossing(shape, d: complex) -> float:
    """t > 0 with t d on the outer boundary of a centred ellipse or an offset disk."""
    if isinstance(shape, Ellipse):
        v = d * np.exp(-1j * shape.phi)
        return 1.0 / math.hypot(v.real / shape.p, v.imag / shape.q)
    c = shape.center * np.conj(d)  # the centre in the ray's frame
    return c.real + math.sqrt(shape.R**2 - c.imag**2)


def _trace_rays(seed: int, decks: int) -> list:
    """Seeded rays in the benchmark's boundary-trace style: an offset disk, a
    centred annulus and a rotated ellipse along (+-0.15 rad) either axis."""
    rng = np.random.default_rng(seed)
    rays = []
    for _ in range(decks):
        R = rng.uniform(0.95, 1.05)
        disk = Disk(0.15 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random()), R)
        rays.append((disk, np.exp(2j * math.pi * rng.random()), (0.5, 2.0)))
        R = rng.uniform(0.95, 1.05)
        rays.append((Annulus(0j, rng.uniform(0.38, 0.42) * R, R), np.exp(2j * math.pi * rng.random()), (0.8, 2.0)))
        p = rng.uniform(1.45, 1.55)
        e = Ellipse(0j, p, rng.uniform(0.48, 0.52) * p, rng.uniform(0, math.pi))
        rays.append((e, np.exp(1j * (e.phi + rng.uniform(-0.15, 0.15))), (2.0 / 3.0, 2.0)))
        rays.append((e, np.exp(1j * (e.phi + 0.5 * math.pi + rng.uniform(-0.15, 0.15))), (0.4, 4.0)))
    return [(s, complex(d), (lo * _ray_crossing(s, d), hi * _ray_crossing(s, d))) for s, d, (lo, hi) in rays]


def _node_results() -> bytes:
    """Everything that reads the boundary nodes, as one byte string: roots on
    criterion 11's four rays and on 400 seeded rays, kernel values, exterior
    moments and the ellipse moment rule."""
    e = Ellipse(0.0, 1.5, 0.5)
    rays = [(Disk(0.0, 1.0), 1.0, (0.5, 2.0)), (Annulus(0.0, 0.5, 1.0), 1.0, (0.8, 2.0)),
            (e, 1.0, (1.0, 3.0)), (e, 1j, (0.2, 2.0))] + _trace_rays(22, 100)
    out = [boundary_root(shape, d, bracket) for shape, d, bracket in rays]
    rotated = NODE_SHAPES[2]
    z = rotated.center + np.array([1.7, 0.9j, -1.6 - 0.2j, 0.3 - 0.7j, 2.5 + 2.5j])
    out += list(cauchy_kernel_log(rotated, z, z[::-1]))
    for shape in (Disk(0.1j, 1.0), Annulus(0.05, 0.4, 1.0), Ellipse(0j, 1.5, 0.5, 0.3)):
        out += list(heleshaw.exterior_moments(shape, 8).t)
    for order in (12, 24, 48):
        for ellipse in (Ellipse(0j, 1.5, 0.6), Ellipse(0.3 - 0.2j, 1.5, 0.6, 0.7)):
            out += list(moments(ellipse, order).a.ravel())
    return _bits(out)


def test_node_tables_change_no_result_bit(monkeypatch):
    got = _node_results()
    monkeypatch.setattr(shapes, "boundary_nodes", _angle_nodes)
    monkeypatch.setattr(heleshaw, "boundary_nodes", _angle_nodes)
    assert got == _node_results()
