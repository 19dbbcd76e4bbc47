"""Moment conversion, support estimation, and Legendre projection.

Oracle values: for the unit disk (1/pi) integral of x^(2j) dA equals
Gamma(j + 1/2) / (sqrt(pi) Gamma(j + 2)), so m[0,0] = 1 and m[2,0] = 1/4;
scaling x by p and y by q multiplies m[2j, 0] by p^(2j+1) q.
"""
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from expotrans.errors import InputError, MathDomainError, PrecisionError
from expotrans.finiteterm import BandCertificate, detect_order, fill_from_first_column
from expotrans.gallery import b_for
from expotrans import reconstruct
from expotrans.operators import b_from_operator, trifoil_operator
from expotrans.reconstruct import (
    LegendreField,
    legendre_fit,
    real_moments,
    reconstruct_from_certificate,
    support_box,
)
from expotrans.series import BiSeries, a_to_b, log_neg
from expotrans.shapes import (
    Annulus,
    Box,
    Disk,
    Ellipse,
    Grid,
    Weighted,
    moments,
    translate_moments,
)


def test_real_moments_disk():
    rm = real_moments(moments(Disk(0.0, 1.0), 6))
    assert rm.total_order == 5
    assert abs(rm.m[0, 0] - 1.0) < 1e-12
    assert abs(rm.m[2, 0] - 0.25) < 1e-12
    assert abs(rm.m[0, 2] - 0.25) < 1e-12
    assert abs(rm.m[1, 0]) < 1e-12
    assert abs(rm.m[1, 1]) < 1e-12


def test_real_moments_annulus():
    R, r = 1.0, 0.5
    rm = real_moments(moments(Annulus(0.0, r, R), 6))
    assert abs(rm.m[2, 0] - (R**4 - r**4) / 4.0) < 1e-12
    assert abs(rm.m[0, 0] - (R**2 - r**2)) < 1e-12


def test_real_moments_translation():
    h = 0.7
    rm0 = real_moments(moments(Disk(0.0, 1.0), 6))
    rmh = real_moments(moments(Disk(h + 0.0j, 1.0), 6))
    assert abs(rmh.m[1, 0] - (rm0.m[1, 0] + h * rm0.m[0, 0])) < 1e-10


def test_real_moments_rejects_non_hermitian():
    a = np.zeros((3, 3), dtype=complex)
    a[0, 0] = 1.0
    a[0, 1] = 1.0  # no matching conjugate in a[1, 0]
    with pytest.raises(MathDomainError):
        real_moments(a)


def test_real_moments_residue_scale_is_the_converted_triangle():
    # Centred at its centroid, this ellipse's full N = 48 matrix peaks at 5e4
    # but the converted triangle j + k <= 47 at 22; the residue 2.4e-9 at
    # (0, 44) is noise against the triangle and must raise.
    a = moments(Ellipse(0.3 + 0.1j, 1.2, 0.7, 0.5), 48).a
    with pytest.raises(MathDomainError, match="imaginary residue"):
        real_moments(translate_moments(a, -a[1, 0] / a[0, 0]))


def _rebuilt_substitute(src, top, f, g):
    """The substitution with every C_n rebuilt on each call, as the oracle."""
    out = np.full((top + 1, top + 1), np.nan + 0j)
    out[0, 0] = src[0, 0]
    c = np.ones((1, 1), dtype=complex)
    for n in range(1, top + 1):
        prev, c = c, np.zeros((n + 1, n + 1), dtype=complex)
        c[:n, 1:] += g[0] * prev
        c[:n, :n] += g[1] * prev
        c[n, 1:] += f[0] * prev[n - 1]
        c[n, :n] += f[1] * prev[n - 1]
        r = np.arange(n + 1)
        out[r, n - r] = c @ src[r, n - r]
    return out


def complex_moments(rm, order: int) -> np.ndarray:
    """The inverse of real_moments, z = x + iy, conj(z) = x - iy, as the round
    trip's oracle; entries with j + k beyond the data are NaN."""
    tri = _rebuilt_substitute(rm.m, rm.total_order, (1.0, 1j), (1.0, -1j))
    a = np.full((order, order), np.nan + 0j)
    k = min(order, rm.total_order + 1)
    a[:k, :k] = tri[:k, :k]
    return a


def test_cached_substitution_matches_rebuilt_oracle():
    # from an empty cache, growing (increasing top) and then reading a prefix
    # (decreasing top) must both give the rebuilt matrices' results bit for bit
    reconstruct._substitution_matrix.cache_clear()
    a = moments(Ellipse(0.3 + 0.1j, 1.2, 0.7, 0.5), 41).a
    for top in (0, 1, 2, 5, 17, 18, 40, 23, 6, 2, 0):
        rm = real_moments(a, total_order=top)
        want = _rebuilt_substitute(a, top, (0.5, 0.5), (-0.5j, 0.5j))
        assert np.array_equal(rm.m, want.real, equal_nan=True)
    assert reconstruct._substitution_matrix.cache_info().currsize == 41


def test_cached_substitution_is_read_only():
    real_moments(moments(Disk(0.2, 1.0), 8))
    assert reconstruct._substitution_matrix.cache_info().currsize >= 8
    for c in map(reconstruct._substitution_matrix, range(8)):
        with pytest.raises(ValueError):
            c[0, 0] = 2.0


def test_real_moments_order_guard():
    rm = real_moments(moments(Disk(0.0, 1.0), 4), total_order=2)
    assert rm.total_order == 2
    with pytest.raises(MathDomainError):
        real_moments(moments(Disk(0.0, 1.0), 4), total_order=9)


def _certified_triangle(source: str, order: int) -> np.ndarray:
    """Complex moments of a fill's certified triangle, NaN elsewhere."""
    b = b_for(source, order)
    filled = fill_from_first_column(b.b[:, 0], detect_order(b, 4).q, order)
    a = log_neg(BiSeries(1.0, -filled.masked_values())).tail
    return np.where(filled.certified, a, np.nan)


def test_complex_moment_round_trip():
    ell = Ellipse(0.3 + 0.1j, 1.2, 0.7, 0.5)
    triangle = _certified_triangle("gallery:ellipse?u=2", 24)
    # (a, total order, tolerance relative to max(1, largest entry)); the
    # longer antidiagonals amplify rounding on the way back
    cases = [(moments(ell, 6).a, 5, 1e-10), (moments(ell, 24).a, 23, 1e-10),
             (moments(ell, 48).a, 47, 1e-9), (triangle, 22, 1e-9)]
    for a, total_order, tol in cases:
        order = a.shape[0]
        rm = real_moments(a)
        assert rm.total_order == total_order
        back = complex_moments(rm, order)
        jj, kk = np.indices((order, order))
        inside = jj + kk <= total_order
        scale = max(1.0, np.abs(a[inside]).max())
        assert np.max(np.abs((back - a)[inside])) < tol * scale
        assert np.all(np.isnan(back[~inside]))
    assert np.isnan(triangle[12, 12])


def _exact_real_moment(a, p, q) -> Fraction:
    """m[p, q] = Re sum_{r,s} C(p,r) C(q,s) (-1)^(q-s) a[r+s, p+q-r-s] / (2^(p+q) i^q), in rationals."""
    re = im = Fraction(0)
    for r in range(p + 1):
        for s in range(q + 1):
            c = math.comb(p, r) * math.comb(q, s) * (-1) ** (q - s)
            z = a[r + s, p + q - r - s]
            re += c * Fraction(z.real)
            im += c * Fraction(z.imag)
    # Re(w / i^q) is Re w, Im w, -Re w, -Im w for q = 0, 1, 2, 3 mod 4
    return (re, im, -re, -im)[q % 4] / 2 ** (p + q)


def test_real_moments_exact_oracle():
    a = moments(Ellipse(0.3 + 0.1j, 1.2, 0.7, 0.5), 25).a
    rm = real_moments(a, total_order=24)
    jj, kk = np.indices(a.shape)
    scale = np.abs(a[jj + kk <= 24]).max()
    err = max(
        abs(rm.m[p, q] - float(_exact_real_moment(a, p, q)))
        for p in range(25)
        for q in range(25 - p)
    )
    assert err <= 1e-15 * scale


def test_support_box_disk():
    box = support_box(moments(Disk(0.0, 1.0), 8))
    assert abs(box.x1 - 1.15) < 1e-10
    assert abs(box.x0 + 1.15) < 1e-10
    assert abs(box.y1 - 1.15) < 1e-10


def test_support_box_translated():
    box = support_box(moments(Disk(2.0 + 0.0j, 1.0), 8))
    assert abs(box.center - 2.0) < 1e-10


def test_support_box_elongated():
    box = support_box(moments(Ellipse(0.0, 1.5, 0.5), 10))
    assert box.x1 > box.y1
    assert 1.45 < box.x1 < 1.75
    assert 0.5 < box.y1 < 0.8


def _half_extent_by_loop(axis: np.ndarray, top: int) -> float:
    """The walk over every j that support_box made, kept as the oracle: the
    last finite positive m[2j] along the axis sets the half-extent."""
    half = 0.0
    for j in range(top // 2 + 1):
        m = axis[2 * j]
        if np.isfinite(m) and m > 0:
            half = (m / reconstruct._axis_mu(j)) ** (1.0 / (2 * j + 2))
    return half * (1.0 + reconstruct.BOX_PAD)


def _support_box_by_loop(a) -> Box:
    am = np.asarray(a, dtype=complex)
    center = am[1, 0] / am[0, 0].real if am.shape[0] > 1 and np.isfinite(am[1, 0]) else 0j
    covered = reconstruct._covered_order(am)
    rm = real_moments(translate_moments(np.where(np.isfinite(am), am, 0.0), -center), covered)
    hx, hy = _half_extent_by_loop(rm.m[:, 0], covered), _half_extent_by_loop(rm.m[0, :], covered)
    return Box(center.real - hx, center.real + hx, center.imag - hy, center.imag + hy)


def test_support_box_matches_the_per_j_walk_bit_for_bit():
    rng = np.random.default_rng(32)
    cases = []
    # full columns of seeded shapes
    for _ in range(12):
        c = complex(*rng.uniform(-0.5, 0.5, 2))
        p = rng.uniform(0.3, 1.5)
        shape = rng.choice([Disk(c, p), Annulus(c, 0.4 * p, p), Ellipse(c, p, rng.uniform(0.2, 1.0) * p, rng.uniform(0, 3))])
        cases.append(moments(shape, int(rng.integers(2, 25))).a)
    # fills certified on a triangle, NaN beyond it
    for u, order in ((1.6, 12), (2.0, 16), (2.4, 24), (2.8, 20)):
        cases.append(_certified_triangle(f"gallery:ellipse?u={u}", order))
    # Hermitian matrices that are no shape's moments: their even axis
    # moments come out negative, so the walk skips the last ones
    signs = set()
    for n in (3, 6, 9, 14):
        for _ in range(4):
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = x + x.conj().T
            a[0, 0] = 1.0 + abs(a[0, 0])
            rm = real_moments(a)
            signs.update(np.sign(rm.m[::2, 0][-1:]).tolist())
            cases.append(a)
    assert -1.0 in signs  # the last axis moment was <= 0 at least once
    for a in cases:
        try:
            want = _support_box_by_loop(a).as_tuple()
        except InputError:  # no axis moment > 0: a box of width 0
            with pytest.raises(InputError):
                support_box(a)
            continue
        assert support_box(a).as_tuple() == want


def test_half_extent_skips_axis_moments_that_are_not_finite_and_positive():
    # one pass picks the last usable m[2j]; the walk is the oracle
    rng = np.random.default_rng(33)
    bad = (0.0, -0.0, -1.0, np.nan, np.inf, -np.inf)
    for _ in range(200):
        axis = rng.uniform(1e-6, 10.0, int(rng.integers(1, 12)))
        for j in np.flatnonzero(rng.random(axis.size) < 0.4):
            axis[j] = rng.choice(bad)
        full = np.full(2 * axis.size - 1, np.nan)
        full[::2] = axis
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = reconstruct._half_extent(axis) * (1.0 + reconstruct.BOX_PAD)
        assert got == _half_extent_by_loop(full, full.size - 1)
    assert reconstruct._half_extent(np.array([np.nan, -1.0, 0.0])) == 0.0


def test_substitution_plans_are_cached_and_read_only():
    for top in (0, 1, 6, 38):
        rows, cols = reconstruct._antidiagonals(top)
        assert (rows, cols) == reconstruct._antidiagonals(top)
        # antidiagonal n is the slice n(n+1)/2 : (n+1)(n+2)/2, j increasing
        for n in range(top + 1):
            lo = n * (n + 1) // 2
            assert rows[lo : lo + n + 1].tolist() == list(range(n + 1))
            assert (rows + cols)[lo : lo + n + 1].tolist() == [n] * (n + 1)
        assert rows.size == (top + 1) * (top + 2) // 2
        for arr in (rows, cols):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1


def test_support_box_needs_mass():
    with pytest.raises(MathDomainError):
        support_box(np.zeros((4, 4), dtype=complex))


def test_support_box_centroid_past_the_float_range():
    # a[1, 0] / a[0, 0] overflows: the centroid is refused before any translation
    a = np.array([[1e-300, 1e300], [1e300, 1.0]], dtype=complex)
    with pytest.raises(PrecisionError, match="centroid"):
        support_box(a)


@pytest.mark.parametrize("center", [1e20, -1e20j])
def test_support_box_lost_in_the_centroid_rounding(center):
    # a unit disk's moments about a far centroid: the half-extents, about
    # 1.15, vanish in the rounding of the centroid, so x0 == x1 or y0 == y1,
    # a precision failure and not a malformed box
    a = np.array([[1, np.conj(center)], [center, abs(center) ** 2]], dtype=complex)
    with pytest.raises(PrecisionError, match=rf"rounding of the centroid {re.escape(str(complex(center)))}"):
        support_box(a)


@pytest.mark.parametrize("n", [2, 3])
def test_support_box_translation_past_the_float_range(n):
    # the centroid 1e200 is finite, but translating to it overflows inside
    # translate_moments' products; refused with no numpy warning
    a = np.eye(n, dtype=complex)
    a[0, 1] = a[1, 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError, match=r"centroid \(1e\+200\+0j\) overflows"):
            support_box(a)


def test_reconstruct_fill_past_the_float_range():
    col = np.array([1.0, 1e200, 0, 0, 0, 0, 0, 0], dtype=complex)
    cert = BandCertificate(0, np.array([1e200 + 0j]), 0.0, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError, match="leaves the float range"):
            reconstruct_from_certificate(col, cert, 8, 2)


def test_legendre_constant_block():
    box = Box(-1.0, 1.0, -0.5, 0.5)
    g = Grid(box, np.ones((16, 16)))
    fld = legendre_fit(real_moments(moments(g, 3)), box, 0)
    assert abs(fld(0.2, -0.3) - 1.0) < 1e-10
    assert abs(fld.mass() - box.area) < 1e-10


def test_legendre_disk_projection():
    rm = real_moments(moments(Disk(0.0, 1.0), 12))
    box = Box(-1.1, 1.1, -1.1, 1.1)
    fld = legendre_fit(rm, box, 10)
    assert abs(fld.mass() - math.pi * rm.m[0, 0]) < 1e-10
    gf = fld.sample(80, 80)
    x, y = np.meshgrid(gf.xs, gf.ys)
    truth = (x * x + y * y <= 1.0).astype(float)
    rel = math.sqrt(np.mean((gf.values - truth) ** 2) / np.mean(truth**2))
    assert rel < 0.35
    # Gibbs overshoot exists but stays moderate
    assert gf.above + gf.below < gf.values.size // 10


def test_sample_equals_pointwise_evaluation():
    # the grid tables' two products against legval2d's Clenshaw steps at each
    # point: equal within 1e-13 of max(1, max |value|)
    rng = np.random.default_rng(12)
    for order in range(13):
        for nx, ny in ((1, 1), (3, 5), (17, 2), (2, 9), (64, 64), (160, 160)):
            x0, y0 = rng.uniform(-4.0, 4.0, 2)
            w, h = rng.uniform(0.2, 3.0, 2)
            c = rng.standard_normal((order + 1, order + 1))
            fld = LegendreField(Box(x0, x0 + w, y0, y0 + h), order, c)
            gf = fld.sample(nx, ny)
            assert gf.values.shape == (ny, nx)
            want = fld(*np.meshgrid(gf.xs, gf.ys))
            assert np.abs(gf.values - want).max() <= 1e-13 * max(1.0, np.abs(want).max())


def test_legendre_weighted_level():
    shape = Weighted(Disk(0.0, 1.0), 0.5)
    rm = real_moments(moments(shape, 12))
    fld = legendre_fit(rm, Box(-1.1, 1.1, -1.1, 1.1), 10)
    assert abs(fld(0.0, 0.0) - 0.5) < 0.1


def test_legendre_order_guard():
    rm = real_moments(moments(Disk(0.0, 1.0), 5))
    with pytest.raises(MathDomainError):
        legendre_fit(rm, Box(-1, 1, -1, 1), 10)


def test_moments_that_do_not_reach_are_one_domain_error():
    # the same refusal, worded the same, from the conversion and from the fit
    a = moments(Disk(0.0, 1.0), 5).a  # covers total order 4
    with pytest.raises(MathDomainError, match=r"^moments cover total order 4, requested 5$"):
        real_moments(a, 5)
    with pytest.raises(MathDomainError, match=r"^moments cover total order 4, requested 10$"):
        legendre_fit(real_moments(a), Box(-1, 1, -1, 1), 10)
    a[2, 1] = np.nan  # a gap inside the triangle of total order 3
    with pytest.raises(MathDomainError, match=r"^moments cover total order 2, requested 3$"):
        real_moments(a, 3)
    assert real_moments(a, 2).total_order == 2


def _exact_legendre_rows(order, lo, hi):
    """Power-basis rows of P_k((2x - lo - hi) / (hi - lo)), k <= order, in rationals,
    from P_k(t) = 2^-k sum_i (-1)^i C(k, i) C(2k - 2i, k) t^(k - 2i)."""
    lo, hi = Fraction(lo), Fraction(hi)
    alpha, beta = 2 / (hi - lo), -(hi + lo) / (hi - lo)
    rows = []
    for k in range(order + 1):
        row = [Fraction(0)] * (order + 1)
        for i in range(k // 2 + 1):
            c = Fraction((-1) ** i * math.comb(k, i) * math.comb(2 * k - 2 * i, k), 2**k)
            d = k - 2 * i  # expand c (alpha x + beta)^d
            for r in range(d + 1):
                row[r] += c * math.comb(d, r) * alpha**r * beta ** (d - r)
        rows.append(row)
    return rows


def test_legendre_fit_exact_oracle():
    # seeded boxes at orders 4 to 16 against the projection of the same float
    # moments in rationals: 20 off-centre and narrow, whose rows run the
    # recurrence, then 10 centred within width / (2 order), whose rows are the
    # product of the coefficient table with the substitution matrix
    rm = real_moments(moments(Ellipse(0.05 - 0.05j, 1.0, 0.7, 0.3), 17))
    rng = np.random.default_rng(38)
    for t in range(30):
        order = int(rng.integers(4, 17))
        cx, cy = rng.uniform(-1.0, 1.0, 2)
        w, h = rng.uniform(0.3, 3.0, 2)
        if t >= 20:
            cx, cy = cx * w / (2 * order), cy * h / (2 * order)
        assert (order * max(2 * abs(cx) / w, 2 * abs(cy) / h) <= 1.0) == (t >= 20)
        box = Box(cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2)
        fld = legendre_fit(rm, box, order)
        lx = _exact_legendre_rows(order, box.x0, box.x1)
        ly = _exact_legendre_rows(order, box.y0, box.y1)
        m = [[Fraction(rm.m[r, s]) for s in range(order + 1 - r)] for r in range(order + 1)]
        exact = np.zeros((order + 1, order + 1))
        for p in range(order + 1):
            for q in range(order + 1 - p):
                acc = sum(lx[p][r] * ly[q][s] * m[r][s] for r in range(p + 1) for s in range(q + 1))
                norm = math.sqrt((2 * p + 1) / box.width * (2 * q + 1) / box.height)
                exact[p, q] = math.pi * norm * float(acc)
        assert np.abs(fld.coeffs - exact).max() <= 1e-12 * np.abs(exact).max(), (order, box)


def _legendre_rows_one_interval(order, lo, hi):
    """The recurrence run for one interval at a time, as the oracle."""
    alpha, beta = 2.0 / (hi - lo), -(hi + lo) / (hi - lo)
    rows = np.zeros((order + 1, order + 1))
    rows[0, 0] = 1.0
    for k in range(order):
        tp = beta * rows[k]
        tp[1:] += alpha * rows[k, :-1]
        rows[k + 1] = ((2 * k + 1) * tp - (k * rows[k - 1] if k else 0.0)) / (k + 1)
    return rows * np.sqrt((2 * np.arange(order + 1) + 1) / (hi - lo))[:, None]


def test_legendre_rows_of_both_axes_match_one_interval_at_a_time():
    # off-centre intervals past order 1, so the rows run the recurrence (at
    # orders 0 and 1 the product forms the same rows)
    rng = np.random.default_rng(34)
    for order in range(13):
        lo = rng.uniform(-4.0, 1.0, 2)
        hi = lo + rng.uniform(1e-3, 5.0, 2)
        rows = reconstruct._legendre_rows(order, lo, hi)
        for i in range(2):
            assert np.array_equal(rows[i], _legendre_rows_one_interval(order, float(lo[i]), float(hi[i])))


def test_legendre_tables_are_read_only_and_built_once_per_key():
    # the power coefficients per order and the grid values per (n, order)
    reconstruct._legendre_power.cache_clear()
    reconstruct._legendre_grid.cache_clear()
    rm = real_moments(moments(Disk(0.1, 0.8), 12))
    for order, n in ((6, 64), (10, 64), (6, 64), (10, 24), (6, 64)):
        legendre_fit(rm, Box(-1.0, 1.2, -0.9, 1.0), order).sample(n, n)
    assert reconstruct._legendre_power.cache_info()[1:4:2] == (2, 2)  # (misses, currsize)
    assert reconstruct._legendre_grid.cache_info()[1:4:2] == (3, 3)
    for table in (reconstruct._legendre_power(6), reconstruct._legendre_grid(64, 10)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 2.0
    # the grid table takes legvander's steps, so it is legvander's, bit for bit
    for n, order in ((1, 0), (7, 3), (64, 10), (160, 16)):
        t = (2 * np.arange(n) + 1) / n - 1
        assert np.array_equal(reconstruct._legendre_grid(n, order), np.polynomial.legendre.legvander(t, order))
    # P_k(1) = 1 and P_k(-1) = (-1)^k
    c = reconstruct._legendre_power(10)
    assert c.sum(axis=1).tolist() == [1.0] * 11
    assert (c * (-1.0) ** np.arange(11)).sum(axis=1).tolist() == [(-1.0) ** k for k in range(11)]


def test_reconstruct_trifoil():
    b = b_from_operator(trifoil_operator(80), 12)
    cert = detect_order(b, 4)
    fld, diag = reconstruct_from_certificate(b.b[:, 0], cert, 12, 6)
    assert diag["covered_order"] == 12 - cert.d - 1
    # first column survives both transform directions bitwise, so the mass
    # diagnostics reproduce pi * b00 exactly
    assert abs(diag["mass_from_moments"] - math.pi) < 1e-10
    assert abs(diag["mass_from_field"] - diag["mass_from_moments"]) < 1e-10
    x0, x1, y0, y1 = diag["box"]
    assert x0 < 0 < x1 and y0 < 0 < y1
    assert np.isfinite(fld(0.0, 0.0))


def test_one_recovery_reads_the_fills_reach_twice(monkeypatch):
    # once for the recovery (real_moments given a total order only checks its
    # triangle) and once for the support box; the recovery once read it four times
    calls = []
    covered_order = reconstruct._covered_order
    monkeypatch.setattr(reconstruct, "_covered_order", lambda am: calls.append(1) or covered_order(am))
    for source, order in (("gallery:ellipse?u=2", 16), ("gallery:trifoil", 12)):
        b = b_for(source, order)
        for legendre_order in (None, 6):
            calls.clear()
            reconstruct_from_certificate(b.b[:, 0], detect_order(b, 4), order, legendre_order)
            assert len(calls) <= 2, (source, legendre_order)


def test_default_legendre_order_is_capped_by_the_reach():
    # the trifoil's degree-2 fill at order 12 reaches total order 9, under the
    # default 10; the ellipse's degree-1 fill reaches 11, so 10 is kept
    b = b_for("gallery:trifoil", 12)
    fld, diag = reconstruct_from_certificate(b.b[:, 0], detect_order(b, 4), 12)
    assert (fld.order, diag["covered_order"]) == (9, 9)
    with pytest.raises(MathDomainError, match="moments cover total order 9, requested 10"):
        reconstruct_from_certificate(b.b[:, 0], detect_order(b, 4), 12, 10)
    b = b_for("gallery:ellipse?u=2", 12)
    cert = detect_order(b, 4)
    assert reconstruct_from_certificate(b.b[:, 0], cert, 12)[0].order == reconstruct.LEGENDRE_ORDER
    default, given = (reconstruct_from_certificate(b.b[:, 0], cert, 12, lo)[0] for lo in (None, 10))
    assert np.array_equal(default.coeffs, given.coeffs)


def test_reconstruct_ellipse_quadrature_column():
    # a centroid off 0, by 1e-17 or by design, must not spread the NaN mask
    # of the certified triangle over the translated moments
    for center in (0j, 0.2 + 0.1j):
        ell = Ellipse(center, 0.8, 0.5, 0.7)
        b = a_to_b(moments(ell, 12))
        fld, diag = reconstruct_from_certificate(b.b[:, 0], detect_order(b, 4), 12, 6)
        area = math.pi * 0.4
        assert abs(fld.mass() - area) < 1e-12
        gf = fld.sample(160, 160)
        x, y = np.meshgrid(gf.xs, gf.ys)
        truth = ell.contains(x + 1j * y).astype(float)
        l1 = np.abs(gf.values - truth).sum() * gf.box.area / gf.values.size
        assert l1 <= 0.35 * area


def test_reconstruct_ellipse_family_at_order_48():
    # criterion 12 (L1/area <= 0.35, mass within 2 %) at N = 48; the
    # entrywise fill lost every digit there, so real moment (39, 7) raised
    # with an imaginary residue of 6.6e17.  Measured L1/area 0.215
    u = 2.6
    b = b_for(f"gallery:ellipse?u={u}", 48)
    fld, diag = reconstruct_from_certificate(b.b[:, 0], detect_order(b, 4), 48, 10)
    gf = fld.sample(64, 64)
    x, y = np.meshgrid(gf.xs, gf.ys)
    truth = ((x / (u + 1.0)) ** 2 + (y / (u - 1.0)) ** 2 <= 1.0).astype(float)
    area = math.pi * (u + 1.0) * (u - 1.0)
    l1 = np.abs(gf.values - truth).sum() * gf.box.area / gf.values.size
    assert l1 <= 0.35 * area
    assert abs(diag["mass_from_moments"] - area) <= 0.02 * area


def test_reconstruct_zero_column():
    fld, diag = reconstruct_from_certificate(np.zeros(8), BandCertificate(1, np.array([0.0, 1.0]), 0.0, 7), 8, 4)
    assert diag["mass_from_moments"] == 0.0
    assert diag["mass_from_field"] == 0.0
    assert fld(0.3, -0.2) == 0.0
    assert fld.mass() == 0.0
