"""Moment conversion, support estimation, and Legendre projection.

Oracle values: for the unit disk (1/pi) integral of x^(2j) dA equals
Gamma(j + 1/2) / (sqrt(pi) Gamma(j + 2)), so m[0,0] = 1 and m[2,0] = 1/4;
scaling x by p and y by q multiplies m[2j, 0] by p^(2j+1) q.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from expotrans.errors import InputError, MathDomainError
from expotrans.exptransform import a_to_b
from expotrans.finiteterm import detect_order, fill_from_first_column
from expotrans.gallery import b_for
from expotrans.operators import b_from_operator, trifoil_operator
from expotrans.reconstruct import (
    complex_moments,
    legendre_fit,
    real_moments,
    reconstruct_from_certificate,
    support_box,
)
from expotrans.series import BiSeries, log_neg
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


def test_real_moments_order_guard():
    rm = real_moments(moments(Disk(0.0, 1.0), 4), total_order=2)
    assert rm.total_order == 2
    with pytest.raises(MathDomainError):
        real_moments(moments(Disk(0.0, 1.0), 4), total_order=9)


def _certified_triangle(source: str, order: int) -> np.ndarray:
    """Complex moments of a fill's certified triangle, NaN elsewhere."""
    b = b_for(source, order)
    filled = fill_from_first_column(b.b[:, 0], detect_order(b, 4).q, order)
    a = log_neg(BiSeries(order, 1.0, -filled.masked_values())).tail
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
    box = support_box(moments(Disk(0.0, 1.0), 8), pad=0.1)
    assert abs(box.x1 - 1.1) < 1e-10
    assert abs(box.x0 + 1.1) < 1e-10
    assert abs(box.y1 - 1.1) < 1e-10


def test_support_box_translated():
    box = support_box(moments(Disk(2.0 + 0.0j, 1.0), 8))
    assert abs(box.center - 2.0) < 1e-10


def test_support_box_elongated():
    box = support_box(moments(Ellipse(0.0, 1.5, 0.5), 10), pad=0.15)
    assert box.x1 > box.y1
    assert 1.45 < box.x1 < 1.75
    assert 0.5 < box.y1 < 0.8


def test_support_box_needs_mass():
    with pytest.raises(MathDomainError):
        support_box(np.zeros((4, 4), dtype=complex))


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


def test_legendre_weighted_level():
    shape = Weighted(Disk(0.0, 1.0), 0.5)
    rm = real_moments(moments(shape, 12))
    fld = legendre_fit(rm, Box(-1.1, 1.1, -1.1, 1.1), 10)
    assert abs(fld(0.0, 0.0) - 0.5) < 0.1


def test_legendre_order_guard():
    rm = real_moments(moments(Disk(0.0, 1.0), 5))
    with pytest.raises(InputError):
        legendre_fit(rm, Box(-1, 1, -1, 1), 10)


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
    order = 10
    box = Box(-1.2, 1.3, -1.0, 0.9)
    rm = real_moments(moments(Ellipse(0.05 - 0.05j, 1.0, 0.7, 0.3), 12))
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
    assert np.abs(fld.coeffs - exact).max() <= 1e-12 * np.abs(exact).max()


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


def test_reconstruct_zero_column():
    fld, diag = reconstruct_from_certificate(np.zeros(8), np.array([0.0, 1.0]), 8, 4)
    assert diag["mass_from_moments"] == 0.0
    assert diag["mass_from_field"] == 0.0
    assert fld(0.3, -0.2) == 0.0
    assert fld.mass() == 0.0
