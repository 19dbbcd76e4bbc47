"""Certificate fitting, detection, the Cauchy route, and moment filling."""
import numpy as np
import pytest

from expotrans.errors import InputError, MathDomainError
from expotrans.exptransform import a_to_b
from expotrans.finiteterm import (
    band_profile,
    certificate_from_cauchy,
    detect_order,
    fill_from_first_column,
    fit_certificate,
)
from expotrans.operators import b_from_operator, toeplitz_ellipse, toeplitz_power, trifoil_operator
from expotrans.orthopoly import hessenberg, orthonormalize
from expotrans.shapes import Annulus, Disk, Ellipse, cauchy_columns, moments


def shape_b(shape, order):
    return a_to_b(moments(shape, order))


def test_trifoil_certificate():
    b = b_from_operator(trifoil_operator(40), 12)
    cert = detect_order(b, 6)
    assert cert is not None and cert.d == 2
    assert np.max(np.abs(cert.q - np.array([0, 0, 1]))) < 1e-10
    assert cert.residual < 1e-10
    assert not cert.underdetermined


def test_ellipse_certificate():
    b = b_from_operator(toeplitz_ellipse(2.0, 40), 12)
    cert = detect_order(b, 6)
    assert cert is not None and cert.d == 1
    assert np.max(np.abs(cert.q - np.array([0, 2]))) < 1e-10


def test_annulus_first_column_certificate():
    # diagonal b: the first column below b00 vanishes, so q = (0,) fits it
    b = shape_b(Annulus(0, 0.5, 1.0), 10)
    cert = detect_order(b, 4)
    assert cert is not None and cert.d == 0
    assert abs(cert.q[0]) < 1e-12
    assert cert.residual < 1e-14


def test_residual_monotone_in_d():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    b = g @ g.conj().T
    res = [fit_certificate(b, d).residual for d in range(0, 8)]
    assert all(res[i + 1] <= res[i] + 1e-12 for i in range(len(res) - 1))


def test_power_model_needs_wide_window():
    op = toeplitz_power(1.0, 1.0, 3, 80)
    assert detect_order(b_from_operator(op, 16), 6) is None
    # at order 14 the truncation window admits an exact but spurious relation;
    # frozen here so a change in windowing shows up
    ghost = detect_order(b_from_operator(op, 14), 6)
    assert ghost is not None and ghost.d == 6
    assert ghost.residual < 1e-12


def test_fit_certificate_validation():
    b = shape_b(Disk(0, 1), 6)
    with pytest.raises(InputError):
        fit_certificate(b, -1)
    with pytest.raises(InputError):
        fit_certificate(b, 6)
    with pytest.raises(InputError):
        fit_certificate(b, 2, rows=0)
    short = fit_certificate(b, 3, rows=2)
    assert short.underdetermined


def test_cauchy_route_matches_direct_fit():
    for shape, d in ((Annulus(0, 0.5, 1.0), 0), (Ellipse(0, 1.5, 0.5), 2)):
        order = 9
        b = shape_b(shape, order + 1)
        cert = fit_certificate(b, d, rows=order - 1)
        cols = cauchy_columns(shape, d, order)
        res = certificate_from_cauchy(cols, cert.q, order)
        assert np.max(np.abs(res[: order - 1] - cert.row_residuals)) < 1e-12


def test_cauchy_route_validation():
    cols = np.zeros((4, 2), dtype=complex)
    with pytest.raises(InputError):
        certificate_from_cauchy(cols[:, 0], [1.0], 4)
    with pytest.raises(InputError):
        certificate_from_cauchy(cols, [1.0, 0.0, 0.0], 4)
    with pytest.raises(InputError):
        certificate_from_cauchy(cols, [1.0], 6)


def test_fill_trifoil():
    order = 10
    b = b_from_operator(trifoil_operator(60), order)
    cert = detect_order(b, 4)
    filled = fill_from_first_column(b.b[:, 0], cert.q, order)
    err = np.abs(filled.values - b.b)[filled.certified]
    assert np.nanmax(err) < 1e-8
    assert not filled.certified[order - 1, order - 1]
    assert np.isnan(filled.values[order - 1, order - 1])
    assert filled.masked_values()[order - 1, order - 1] == 0


def test_fill_ellipse():
    order = 10
    b = b_from_operator(toeplitz_ellipse(2.0, 60), order)
    cert = detect_order(b, 4)
    filled = fill_from_first_column(b.b[:, 0], cert.q, order)
    err = np.abs(filled.values - b.b)[filled.certified]
    assert np.nanmax(err) < 1e-8


def test_fill_needs_true_band_structure():
    # the annulus first column is consistent with q = (0,) but the matrix is
    # not banded; propagation then invents b11 = -b00^2 instead of b00 r^2
    b = shape_b(Annulus(0, 0.5, 1.0), 6).b
    filled = fill_from_first_column(b[:, 0], np.array([0.0]), 6)
    assert filled.certified[1, 1]
    assert abs(filled.values[1, 1] - (-0.5625)) < 1e-12
    assert abs(b[1, 1] - 0.1875) < 1e-12
    assert abs(filled.values[1, 1] - b[1, 1] + 0.75) < 1e-12


def test_fill_validation():
    with pytest.raises(InputError):
        fill_from_first_column(np.ones(4), np.zeros(0), 4)
    with pytest.raises(InputError):
        fill_from_first_column(np.ones(4), np.array([1.0]), 6)
    with pytest.raises(InputError):
        fill_from_first_column(np.ones(4), np.array([1.0]), 0)


def test_fill_reach_limit():
    # with q[d] != 0 the rules stall for d >= 3 at orders d + 5 .. d*d - 1;
    # the error names the order and the first entry not reached
    rng = np.random.default_rng(8)
    col = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    q = np.array([0.1, 0.2, 0.3, 1.0])
    with pytest.raises(MathDomainError, match=r"order 8: entry \(2, 2\)") as exc:
        fill_from_first_column(col, q, 8)
    assert "leading coefficient" not in str(exc.value)
    filled = fill_from_first_column(col, q, 12)
    jj, kk = np.indices((12, 12))
    triangle = (jj + kk + 3 < 12) | (jj == 0) | (kk == 0)
    assert np.array_equal(filled.certified, triangle)
    assert np.all(np.isfinite(filled.values[triangle]))
    with pytest.raises(MathDomainError, match="leading coefficient"):
        fill_from_first_column(col, np.array([0.3, 0.2, 0.0]), 12)


def band_of(shape_or_op, order):
    b = shape_or_op if hasattr(shape_or_op, "b") else shape_b(shape_or_op, order)
    basis = orthonormalize(b)
    return band_profile(hessenberg(b, basis))


def test_band_profile_annulus():
    prof = band_of(Annulus(0, 0.5, 1.0), 8)
    assert prof.upper_bandwidth == 0
    assert prof.recursion_length == 2
    assert prof.toeplitz_deviation < 1e-10


def test_band_profile_ellipse():
    prof = band_of(b_from_operator(toeplitz_ellipse(2.0, 40), 10), 10)
    assert prof.upper_bandwidth == 1
    assert prof.recursion_length == 3
    assert prof.toeplitz_deviation < 1e-8


def test_band_profile_trifoil():
    prof = band_of(b_from_operator(trifoil_operator(40), 10), 10)
    assert prof.upper_bandwidth == 2
    assert prof.recursion_length == 4
