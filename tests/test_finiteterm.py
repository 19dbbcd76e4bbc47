"""Certificate fitting, detection, and moment filling."""
import warnings

import numpy as np
import pytest

from expotrans.errors import InputError, MathDomainError, PrecisionError
from expotrans.finiteterm import (
    BandProfile,
    _propagate,
    band_profile,
    detect_order,
    fill_from_first_column,
    fit_certificate,
    require_column,
)
from expotrans.gallery import b_for
from expotrans.operators import (
    b_from_operator,
    ellipse_operator,
    toeplitz_ellipse,
    toeplitz_power,
    trifoil_operator,
)
from expotrans.orthopoly import Hessenberg, hessenberg, orthonormalize
from expotrans.series import ExpMoments, a_to_b
from expotrans.shapes import Annulus, Disk, moments


def shape_b(shape, order):
    return a_to_b(moments(shape, order))


def test_trifoil_certificate():
    b = b_from_operator(trifoil_operator(40), 12)
    cert = detect_order(b, 6)
    assert cert is not None and cert.d == 2
    assert np.max(np.abs(cert.q - np.array([0, 0, 1]))) < 1e-10
    assert cert.residual < 1e-10
    assert cert.rows_used >= cert.d + 1


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


@pytest.mark.parametrize("order", [3, 4, 6, 8])
def test_detect_keeps_a_spare_row(order):
    # a random PSD b has no finite term relation; the exactly determined fit
    # at d = order - 2 matches it to rounding, so detect must not try that d
    rng = np.random.default_rng(order)
    x = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    b = x @ x.conj().T
    assert fit_certificate(b, order - 2).residual < 1e-12
    assert detect_order(b, order) is None


def test_fit_certificate_is_exact_under_powers_of_two():
    # the fit runs on b scaled by its column's power of two: q is the same bit
    # for bit and the residual scales exactly, far from 1 in either direction
    b = b_for("gallery:trifoil", 12).b
    ref = fit_certificate(b, 2)
    for k in (-500, -100, 0, 100, 500):
        cert = fit_certificate(b * 2.0**k, 2)
        assert np.array_equal(cert.q, ref.q), k
        assert cert.residual == ref.residual * 2.0**k, k
        assert detect_order(b * 2.0**k, 4).d == 2, k


def test_column_rule_on_a_zero_column_warns_nothing():
    # any miss of a zero column is infinitely large, relatively: the message
    # once divided by the zero norm and printed numpy's divide warning
    with pytest.raises(MathDomainError, match=r"misses the column by inf \(relative"):
        require_column(1e-12, np.zeros(6, dtype=complex), "the certificate's residual 1.000e-12 misses the column")


def test_fit_certificate_validation():
    b = shape_b(Disk(0, 1), 6)
    with pytest.raises(InputError):
        fit_certificate(b, -1)
    with pytest.raises(InputError):
        fit_certificate(b, 6)


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


def test_fill_degree_one_is_the_ellipse_gram():
    # an offset, rotated ellipse: the fill is the model's own Gram, with row
    # and column 0 exactly as given
    op = ellipse_operator(0.4 - 0.3j, 1.7 * np.exp(0.5j), 0.8 * np.exp(-1.2j), 26)
    b = b_from_operator(op, 24).b
    q1 = op.diagonals[-1][0] / np.conj(op.diagonals[1][0])
    filled = fill_from_first_column(b[:, 0], [0.4 - 0.3j - q1 * (0.4 + 0.3j), q1], 24)
    assert np.array_equal(filled.values[:, 0], b[:, 0])
    assert np.array_equal(filled.values[0, :], np.conj(b[:, 0]))
    inside = filled.certified
    assert np.abs(filled.values - b)[inside].max() < 1e-13 * np.abs(b[inside]).max()
    jj, kk = np.indices((24, 24))
    assert np.array_equal(inside, (jj + kk < 23) | (jj == 0) | (kk == 0))


def test_fill_degree_one_needs_an_ellipse():
    col = b_from_operator(toeplitz_ellipse(2.0, 14), 12).b[:, 0]
    for q in ([0.0, 1.0], [0.3, 0.5j], [0.0, 0.0]):
        with pytest.raises(MathDomainError, match=r"\|q\[1\]\| > 1"):
            fill_from_first_column(col, q, 12)
    for b00 in (0.0, -3.0, np.nan, np.inf):
        with pytest.raises(MathDomainError, match="b00 > 0"):
            fill_from_first_column(np.r_[b00, col[1:]], [0.0, 2.0], 12)
    # a disk's column, or the ellipse's with another u, misses the operator
    for other in (shape_b(Disk(0, 1.0), 12).b[:, 0], b_from_operator(toeplitz_ellipse(2.1, 14), 12).b[:, 0]):
        with pytest.raises(MathDomainError, match="misses the ellipse"):
            fill_from_first_column(other, [0.0, 2.0], 12)
    with pytest.raises(MathDomainError, match="misses the ellipse"):
        fill_from_first_column(col, [np.nan, 2.0], 12)


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
    # at order 12 the rules reach the whole triangle; the random column then
    # breaks its certificate's relation on column 0, so the fill refuses it
    jj, kk = np.indices((12, 12))
    triangle = (jj + kk + 3 < 12) | (jj == 0) | (kk == 0)
    assert np.all(np.isfinite(_propagate(col, q, 12)[triangle]))
    with pytest.raises(MathDomainError, match="breaks its degree-3 certificate"):
        fill_from_first_column(col, q, 12)
    with pytest.raises(MathDomainError, match="leading coefficient"):
        fill_from_first_column(col, np.array([0.3, 0.2, 0.0]), 12)


def _recursion_oracle(col, q, order):
    """The entrywise fill as it ran for every degree before degree 1 got the
    ellipse Gram, kept verbatim (minus its stall report) as an oracle."""
    col = np.asarray(col, dtype=complex).ravel()
    q = np.asarray(q, dtype=complex).ravel()
    d = q.shape[0] - 1
    vals = np.full((order, order), np.nan, dtype=complex)
    vals[:, 0] = col[:order]
    vals[0, :] = np.conj(col[:order])
    reach = np.zeros(order, dtype=int)
    reach[0] = order - 1
    need = order - 1 - d - np.arange(order)
    use_backward = abs(q[d]) > 1e-12 * max(1.0, float(np.abs(q).max()))

    def cross(m, n):
        return vals[m, :n] @ vals[0, n - 1 :: -1] if n else 0.0 + 0.0j

    while (reach < need).any():
        for m in range(order - 1):
            last = min(reach[m] - d, order - 1 - d)
            for n in range(reach[m + 1] + 1, last + 1):
                vals[m + 1, n] = q @ vals[m, n : n + d + 1] - cross(m, n)
            reach[m + 1] = max(reach[m + 1], last)
        top = np.searchsorted(-reach, -np.arange(order), side="right") - 1
        for j in range(order):
            vals[j, reach[j] + 1 : top[j] + 1] = np.conj(vals[reach[j] + 1 : top[j] + 1, j])
        reach = np.maximum(reach, top)
        if use_backward:
            for m in range(order - 1):
                while d - 1 <= reach[m] < order - 1 and reach[m] + 1 - d <= reach[m + 1]:
                    n = reach[m] + 1 - d
                    rhs = vals[m + 1, n] - q[:d] @ vals[m, n : n + d] + cross(m, n)
                    vals[m, n + d] = rhs / q[d]
                    reach[m] += 1
    jj, kk = np.indices((order, order))
    return np.where((jj + kk + d < order) | (jj == 0) | (kk == 0), vals, np.nan + 0j)


def test_fill_other_degrees_unchanged():
    # d = 0 (annulus, centred and offset disks) and d = 2 (trifoil, the
    # degree twodiag's b fits) pass the column check bit for bit as the
    # recursion's output; d = 3 on a random column runs the same recursion,
    # and the check refuses the column
    cases = [(shape_b(Annulus(0, 0.5, 1.0), 12).b[:, 0], [0.0], 12)]
    for source in ("gallery:disk", "gallery:disk?R=0.9&x=0.2&y=-0.1", "gallery:trifoil",
                   "gallery:twodiag?A1=0.5", "gallery:twodiag?A1=2"):
        for order in (10, 24):
            b = b_for(source, order)
            cases.append((b.b[:, 0], detect_order(b, 4).q, order))
    degrees = set()
    for col, q, order in cases:
        filled = fill_from_first_column(col, q, order)
        degrees.add(len(q) - 1)
        assert np.array_equal(filled.values, _recursion_oracle(col, q, order), equal_nan=True)
    assert degrees == {0, 2}
    rng = np.random.default_rng(8)
    col, q = rng.standard_normal(12) + 1j * rng.standard_normal(12), [0.1, 0.2, 0.3, 1.0]
    jj, kk = np.indices((12, 12))
    vals = np.where((jj + kk + 3 < 12) | (jj == 0) | (kk == 0), _propagate(col, np.array(q, complex), 12), np.nan)
    assert np.array_equal(vals, _recursion_oracle(col, q, 12), equal_nan=True)
    with pytest.raises(MathDomainError, match="breaks its degree-3 certificate"):
        fill_from_first_column(col, q, 12)


def test_fill_checks_the_column_against_the_certificate():
    # the disk's q = (0,) says b[m+1, 0] = 0, which the trifoil's b[3, 0] = 2
    # breaks; the trifoil's q = (0, 0, 1) and a twodiag column disagree too
    trifoil = b_for("gallery:trifoil", 12).b
    with pytest.raises(MathDomainError, match=r"breaks its degree-0 certificate.*at most 1e-06"):
        fill_from_first_column(trifoil[:, 0], [0.0], 6)
    twodiag = b_for("gallery:twodiag?A1=2", 12).b
    with pytest.raises(MathDomainError, match="breaks its degree-2 certificate"):
        fill_from_first_column(twodiag[:, 0], detect_order(trifoil, 4).q, 12)
    # a valid fill meets the relation far inside the bound: the gap is rounding
    q = detect_order(twodiag, 4).q
    vals = fill_from_first_column(twodiag[:, 0], q, 12).values
    gap = np.linalg.norm(vals[1:9, 0] - vals[:8, :3] @ q) / np.linalg.norm(twodiag[:, 0])
    assert gap < 1e-12


def test_fill_column_check_survives_squares_past_the_float_range():
    # 1e160 squared overflows: unscaled norms read inf <= 1e-6 * inf and
    # passed the column; scaled by a power of two, the check sees the miss
    # (the big entry is all of it) exactly as it sees 1e10's
    b = b_for("gallery:ellipse?u=2", 10).b
    q = detect_order(b, 6).q
    assert q.shape == (2,)
    for big in (1e10, 1e160):
        col = b[:, 0].copy()
        col[9] = big
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MathDomainError, match=r"misses the ellipse .* by 1\.000e\+00 "):
                fill_from_first_column(col, q, 10)


def test_fill_past_the_float_range_is_a_precision_error():
    # q0 b[0, 1] = 1e400: the certified entry b[1, 1] is refused, with no
    # numpy warning, before its relation is checked; q0 = 1e200 puts the
    # degree-1 fill's ellipse operator at c = -1e200, whose Gram overflows
    col = np.array([1.0, 1e200, 0, 0, 0, 0, 0, 0], dtype=complex)
    ellipse = b_for("gallery:ellipse?u=2", 8).b[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError, match=r"degree-0 fill leaves the float range at entry \(1, 1\)"):
            fill_from_first_column(col, [1e200], 8)
        with pytest.raises(PrecisionError, match="degree-1 fill leaves the float range"):
            fill_from_first_column(ellipse, [1e200, 2.0], 8)


def band_of(shape_or_op, order):
    b = shape_or_op if hasattr(shape_or_op, "b") else shape_b(shape_or_op, order)
    basis = orthonormalize(b)
    return band_profile(hessenberg(b, basis))


def test_band_profile_of_empty_block():
    # a zero b stalls orthonormalization at degree 0: nothing is certified
    b = ExpMoments(np.zeros((3, 3)))
    with pytest.raises(InputError, match="empty Hessenberg block"):
        band_profile(hessenberg(b, orthonormalize(b)))


def test_band_profile_of_zero_and_one_by_one_blocks():
    # a zero block has no entry above 1e-8 of its largest, and a 1 x 1 block
    # no diagonal to change along
    assert band_profile(Hessenberg(np.zeros((2, 2), dtype=complex), 2)) == BandProfile(0, 2, 0.0)
    assert band_profile(Hessenberg(np.array([[0.5 + 0.25j]]), 1)) == BandProfile(0, 2, 0.0)


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
