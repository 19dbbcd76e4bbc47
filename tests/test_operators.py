"""Banded model operators: commutators, Krylov Gram matrices, recursions.

Small Krylov ladders are worked out by hand and frozen here; for T = S^2+S*
with xi = e_1 the first vectors are e_1, e_2, e_0+e_3, 2e_1+e_4, giving an
explicit 4x4 Gram matrix, and similarly for the ellipse model 2S + S*.
"""
import math
import warnings

import numpy as np
import pytest

from expotrans import gallery
from expotrans.errors import InputError, MathDomainError, PrecisionError
from expotrans.operators import (
    BandedOperator,
    commutator_defect,
    b_from_operator,
    toeplitz_ellipse,
    toeplitz_power,
    trifoil_curve,
    trifoil_operator,
    two_diagonal,
    two_diagonal_state,
)


def test_ellipse_operator_shape():
    op = toeplitz_ellipse(2.0, 10)
    t = op.matrix()
    assert np.array_equal(np.diag(t, -1), 2.0 * np.ones(9))
    assert np.array_equal(np.diag(t, +1), np.ones(9))
    assert op.xi_index == 0
    assert abs(op.xi_norm - math.sqrt(3.0)) < 1e-15
    with pytest.raises(MathDomainError):
        toeplitz_ellipse(0.5, 10)


def test_commutator_defects():
    assert commutator_defect(toeplitz_ellipse(2.0, 50)) < 1e-14
    assert commutator_defect(toeplitz_power(1.0, 1.0, 2, 60)) < 1e-14
    assert commutator_defect(two_diagonal(1.0, 1.0, 200)) < 1e-10
    # size 6 with offsets -3..+2 leaves no interior rows at all
    with pytest.raises(InputError):
        commutator_defect(toeplitz_power(1.0, 1.0, 2, 6))


def test_symbol_curve_area_matches_xi_norm():
    # area of u e^(i th) + e^(-i th) from (1/2) Im contour(z_bar dz)
    for u in (2.0, 3.0):
        th = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        z = u * np.exp(1j * th) + np.exp(-1j * th)
        dz = 1j * u * np.exp(1j * th) - 1j * np.exp(-1j * th)
        area = 0.5 * np.imag(np.sum(np.conj(z) * dz)) * (th[1] - th[0])
        op = toeplitz_ellipse(u, 8)
        assert abs(area - math.pi * op.xi_norm**2) < 1e-9


def test_trifoil_krylov_gram_by_hand():
    b = b_from_operator(trifoil_operator(20), 4).b
    want = np.array(
        [
            [1, 0, 0, 2],
            [0, 1, 0, 0],
            [0, 0, 2, 0],
            [2, 0, 0, 5],
        ],
        dtype=complex,
    )
    assert np.array_equal(b, want)


def test_trifoil_relation_vector():
    op = trifoil_operator(12)
    t = op.matrix()
    e = np.eye(12, dtype=complex)
    left = t @ e[1]
    right = t.conj().T @ (t.conj().T @ e[1])
    assert np.array_equal(left, e[3] + e[0])
    assert np.array_equal(left, right)


def test_ellipse_krylov_gram_by_hand():
    b = b_from_operator(toeplitz_ellipse(2.0, 20), 4).b
    want = 3.0 * np.array(
        [
            [1, 0, 2, 0],
            [0, 1, 0, 4],
            [2, 0, 5, 0],
            [0, 4, 0, 17],
        ],
        dtype=complex,
    )
    assert np.max(np.abs(b - want)) < 1e-12
    assert abs(b[0, 0] - 3.0) < 1e-15


def test_b_from_operator_guard():
    with pytest.raises(InputError):
        b_from_operator(toeplitz_ellipse(2.0, 8), 12)
    with pytest.raises(InputError):
        b_from_operator(toeplitz_ellipse(2.0, 8), 0)
    b = b_from_operator(toeplitz_ellipse(2.0, 30), 8).b
    assert np.max(np.abs(b - b.conj().T)) < 1e-12


def test_b_from_operator_past_the_float_range():
    # T*^k xi grows like (2e10)^k: its Gram leaves the float range by order 40,
    # which is a PrecisionError (as gallery.b_for's), with no numpy warning
    op = gallery.resolve("gallery:power?alpha=1e10&beta=1e10&d=1").sized_for(40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError, match="Krylov Gram at order 40 leaves the float range"):
            b_from_operator(op, 40)


def test_power_model_validation():
    with pytest.raises(MathDomainError):
        toeplitz_power(1.0, 2.0, 1, 20)
    with pytest.raises(InputError):
        toeplitz_power(1.0, 1.0, 0, 20)
    with pytest.raises(InputError, match="size too small"):
        toeplitz_power(1.0, 1.0, 2, 3)
    op = toeplitz_power(1.0, 1.0, 3, 40)
    assert op.xi_index == 3


@pytest.mark.parametrize("diagonals, xi_index, message", [
    ({0: [1, 2]}, 0, "diagonal 0 has wrong length"),
    ({-1: [1, 2, 3]}, 0, "diagonal -1 has wrong length"),
    ({0: [1, 2, 3]}, 3, "xi_index outside"),
    ({0: [1, 2, 3]}, -1, "xi_index outside"),
])
def test_banded_operator_validation(diagonals, xi_index, message):
    with pytest.raises(InputError, match=message):
        BandedOperator(3, diagonals, xi_index, 1.0)


def test_banded_operator_leaves_the_callers_dict_alone():
    d = {0: [1, 2, 3], -1: [4, 5]}
    op = BandedOperator(3, d, 0, 1.0)
    assert d == {0: [1, 2, 3], -1: [4, 5]}
    assert type(d[0]) is list and type(d[-1]) is list
    assert op.diagonals is not d
    assert all(v.dtype == complex for v in op.diagonals.values())
    assert np.array_equal(op.matrix(), [[1, 0, 0], [4, 2, 0], [0, 5, 3]])


def test_trifoil_curve_values():
    assert trifoil_curve(0.0) == 2.0
    assert abs(trifoil_curve(math.pi / 3.0)) < 1e-15
    assert abs(trifoil_curve(2.0 * math.pi / 3.0) - 2.0) < 1e-12
    th = np.linspace(0, 2 * math.pi, 101)
    assert np.max(np.abs(trifoil_curve(th) - trifoil_curve(th + 2 * math.pi / 3))) < 1e-12


def test_trifoil_curve_is_polar_radius_of_symbol_curve():
    # the boundary is traced by z(t) = e^(2it) + e^(-it); away from the
    # origin, its radius at its own polar angle is the curve's value there
    t = np.linspace(0.0, 2.0 * math.pi, 2001)
    z = np.exp(2j * t) + np.exp(-1j * t)
    z = z[np.abs(z) > 1e-3]
    assert np.max(np.abs(trifoil_curve(np.angle(z)) - np.abs(z))) < 1e-12


def test_two_diagonal_seed_values():
    st = two_diagonal_state(1.0, 1.0, 50)
    assert st.B[0] == 2.0
    assert st.A[2] == 2.0
    assert st.A[3] == 0.5
    assert st.C == 1.0
    assert st.sum_b_residual() < 1e-12
    assert st.telescope_residual() < 1e-12


def test_two_diagonal_survivors_run_long():
    for a1 in (0.5, 1.0, 2.0):
        st = two_diagonal_state(a1, 1.0, 10_000)
        assert st.A[1:].min() > 0 and st.B.min() > 0
        assert st.A[1:].max() < 10.0
        assert st.sum_b_residual() < 1e-10
        assert st.telescope_residual() < 1e-10


def test_two_diagonal_cone_exit_is_exact():
    # starting from (1/2, 1/2) the recursion itself produces B_4 = -1/4:
    # B0=3/2, A2=1, A3=1/6, B2=2/3, A4=4/3, B3=5/3, A5=5/12, B4=5/12+1-5/3
    with pytest.raises(MathDomainError, match="B_4"):
        two_diagonal_state(0.5, 0.5, 100)
    with pytest.raises(MathDomainError, match="B_2"):
        two_diagonal_state(1.0, 2.0, 100)
    with pytest.raises(MathDomainError):
        two_diagonal_state(-1.0, 1.0, 100)
    with pytest.raises(InputError, match="size >= 4"):
        two_diagonal(1.0, 1.0, 3)
    with pytest.raises(InputError, match="count >= 4"):
        two_diagonal_state(1.0, 1.0, 3)


def test_two_diagonal_operator_layout():
    size = 12
    op = two_diagonal(1.0, 1.0, size)
    st = two_diagonal_state(1.0, 1.0, size + 1)
    t = op.matrix()
    assert np.max(np.abs(np.diag(t, +1) - np.sqrt(st.A[1:size]))) < 1e-15
    assert np.max(np.abs(np.diag(t, -2) - np.sqrt(st.B[: size - 2]))) < 1e-15
    assert op.xi_index == 0 and op.xi_norm == 1.0
