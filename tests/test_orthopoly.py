"""Orthonormalization, Hessenberg structure, and the completeness test.

Rotationally invariant inputs make everything explicit: a diagonal b with
entries b_kk gives P_k = z^k / sqrt(b_kk), a single subdiagonal
h_{k+1,k} = sqrt(b_{k+1,k+1} / b_kk), and a completeness left side of
-b_11/b_00.  The ellipse operator provides the complete tridiagonal case.
"""
import numpy as np
import pytest

from expotrans import orthopoly
from expotrans.errors import InputError, MathDomainError
from expotrans.gallery import b_for
from expotrans.operators import b_from_operator, toeplitz_ellipse
from expotrans.orthopoly import (
    Hessenberg,
    completeness_gap,
    hessenberg,
    orthonormalize,
    poly_zeros,
)
from expotrans.series import a_to_b
from expotrans.shapes import Annulus, Disk, Weighted, moments


def ellipse_operator_b(n: int, u: complex = 2.0):
    op = toeplitz_ellipse(u, n + 4)
    return b_from_operator(op, n)


def subdiag_check(basis, h) -> float:
    """Max deviation of h[k+1, k] from gamma_k / gamma_{k+1} on the certified block."""
    gamma = basis.gamma
    worst = 0.0
    for k in range(min(h.certified, basis.degree - 1)):
        worst = max(worst, abs(h.h[k + 1, k] - gamma[k] / gamma[k + 1]))
    return worst


def gram_residual(basis, b) -> float:
    bm = b.b if hasattr(b, "b") else np.asarray(b, dtype=complex)
    d = basis.degree
    gram = bm.conj()[:d, :d]
    g = basis.coeffs @ gram @ basis.coeffs.conj().T
    return float(np.max(np.abs(g - np.eye(d))))


def test_disk_stops_at_degree_one():
    b = a_to_b(moments(Disk(0.0, 1.0), 6))
    basis = orthonormalize(b)
    assert basis.degree == 1
    assert basis.stopped
    assert abs(basis.coeffs[0, 0] - 1.0) < 1e-14


def test_annulus_basis_and_subdiagonal():
    r, R, n = 0.5, 1.0, 8
    b = a_to_b(moments(Annulus(0.0, r, R), n))
    basis = orthonormalize(b)
    assert basis.degree == n
    scale = np.sqrt(R**2 - r**2)
    for k in range(n):
        want = 1.0 / (r**k * scale)
        assert abs(basis.gamma[k] - want) < 1e-10 * want
        off = np.abs(basis.coeffs[k, :k])
        assert off.max() < 1e-10 if k else True
    h = hessenberg(b, basis)
    for k in range(h.certified - 1):
        assert abs(h.h[k + 1, k] - r) < 1e-12
    assert subdiag_check(basis, h) < 1e-10
    rep = completeness_gap(h, float(b.b[0, 0].real))
    assert abs(rep.lhs - (-(r**2))) < 1e-10
    assert rep.verdict == "incomplete"


def test_tdisk_basis():
    t, n = 0.5, 8
    b = a_to_b(moments(Weighted(Disk(0.0, 1.0), t), n))
    basis = orthonormalize(b)
    assert basis.degree == n
    diag = np.real(np.diag(b.b))
    for k in range(n):
        assert abs(basis.gamma[k] - 1.0 / np.sqrt(diag[k])) < 1e-10
    h = hessenberg(b, basis)
    for k in range(h.certified - 1):
        want = np.sqrt(diag[k + 1] / diag[k])
        assert abs(h.h[k + 1, k] - want) < 1e-12


def test_orthonormality_across_catalog():
    inputs = [
        a_to_b(moments(Annulus(0.0, 0.4, 1.1), 8)),
        a_to_b(moments(Weighted(Disk(0.0, 1.0), 0.3), 8)),
        ellipse_operator_b(8),
    ]
    for b in inputs:
        basis = orthonormalize(b)
        assert gram_residual(basis, b) < 1e-8


def test_ellipse_operator_hessenberg_rigidity():
    n = 12
    b = ellipse_operator_b(n)
    basis = orthonormalize(b)
    h = hessenberg(b, basis)
    c = h.certified
    hh = h.h[:c, :c]
    # below the first subdiagonal: structural zeros, identically
    for k in range(c):
        for j in range(k + 2, c):
            assert hh[j, k] == 0.0
    # above the first superdiagonal: numerically zero
    for k in range(2, c):
        assert np.max(np.abs(hh[: k - 1, k])) < 1e-8
    sub = np.array([hh[k + 1, k] for k in range(c - 1)])
    sup = np.array([hh[k, k + 1] for k in range(c - 1)])
    dia = np.diag(hh)
    assert np.max(np.abs(sub - 1.0)) < 1e-8
    assert np.max(np.abs(sup - 2.0)) < 1e-8
    assert np.max(np.abs(dia)) < 1e-8
    rep = completeness_gap(h, float(b.b[0, 0].real))
    assert rep.verdict == "consistent-with-complete"
    assert abs(rep.gap) <= rep.bound


def test_subdiag_identity_random_psd():
    rng = np.random.default_rng(31)
    for _ in range(6):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        lower = np.tril(m)
        np.fill_diagonal(lower, np.abs(np.diag(lower)) + 0.5)
        b = lower @ lower.conj().T
        basis = orthonormalize(b)
        h = hessenberg(b, basis)
        assert subdiag_check(basis, h) < 1e-8
        for k in range(h.certified - 1):
            assert h.h[k + 1, k].real > 0


def test_poly_zeros():
    b = a_to_b(moments(Annulus(0.3 + 0.0j, 0.5, 1.0), 6))
    h = hessenberg(b, orthonormalize(b))
    # P_n has an n-fold zero at the center, and an n-fold root only holds
    # its position to (entry noise)^(1/n)
    for n, tol in ((1, 1e-10), (3, 1e-4), (5, 2e-3)):
        zs = poly_zeros(h, n)
        assert zs.shape == (n,)
        assert np.max(np.abs(zs - 0.3)) < tol
    assert poly_zeros(h, 0).shape == (0,)
    for n in (-1, 6, 17):  # the certified block of order 6 is 5
        with pytest.raises(InputError):
            poly_zeros(h, n)


def test_degenerate_zero_matrix():
    basis = orthonormalize(np.zeros((4, 4)))
    assert basis.degree == 0 and basis.stopped
    h = hessenberg(np.zeros((4, 4)), basis)
    rep = completeness_gap(h, 0.0)
    assert rep.verdict == "inconclusive"


def test_indefinite_rejected():
    b = -np.eye(4)
    with pytest.raises(MathDomainError):
        orthonormalize(b)


def test_tiny_negative_b00_stops_at_degree_zero():
    # the first pivot is b00: within 1e-9 ||b||_2 below 0 it only stalls, so
    # the basis stops at degree 0 and the Hessenberg block is empty
    b = np.diag([-1e-20, 1.0, 1.0])
    basis = orthonormalize(b)
    assert (basis.degree, basis.stopped, basis.coeffs.shape) == (0, True, (0, 0))
    h = hessenberg(b, basis)
    assert (h.h.shape, h.certified) == ((0, 0), 0)


def test_negative_b00_is_indefinite():
    with pytest.raises(MathDomainError, match="indefinite beyond tolerance"):
        orthonormalize(np.diag([-1.0, 1.0, 1.0]))


@pytest.mark.parametrize("row0, b00", [
    ([0.0, 0.0, 1.0], 2.0),  # the last term is not negligible: unsettled
    ([0.0, 1.0, 1e-3], 0.5),  # settled, but lhs exceeds b00 beyond the bound
], ids=["unsettled-tail", "gap-below-minus-bound"])
def test_completeness_inconclusive_verdicts(row0, b00):
    h = np.zeros((3, 3), dtype=complex)
    h[0] = row0
    rep = completeness_gap(Hessenberg(h, 3), b00)
    assert rep.verdict == "inconclusive"
    settled = rep.tail <= 1e-3 * max(abs(rep.lhs), abs(rep.rhs))
    assert settled == (rep.gap < -rep.bound)


def svd_indefinite(value: float, bm: np.ndarray) -> bool:
    """The stalled-pivot rule with ||b||_2 from the SVD: the oracle for the bracket."""
    return value < 0 and value < -1e-9 * max(float(np.linalg.norm(bm, 2)), 1e-30)


@pytest.mark.parametrize("address, order", [
    ("gallery:ellipse?u=2", 24), ("gallery:ellipse?u=2", 48), ("gallery:trifoil", 48),
])
def test_stalled_pivot_decided_without_the_svd(monkeypatch, address, order):
    # these Cholesky runs stop on a tiny negative pivot, a rounding residue
    b = b_for(address, order)
    norm = np.linalg.norm
    two_norms = []

    def counting(x, ord=None, *args, **kwargs):
        if ord == 2:
            two_norms.append(x.shape)
        return norm(x, ord, *args, **kwargs)

    pivots = []
    decide = orthopoly._indefinite
    monkeypatch.setattr(orthopoly, "_indefinite", lambda v, bm: pivots.append(v) or decide(v, bm))
    monkeypatch.setattr(np.linalg, "norm", counting)
    basis = orthonormalize(b)
    assert basis.stopped and len(pivots) == 1 and pivots[0] < 0
    assert two_norms == []


def _stalling_gram(rng, n: int, k: int) -> np.ndarray:
    """b with a Cholesky that runs cleanly to step k, where the pivot is zero."""
    c = np.tril(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    c[np.arange(n), np.arange(n)] = 1.0 + rng.random(n)
    c[k, k] = 0.0
    return (c @ c.conj().T).conj()  # gram = b.conj() = c c^*


def test_pivot_bracket_decides_as_the_svd_rule(monkeypatch):
    rng = np.random.default_rng(2024)
    outcomes = {"raise": 0, "stop": 0}
    for _ in range(200):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, n))
        bm = _stalling_gram(rng, n, k)
        two, lo, hi = np.linalg.norm(bm, 2), np.abs(np.diag(bm)).max(), np.linalg.norm(bm)
        assert lo <= two <= hi
        # straddling -1e-9 ||b||_2 closely, at the bracket's ends, inside it, and far off
        for factor in (0.0, 0.5, 1 - 1e-6, 1 - 1e-12, 1 + 1e-12, 1 + 1e-6, 2.0, 1e6):
            value = -1e-9 * two * factor
            assert orthopoly._indefinite(value, bm) == svd_indefinite(value, bm)
        for end in (lo, hi, 0.5 * (lo + hi)):
            for eps in (-1e-15, 0.0, 1e-15):
                value = -1e-9 * end * (1 + eps)
                assert orthopoly._indefinite(value, bm) == svd_indefinite(value, bm)
        # a NaN, zero or positive pivot: the bracket's own comparison says not indefinite
        for value in (np.nan, 0.0, 1.0):
            assert orthopoly._indefinite(value, bm) == svd_indefinite(value, bm)
        # the whole factorization, with the pivot at step k set to about
        # -factor 1e-9 ||b||_2: the same stop degree or the same raise
        for factor in (0.5, 0.999, 1.001, 2.0):
            b = bm.copy()
            b[k, k] -= 1e-9 * two * factor
            got = []
            for rule in (orthopoly._indefinite, svd_indefinite):
                with monkeypatch.context() as patch:
                    patch.setattr(orthopoly, "_indefinite", rule)
                    try:
                        got.append(orthonormalize(b).degree)
                    except MathDomainError:
                        got.append("raise")
            assert got[0] == got[1]
            outcomes["raise" if got[0] == "raise" else "stop"] += 1
    assert outcomes["raise"] >= 200 and outcomes["stop"] >= 200
    # a zero pivot with a NaN on the diagonal past it stops, with no SVD (which
    # does not converge on NaN)
    assert orthonormalize(np.array([[1, 1, 0], [1, 1, 0], [0, 0, np.nan]], dtype=complex)).degree == 1
