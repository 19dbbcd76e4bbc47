"""Acceptance battery: one test per criterion, at the stated tolerances.

Each test is independent and self-describing, so `pytest -v` prints one
pass/fail line per criterion.  Where a criterion pins a value, the value is
derived in the test from the mathematics, never taken from the program's
output.  Two criteria rest on derivations worth stating:

* criterion 5: the annulus b matrix is diag((R^2 - r^2) r^(2k)), so the
  orthonormal basis is P_k = z^k / sqrt(b_kk), the Hessenberg matrix has
  subdiagonal r and a zero row 0 beyond h_00, and the completeness
  statistic sum_{k>=1} |h_0k|^2 - |h_10|^2 is -r^2.  The gap b00 - lhs
  = R^2 is the squared norm of the part of T e_0 outside the closure of
  the polynomials.  No basis orthonormal against this b goes below -r^2,
  since |h_10|^2 = pivot_1 / b00 <= b11 / b00 = r^2.
* criterion 7: for T e_n = a_n e_(n-1) + b_n e_(n+2) and xi = e_0, the
  commutator equation [T*, T] = xi (x) xi holds exactly when
      A_n + B_n - A_(n+1) - B_(n-2) = delta_n0       (diagonal)
      A_(n+3) B_n = A_(n+1) B_(n+1)                 (entry (n+3, n))
  with A_n = a_n^2, B_n = b_n^2 and A_0 = B_(-1) = B_(-2) = 0; no other
  entry is constrained, and these two fix every term from (A_1, B_1).
  The test walks them in exact rational arithmetic.  Of the nine starts in
  {0.5, 1, 2}^2 only the three with B_1 = 1 stay positive; each of the
  other six must make the generator raise MathDomainError naming its first
  nonpositive term, e.g. (1/2, 1/2) gives B_4 = 5/12 + 2/3 - 4/3 = -1/4.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from expotrans.errors import MathDomainError
from expotrans.exptransform import boundary_root
from expotrans.finiteterm import band_profile, detect_order, fill_from_first_column, fit_certificate
from expotrans.gallery import b_for, resolve
from expotrans.heleshaw import (
    confocal_ellipse,
    exterior_moments,
    mother_body_moment,
    zero_attraction,
)
from expotrans.operators import (
    b_from_operator,
    commutator_defect,
    toeplitz_power,
    two_diagonal,
    two_diagonal_state,
)
from expotrans.orthopoly import completeness_gap, hessenberg, orthonormalize, poly_zeros
from expotrans.reconstruct import (
    legendre_fit,
    real_moments,
    reconstruct_from_certificate,
    support_box,
)
from expotrans.series import BiSeries, a_to_b, b_to_a, exp_neg, log_neg
from expotrans.shapes import Annulus, Disk, Ellipse, Weighted, moments


def test_criterion_01_closed_form_transforms():
    R, r = 1.0, 0.5
    b = a_to_b(moments(Annulus(0.0, r, R), 8)).b
    ks = np.arange(8)
    diag_err = np.max(np.abs(np.diag(b) - (R * R - r * r) * r ** (2 * ks)))
    assert diag_err < 1e-8
    off = b - np.diag(np.diag(b))
    assert np.max(np.abs(off)) < 1e-10

    t = 0.5
    b = a_to_b(moments(Weighted(Disk(0.0, 1.0), t), 9)).b
    for k in range(9):
        prod = t
        for i in range(1, k + 1):
            prod *= i - t
        want = prod / math.factorial(k + 1)
        assert abs(b[k, k] - want) < 1e-8


def test_criterion_02_round_trips():
    rng = np.random.default_rng(2026)
    for case in range(20):
        n = 2 + case % 11  # sizes 2..12
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        tail = 0.3 * (raw + raw.conj().T) / 2
        s = BiSeries.from_tail(tail)
        back = log_neg(exp_neg(s))
        assert np.max(np.abs(back.tail - tail)) < 1e-10
        e = exp_neg(s)
        assert np.array_equal(e.tail[:, 0], -tail[:, 0])

        a = type(moments(Disk(0.0, 1.0), n))(tail)
        b = a_to_b(a)
        assert np.array_equal(b.b[:, 0], tail[:, 0])
        back_a = b_to_a(b).a
        assert np.max(np.abs(back_a - tail)) < 1e-10


def test_criterion_03_ellipse_rigidity():
    n = 12
    fam = resolve("gallery:ellipse?u=2")
    b = b_from_operator(fam.sized_for(n), n)
    basis = orthonormalize(b)
    hz = hessenberg(b, basis)
    h, c = hz.h, hz.certified
    jj, kk = np.indices(h.shape)
    below = h[jj > kk + 1]
    assert np.all(below == 0)
    block = h[: c, : c - 1] if c > 1 else h
    bj, bk = np.indices(block.shape)
    assert np.max(np.abs(block[bj < bk - 1])) < 1e-8
    sub = np.array([h[k + 1, k] for k in range(c - 1)])
    dia = np.array([h[k, k] for k in range(c - 1)])
    sup = np.array([h[k, k + 1] for k in range(c - 2)])
    for band in (sub, dia, sup):
        assert np.max(np.abs(band - band[0])) < 1e-8
    cert = detect_order(b, 6)
    assert cert is not None and cert.d == 1 and cert.residual < 1e-8


def test_criterion_04_trifoil_and_nonbanded():
    n = 12
    fam = resolve("gallery:trifoil")
    b = b_from_operator(fam.sized_for(n), n)
    cert = fit_certificate(b, 2)
    assert np.max(np.abs(cert.q - np.array([0, 0, 1]))) < 1e-10
    assert cert.residual < 1e-10
    filled = fill_from_first_column(b.b[:, 0], cert.q, n)
    err = np.abs(filled.values - b.b)[filled.certified]
    assert np.nanmax(err) < 1e-8
    basis = orthonormalize(b)
    prof = band_profile(hessenberg(b, basis))
    assert prof.recursion_length == 4

    # S^4 + S*^3: not finitely banded; the window must be wide enough that
    # no truncation ghost appears (order 14 would admit a spurious d = 6)
    n16 = 16
    op = toeplitz_power(1.0, 1.0, 3, 3 + n16 * 4 + 2)
    assert detect_order(b_from_operator(op, n16), 6, tol=1e-6) is None


def test_criterion_05_completeness():
    # ellipse-operator data: gap within its truncation bound
    b = b_for("gallery:ellipse?u=2", 12)
    basis = orthonormalize(b)
    rep = completeness_gap(hessenberg(b, basis), b.b[0, 0].real)
    assert abs(rep.gap) <= rep.bound
    assert rep.verdict == "consistent-with-complete"

    # catalog-wide inequality lhs <= rhs + 1e-6
    catalog = [
        "gallery:disk", "gallery:disk?R=2", "gallery:annulus",
        "gallery:annulus?r=0.3&R=0.8", "gallery:ellipse-shape",
        "gallery:ellipse-shape?p=2&q=1", "gallery:tdisk",
        "gallery:tdisk?t=0.25", "gallery:ellipse", "gallery:ellipse?u=3",
        "gallery:trifoil", "gallery:power?d=2", "gallery:twodiag",
        "gallery:twodiag?A1=2", "gallery:twodiag?A1=0.5",
    ]
    for addr in catalog:
        bc = b_for(addr, 10)
        bas = orthonormalize(bc)
        repc = completeness_gap(hessenberg(bc, bas), bc.b[0, 0].real)
        assert repc.lhs <= repc.rhs + 1e-6, addr

    # annulus: verdict incomplete, with the statistic and gap its closed
    # form fixes.  b = diag((R^2 - r^2) r^(2k)) gives P_k = z^k / sqrt(b_kk),
    # so h[k+1, k] = sqrt(b_(k+1,k+1) / b_kk) = r and h[0, k] = 0 for k >= 1:
    # lhs = 0 - r^2.  The gap b00 - lhs = (R^2 - r^2) + r^2 = R^2 is the
    # squared norm of the part of T e_0 outside the closure of the
    # polynomials.  For any b, |h_10|^2 = pivot_1 / b00 <= b11 / b00, which
    # is r^2 here, so lhs >= -r^2 for every basis orthonormal against it.
    r, R = 0.5, 1.0
    ba = b_for(f"gallery:annulus?r={r}&R={R}", 10)
    basa = orthonormalize(ba)
    repa = completeness_gap(hessenberg(ba, basa), ba.b[0, 0].real)
    assert repa.verdict == "incomplete"
    assert abs(repa.lhs - (-(r**2))) < 1e-8
    assert abs(repa.gap - R**2) < 1e-8


def test_criterion_06_annulus_fill_counterexample():
    R, r = 1.0, 0.5
    b = a_to_b(moments(Annulus(0.0, r, R), 8)).b
    cert = fit_certificate(b, 0)
    assert cert.residual < 1e-12
    filled = fill_from_first_column(b[:, 0], cert.q, 8)
    mismatch = abs(filled.values[1, 1] - b[1, 1])
    want = abs((R * R - r * r) ** 2 + (R * R - r * r) * r * r)
    assert abs(mismatch - want) < 1e-10


def _first_nonpositive(a1, b1, count):
    """First nonpositive term of the two-diagonal recursion, or None.

    Walks A_1..A_(count-1) and B_0..B_(count-2) over the rationals straight
    from the two commutator identities (see the module docstring): the
    diagonal one at n = 0 and n = 1 gives B_0 = A_1 + 1 and A_2 = A_1 + B_1,
    and for m >= 0 the entry (m+3, m) gives A_(m+3), then the diagonal at
    n = m + 2 gives B_(m+2) = A_(m+3) + B_m - A_(m+2).
    """
    A = {1: Fraction(a1), 2: Fraction(a1) + Fraction(b1)}
    B = {0: Fraction(a1) + 1, 1: Fraction(b1)}
    for m in range(count - 3):
        A[m + 3] = A[m + 1] * B[m + 1] / B[m]
        if A[m + 3] <= 0:
            return f"A_{m + 3}", A[m + 3]
        B[m + 2] = A[m + 3] + B[m] - A[m + 2]
        if B[m + 2] <= 0:
            return f"B_{m + 2}", B[m + 2]
    return None


def test_criterion_07_two_diagonal_generator():
    count = 10_000
    exits = {}
    for a1 in (0.5, 1.0, 2.0):
        for b1 in (0.5, 1.0, 2.0):
            first = _first_nonpositive(a1, b1, count)
            if first is not None:
                # no operator in the family has this start
                exits[(a1, b1)] = first
                with pytest.raises(MathDomainError, match=rf"\b{first[0]}\b"):
                    two_diagonal_state(a1, b1, count)
                continue
            st = two_diagonal_state(a1, b1, count)
            assert st.A[1:].min() > 0 and st.B.min() > 0
            assert np.isfinite(st.A[1:]).all() and st.A[1:].max() < np.inf
            assert st.sum_b_residual() < 1e-10
            assert st.telescope_residual() < 1e-10
            op = two_diagonal(a1, b1, 60)
            assert commutator_defect(op) < 1e-10
            b = b_from_operator(op, 12)
            basis = orthonormalize(b)
            h = hessenberg(b, basis).h
            c = min(12, h.shape[0]) - 1
            worst = max(
                abs(h[j, n])
                for n in range(c)
                for j in range(c)
                if j != n + 1 and j != n - 2
            )
            assert worst < 1e-8
    # the exits worked by hand from the identities; the B_1 = 1 starts survive
    assert exits == {
        (0.5, 0.5): ("B_4", Fraction(-1, 4)),
        (0.5, 2.0): ("B_2", Fraction(-1, 3)),
        (1.0, 0.5): ("B_4", Fraction(-2, 3)),
        (1.0, 2.0): ("B_2", Fraction(0)),
        (2.0, 0.5): ("B_4", Fraction(-8, 5)),
        (2.0, 2.0): ("B_5", Fraction(-3, 2)),
    }


def test_criterion_08_exterior_moments():
    em = exterior_moments(Ellipse(0.0, 1.5, 0.5), 5)
    for k in (1, 3, 4, 5):
        assert abs(em.t[k - 1]) < 1e-10
    assert abs(em.t[1]) > 1e-3
    half = exterior_moments(Ellipse(0.0, 0.75, 0.25), 5)
    assert abs(em.t[0] - half.t[0]) < 1e-10
    assert abs(em.t[1] - half.t[1]) < 1e-10
    circ = exterior_moments(Disk(0.0, 1.0), 6)
    assert np.max(np.abs(circ.t)) < 1e-12


def test_criterion_09_mother_body():
    c = math.sqrt(1.5**2 - 0.5**2)
    e = Ellipse(0.0, 1.5, 0.5)
    mass_e = 1.5 * 0.5
    a = moments(e, 6).a
    for j in (0, 2, 4):
        assert abs(mother_body_moment(c, mass_e, j) - a[j, 0].real) < 1e-8
    cols = []
    for s in (0.4, 0.8, 1.2):
        fam = confocal_ellipse(c, s)
        col = moments(fam, 8).a[:, 0]
        cols.append(col / col[0])
    spread = max(
        float(np.max(np.abs(cols[i] - cols[j])))
        for i in range(3)
        for j in range(i + 1, 3)
    )
    assert spread < 1e-6


def test_criterion_10_zero_attraction():
    b = b_for("gallery:ellipse?u=2", 13)
    h = hessenberg(b, orthonormalize(b))
    c_focal = 2.0 * math.sqrt(2.0)  # foci of the symbol curve 2e^it + e^-it
    d12 = zero_attraction(poly_zeros(h, 12), c_focal)
    d6 = zero_attraction(poly_zeros(h, 6), c_focal)
    assert d12 < 0.2
    # qualitative decrease; both values sit at the rounding floor, so a
    # strict comparison would flip on noise
    assert d12 <= d6 + 1e-9


def test_criterion_11_boundary_locus():
    r = boundary_root(Disk(0.0, 1.0), 1.0, (0.5, 2.0))
    assert abs(r - 1.0) < 1e-4
    r = boundary_root(Annulus(0.0, 0.5, 1.0), 1.0, (0.8, 2.0))
    assert abs(r - 1.0) < 1e-4
    rp = boundary_root(Ellipse(0.0, 1.5, 0.5), 1.0, (1.0, 3.0))
    assert abs(rp - 1.5) < 5e-3
    rq = boundary_root(Ellipse(0.0, 1.5, 0.5), 1j, (0.2, 2.0))
    assert abs(rq - 0.5) < 5e-3


def test_criterion_12_reconstruction():
    order, lorder = 12, 10
    b = b_for("gallery:ellipse?u=2", order)
    cert = detect_order(b, 4)
    fld, diag = reconstruct_from_certificate(b.b[:, 0], cert, order, lorder)
    area = 3.0 * math.pi  # symbol ellipse semiaxes 3 and 1
    assert abs(diag["mass_from_moments"] - area) < 0.02 * area
    gf = fld.sample(160, 160)
    x, y = np.meshgrid(gf.xs, gf.ys)
    truth = ((x / 3.0) ** 2 + y**2 <= 1.0).astype(float)
    cell = fld.box.area / gf.values.size
    l1 = float(np.abs(gf.values - truth).sum() * cell)
    assert l1 < 0.35 * area

    a = moments(Disk(0.0, 1.0), 12)
    rm = real_moments(a)
    box = support_box(a)
    errs = []
    for p in range(2, 11):
        g = legendre_fit(rm, box, p).sample(160, 160)
        xg, yg = np.meshgrid(g.xs, g.ys)
        t = (xg**2 + yg**2 <= 1.0).astype(float)
        errs.append(float(np.abs(g.values - t).sum() * (box.area / g.values.size)))
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi * 1.05
