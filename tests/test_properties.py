"""Property tests of the real <-> complex moment conversion, rotation, the
fill, the moment identity a <-> b and the matrix documents.

The conversion properties are linear identities, so they hold for any
Hermitian matrix a, moment matrix of a shade function or not: the
conversion is the substitution x = (z + conj(z))/2, y = (z - conj(z))/(2i)
and its inverse, and a shift z -> z + h with h real is the shift
x -> x + h.  Rotating a shape by theta about 0 multiplies a[j, k] and
b[j, k] by exp(i theta (j - k)).  The fill property holds for b of a banded
operator model: the certificate detected on its Krylov Gram, or the one an
ellipse model satisfies by construction, propagates the first column back to
the Gram on the certified triangle.  For a shade with values in [0, 1], b
from exp(-A) = 1 - B is positive semidefinite, shares a's first column, and
-log(1 - B) gives a back; the shapes drawn for these lie inside the unit
disk around 0, where a -> b is well conditioned, and reach out to its
rim.  A matrix document read back and written again is the same bytes.
"""
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from expotrans import gallery
from expotrans.finiteterm import detect_order, fill_from_first_column
from expotrans.operators import b_from_operator, ellipse_operator
from expotrans.reconstruct import real_moments
from expotrans.serialize import dumps, matrix_from_obj, matrix_to_obj
from expotrans.series import a_to_b, b_to_a
from expotrans.shapes import Annulus, Disk, Ellipse, Sum, Weighted, moments, translate_moments

ORDERS = st.integers(1, 16)
SEEDS = st.integers(0, 2**32 - 1)


def _hermitian(order: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (order, order)) + 1j * rng.uniform(-1.0, 1.0, (order, order))
    return 0.5 * (x + x.conj().T)


def complex_moments(rm, order: int) -> np.ndarray:
    """The inverse of real_moments, as the round trip's oracle: a[j, k] expands
    z^j conj(z)^k = (x + iy)^j (x - iy)^k over m[p, q]; NaN beyond the data."""
    top = rm.total_order
    a = np.full((order, order), np.nan + 0j)
    for j in range(min(order, top + 1)):
        for k in range(min(order, top + 1 - j)):
            # coefficients of y^0 .. y^(j+k), each beside x^(j+k-q)
            c = np.convolve([math.comb(j, s) * 1j**s for s in range(j + 1)],
                            [math.comb(k, s) * (-1j) ** s for s in range(k + 1)])
            q = np.arange(j + k + 1)
            a[j, k] = c @ rm.m[j + k - q, q]
    return a


def _triangle(order: int) -> np.ndarray:
    jj, kk = np.indices((order, order))
    return jj + kk <= order - 1


@settings(max_examples=60, deadline=None)
@given(ORDERS, SEEDS)
def test_real_complex_round_trip(order, seed):
    a = _hermitian(order, seed)
    rm = real_moments(a)
    assert rm.total_order == order - 1
    back = complex_moments(rm, order)
    inside = _triangle(order)
    assert np.abs(back - a)[inside].max() < 1e-12
    assert np.all(np.isnan(back[~inside]))


@settings(max_examples=60, deadline=None)
@given(ORDERS, SEEDS, st.floats(-1.0, 1.0))
def test_x_translation_covariance(order, seed, h):
    a = _hermitian(order, seed)
    m = np.nan_to_num(real_moments(a).m)
    # x^p -> (x + h)^p: m_h[p, q] = sum_r C(p, r) h^(p-r) m[r, q]
    shift = np.array(
        [[math.comb(p, r) * h ** (p - r) if r <= p else 0.0 for r in range(order)] for p in range(order)]
    )
    expected = shift @ m
    got = real_moments(translate_moments(a, h)).m
    inside = _triangle(order)
    scale = max(1.0, np.abs(expected[inside]).max())
    assert np.abs(got - expected)[inside].max() < 1e-12 * scale


def _shape_pair(kind: int, seed: int, theta: float):
    """A shape near the origin and the same shape rotated by theta about 0."""
    rng = np.random.default_rng(seed)
    c = complex(*rng.uniform(-0.3, 0.3, 2))
    turn = complex(math.cos(theta), math.sin(theta))
    radius, ratio, phi = rng.uniform(0.2, 0.6), rng.uniform(0.2, 0.9), rng.uniform(-math.pi, math.pi)
    if kind == 0:
        return Disk(c, radius), Disk(c * turn, radius)
    if kind == 1:
        return Annulus(c, ratio * radius, radius), Annulus(c * turn, ratio * radius, radius)
    return (Ellipse(c, radius, ratio * radius, phi),
            Ellipse(c * turn, radius, ratio * radius, phi + theta))


@settings(max_examples=60, deadline=None)
@given(ORDERS, st.integers(0, 2), SEEDS, st.floats(-math.pi, math.pi))
def test_rotation_covariance_of_a_and_b(order, kind, seed, theta):
    shape, turned = _shape_pair(kind, seed, theta)
    a, a_turned = moments(shape, order).a, moments(turned, order).a
    b, b_turned = a_to_b(a).b, a_to_b(a_turned).b
    # z -> e^(i theta) z multiplies entry (j, k) by d_j conj(d_k), d_j = e^(i j theta)
    d = np.exp(1j * theta * np.arange(order))
    for m, m_turned in ((a, a_turned), (b, b_turned)):
        want = d[:, None] * m * d.conj()[None, :]
        assert np.abs(m_turned - want).max() <= 1e-12 * np.abs(want).max()


def _part(rng, center: complex, radius: float, kind: int):
    if kind == 0:
        return Disk(center, radius)
    if kind == 1:
        return Annulus(center, radius * rng.uniform(0.2, 0.9), radius)
    return Ellipse(center, radius, radius * rng.uniform(0.2, 1.0), rng.uniform(-math.pi, math.pi))


def _unit_disk_shape(kind: int, seed: int):
    """A disk, annulus or ellipse (kind 0, 1, 2), a grey copy of one (3) or a
    union of two (4), inside the unit disk around 0 and reaching up to 0.99 of it."""
    rng = np.random.default_rng(seed)
    turn = complex(np.exp(1j * rng.uniform(-math.pi, math.pi)))
    if kind < 3:
        radius = rng.uniform(0.1, 0.99)
        return _part(rng, (1.0 - radius) * rng.uniform(0.0, 1.0) * turn, radius, kind)
    if kind == 3:
        return Weighted(_unit_disk_shape(int(rng.integers(3)), seed + 1), rng.uniform(0.05, 1.0))
    s = rng.uniform(0.3, 0.7)
    r1, r2 = (min(s, 1.0 - s) * rng.uniform(0.3, 0.99) for _ in range(2))
    return Sum((_part(rng, s * turn, r1, int(rng.integers(3))), _part(rng, -s * turn, r2, int(rng.integers(3)))))


UNIT_DISK_CASES = (st.integers(1, 24), st.integers(0, 4), SEEDS)


@settings(max_examples=60, deadline=None)
@given(*UNIT_DISK_CASES)
def test_b_to_a_inverts_a_to_b(order, kind, seed):
    # measured up to 1.3e-16 of max |a| (annuli, N 2 to 24)
    a = moments(_unit_disk_shape(kind, seed), order).a
    assert np.abs(b_to_a(a_to_b(a)).a - a).max() <= 1e-14 * np.abs(a).max()


@settings(max_examples=60, deadline=None)
@given(*UNIT_DISK_CASES)
def test_a_and_b_share_the_first_column_exactly(order, kind, seed):
    a = moments(_unit_disk_shape(kind, seed), order).a
    assert np.array_equal(a_to_b(a).b[:, 0], a[:, 0])


@settings(max_examples=60, deadline=None)
@given(*UNIT_DISK_CASES)
def test_b_is_positive_semidefinite(order, kind, seed):
    # a disk's b has rank one, so its smallest eigenvalue is rounding:
    # measured down to -3.0e-16 of the largest (N 2 to 24)
    b = a_to_b(moments(_unit_disk_shape(kind, seed), order)).b
    eig = np.linalg.eigvalsh(b)
    assert eig.min() >= -1e-14 * eig.max()


def _fill_error(b: np.ndarray, q) -> float:
    """Largest fill error on the certified triangle, relative to max |b| there."""
    filled = fill_from_first_column(b[:, 0], q, b.shape[0])
    inside = filled.certified
    return np.abs(filled.values - b)[inside].max() / np.abs(b[inside]).max()


def _family_fill_error(address: str, order: int) -> float:
    """The fill error of a gallery family's b from the certificate detected on it."""
    b = b_from_operator(gallery.resolve(address).sized_for(order), order).b
    return _fill_error(b, detect_order(b, 4).q)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(6, 32),
    st.one_of(st.just("trifoil"), st.floats(0.5, 2.0).map(lambda a: f"twodiag?B1=1&A1={a!r}")),
)
def test_fill_matches_operator_b(order, name):
    # measured up to 4.7e-13 (twodiag A1 = 0.5, order 31)
    assert _family_fill_error(f"gallery:{name}", order) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(6, 48), st.floats(1.5, 2.7))
def test_fill_matches_operator_b_ellipse(order, u):
    # the degree-1 fill is the Krylov Gram of the ellipse operator that b00
    # and the detected certificate fix: measured up to 1.1e-14 (u = 1.5, order 42)
    assert _family_fill_error(f"gallery:ellipse?u={u!r}", order) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(6, 48), SEEDS)
def test_fill_matches_offset_rotated_ellipse(order, seed):
    # T = c + alpha S + beta S* with complex c, alpha and beta, from the
    # certificate the model satisfies: measured up to 1.0e-14 (order 48)
    rng = np.random.default_rng(seed)
    beta = rng.uniform(0.5, 2.0) * np.exp(2j * math.pi * rng.random())
    alpha = abs(beta) * rng.uniform(1.2, 3.0) * np.exp(2j * math.pi * rng.random())
    c = complex(*rng.uniform(-2.0, 2.0, 2))
    b = b_from_operator(ellipse_operator(c, alpha, beta, order + 2), order).b
    q1 = alpha / np.conj(beta)
    assert _fill_error(b, [c - q1 * np.conj(c), q1]) < 1e-12


@settings(max_examples=60, deadline=None)
@given(ORDERS, SEEDS)
def test_matrix_document_round_trip_is_byte_stable(order, seed):
    rng = np.random.default_rng(seed)
    size = (order, order, 2)
    parts = rng.choice([-1.0, 1.0], size) * rng.uniform(1.0, 10.0, size) * 10.0 ** rng.integers(-300, 301, size)
    parts = np.where(rng.random(size) < 0.2, rng.choice([-0.0, 0.0], size), parts)
    mask = rng.random((order, order)) < 0.7
    first = dumps(matrix_to_obj(parts[..., 0] + 1j * parts[..., 1], mask))
    back = matrix_from_obj(json.loads(first))
    assert dumps(matrix_to_obj(back, ~np.isnan(back))) == first
