"""Property tests of the real <-> complex moment conversion and the fill.

The conversion properties are linear identities, so they hold for any
Hermitian matrix a, moment matrix of a shade function or not: the
conversion is the substitution x = (z + conj(z))/2, y = (z - conj(z))/(2i)
and its inverse, and a shift z -> z + h with h real is the shift
x -> x + h.  The fill property holds for b of a banded operator model:
the certificate detected on its Krylov Gram propagates the first column
back to the Gram on the certified triangle.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from expotrans import gallery
from expotrans.finiteterm import detect_order, fill_from_first_column
from expotrans.operators import b_from_operator
from expotrans.reconstruct import complex_moments, real_moments
from expotrans.shapes import translate_moments

ORDERS = st.integers(1, 16)
SEEDS = st.integers(0, 2**32 - 1)


def _hermitian(order: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (order, order)) + 1j * rng.uniform(-1.0, 1.0, (order, order))
    return 0.5 * (x + x.conj().T)


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


def _fill_error(address: str, order: int) -> float:
    """Largest fill error on the certified triangle, relative to max |b| there."""
    b = b_from_operator(gallery.resolve(address).sized_for(order), order).b
    filled = fill_from_first_column(b[:, 0], detect_order(b, 4).q, order)
    inside = filled.certified
    return np.abs(filled.values - b)[inside].max() / np.abs(b[inside]).max()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(6, 32),
    st.one_of(st.just("trifoil"), st.floats(0.5, 2.0).map(lambda a: f"twodiag?B1=1&A1={a!r}")),
)
def test_fill_matches_operator_b(order, name):
    # measured up to 4.7e-13 (twodiag A1 = 0.5, order 31)
    assert _fill_error(f"gallery:{name}", order) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(6, 16), st.floats(1.5, 2.7))
def test_fill_matches_operator_b_ellipse(order, u):
    # the monomial-basis fill loses digits as u and order grow:
    # measured up to 3.3e-10 at u = 2.7, order 16
    assert _fill_error(f"gallery:ellipse?u={u!r}", order) < 1e-8
