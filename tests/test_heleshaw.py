"""Moment flows, exterior moments, and the focal-segment mother body.

Closed forms used as oracles: an ellipse with semiaxes p, q centered at the
origin has t_2 = (p - q) / (2 (p + q)), all other t_k = 0, and focal
half-distance c = sqrt(p^2 - q^2); a disk centered at c has t_1 = conj(c)
and nothing else.
"""
import math
import warnings

import numpy as np
import pytest

from expotrans.errors import InputError, MathDomainError, PrecisionError
from expotrans.heleshaw import (
    confocal_ellipse,
    exterior_moments,
    inject,
    inject_trajectory,
    mother_body,
    mother_body_moment,
    squeeze,
    squeeze_trajectory,
    zero_attraction,
)
from expotrans.shapes import Disk, Ellipse, Grid, Box, moments


def test_squeeze_basics():
    col = np.array([0.75, 0.1 + 0.2j, 0.05])
    assert np.array_equal(squeeze(col, 0.0), col)
    assert np.max(np.abs(squeeze(col, math.log(2.0)) - col / 2)) < 1e-15
    assert np.max(np.abs(squeeze(col, 1.0) - col * math.exp(-1))) < 1e-15


def test_squeeze_past_the_float_range():
    # e^1000 overflows math.exp; e^700 is finite, but 1e10 e^700 is not
    col = np.array([0.75, 1e10, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (-1000.0, -700.0):
            with pytest.raises(PrecisionError, match=f"t = {t:g} leaves the float range"):
                squeeze(col, t)
        assert squeeze(col[:1], -700.0)[0] == 0.75 * math.exp(700.0)


def test_inject_basics():
    col = np.array([0.75, 0.1 + 0.2j])
    out = inject(col, 0.5)
    assert out[0] == 1.25 and out[1] == col[1]
    assert np.array_equal(inject(col, 0.0), col)
    with pytest.raises(MathDomainError):
        inject(col, -0.75)
    with pytest.raises(MathDomainError):
        inject(col, -1.0)
    with pytest.raises(InputError):
        inject(np.zeros(0), 0.1)


def test_exterior_moments_circle():
    em = exterior_moments(Disk(0.0, 1.0), 6)
    assert em.kmax == 6 and em.t.shape == (6,)
    assert np.max(np.abs(em.t)) < 1e-12


def test_exterior_moments_ellipse():
    p, q = 1.5, 0.5
    em = exterior_moments(Ellipse(0.0, p, q), 6)
    assert abs(em.t[1] - (p - q) / (2 * (p + q))) < 1e-10
    for k in (1, 3, 4, 5):
        assert abs(em.t[k - 1]) < 1e-10
    # t_0 convention: area / pi carried by the interior moments, not by t
    a00 = moments(Ellipse(0.0, p, q), 2).a[0, 0].real
    assert abs(a00 - p * q) < 1e-10


def test_homothety_preserves_exterior_moments():
    # squeeze flow shrinks area but keeps every t_k with k >= 1
    big = exterior_moments(Ellipse(0.0, 1.5, 0.5), 5)
    small = exterior_moments(Ellipse(0.0, 0.75, 0.25), 5)
    assert np.max(np.abs(big.t - small.t)) < 1e-10


def test_exterior_moments_offcenter_disk():
    c = 0.3 + 0.2j
    em = exterior_moments(Disk(c, 1.0), 5)
    assert abs(em.t[0] - np.conj(c)) < 1e-10
    assert np.max(np.abs(em.t[1:])) < 1e-10


def test_exterior_moments_origin_guard():
    with pytest.raises(MathDomainError):
        exterior_moments(Disk(5.0, 1.0), 4)
    with pytest.raises(MathDomainError, match="boundary passes through the origin"):
        exterior_moments(Disk(1.0, 1.0), 4)
    with pytest.raises(InputError):
        exterior_moments(Disk(0.0, 1.0), 0)
    with pytest.raises(InputError):
        exterior_moments(Grid(Box(-1, 1, -1, 1), np.ones((8, 8))), 4)


@pytest.mark.parametrize("shape, kmax", [(Disk(0j, 1e-10), 40), (Disk(0.5 + 0j, 0.6), 400)])
def test_exterior_moments_past_the_float_range(shape, kmax):
    # z^-k on a contour near 0: one PrecisionError, no numpy warning, and no
    # non-finite t returned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError, match=f"exterior moments to k = {kmax} leave the float range"):
            exterior_moments(shape, kmax)


def test_confocal_family():
    c = 0.8
    for s in (0.4, 0.9, 1.5):
        e = confocal_ellipse(c, s)
        assert abs(e.p**2 - e.q**2 - c * c) < 1e-12
    with pytest.raises(InputError):
        confocal_ellipse(-1.0, 0.5)
    with pytest.raises(InputError):
        confocal_ellipse(1.0, 0.0)


def test_confocal_first_columns_proportional():
    # all members of a confocal family share first-column direction
    c = 0.8
    cols = []
    for s in (0.5, 1.0):
        e = confocal_ellipse(c, s)
        a = moments(e, 8).a
        col = a[:, 0]
        cols.append(col / col[0])
    assert np.max(np.abs(cols[0] - cols[1])) < 1e-6


def test_mother_body_density():
    c, m = 0.8, 0.75
    x = np.linspace(-1.2, 1.2, 401)
    rho = mother_body(c, m, x)
    assert np.all(rho >= 0)
    assert rho[0] == 0.0 and rho[-1] == 0.0
    assert abs(mother_body(c, m, np.array([c]))[0]) < 1e-15
    assert abs(mother_body(c, m, np.array([-c]))[0]) < 1e-15
    # peak at the midpoint: 2 m / (pi c)
    assert abs(mother_body(c, m, np.array([0.0]))[0] - 2 * m / (math.pi * c)) < 1e-14
    with pytest.raises(InputError):
        mother_body(0.0, m, x)


def test_mother_body_carries_ellipse_moments():
    # each confocal ellipse with matching mass has the same a[j, 0] moments
    c, s = 0.8, 0.7
    e = confocal_ellipse(c, s)
    m = e.p * e.q
    a = moments(e, 6).a
    assert abs(mother_body_moment(c, m, 0) - m) < 1e-9
    for j in (2, 4):
        assert abs(mother_body_moment(c, m, j) - a[j, 0].real) < 1e-8
    assert abs(mother_body_moment(c, m, 1)) < 1e-14
    assert abs(mother_body_moment(c, m, 3)) < 1e-14


def test_mother_body_moment_closed_form():
    # the Catalan closed form against the confocal ellipses' own a[j, 0],
    # whose rounding (a few 1e-12 relative) is the floor here
    for c in (0.5, 2.0):
        for s in (0.3, 1.5):
            e = confocal_ellipse(c, s)
            a = moments(e, 13).a[:, 0].real
            for j in range(13):
                got = mother_body_moment(c, e.p * e.q, j)
                assert abs(got - a[j]) <= 1e-10 * abs(a[j - j % 2]), (c, s, j)
    with pytest.raises(InputError):
        mother_body_moment(0.0, 1.0, 2)


def test_mother_body_moment_past_the_float_range():
    # c^j overflows as a Python float (OverflowError): PrecisionError, and an odd j is still 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError, match="mother-body moment of order 400 leaves the float range"):
            mother_body_moment(10.0, 1.0, 400)
    assert mother_body_moment(10.0, 1.0, 401) == 0.0


def test_zero_attraction():
    c = 1.0
    on_segment = np.array([-0.9, 0.0, 0.3, 1.0])
    assert zero_attraction(on_segment, c) == 0.0
    assert abs(zero_attraction(np.array([1.5]), c) - 0.5) < 1e-15
    assert abs(zero_attraction(np.array([0.5 + 0.25j]), c) - 0.25) < 1e-15
    assert abs(zero_attraction(np.array([-2.0 + 1.0j]), c) - math.hypot(1.0, 1.0)) < 1e-15
    assert zero_attraction(np.zeros(0), c) == 0.0
    with pytest.raises(InputError):
        zero_attraction(on_segment, 0.0)


def test_squeeze_trajectory_rows():
    col = np.array([0.75, 0.25])
    rows = squeeze_trajectory(col, [0.0, 1.0])
    assert len(rows) == 4
    assert rows[0] == (0.0, 0, 0.75 + 0j)
    t, j, v = rows[3]
    assert (t, j) == (1.0, 1) and abs(v - 0.25 * math.exp(-1)) < 1e-15


def test_inject_trajectory_rows():
    col = np.array([0.75, 0.25])
    rows = inject_trajectory(col, [0.0, 0.5, 1.0])
    assert len(rows) == 6
    assert rows[0] == (0.0, 0, 0.75 + 0j)
    assert rows[2] == (0.5, 0, 1.25 + 0j)
    assert rows[3] == (0.5, 1, 0.25 + 0j)
    assert rows[4] == (1.0, 0, 1.75 + 0j)
