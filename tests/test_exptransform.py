"""a <-> b conversion and batched E evaluation against closed forms.

The disk and annulus give E in closed form outside the support:

    disk R at c:      E(z, w) = 1 - R^2 / ((z - c)(conj(w) - conj(c)))
    annulus r < R:    E(z, w) = (1 - R^2/(z conj(w))) / (1 - r^2/(z conj(w)))

and the b-diagonals of the weighted unit disk and of the annulus have
product formulas, the annulus's (R^2 - r^2) r^(2k) written out here.  Those
pin a_to_b, eval_E, and boundary_root independently of each other.  The
evaluator uses the same closed forms for disks and annuli, so its ellipse
contour rule and the ellipse moment rule are checked against the operator
route instead: gallery:ellipse?u=2 is the ellipse with semiaxes 3 and 1.
The batched ellipse rule is checked point by point against the single-point
rule kept here, bit for bit; that rule writes out the same logarithm,
log|x| + i arg x from real kernels, and run with np.log instead it bounds
what the choice of logarithm moves.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from expotrans.errors import InputError, MathDomainError, PrecisionError
from expotrans.exptransform import (
    a_to_b,
    b_to_a,
    boundary_root,
    eval_E,
    nevanlinna_density,
    rot_diag_b,
)
from expotrans import shapes
from expotrans.gallery import b_for
from expotrans.shapes import Annulus, Box, Disk, Ellipse, Grid, Sum, Weighted, moments


def random_hermitian(rng, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def test_disk_b_is_rank_one():
    b = a_to_b(moments(Disk(0.0, 1.0), 6)).b
    want = np.zeros((6, 6))
    want[0, 0] = 1.0
    assert np.max(np.abs(b - want)) < 1e-14


def test_annulus_b_diagonal():
    r, R = 0.5, 1.0
    b = a_to_b(moments(Annulus(0.0, r, R), 8)).b
    for k in range(8):
        assert abs(b[k, k] - (R**2 - r**2) * r ** (2 * k)) < 1e-14
    off = b - np.diag(np.diag(b))
    assert np.max(np.abs(off)) < 1e-14


def test_tdisk_b_diagonal():
    t = 0.5
    b = a_to_b(moments(Weighted(Disk(0.0, 1.0), t), 8)).b
    assert abs(b[0, 0] - 0.5) < 1e-14
    assert abs(b[1, 1] - 0.125) < 1e-14
    assert abs(b[2, 2] - 1.0 / 16.0) < 1e-14
    for k in range(8):
        assert abs(b[k, k] - rot_diag_b(t, k)) < 1e-14


def test_rot_diag_b_values():
    assert rot_diag_b(1.0, 0) == 1.0
    assert rot_diag_b(1.0, 3) == 0.0
    assert abs(rot_diag_b(0.5, 2) - 1.0 / 16.0) < 1e-15
    for t, k in ((0.5, -1), (1.5, 0), (0.0, 2)):
        with pytest.raises(InputError):
            rot_diag_b(t, k)


@pytest.mark.parametrize("k", [170, 1000])
def test_rot_diag_b_past_the_factorial_range(k):
    # (k + 1)! leaves the float range from k = 170 on; the running product
    # stays in [0, 1) and matches the lgamma form and the exact rational value
    t = 0.5
    got = rot_diag_b(t, k)
    lgamma_form = math.exp(math.log(t) + math.lgamma(k + 1 - t) - math.lgamma(1 - t) - math.lgamma(k + 2))
    assert abs(got - lgamma_form) <= 1e-12 * lgamma_form
    exact = Fraction(1, 2)
    for i in range(1, k + 1):
        exact *= i - Fraction(1, 2)
    assert abs(got - float(exact / math.factorial(k + 1))) <= 1e-14 * got


def test_round_trip_random():
    rng = np.random.default_rng(19)
    for n in (2, 5, 12):
        for _ in range(4):
            a = random_hermitian(rng, n)
            back = b_to_a(a_to_b(a)).a
            assert np.max(np.abs(back - a)) < 1e-10


def test_first_column_exact():
    rng = np.random.default_rng(23)
    a = random_hermitian(rng, 9)
    b = a_to_b(a).b
    assert np.array_equal(b[:, 0], a[:, 0])


def test_b_psd_on_shapes():
    for s in (Disk(0.3, 1.0), Annulus(0.0, 0.4, 1.1), Ellipse(0.0, 2.0, 1.0, 0.2),
              Weighted(Disk(0.0, 1.0), 0.7)):
        b = a_to_b(moments(s, 8)).b
        lo = np.linalg.eigvalsh(b).min()
        assert lo > -1e-9 * np.linalg.norm(b, 2)


def test_eval_E_disk():
    d = Disk(0.25 + 0.1j, 1.0)
    for z, w in ((2.0 + 0.5j, 1.8 - 0.3j), (3.0, 2.5j + 1.5)):
        want = 1.0 - 1.0 / ((z - d.center) * np.conj(w - d.center))
        assert abs(eval_E(d, z, w) - want) < 1e-9
    assert abs(eval_E(Disk(0.0, 1.0), 2.0, 2.0) - 0.75) < 1e-10


def test_eval_E_annulus():
    r, R = 0.5, 1.0
    ann = Annulus(0.0, r, R)
    for z, w in ((1.7, 1.4 + 0.4j), (2.2j, -1.9)):
        x = 1.0 / (z * np.conj(w))
        want = (1.0 - R**2 * x) / (1.0 - r**2 * x)
        assert abs(eval_E(ann, z, w) - want) < 1e-9
    # both points in the hole: sum over j of the angle-independent terms
    for z, w in ((0.2 + 0.1j, -0.15 + 0.3j), (0.45j, 0.45j)):
        y = z * np.conj(w)
        want = (r / R) ** 2 * (1.0 - y / r**2) / (1.0 - y / R**2)
        assert abs(eval_E(ann, z, w) - want) < 1e-12
    # one point in the hole and one outside: no term survives the angle integral
    assert eval_E(ann, 0.3 + 0.1j, 1.5 - 0.5j) == 1.0
    assert eval_E(Annulus(0.2 - 0.1j, r, R), 1.4j, 0.3) == 1.0


def test_eval_E_ellipse_matches_operator_route():
    # the operator model of gallery:ellipse?u=2 is the ellipse with semiaxes
    # 3 and 1; its b at order 40 leaves a tail below 1e-16 at |z|, |w| >= 8
    n = 40
    b = b_for("gallery:ellipse?u=2", n).b
    j = np.arange(n)
    e = Ellipse(0.0, 3.0, 1.0)
    for z, w in ((8.0, 8.0), (8j, -8.0 + 1j), (6.0 + 6.0j, 9.0 - 2.0j), (-8.5, 8.2j)):
        series = 1.0 - z ** (-j - 1.0) @ b @ np.conj(w) ** (-j - 1.0)
        assert abs(eval_E(e, z, w) - series) < 1e-14


def test_ellipse_moments_match_operator_route():
    # the fixed Gauss x trapezoid rule against b_to_a of the operator's b
    for n in (12, 24, 40):
        want = b_to_a(b_for("gallery:ellipse?u=2", n)).a
        got = moments(Ellipse(0.0, 3.0, 1.0), n).a
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_eval_E_contour_budget(monkeypatch):
    e = Ellipse(0.0, 1.5, 0.5)
    z = 1.5 + 1e-6
    monkeypatch.setenv("EXPOTRANS_QUAD_BUDGET", "4096")
    with pytest.raises(PrecisionError):
        eval_E(e, z, z)
    # the same budget serves a point at a moderate distance unchanged
    capped = eval_E(e, 2.0, 2.0)
    monkeypatch.delenv("EXPOTRANS_QUAD_BUDGET")
    assert capped == eval_E(e, 2.0, 2.0)


def _count_nodes(monkeypatch) -> list:
    summed = []
    contour = shapes.boundary_nodes

    def counting(shape, n, shift=0.0):
        summed.append(n)
        return contour(shape, n, shift)

    monkeypatch.setattr(shapes, "boundary_nodes", counting)
    return summed


def _confocal_sigma(e: Ellipse, z: complex) -> float:
    # ln((P + Q)/(p + q)) for the confocal ellipse through z, from the focal distances
    u = (z - e.center) * np.exp(-1j * e.phi)
    c = math.sqrt(e.p**2 - e.q**2)
    big = 0.5 * (abs(u - c) + abs(u + c))
    return math.log((big + math.sqrt(big**2 - c**2)) / (e.p + e.q))


def test_eval_E_near_ellipse_fails_before_summing(monkeypatch):
    summed = _count_nodes(monkeypatch)
    e = Ellipse(0.0, 1.5, 0.5)
    with pytest.raises(PrecisionError):
        eval_E(e, 1.5 + 1e-7, 1.5 + 1e-7)
    # one over-budget point fails the whole batch, before any level is built
    batch = np.array([3.0, 1.5 + 1e-7, 2.0j])
    with pytest.raises(PrecisionError):
        eval_E(e, batch, batch)
    assert summed == []


def test_contour_refinement_names_the_budget(monkeypatch):
    # ln(1e9)/sigma = 129.07 passes the up-front check at budget 130, and the
    # rule starts at 128 nodes; refining to 256 exceeds the budget, and the
    # message names the budget, not the 128 nodes summed so far
    summed = _count_nodes(monkeypatch)
    monkeypatch.setenv("EXPOTRANS_QUAD_BUDGET", "130")
    with pytest.raises(PrecisionError, match="needs more than 130 nodes"):
        shapes.cauchy_kernel_log(Ellipse(0j, 1.5, 0.5), 1.6, 1.6)
    assert summed == [128]


@pytest.mark.parametrize("point", [1.5, 0.5, 0.0], ids=["rim", "inside", "centre"])
def test_ellipse_kernel_on_or_inside_the_rim_is_a_precision_error(point):
    # sigma <= 0 there: no node count meets the tolerance, and the budget
    # test says so before any node is built
    e = Ellipse(0j, 1.5, 0.5)
    z = np.array([point + 0j])
    with pytest.raises(PrecisionError, match="quadrature budget exceeded"):
        e.kernel_log(z, z)


def _real_kernel_log(x: np.ndarray) -> np.ndarray:
    """The contour rule's principal logarithm, log|x| + i arg x from real kernels."""
    out = np.empty_like(x)
    out.real = np.log(np.hypot(x.real, x.imag))
    out.imag = np.arctan2(x.imag, x.real)
    return out


def _ellipse_kernel_oracle(e: Ellipse, z: complex, w: complex, tol: float, log=_real_kernel_log) -> complex:
    """The single-point contour rule: its own nodes for every level it sums."""
    budget = shapes.quad_budget()
    sigma = min(e._sigma(z), e._sigma(w))
    if sigma <= 0 or tol < math.exp(-sigma * budget):
        raise PrecisionError("quadrature budget exceeded")
    wbar, cbar = np.conj(w), np.conj(e.center - w)

    def node_sum(n: int, shift: float) -> complex:
        ((zeta, dzeta),) = shapes.boundary_nodes(e, n, shift)
        return complex(np.sum(log((np.conj(zeta) - wbar) / cbar) * dzeta / (zeta - z)))

    n = 64
    while 2 * n * sigma <= math.log(1.0 / tol):
        n *= 2
    total = node_sum(n, 0.0)
    while True:
        if 2 * n > budget:
            raise PrecisionError("quadrature budget exceeded")
        coarse = total / (1j * n)
        total += node_sum(n, 0.5)
        n *= 2
        fine = total / (1j * n)
        if 2 * abs(fine - coarse) * math.exp(-sigma * n / 2) <= tol * max(1.0, abs(fine)):
            return complex(fine)


def _start_level(e: Ellipse, z: complex, w: complex) -> int:
    sigma, n = min(_confocal_sigma(e, z), _confocal_sigma(e, w)), 64
    while 2 * n * sigma <= math.log(1e9):
        n *= 2
    return n


def _near_rim(rng, e: Ellipse, lo: float = -3.0, hi: float = 0.5) -> complex:
    """A seeded point at a gap of 10^lo to 10^hi outside the rim, along the normal."""
    th = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.exp(1j * e.phi)
    normal = rot * complex(e.q * math.cos(th), e.p * math.sin(th))
    rim = e.center + rot * complex(e.p * math.cos(th), e.q * math.sin(th))
    return rim + 10 ** rng.uniform(lo, hi) * normal / abs(normal)


def _ellipse_batches():
    """25 seeded offset, rotated ellipses, each with a batch of seven points
    that mixes start levels, z = w and z != w."""
    rng = np.random.default_rng(20)
    for _ in range(25):
        p = rng.uniform(0.8, 2.0)
        e = Ellipse(complex(*rng.uniform(-0.5, 0.5, 2)), p, p * rng.uniform(0.2, 1.0), rng.uniform(0, math.pi))
        z = np.array([_near_rim(rng, e) for _ in range(7)])
        w = np.array([zi if k % 2 else _near_rim(rng, e) for k, zi in enumerate(z)])
        yield e, z, w


def test_batched_ellipse_kernel_is_the_single_point_rule():
    # every point's value is bit for bit its own rule's
    levels = set()
    for e, z, w in _ellipse_batches():
        got = shapes.cauchy_kernel_log(e, z, w)
        starts = {_start_level(e, zi, wi) for zi, wi in zip(z, w)}
        assert len(starts) > 1
        levels |= starts
        for zi, wi, k in zip(z, w, got):
            assert k == _ellipse_kernel_oracle(e, complex(zi), complex(wi), 1e-9)
    assert len(levels) >= 4


def test_ellipse_kernel_log_matches_numpys_complex_log():
    # the same rule with np.log in place of log|x| + i arg x: the sums move by
    # rounding only, and no point stops at another level
    worst = 0.0
    for e, z, w in _ellipse_batches():
        got = shapes.cauchy_kernel_log(e, z, w)
        for zi, wi, k in zip(z, w, got):
            want = _ellipse_kernel_oracle(e, complex(zi), complex(wi), 1e-9, log=np.log)
            worst = max(worst, abs(k - want) / abs(want))
    assert worst <= 1e-13


def test_batched_kernel_of_other_shapes_is_pointwise():
    # closed forms and cell sums over a batch equal their one-point values
    rng = np.random.default_rng(21)
    values = np.where(rng.random((6, 8)) < 0.3, 0.0, rng.random((6, 8)))
    ann = Annulus(0.2j, 0.4, 1.0)
    hole = 0.2j + 0.3 * np.exp(2j * math.pi * rng.random(3))
    ring = 0.2j + rng.uniform(1.2, 3.0, 3) * np.exp(2j * math.pi * rng.random(3))
    cases = [
        (Disk(0.3 - 0.2j, 1.1), 2.5 * np.exp(2j * math.pi * rng.random(5)), 3.0 * np.exp(2j * math.pi * rng.random(5))),
        # both in the hole, both outside, and one of each
        (ann, np.concatenate([hole, ring, hole]), np.concatenate([hole[::-1], ring[::-1], ring])),
        (Weighted(Ellipse(0.1j, 1.2, 0.5, -0.3), 0.35), np.array([1.5, 2.0j, -1.4 + 0.3j]), np.array([1.5, 2.5, 0.7j])),
        (Sum((Disk(-2.0, 0.5), Weighted(ann, 0.6))), np.array([0.2j, 2.5, -3.0]), np.array([0.3 + 0.2j, 2.5, 3.0j])),
        (Grid(Box(-1.0, 1.0, -0.5, 0.5), values), np.array([3.0, 2.5j, -4.0]), np.array([3.0, -3.0, 2.0 + 2.0j])),
    ]
    for shape, z, w in cases:
        got = shapes.cauchy_kernel_log(shape, z, w)
        assert got.shape == z.shape
        assert list(got) == [shapes.cauchy_kernel_log(shape, zi, wi) for zi, wi in zip(z, w)]
        assert list(eval_E(shape, z, w)) == [eval_E(shape, zi, wi) for zi, wi in zip(z, w)]


def test_batch_inputs():
    e = Ellipse(0.2 + 0.1j, 1.6, 0.7, 0.4)
    # a scalar pair is a one-point batch and still gives a Python complex
    assert type(eval_E(e, 3.0, 2.0j)) is complex
    assert type(shapes.cauchy_kernel_log(Disk(0.0, 1.0), 2.0, 2.0)) is complex
    assert eval_E(e, 3.0, 2.0j) == eval_E(e, np.array([3.0]), np.array([2.0j]))[0]
    # one inside point rejects the whole batch
    with pytest.raises(MathDomainError):
        eval_E(e, np.array([3.0, 0.2 + 0.1j, 4.0]), np.array([3.0, 3.0, 4.0]))
    with pytest.raises(MathDomainError):
        eval_E(Disk(0.0, 1.0), np.array([2.0, 3.0]), np.array([2.0, 0.5]))
    for z, w in ((np.array([3.0, 4.0]), np.array([3.0])), (np.ones((2, 2)) * 3, np.ones((2, 2)) * 3),
                 (np.array([]), np.array([])), (np.array([3.0, np.nan]), np.array([3.0, 4.0])),
                 (3.0, np.inf)):
        with pytest.raises(InputError):
            eval_E(e, z, w)


def test_ellipse_contour_needs_the_predicted_nodes(monkeypatch):
    # the up-front rule rejects a point only when the loop could not resolve it,
    # and the rule, started at half the prediction, sums at most 2.5 times it
    summed = _count_nodes(monkeypatch)
    for e in (Ellipse(0.0, 1.5, 0.5), Ellipse(0.2 + 0.1j, 1.6, 0.7, 0.4), Ellipse(-0.3j, 1.0, 0.9, 2.0)):
        rot = np.exp(1j * e.phi)
        for th in (0.0, 0.3, 2.0):
            normal = rot * complex(e.q * math.cos(th), e.p * math.sin(th))
            rim = e.center + rot * complex(e.p * math.cos(th), e.q * math.sin(th))
            for gap in (1e-1, 1e-2, 1e-3):
                z = rim + gap * normal / abs(normal)
                for w in (z, e.center + 3.0j * e.p * rot):
                    summed.clear()
                    eval_E(e, z, w)
                    need = math.log(1e9) / min(_confocal_sigma(e, z), _confocal_sigma(e, w))
                    assert need <= sum(summed) <= 2.5 * need


def test_eval_E_matches_series_tail():
    # far from the support the truncated series controls E to its tail size
    s = Ellipse(0.0, 1.5, 0.5, 0.0)
    n = 8
    b = a_to_b(moments(s, n)).b
    z = w = 6.0 + 2.0j
    x = 1.0 / (z * np.conj(w))
    series = 1.0 + 0.0j
    for j in range(n):
        for k in range(n):
            series -= b[j, k] * z ** (-j - 1) * np.conj(w) ** (-k - 1)
    tail_bound = abs(b[n - 1, n - 1]) * abs(x) ** n / (1.0 - abs(x))
    # the evaluator itself carries quadrature error near its 1e-9 stop rule
    assert abs(eval_E(s, z, w) - series) < tail_bound + 5e-8


def test_boundary_root_disk():
    got = boundary_root(Disk(0.0, 1.0), 1.0 + 0.0j, (0.3, 2.0))
    assert abs(got - 1.0) < 1e-4


def test_boundary_root_meets_its_tol():
    tol = 1e-5
    ellipse = Ellipse(0.0, 1.5, 0.5)
    pair = Sum((Weighted(Disk(-3.0, 1.0), 0.3), Weighted(Ellipse(2.0, 1.5, 0.5), 0.6)))
    for shape, d, bracket, t_true in (
        # criterion 11's four rays
        (Disk(0.0, 1.0), 1.0, (0.5, 2.0), 1.0),
        (Annulus(0.0, 0.5, 1.0), 1.0, (0.8, 2.0), 1.0),
        (ellipse, 1.0, (1.0, 3.0), 1.5),
        (ellipse, 1j, (0.2, 2.0), 0.5),
        # weighted shapes, where E vanishes to the order of the weight
        (Weighted(Disk(0.0, 1.0), 0.5), 1.0, (0.5, 2.0), 1.0),
        (Weighted(ellipse, 0.7), 1j, (0.2, 2.0), 0.5),
        (pair, 1.0, (2.5, 6.0), 3.5),
        (pair, -1.0, (3.1, 6.0), 4.0),
    ):
        assert abs(boundary_root(shape, d, bracket, tol) - t_true) < tol


def _ray_crossing(center: complex, p: float, q: float, phi: float, d: complex) -> float:
    # t d - center, turned by -phi, lies on x^2/p^2 + y^2/q^2 = 1: the larger
    # root of a quadratic in t
    u, v = -center * np.exp(-1j * phi), d * np.exp(-1j * phi)
    a = (v.real / p) ** 2 + (v.imag / q) ** 2
    b = 2 * (u.real * v.real / p**2 + u.imag * v.imag / q**2)
    c = (u.real / p) ** 2 + (u.imag / q) ** 2 - 1
    return (-b + math.sqrt(b * b - 4 * a * c)) / (2 * a)


def test_boundary_root_accuracy_sweep():
    # seeded rotated, offset ellipses along their major and minor axes, where
    # the ellipse contour rule is slowest to converge, plus offset disks and
    # annuli; the advertised tol is met with a 16x margin
    tol = 1e-5
    rng = np.random.default_rng(14)
    rays = []
    for _ in range(40):
        p = rng.uniform(1.2, 1.8)
        q = p * rng.uniform(0.3, 0.9)
        e = Ellipse(0.1 * q * np.exp(2j * math.pi * rng.random()), p, q, rng.uniform(0, math.pi))
        for axis in (0.0, 0.5 * math.pi):
            d = np.exp(1j * (e.phi + axis + rng.uniform(-0.15, 0.15)))
            rays.append((e, d, _ray_crossing(e.center, p, q, e.phi, d)))
    for _ in range(10):
        R = rng.uniform(0.5, 2.0)
        c = 0.3 * R * np.exp(2j * math.pi * rng.random())
        d = np.exp(2j * math.pi * rng.random())
        rays.append((Disk(c, R), d, _ray_crossing(c, R, R, 0.0, d)))
        rays.append((Annulus(0.0, R * rng.uniform(0.2, 0.38), R), d, R))  # hole inside 0.4 R
    worst = 0.0
    for shape, d, t_true in rays:
        worst = max(worst, abs(boundary_root(shape, d, (0.4 * t_true, 2.5 * t_true), tol) - t_true))
    assert worst <= tol / 16


def test_boundary_root_contour_cost(monkeypatch):
    # criterion 11's two ellipse rays: the rounds' widths shrink threefold, so
    # the accepting round needs at most a few times the nodes of the one before,
    # and each kernel sums about the predicted ln(1/tol)/sigma nodes.  A round
    # is one batch of five samples, which share the levels they reach.
    batches = []
    kernel = Ellipse.kernel_log

    def recording(self, z, w):
        batches.append((z, w))
        return kernel(self, z, w)

    monkeypatch.setattr(Ellipse, "kernel_log", recording)
    counted = _count_nodes(monkeypatch)
    e = Ellipse(0.0, 1.5, 0.5)
    boundary_root(e, 1.0, (1.0, 3.0))
    boundary_root(e, 1j, (0.2, 2.0))
    built = sum(counted)
    assert batches and all(len(z) == 5 for z, _ in batches)
    # the nodes each sample sums on its own
    counted.clear()
    for z, w in batches:
        for zi, wi in zip(z, w):
            _ellipse_kernel_oracle(e, complex(zi), complex(wi), 1e-9)
    assert built <= 55_000
    assert built < sum(counted) <= 84_000


def test_ellipse_contour_meets_its_tol():
    # the geometric stop rule against the same rule at tol 1e-13 (the
    # single-point oracle, which the batched rule matches bit for bit at
    # KERNEL_TOL), on offset, rotated ellipses at gaps 1e-3 to 10^0.5 outside
    # the rim, for z = w and z != w; its factor 2 keeps the error near tol/2,
    # under 0.6 tol
    rng = np.random.default_rng(15)
    worst = 0.0
    for k in range(60):
        p = rng.uniform(0.8, 2.0)
        e = Ellipse(complex(*rng.uniform(-0.5, 0.5, 2)), p, p * rng.uniform(0.2, 1.0), rng.uniform(0, math.pi))
        z = np.array([_near_rim(rng, e)])
        w = z if k % 2 else np.array([_near_rim(rng, e)])
        want = _ellipse_kernel_oracle(e, complex(z[0]), complex(w[0]), 1e-13)
        worst = max(worst, abs(e.kernel_log(z, w)[0] - want) / max(1.0, abs(want)))
    assert worst <= 6e-10


def test_boundary_root_no_crossing():
    with pytest.raises(MathDomainError, match="no boundary crossing"):
        boundary_root(Disk(0.0, 1.0), 1.0 + 0.0j, (2.0, 4.0))
    with pytest.raises(MathDomainError, match="upper end lies inside"):
        boundary_root(Disk(0.0, 1.0), 1.0 + 0.0j, (0.2, 0.9))


@pytest.mark.parametrize("direction, bracket", [
    (0.0, (0.5, 2.0)),
    (0j, (0.5, 2.0)),
    (complex(math.nan, 1.0), (0.5, 2.0)),
    (math.inf, (0.5, 2.0)),
    (complex(1.0, -math.inf), (0.5, 2.0)),
    (1.0, (0.5, math.inf)),
    (1.0, (math.nan, 2.0)),
    (1.0, (0.5, math.nan)),
])
def test_boundary_root_rejects_bad_ray(direction, bracket):
    with pytest.raises(InputError):
        boundary_root(Disk(0.0, 1.0), direction, bracket)


def test_nevanlinna_density_values():
    assert abs(nevanlinna_density(0.5, 0.5) - 1.0 / math.pi) < 1e-15
    with pytest.raises(MathDomainError):
        nevanlinna_density(1.5, 0.5)
    with pytest.raises(MathDomainError):
        nevanlinna_density(0.5, 1.0)


def test_nevanlinna_moments_match_diagonal():
    # Beta-integral oracle: int x^k (1/x - 1)^t dx = B(k+1-t, 1+t), so the
    # k-th moment of the density is sin(pi t)/pi * G(k+1-t) G(1+t) / G(k+2)
    def beta_moment(t, k):
        return (
            math.sin(math.pi * t)
            / math.pi
            * math.gamma(k + 1 - t)
            * math.gamma(1 + t)
            / math.gamma(k + 2)
        )

    for t in (0.3, 0.5, 0.8):
        assert abs(beta_moment(t, 0) - t) < 1e-14
        for k in range(9):
            assert abs(beta_moment(t, k) - rot_diag_b(t, k)) < 1e-14
    assert abs(beta_moment(0.5, 1) - 1.0 / 8.0) < 1e-15
    # and the pointwise density matches the same measure by quadrature at
    # t = 1/2, where x = sin^2(theta) removes both endpoint singularities
    nodes, weights = np.polynomial.legendre.leggauss(2000)
    theta = 0.25 * math.pi * (nodes + 1.0)
    w = 0.25 * math.pi * weights
    x = np.sin(theta) ** 2
    dx = 2.0 * np.sin(theta) * np.cos(theta)
    dens = nevanlinna_density(0.5, x)
    for k in range(9):
        mk = float(np.sum(w * x**k * dens * dx))
        assert abs(mk - beta_moment(0.5, k)) < 1e-10


def test_conversion_input_checks():
    with pytest.raises(InputError):
        a_to_b(np.zeros((2, 3)))
    rng = np.random.default_rng(1)
    with pytest.raises(InputError):
        a_to_b(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
