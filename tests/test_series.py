"""Series arithmetic against a brute-force dense-polynomial oracle.

The oracle keeps full (order+1) x (order+1) coefficient arrays indexed by
absolute powers of u and v, multiplies them with plain loops, and builds
exp(-A) from the Taylor sum.  Since every tail monomial carries at least
u^1 v^1, powers of A beyond the order cannot touch kept coefficients, so
the truncated Taylor sum is exact for the window under comparison.  The
per-pair convolution recursion (``loop_exp_neg``, ``loop_log_neg``) is the
second oracle, for the row kernel at orders the Taylor sum is too slow for.
"""
import math
import warnings

import numpy as np
import pytest

from expotrans.errors import InputError, PrecisionError
from expotrans.gallery import b_for
from expotrans.series import BiSeries, ExpMoments, MomentMatrix, a_to_b, degree_grid, exp_neg, in_float_range, log_neg, mul
from expotrans.shapes import Ellipse, moments


def to_poly(f: BiSeries) -> np.ndarray:
    n = f.order
    p = np.zeros((n + 1, n + 1), dtype=complex)
    p[0, 0] = f.const
    p[1:, 1:] = f.tail
    return p


def poly_mul_trunc(p: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((n + 1, n + 1), dtype=complex)
    for j in range(n + 1):
        for k in range(n + 1):
            c = p[j, k]
            if c != 0.0:
                out[j:, k:] += c * q[: n + 1 - j, : n + 1 - k]
    return out


def poly_exp_neg(p: np.ndarray, n: int) -> np.ndarray:
    total = np.zeros((n + 1, n + 1), dtype=complex)
    total[0, 0] = 1.0
    term = np.zeros((n + 1, n + 1), dtype=complex)
    term[0, 0] = 1.0
    for m in range(1, n + 1):
        term = poly_mul_trunc(term, -p, n) / m
        total += term
    return total


def loop_cross(rows_a: np.ndarray, rows_e: np.ndarray, j: int) -> np.ndarray:
    # The recursion as one np.convolve per pair of rows:
    # S[k] = sum_{p<j} (p+1) sum_{q<k} a[p,q] e[j-1-p, k-1-q].
    n = rows_a.shape[0]
    s = np.zeros(n, dtype=complex)
    for p in range(j):
        s[1:] += (p + 1) * np.convolve(rows_a[p], rows_e[j - 1 - p])[: n - 1]
    return s


def loop_exp_neg(a: np.ndarray) -> np.ndarray:
    e = np.zeros(a.shape, dtype=complex)
    for j in range(a.shape[0]):
        e[j] = -a[j] - loop_cross(a, e, j) / (j + 1)
    return e


def loop_log_neg(e: np.ndarray) -> np.ndarray:
    a = np.zeros(e.shape, dtype=complex)
    for j in range(e.shape[0]):
        a[j] = -e[j] - loop_cross(a, e, j) / (j + 1)
    return a


def alloc_cross_row(xt: np.ndarray, y: np.ndarray, j: int) -> np.ndarray:
    # The row kernel as it was with a fresh (n, 2n) buffer per row and y's rows
    # re-sliced in reverse: the bit-identity oracle for the one-buffer kernel.
    n = xt.shape[0]
    buf = np.zeros((n, 2 * n), dtype=complex)
    buf[:, 1 : n + 1] = xt[:, :j] @ y[:j][::-1]
    return buf.ravel()[: n * (2 * n - 1)].reshape(n, 2 * n - 1)[:, :n].sum(axis=0)


def alloc_exp_neg(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    w = np.arange(1, n + 1)[:, None] * a
    e = np.zeros((n, n), dtype=complex)
    for j in range(n):
        e[j] = -a[j] - alloc_cross_row(w.T, e, j) / (j + 1)
    return e


def alloc_log_neg(e: np.ndarray) -> np.ndarray:
    n = e.shape[0]
    a = np.zeros((n, n), dtype=complex)
    w = np.zeros((n, n), dtype=complex)
    for j in range(n):
        a[j] = -e[j] - alloc_cross_row(w.T, e, j) / (j + 1)
        w[j] = (j + 1) * a[j]
    return a


def alloc_mul(f: BiSeries, g: BiSeries) -> np.ndarray:
    tail = f.const * g.tail + g.const * f.tail
    for j in range(1, f.order):
        tail[j] += alloc_cross_row(f.tail.T, g.tail, j)
    return tail


def normwise(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def random_series(rng, order: int, scale: float = 1.0) -> BiSeries:
    t = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
    return BiSeries(0.0, scale * t)


def test_mul_identity():
    rng = np.random.default_rng(7)
    g = random_series(rng, 5)
    one = BiSeries(1.0, np.zeros((5, 5)))
    prod = mul(one, g)
    assert prod.const == 0.0
    assert np.array_equal(prod.tail, g.tail)


def test_mul_monomial_square():
    f = BiSeries(0.0, np.zeros((3, 3)))
    f.tail[0, 0] = 2.5
    prod = mul(f, f)
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 1] = 6.25
    assert np.array_equal(prod.tail, expected)


def test_mul_geometric_cancellation():
    # (1 - uv)(1 + uv + u^2 v^2 + u^3 v^3) = 1 once powers beyond 3 are cut
    f = BiSeries(1.0, np.diag([-1.0, 0.0, 0.0]).astype(complex))
    g = BiSeries(1.0, np.eye(3, dtype=complex))
    prod = mul(f, g)
    assert prod.const == 1.0
    assert np.max(np.abs(prod.tail)) == 0.0


def test_mul_against_oracle():
    rng = np.random.default_rng(11)
    for order in (1, 2, 3, 5, 8):
        f = random_series(rng, order)
        g = random_series(rng, order)
        got = to_poly(mul(f, g))
        want = poly_mul_trunc(to_poly(f), to_poly(g), order)
        assert np.max(np.abs(got - want)) < 1e-12


def test_mul_commutative_associative():
    rng = np.random.default_rng(13)
    f = random_series(rng, 6)
    g = random_series(rng, 6)
    h = random_series(rng, 6)
    fg = mul(f, g)
    gf = mul(g, f)
    assert np.max(np.abs(fg.tail - gf.tail)) < 1e-12
    left = mul(mul(f, g), h)
    right = mul(f, mul(g, h))
    assert np.max(np.abs(left.tail - right.tail)) < 1e-10


def test_exp_neg_zero():
    e = exp_neg(BiSeries(0.0, np.zeros((4, 4))))
    assert e.const == 1.0
    assert np.max(np.abs(e.tail)) == 0.0


def test_exp_neg_unit_disk_diagonal():
    # diagonal a_jj = 1/(j+1) exponentiates to 1 - uv with nothing else
    n = 6
    a = BiSeries(0.0, np.diag([1.0 / (j + 1) for j in range(n)]).astype(complex))
    e = exp_neg(a)
    expected = np.zeros((n, n), dtype=complex)
    expected[0, 0] = -1.0
    assert np.max(np.abs(e.tail - expected)) < 1e-14


def test_exp_neg_single_entry_diagonal():
    # exp(-a uv) has tail [k, k] = (-a)^(k+1) / (k+1)!
    n, aval = 5, 0.7
    a = BiSeries(0.0, np.zeros((n, n)))
    a.tail[0, 0] = aval
    e = exp_neg(a)
    for k in range(n):
        want = (-aval) ** (k + 1) / math.factorial(k + 1)
        assert abs(e.tail[k, k] - want) < 1e-15
    off = e.tail - np.diag(np.diag(e.tail))
    assert np.max(np.abs(off)) == 0.0


def test_exp_neg_against_oracle():
    rng = np.random.default_rng(3)
    for order in (1, 2, 3, 4, 6, 8):
        f = random_series(rng, order, scale=0.8)
        got = to_poly(exp_neg(f))
        want = poly_exp_neg(to_poly(f), order)
        assert np.max(np.abs(got - want)) < 1e-12


KERNEL_ORDERS = (1, 2, 12, 24, 48)


@pytest.mark.parametrize("order", KERNEL_ORDERS)
def test_kernel_matches_loop_on_decaying_moments(order):
    # an offset rotated ellipse inside the unit disk: entries decay with j + k
    a = moments(Ellipse(0.2 + 0.1j, 0.6, 0.4, 0.3), order).a
    assert normwise(exp_neg(BiSeries.from_tail(a)).tail, loop_exp_neg(a)) <= 1e-13
    e = -a_to_b(a).b
    assert normwise(log_neg(BiSeries(1.0, e)).tail, loop_log_neg(e)) <= 1e-13


@pytest.mark.parametrize("order", KERNEL_ORDERS)
def test_kernel_matches_loop_on_growing_moments(order):
    # the ellipse family at u = 2.5: b grows to about 1e43 at order 48
    b = b_for("gallery:ellipse?u=2.5", order).b
    assert normwise(exp_neg(BiSeries.from_tail(b)).tail, loop_exp_neg(b)) <= 1e-13
    assert normwise(log_neg(BiSeries(1.0, -b)).tail, loop_log_neg(-b)) <= 1e-13


@pytest.mark.parametrize("order", (1, 2, 5, 12, 24, 48))
def test_one_buffer_kernel_is_bit_identical_to_per_row_buffers(order):
    rng = np.random.default_rng(order)
    inputs = {
        "offset ellipse moments": moments(Ellipse(0.2 + 0.1j, 0.6, 0.4, 0.3), order).a,
        "growing b": b_for("gallery:ellipse?u=2.5", order).b,
        "random": rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order)),
    }
    for name, m in inputs.items():
        assert np.array_equal(exp_neg(BiSeries.from_tail(m)).tail, alloc_exp_neg(m)), name
        assert np.array_equal(log_neg(BiSeries(1.0, m)).tail, alloc_log_neg(m)), name
        f, g = BiSeries(0.5, m), BiSeries(1.0, m[::-1].T.copy())
        assert np.array_equal(mul(f, g).tail, alloc_mul(f, g)), name


def test_round_trip_shares_one_cross_sum():
    # b -> a -> b on the ellipse family at N = 48 crosses a map that loses
    # about seven digits (a reaches 1e49 where b is 1e43).  exp_neg and log_neg
    # form the cross sum as one expression of (a, e), so the round trip
    # cancels its own rounding: the median error over u is 3.9e-12 (6.9e-12
    # with the convolution loop), against 5e-11 when log_neg's product takes
    # e as its left factor instead.
    errs = []
    for u in np.linspace(2.0, 2.7, 13):
        b = b_for(f"gallery:ellipse?u={float(u)!r}", 48).b
        a = log_neg(BiSeries(1.0, -b)).tail
        errs.append(normwise(-exp_neg(BiSeries.from_tail(a)).tail, b))
    assert np.median(errs) <= 2e-11


@pytest.mark.parametrize("m", (1, 2, 7, 12, 20))
def test_triangle_reads_only_triangle(m):
    # entries with j + k >= m never reach an output entry with j + k < m
    rng = np.random.default_rng(m)
    n = 12
    inside = np.add.outer(np.arange(n), np.arange(n)) < m
    a = random_series(rng, n, 0.5).tail
    noisy = np.where(inside, a, 1e3 * random_series(rng, n).tail)
    for op, const in ((exp_neg, 0.0), (log_neg, 1.0)):
        clean = op(BiSeries(const, a)).tail
        perturbed = op(BiSeries(const, noisy)).tail
        assert np.array_equal(clean[inside], perturbed[inside])
    g = random_series(rng, n).tail
    clean = mul(BiSeries(1.0, a), BiSeries(1.0, g)).tail
    perturbed = mul(BiSeries(1.0, noisy), BiSeries(1.0, g)).tail
    assert np.array_equal(clean[inside], perturbed[inside])


def test_log_neg_annulus_diagonal():
    r, R, n = 0.5, 1.0, 6
    tail = np.diag([-(R**2 - r**2) * r ** (2 * j) for j in range(n)]).astype(complex)
    a = log_neg(BiSeries(1.0, tail))
    for j in range(n):
        want = (R ** (2 * j + 2) - r ** (2 * j + 2)) / (j + 1)
        assert abs(a.tail[j, j] - want) < 1e-14


def test_log_neg_trivial():
    a = log_neg(BiSeries(1.0, np.zeros((4, 4))))
    assert a.const == 0.0
    assert np.max(np.abs(a.tail)) == 0.0


def test_round_trip_log_exp():
    rng = np.random.default_rng(42)
    for order in (2, 4, 8, 12):
        for _ in range(5):
            t = rng.standard_normal((order, order)) + 1j * rng.standard_normal(
                (order, order)
            )
            a = BiSeries(0.0, (t + t.conj().T) / 2)
            back = log_neg(exp_neg(a))
            assert np.max(np.abs(back.tail - a.tail)) < 1e-10


def test_round_trip_exp_log():
    rng = np.random.default_rng(43)
    for order in (3, 7, 12):
        e = BiSeries(1.0, 0.5 * random_series(rng, order).tail)
        back = exp_neg(log_neg(e))
        assert np.max(np.abs(back.tail - e.tail)) < 1e-10


def test_first_column_exact():
    # the v^1 column of exp_neg(A) is -A's column, bit for bit
    rng = np.random.default_rng(5)
    for order in (1, 4, 9):
        a = random_series(rng, order)
        e = exp_neg(a)
        assert np.array_equal(e.tail[:, 0], -a.tail[:, 0])


def test_input_validation():
    with pytest.raises(InputError):
        mul(BiSeries(1.0, np.zeros((3, 3))), BiSeries(1.0, np.zeros((4, 4))))
    with pytest.raises(InputError):
        exp_neg(BiSeries(1.0, np.zeros((3, 3))))
    with pytest.raises(InputError):
        log_neg(BiSeries(0.0, np.zeros((3, 3))))
    with pytest.raises(InputError):
        BiSeries(0.0, np.zeros((2, 3)))
    with pytest.raises(InputError):
        BiSeries(0.0, np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(InputError):
        BiSeries(0.0, np.zeros((0, 0)))
    with pytest.raises(InputError, match="expected a square matrix"):
        MomentMatrix(np.zeros((2, 3)))
    # the row loops run under the float-range rule; a result that leaves the
    # float range is refused as a PrecisionError and not as a warning
    big = BiSeries.from_tail(np.full((4, 4), 1e300))
    for call in (lambda: exp_neg(big), lambda: log_neg(BiSeries(1.0, big.tail)), lambda: mul(big, big)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PrecisionError, match="leaves the float range"):
                call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_a_given_matrix_with_a_non_finite_entry_is_bad_input(bad):
    # nan > tol is False, so the Hermitian test alone let NaN through: the
    # matrix constructed, and only a later a_to_b refused it
    m = np.eye(3, dtype=complex)
    m[2, 1] = bad
    for cls, what in ((MomentMatrix, "moment matrix"), (ExpMoments, "b matrix")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=rf"^{what} has a non-finite entry at \(2, 1\)$"):
                cls(m)


def test_a_matrix_whose_symmetrization_overflows_is_a_precision_error():
    # each entry is finite, but m + m^H doubles 1.2e308 past the float range;
    # built outside the float-range rule, the matrix once kept an inf entry
    for cls, what in ((MomentMatrix, "moment matrix"), (ExpMoments, "b matrix")):
        with pytest.raises(PrecisionError, match=f"^{what} leaves the float range when symmetrized$"):
            cls(np.diag([1.2e308, 1.0]))


def test_degree_grid_is_cached_and_read_only():
    for n in (1, 2, 7, 48):
        grid = degree_grid(n)
        assert grid is degree_grid(n)
        assert np.array_equal(grid, np.add.outer(np.arange(n), np.arange(n)))
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 1


def test_float_range_rule_passes_a_finite_result_through():
    out = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert in_float_range(lambda: out, "unused") is out
    assert in_float_range(lambda: 0.5 + 0j, "unused") == 0.5


def test_float_range_rule_refuses_python_overflow():
    # Python's float arithmetic raises rather than returning inf
    with pytest.raises(PrecisionError, match="^e to the 1000 leaves the float range$"):
        in_float_range(lambda: math.exp(1000.0), "e to the 1000 leaves the float range")
    with pytest.raises(PrecisionError, match="^big$"):
        in_float_range(lambda: float(10**400), "big")


def test_float_range_rule_refuses_a_non_finite_entry_without_a_warning():
    # numpy's overflow (1e300 squared) and invalid value (inf - inf) are
    # silenced inside the rule; the non-finite result is the error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for compute in (lambda: np.full((2, 2), 1e300) ** 2, lambda: np.array([np.inf]) - np.inf):
            with pytest.raises(PrecisionError, match="^past the range$"):
                in_float_range(compute, "past the range")


def test_float_range_rule_reads_only_masked_entries_and_names_the_first():
    vals = np.array([[1.0, np.inf], [np.nan, 1.0], [np.inf, np.inf]])
    inside = np.array([[True, False], [True, True], [True, True]])
    with pytest.raises(PrecisionError, match=r"^fill at entry \(1, 0\)$"):
        in_float_range(lambda: vals, "fill", inside)
    # every non-finite entry lies outside the mask: the result passes
    outside = np.isfinite(vals)
    assert in_float_range(lambda: vals, "fill", outside) is vals
    assert in_float_range(lambda: vals, "fill", np.zeros_like(outside)) is vals
