import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apeuler import (
    InvalidArgumentError,
    OutOfDomainError,
    Polynomial,
    beta_bound,
    kappa,
    lambert_log_expand,
    mobius,
    multi_indices,
    necklace_m,
    power_sums,
    witt_b,
)
from apeuler.arith import divisors


def _log_series(coeffs, deg):
    """Taylor coefficients of log(h) up to degree deg, h given by ascending coeffs."""
    h = list(coeffs) + [0] * (deg + 1 - len(coeffs))
    out = [0j] * (deg + 1)
    for n in range(1, deg + 1):
        acc = n * h[n]
        for i in range(1, n):
            acc -= i * out[i] * h[n - i]
        out[n] = acc / n
    return out


def test_polynomial_basics():
    p = Polynomial.of([1, -3, 2, 0, 0])
    assert p.degree == 2
    assert p.coeff(1) == -3
    assert p.coeff(7) == 0
    q = p - Polynomial.of([1])
    assert q.coeffs == (0j, -3 + 0j, 2 + 0j)
    assert Polynomial.of([0, 0]).coeffs == (0j,)


def test_power_sums_example():
    # 1 - 3t + 2t^2 = (1 - t)(1 - 2t): inverse roots 1 and 2
    h = Polynomial.of([1, -3, 2])
    assert power_sums(h, 3) == [3 + 0j, 5 + 0j, 9 + 0j]


def test_power_sums_requires_unit_constant():
    with pytest.raises(InvalidArgumentError):
        power_sums(Polynomial.of([2, 1]), 3)
    with pytest.raises(InvalidArgumentError):
        power_sums(Polynomial.of([1, 1]), 0)


def test_power_sums_past_the_doubles_are_refused():
    # s(2) = 1e400 used to come out as inf, and every later value as NaN
    h = Polynomial.of([1, 1e200])
    for call in (lambda: power_sums(h, 3), lambda: witt_b(h, 3), lambda: lambert_log_expand(Polynomial.of([0]), h, 3)):
        with pytest.raises(OutOfDomainError, match="double range"):
            call()


@pytest.mark.parametrize("seed", range(6))
def test_power_sums_against_numeric_roots(seed):
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(1, 6))
    coeffs = [1.0] + list(rng.normal(size=deg) + 1j * rng.normal(size=deg))
    h = Polynomial.of(coeffs)
    s = power_sums(h, 8)
    inv_roots = np.roots(list(h.coeffs))  # ascending read as descending = reciprocal poly
    for k in range(1, 9):
        direct = complex(np.sum(inv_roots**k))
        assert abs(s[k - 1] - direct) <= 1e-8 * max(1.0, abs(direct))


def test_witt_b_example():
    h = Polynomial.of([1, -3, 2])
    assert witt_b(h, 3) == [3 + 0j, 1 + 0j, 2 + 0j]


@pytest.mark.parametrize("coeffs", [(1, -3, 2), (1, 1), (1, 0, 0, -1), (1, 2, 3, 4)])
def test_witt_b_reconstructs_product(coeffs):
    # prod_{j<=J} (1 - t^j)^{b(j)} must agree with h through degree J
    deg = 10
    h = Polynomial.of(coeffs)
    b = witt_b(h, deg)
    log_acc = [0j] * (deg + 1)
    for j in range(1, deg + 1):
        # log(1 - t^j) = -sum_m t^{jm}/m
        for m in range(1, deg // j + 1):
            log_acc[j * m] -= b[j - 1] / m
    target = _log_series(h.coeffs, deg)
    for n in range(deg + 1):
        assert abs(log_acc[n] - target[n]) <= 1e-9 * max(1.0, abs(target[n]))


@given(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_witt_b_reconstructs_product_random(tail):
    deg = 8
    h = Polynomial.of([1] + tail)
    b = witt_b(h, deg)
    log_acc = [0j] * (deg + 1)
    for j in range(1, deg + 1):
        for m in range(1, deg // j + 1):
            log_acc[j * m] -= b[j - 1] / m
    target = _log_series(h.coeffs, deg)
    for n in range(deg + 1):
        assert abs(log_acc[n] - target[n]) <= 1e-7 * max(1.0, abs(target[n]))


def test_beta_bound_examples():
    assert beta_bound(Polynomial.of([1, -3, 2])) == 5
    assert beta_bound(Polynomial.of([1])) == 2  # floor of 2 even with no roots
    with pytest.raises(InvalidArgumentError):
        beta_bound(Polynomial.of([0, 1]))


@pytest.mark.parametrize("seed", range(8))
def test_beta_bound_dominates_numeric_radius(seed):
    rng = np.random.default_rng(100 + seed)
    deg = int(rng.integers(1, 7))
    coeffs = [1.0] + list(rng.normal(scale=2.0, size=deg))
    h = Polynomial.of(coeffs)
    # ascending coeffs read highest-first are x^d h(1/x), whose roots are the inverse roots
    radius = max(abs(np.roots(list(h.coeffs))))
    assert radius <= beta_bound(h) + 1e-9


def test_necklace_univariate():
    assert necklace_m((1,)) == 1
    for m in range(2, 11):
        assert necklace_m((m,)) == 0


def test_necklace_small_examples():
    assert necklace_m((1, 1)) == 1
    assert necklace_m((2, 1)) == 1
    assert necklace_m((2, 2)) == 1
    assert necklace_m((3, 1)) == 1
    assert necklace_m((1, 1, 1)) == 2  # aperiodic words abc... up to rotation
    with pytest.raises(InvalidArgumentError):
        necklace_m((0, 0))
    with pytest.raises(InvalidArgumentError):
        necklace_m((-1, 2))


@pytest.mark.parametrize("k", [2, 3])
def test_necklace_sum_counts_lyndon_words(k):
    # sum over |m| = n of M(m) equals (1/n) sum_{d|n} mu(d) k^{n/d}
    table = {m: necklace_m(m) for m in multi_indices(k, 8)}
    for n in range(1, 9):
        total = sum(v for m, v in table.items() if sum(m) == n)
        expected = sum(mobius(d) * k ** (n // d) for d in divisors(n)) // n
        assert total == expected


def test_necklace_by_brute_force_rotation_count():
    # count aperiodic binary words with given content, divided by length
    from itertools import permutations

    for m in [(2, 1), (2, 2), (3, 2), (4, 2)]:
        n = sum(m)
        word = "a" * m[0] + "b" * m[1]
        words = set(permutations(word))
        aperiodic = 0
        for w in words:
            if all(tuple(w[i:] + w[:i]) != w for i in range(1, n)):
                aperiodic += 1
        assert necklace_m(m) == aperiodic // n


def test_multi_indices_enumeration():
    got = list(multi_indices(2, 2))
    assert got == [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
    assert got == sorted(got)
    assert len(list(multi_indices(3, 4))) == sum(
        1 for m in {m: necklace_m(m) for m in multi_indices(3, 4)}
    )


def test_kappa_small_cases():
    for d in (2 + 0j, -1 + 0j, 1 + 1j, 0.5 - 0.25j):
        assert kappa(d, 1) == d
        for f in (2, 3, 5, 7):
            assert abs(kappa(d, f) - (d**f - d)) < 1e-12
        assert abs(kappa(d, 4) - (d**4 - d**2)) < 1e-12
        assert abs(kappa(d, 6) - (d**6 - d**3 - d**2 + d)) < 1e-12
    with pytest.raises(InvalidArgumentError):
        kappa(2 + 0j, 0)


@pytest.mark.parametrize("f", range(1, 13))
def test_kappa_of_an_array_is_the_scalar_kappa_elementwise(f):
    rng = np.random.default_rng(f)
    d = np.concatenate([rng.normal(size=40) + 1j * rng.normal(size=40), [1, -1, 0, 2.5, 0.5j]])
    got = kappa(d, f)
    want = [kappa(complex(x), f) for x in d]
    # numpy may square complex arrays with a fused multiply-add, where Python
    # rounds each product: the two agree to rounding of the largest power
    scale = sum(np.abs(d) ** e for e in divisors(f))
    assert all(abs(g - w) <= 2 * 2**-52 * s for g, w, s in zip(got, want, scale))
    assert kappa(np.array([1.0, -1.0, 0.0]), f).tolist() == [kappa(x, f) for x in (1.0, -1.0, 0.0)]


def test_necklace_m_accepts_any_integer_sequence():
    assert necklace_m([2, 1]) == necklace_m((2, 1)) == necklace_m(np.array([2, 1])) == 1
    with pytest.raises(TypeError):
        necklace_m((1.5, 1))
    for _ in range(2):  # refused on every call, never cached
        with pytest.raises(InvalidArgumentError):
            necklace_m([0, 0])


def test_kappa_divisor_sum_identity():
    for d in (2 + 0j, -1 + 0j, 1 + 1j):
        for n in range(1, 13):
            total = sum(kappa(d, f) for f in divisors(n))
            assert abs(total - d**n) < 1e-9


@pytest.mark.parametrize("d", [2 + 0j, -1 + 0j, 1 + 1j, 0.3 + 0.7j])
def test_kappa_log_resummation(d):
    # sum_f (kappa_f(d)/f) * (-log(1 - x^f)) converges to -log(1 - d x)
    x = 0.1
    total = 0j
    for f in range(1, 40):
        total += kappa(d, f) / f * (-cmath.log(1 - x**f))
    assert abs(total - (-cmath.log(1 - d * x))) < 1e-12


def _series_check_lambert(f, g, j_max, deg):
    coeffs = lambert_log_expand(f, g, j_max)
    lhs = _log_series((g - f).coeffs, deg)
    base = _log_series(g.coeffs, deg)
    lhs = [a - b for a, b in zip(lhs, base)]  # log((G - F)/G) = log(1 - F/G)
    rhs = [0j] * (deg + 1)
    for j, c in coeffs:
        for m in range(1, deg // j + 1):
            rhs[j * m] -= c / m
    for n in range(deg + 1):
        assert abs(lhs[n] - rhs[n]) <= 1e-9 * max(1.0, abs(lhs[n]))


def test_lambert_log_expand_pure_square():
    f = Polynomial.of([0, 0, 2])
    g = Polynomial.of([1])
    coeffs = lambert_log_expand(f, g, 10)
    assert coeffs[0] == (1, 0j)  # no degree-one part when F has a double zero at 0
    _series_check_lambert(f, g, 10, 10)


def test_lambert_log_expand_cubic_over_linear():
    f = Polynomial.of([0, 0, 0, 1])
    g = Polynomial.of([1, 1])
    _series_check_lambert(f, g, 12, 12)


def test_lambert_log_expand_validation():
    with pytest.raises(InvalidArgumentError):
        lambert_log_expand(Polynomial.of([1, 1]), Polynomial.of([1]), 5)
    with pytest.raises(InvalidArgumentError):
        lambert_log_expand(Polynomial.of([0, 1]), Polynomial.of([2]), 5)


@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=0, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_lambert_log_expand_random(f_tail, g_tail):
    f = Polynomial.of([0] + f_tail)
    g = Polynomial.of([1] + g_tail)
    if not any(f.coeffs):
        return
    _series_check_lambert(f, g, 8, 8)
