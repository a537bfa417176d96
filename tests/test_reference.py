"""Returned balls against references computed in mpmath, independently of the engine.

For q = 1 the prime zeta function P(s) = sum_p p^-s gives closed forms:
sum_p log(1 - p^-s) = -sum_k P(ks)/k.  For progressions the reference is the
prime-by-prime sum of log(1 - p^-s) at 30 digits.
"""

import math
from math import comb

import pytest

from apeuler import APProductSpec, ap_product, continuation_demo, engine

mpmath = pytest.importorskip("mpmath")


def _log_prime_product(s):
    """-sum_k P(ks)/k at 40 digits, for Re s large enough that few k matter."""
    with mpmath.workdps(40):
        s = mpmath.mpc(s)
        total, k = mpmath.mpf(0), 1
        while True:
            term = mpmath.primezeta(k * s) / k
            total -= term
            if abs(term) < mpmath.mpf(10) ** -45:
                return complex(total)
            k += 1


@pytest.mark.parametrize("s", [8 + 0j, 30 + 0j, 9 + 2j])
def test_ap_large_re_s_within_bound_of_prime_zeta(ls6, s):
    res = ap_product(APProductSpec(s=s, q=1, a=1, p_min=2, depth=10), ls6)
    assert abs(res.log_value - _log_prime_product(s)) <= res.total_bound


def test_demo_two_within_bound_of_prime_zeta(ls6):
    # prod_p (1 + p^-2 - p^-3) from log(1 + x) = sum_n (-1)^(n+1) x^n / n with
    # x = p^-2 - p^-3, expanded binomially into P(2n + i); n < 75 reaches 1e-40
    with mpmath.workdps(40):
        log_ref = mpmath.fsum(
            mpmath.mpf((-1) ** (n + 1)) / n
            * mpmath.fsum(comb(n, i) * (-1) ** i * mpmath.primezeta(2 * n + i) for i in range(n + 1))
            for n in range(1, 75)
        )
        ref = float(mpmath.exp(log_ref))
    res = continuation_demo(2 + 0j, 60, ls6, depth=10)
    assert abs(res.value - ref) <= res.bound


def _one_term_against_mpmath(ls, primes, q, a, p_min, s):
    """The single-term plan {s: 1} and sum_{p >= P, p = a mod q} log(1 - p^-s) at 30 digits.

    The reference stops at the first N whose tail bound 2 sigma/(sigma-1) N^(1-sigma)
    is at most 1% of the returned bound, and hands that tail back.
    """
    res = engine._execute({s: 1}, 0.0, q, a, p_min, 10, ls)
    sigma = s.real
    tail = res.total_bound / 100
    n_max = math.ceil((2 * sigma / (sigma - 1) / tail) ** (1 / (sigma - 1)))
    with mpmath.workdps(30):
        ref = complex(mpmath.fsum(
            mpmath.log(1 - mpmath.mpf(int(p)) ** -mpmath.mpc(s))
            for p in primes.in_range(p_min, n_max) if p % q == a % q
        ))
    return res, ref, tail


# (q, a, P, s): at s = 40 + 3i complex log1p(-z) is off by 1e-4 relative
DIRECT = [(1, 1, 2, 40 + 0j), (1, 1, 2, 40 + 3j), (4, 3, 2, 5.6 + 1j), (5, 2, 7, 6.6 + 0j)]
# the same progressions just below the cut, where the exponent goes through y_p
BELOW_CUT = [(4, 3, 2, 5.4 + 0j), (5, 2, 7, 6.3 + 0j)]


@pytest.mark.parametrize("q,a,p_min,s", DIRECT)
def test_direct_sum_within_bound_of_mpmath(ls6, primes_1e6, q, a, p_min, s):
    assert engine._direct_cut(s.real, p_min, ls6.primes.limit) is not None
    res, ref, tail = _one_term_against_mpmath(ls6, primes_1e6, q, a, p_min, s)
    assert abs(res.log_value - ref) <= res.total_bound + tail


@pytest.mark.xfail(
    strict=True,
    reason="the y_p path leaves the rounding of log L_P, about 1e-16, out of its bound",
)
@pytest.mark.parametrize("q,a,p_min,s", BELOW_CUT)
def test_y_p_just_below_the_cut_within_bound_of_mpmath(ls6, primes_1e6, q, a, p_min, s):
    assert engine._direct_cut(s.real, p_min, ls6.primes.limit) is None
    res, ref, tail = _one_term_against_mpmath(ls6, primes_1e6, q, a, p_min, s)
    assert abs(res.log_value - ref) <= res.total_bound + tail
