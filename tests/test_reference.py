"""Returned balls against references computed in mpmath, independently of the engine.

For q = 1 the prime zeta function P(s) = sum_p p^-s gives closed forms:
sum_p log(1 - p^-s) = -sum_k P(ks)/k.  For progressions the reference is the
prime-by-prime sum of log1p(-p^-s) at 40 digits, for ``demo`` at large Re s
the prime product itself at 40 digits, and for the L layer's rows L - 1
``mpmath.dirichlet`` - 1 at 30 digits, and at large Im s ``hurwitz_zeta(s, 1)``
against ``mpmath.zeta`` at 30 digits.  The twin-prime and Artin constants
come from ``mpmath.twinprime`` and ``mpmath.primezeta``, and ``ap`` at q = 4
from a doubling identity in ``mpmath.zeta`` and ``mpmath.dirichlet``.
"""

import math
from functools import lru_cache
from math import comb

import numpy as np
import pytest

from apeuler import (
    APProductSpec,
    EvalParams,
    OutOfDomainError,
    Polynomial,
    PrecisionUnreachableError,
    RationalProductSpec,
    ap_product,
    character_group,
    continuation_demo,
    engine,
    hurwitz_zeta,
    rational_product,
)
from apeuler.lseries import _l_table

mpmath = pytest.importorskip("mpmath")


def _log_prime_product(s, tol=1e-45):
    """-sum_k P(ks)/k at 40 digits, up to the first term below ``tol``."""
    with mpmath.workdps(40):
        s = mpmath.mpc(s)
        total, k = mpmath.mpf(0), 1
        while True:
            term = mpmath.primezeta(k * s) / k
            total -= term
            if abs(term) < tol:
                return total
            k += 1


@pytest.mark.parametrize("s", [8 + 0j, 30 + 0j, 9 + 2j])
def test_ap_large_re_s_within_bound_of_prime_zeta(ls6, s):
    res = ap_product(APProductSpec(s=s, q=1, a=1, p_min=2, depth=10), ls6)
    assert abs(res.log_value - complex(_log_prime_product(s))) <= res.total_bound


# Re s near 1: at P = 2 the branch bound log(sigma/(sigma-1)) stays below 3
# down to sigma = 1.0524; at sigma = 1.01 the factors below 17 take it under 3
NEAR_ONE = [(1.1 + 0j, 2), (1.06 + 0j, 2), (1.1 + 5j, 2), (1.01 + 0j, 17)]


@pytest.mark.parametrize("s,p_min", NEAR_ONE)
def test_ap_near_re_s_one_within_bound_of_prime_zeta(ls6, s, p_min):
    res = ap_product(APProductSpec(s=s, q=1, a=1, p_min=p_min, depth=10), ls6)
    # P(k sigma) falls by about 2^-sigma per k, so the terms past tol sum to under 1% of the bound
    everything = complex(_log_prime_product(s, tol=res.total_bound / 1000))
    with mpmath.workdps(40):
        below = mpmath.fsum(mpmath.log(1 - mpmath.mpf(p) ** -mpmath.mpc(s)) for p in ls6.primes.below(p_min).tolist())
    assert abs(res.log_value - (everything - complex(below))) <= res.total_bound


# (s, L) at q = 1, P = 2: the log of L_P from 1 + delta lost about u to the 1
# whatever delta was, up to 22 times the bound at s = 5.4
Q1_ROWS = [
    (5 + 0j, 20),
    (5.4 + 0j, 20),
    (3 + 0j, 30),
    (2 + 0j, 40),
    pytest.param(1.5 + 0j, 60, marks=pytest.mark.xfail(
        strict=True, reason="the L layer leaves the rounding of its sums and table products out of its bound")),
]


@pytest.mark.parametrize("s,depth", Q1_ROWS)
def test_ap_at_q_one_within_bound_of_prime_zeta(ls6, s, depth):
    res = ap_product(APProductSpec(s=s, q=1, a=1, p_min=2, depth=depth), ls6)
    ref = _log_prime_product(s, tol=res.total_bound / 1000)
    with mpmath.workdps(40):  # a double reference would hide up to u/2 of |log_value|
        error = float(abs(mpmath.mpc(res.log_value) - ref))
    assert error <= res.total_bound


@pytest.mark.parametrize("q", [4, 5, 30])
@pytest.mark.parametrize("s", [2 + 0j, 3 + 4j, 5.4 + 0j, 12 + 0j])
def test_l_table_rows_are_l_minus_one_to_working_precision(q, s):
    # L - 1 is summed over n >= 2 itself: L formed first and 1 taken off was
    # wrong by up to 5e9 relative on this grid
    group = character_group(q)
    ((rows, _),) = _l_table([s], group, EvalParams())
    with mpmath.workdps(30):
        for chi, row in zip(group.characters, rows):
            ref = mpmath.dirichlet(mpmath.mpc(s), [chi(n) for n in range(q)]) - 1
            assert float(abs(mpmath.mpc(row) - ref) / abs(ref)) <= 1e-14


# Im s large: the Euler-Maclaurin order M grows with |s|, and the kernel's
# rounding (error past the bound from |Im s| near 200) and its Pochhammer
# (s)_{2M-1}, which overflows from |Im s| near 400, are outside the bound
LARGE_IM_S = [2 + 50j, 2 + 100j] + [
    pytest.param(s, marks=pytest.mark.xfail(strict=True, raises=raises, reason=f"{why} (ROADMAP item 1, defect (a))"))
    for s, raises, why in [
        (1.5 + 350j, AssertionError, "the kernel's rounding is outside its bound"),
        (2 + 1000j, OutOfDomainError, "(s)_{2M-1} overflows, so the kernel refuses a non-finite value"),
    ]
]


@pytest.mark.parametrize("s", LARGE_IM_S)
def test_hurwitz_zeta_at_large_im_s_within_bound_of_mpmath(s):
    res = hurwitz_zeta(s, 1.0)
    with mpmath.workdps(30):
        error = float(abs(mpmath.mpc(res.value) - mpmath.zeta(mpmath.mpc(s))))
    assert error <= res.bound


# s where the demo bound used to sit below the rounding of its own value
DEMO_LARGE_RE_S = [5.5 + 0j, 8 + 0j, 10 + 0j, 20 + 0j, 6 - 2j, 40 + 3j]


@pytest.mark.parametrize("s", DEMO_LARGE_RE_S)
def test_demo_at_large_re_s_within_bound_of_its_prime_product(ls6, primes_1e6, s):
    # prod_{p <= X} (1 + p^-s - p^(1-2s)) at 40 digits; with |log(1 + z)| <= 2|z|
    # the primes past X change its log by at most 4 X^(1-sigma)/(sigma-1), under 1% of u
    res = continuation_demo(s, 30, ls6, depth=10)
    sigma, u = s.real, 2.0**-53
    x = math.ceil((400 / ((sigma - 1) * u)) ** (1 / (sigma - 1)))
    with mpmath.workdps(40):
        z = mpmath.mpc(s)
        ref = mpmath.exp(mpmath.fsum(
            mpmath.log(1 + mpmath.mpf(p) ** -z - mpmath.mpf(p) ** (1 - 2 * z)) for p in primes_1e6.below(x + 1).tolist()
        ))
        error = float(abs(res.value - ref))  # at 40 digits: rounding ref to a double would hide u/2
    assert error <= res.bound


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
    """The single-term plan {s: 1}, its error against sum_{p >= P, p = a mod q} log1p(-p^-s), and that sum's tail.

    The reference is summed at 40 digits, and the error taken there, up to
    the first N whose tail bound 2 sigma/(sigma-1) N^(1-sigma) is at most 1%
    of the returned bound.
    """
    res = engine._execute({s: 1}, 0.0, q, a, p_min, 10, ls)
    sigma = s.real
    tail = res.total_bound / 100
    n_max = math.ceil((2 * sigma / (sigma - 1) / tail) ** (1 / (sigma - 1)))
    with mpmath.workdps(40):
        ref = mpmath.fsum(
            mpmath.log1p(-mpmath.mpf(int(p)) ** -mpmath.mpc(s))
            for p in primes.in_range(p_min, n_max) if p % q == a % q
        )
        error = float(abs(mpmath.mpc(res.log_value) - ref))
    return res, error, tail


# (q, a, P, s): at s = 40 + 3i complex log1p(-z) is off by 1e-4 relative
DIRECT = [(1, 1, 2, 40 + 0j), (1, 1, 2, 40 + 3j), (4, 3, 2, 5.6 + 1j), (5, 2, 7, 6.6 + 0j)]
# at P = 20011 the prime cut X passes 10^4 but not 16 P: routed to y_p, delta
# ~ 7^-s had to cancel down to 1e-85 through 2,262 Euler factors (s = 20), and
# at s = 25 and 40 zeta(ell s, r/q) overflowed
LARGE_P = [(30, 7, 20011, 20 + 0j), (30, 7, 20011, 25 + 0j), (30, 7, 20011, 40 + 0j)]
# the same progressions just below the cut, where the exponent goes through y_p
BELOW_CUT = [(4, 3, 2, 5.4 + 0j), (5, 2, 7, 6.3 + 0j)]


@pytest.mark.parametrize("q,a,p_min,s", DIRECT + LARGE_P)
def test_direct_sum_within_bound_of_mpmath(ls6, primes_1e6, q, a, p_min, s):
    assert engine._direct_cut(np.array([s.real]), p_min, ls6.primes.limit)[0] > 0
    res, error, tail = _one_term_against_mpmath(ls6, primes_1e6, q, a, p_min, s)
    assert error <= res.total_bound + tail


# (q, a, P, plan): complex exponents and coefficients, every exponent summed directly
DIRECT_PLANS = [
    (1, 1, 2, {12 + 5j: 0.7 - 1.2j, 20 - 3j: 2 + 0.5j, 9.5 + 0j: -1.5j, 6 + 40j: 0.25}),
    (5, 2, 7, {8 + 2j: 1.5 + 0.5j, 11 - 7j: -0.8j, 16 + 0j: 0.3, 7 + 0.5j: -2 + 1j}),
    (30, 7, 20011, {20 + 1j: 0.5 - 0.5j, 24 - 2j: -1.25, 31 + 4j: 2j}),
]


@pytest.mark.parametrize("q,a,p_min,plan", DIRECT_PLANS)
def test_direct_plan_within_bound_of_mpmath(ls6, primes_1e6, q, a, p_min, plan):
    # sum_j c_j sum_{p >= P, p = a mod q} log1p(-p^-s_j) at 40 digits, each row up to the
    # first N whose tail 2 sigma/(sigma-1) N^(1-sigma) times |c_j| is at most 1% of the bound
    exps = np.array(list(plan))
    assert (engine._direct_cut(exps.real, p_min, ls6.primes.limit) > 0).all()
    res = engine._execute(plan, 0.0, q, a, p_min, 10, ls6)
    tail = res.total_bound / 100
    with mpmath.workdps(40):
        ref = 0
        for s, c in plan.items():
            sigma = s.real
            n_max = math.ceil((2 * sigma / (sigma - 1) * abs(c) * len(plan) / tail) ** (1 / (sigma - 1)))
            ref += mpmath.mpc(c) * mpmath.fsum(
                mpmath.log1p(-mpmath.mpf(int(p)) ** -mpmath.mpc(s))
                for p in primes_1e6.in_range(p_min, n_max) if p % q == a % q
            )
        error = float(abs(mpmath.mpc(res.log_value) - ref))
    assert error <= res.total_bound + tail


@pytest.mark.xfail(
    strict=True,
    reason="the L layer leaves the rounding of its sums and table products out of its bound",
)
@pytest.mark.parametrize("q,a,p_min,s", BELOW_CUT)
def test_y_p_just_below_the_cut_within_bound_of_mpmath(ls6, primes_1e6, q, a, p_min, s):
    assert engine._direct_cut(np.array([s.real]), p_min, ls6.primes.limit)[0] == 0
    res, error, tail = _one_term_against_mpmath(ls6, primes_1e6, q, a, p_min, s)
    assert error <= res.total_bound + tail


@lru_cache(maxsize=None)
def _log_constant_from(name):
    """The log of a named constant at 40 digits, with its factors below the cut P taken out.

    twin prime, P = 7: C_2 = prod_{p >= 3} (1 - 1/(p-1)^2) less p = 3 and 5.
    artin, P = 5: prod_p (1 - 1/(p(p-1))), whose log is sum_{k >= 2} (1 - L_k)
    P(k)/k with L_k the Lucas numbers, since 1 - x - x^2 has inverse roots of
    power sums L_k; 400 terms, the last about (golden ratio/2)^400 = 1e-37.
    Less p = 2 and 3.
    """
    with mpmath.workdps(40):
        one = mpmath.mpf(1)
        if name == "twin prime":
            return mpmath.log(mpmath.twinprime) - mpmath.log(one - one / 4) - mpmath.log(one - one / 16)
        lucas = [2, 1]
        while len(lucas) < 401:
            lucas.append(lucas[-1] + lucas[-2])
        log_a = mpmath.fsum((1 - lucas[k]) * mpmath.primezeta(k) / k for k in range(2, 401))
        return log_a - mpmath.log(one - one / 2) - mpmath.log(one - one / 6)


# (constant, G, P, L) as rational products with F = x^2:
# 1 - F/G = 1 - 1/(p-1)^2 at G = (1 - x)^2 and 1 - 1/(p(p-1)) at G = 1 - x
CONSTANTS = [
    ("twin prime", (1, -2, 1), 7, 10),
    ("twin prime", (1, -2, 1), 7, 20),
    pytest.param("twin prime", (1, -2, 1), 7, 30, marks=pytest.mark.xfail(
        strict=True, raises=PrecisionUnreachableError,
        reason="the plan's own rounding is outside its bound, so the floor check refuses it (ROADMAP item 1, defect (d))")),
    ("artin", (1, -1), 5, 10),
    ("artin", (1, -1), 5, 20),
    ("artin", (1, -1), 5, 30),
]


@pytest.mark.parametrize("name,g,p_min,depth", CONSTANTS)
def test_named_constant_within_bound_of_mpmath(ls6, name, g, p_min, depth):
    spec = RationalProductSpec(f=Polynomial.of([0, 0, 1]), g=Polynomial.of(g), p_min=p_min, depth=depth)
    res = rational_product(spec, ls6)
    with mpmath.workdps(40):
        error = float(abs(mpmath.mpc(res.log_value) - _log_constant_from(name)))
    assert error <= res.total_bound


@lru_cache(maxsize=None)
def _log_q4_sums(s):
    """sum_{p = a mod 4} log(1 - p^-s) for a = 1 and 3, at 40 digits.

    With A_3(s) = prod_{p = 3 mod 4} (1 - p^-s)^-1 and zeta_odd(s) = zeta(s)(1 - 2^-s),
    A_3(s)^2 = A_3(2s) zeta_odd(s) / L(s, chi_4), so log A_3(s) is
    sum_{j < 12} 2^(-j-1) (log zeta_odd(2^j s) - log L(2^j s, chi_4)) up to about
    3^(-4096 Re s).  Every log is principal: at Re s >= 1.1 each is below pi.
    The a = 1 sum is -log zeta_odd(s) less the a = 3 one.
    """
    with mpmath.workdps(40):
        s = mpmath.mpc(s)
        two = mpmath.mpf(2)
        log_odd = [mpmath.log(mpmath.zeta(2**j * s) * (1 - two ** (-(2**j) * s))) for j in range(12)]
        log_a3 = mpmath.fsum(
            two ** (-j - 1) * (log_odd[j] - mpmath.log(mpmath.dirichlet(2**j * s, [0, 1, 0, -1]))) for j in range(12)
        )
        return {1: log_a3 - log_odd[0], 3: -log_a3}


Q4_POINTS = [2 + 0j, 3 + 0j, 1.5 + 3j, 1.1 + 0j, pytest.param(5.4 + 0j, marks=pytest.mark.xfail(
    strict=True, reason="the L layer leaves the rounding of its sums and table products out of its bound "
    "(ROADMAP item 1, defect (a))"))]


@pytest.mark.parametrize("a", [1, 3])
@pytest.mark.parametrize("s", Q4_POINTS)
def test_ap_at_q_four_within_bound_of_the_doubling_identity(ls6, s, a):
    res = ap_product(APProductSpec(s=s, q=4, a=a, p_min=2, depth=30), ls6)
    with mpmath.workdps(40):
        error = float(abs(mpmath.mpc(res.log_value) - _log_q4_sums(s)[a]))
    assert error <= res.total_bound
