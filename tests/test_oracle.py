import math

import pytest

from apeuler import (
    APProductSpec,
    InvalidArgumentError,
    InvalidSpecError,
    MultiTermSpec,
    Polynomial,
    RationalProductSpec,
    oracle_log_product,
    oracle_log_product_direct,
)


def test_zeta_inverse_within_tail(primes_1e6):
    spec = APProductSpec(s=2 + 0j)
    orc = oracle_log_product(spec, primes_1e6, 10**6)
    assert abs(orc.log_value - math.log(6 / math.pi**2)) <= orc.tail_bound
    assert orc.tail_bound < 1e-5


def test_empty_prime_range_gives_zero(primes_1e6):
    spec = APProductSpec(s=2 + 0j, p_min=200)
    orc = oracle_log_product(spec, primes_1e6, 100)
    assert orc.log_value == 0
    assert orc.tail_bound > 0


def test_limit_above_sieve_rejected(primes_1e6):
    with pytest.raises(InvalidArgumentError):
        oracle_log_product(APProductSpec(s=2 + 0j), primes_1e6, 10**7)


@pytest.mark.parametrize("limit", [-5, 0, 1])
def test_limit_below_two_rejected(primes_1e6, limit):
    # a negative limit used to give a negative tail bound
    with pytest.raises(InvalidArgumentError):
        oracle_log_product(APProductSpec(s=2 + 0j), primes_1e6, limit)


def test_factor_touching_zero_rejected(primes_1e6):
    # 1 - 2 * p^-1 vanishes at p = 2
    spec = MultiTermSpec(terms=((2 + 0j, 0.5, 0.0),), s=2 + 0j, p_min=2, depth=4)
    with pytest.raises(InvalidSpecError):
        oracle_log_product(spec, primes_1e6, 100)


@pytest.mark.parametrize(
    "spec",
    [
        APProductSpec(s=2 + 0j, q=4, a=3, p_min=5),
        APProductSpec(s=1.5 + 1j, q=5, a=2, p_min=5),
        RationalProductSpec(
            f=Polynomial.of([0, 0, 2]), g=Polynomial.of([1]), p_min=5
        ),
        MultiTermSpec(
            terms=((-1 + 0j, 1.0, 0.0), (1 + 0j, 2.0, -1.0)), s=2 + 0j, p_min=10
        ),
    ],
)
def test_doubling_limit_stays_within_tail(primes_1e6, spec):
    half = oracle_log_product(spec, primes_1e6, 5 * 10**5)
    full = oracle_log_product(spec, primes_1e6, 10**6)
    assert abs(half.log_value - full.log_value) <= half.tail_bound
    assert full.tail_bound < half.tail_bound


@pytest.mark.parametrize(
    "spec",
    [
        APProductSpec(s=2 + 0j),
        APProductSpec(s=1.5 + 1j, q=4, a=1, p_min=5),
        RationalProductSpec(
            f=Polynomial.of([0, 0, 0, 1]), g=Polynomial.of([1, 1]), q=4, a=3, p_min=5
        ),
        MultiTermSpec(
            terms=((-1 + 0j, 1.0, 0.0), (1 + 0j, 2.0, -1.0)), s=2 + 0j, p_min=10
        ),
    ],
)
def test_two_oracle_paths_agree(primes_1e6, spec):
    a = oracle_log_product(spec, primes_1e6, 10**6)
    b = oracle_log_product_direct(spec, primes_1e6, 10**6)
    assert a.tail_bound == b.tail_bound
    assert abs(a.log_value - b.log_value) <= 1e-12 * max(1.0, abs(a.log_value))


def test_residue_filter(primes_1e6):
    spec = APProductSpec(s=3 + 0j, q=4, a=3, p_min=3)
    orc = oracle_log_product(spec, primes_1e6, 100)
    direct = sum(
        math.log(1 - p**-3.0)
        for p in (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83)
    )
    assert abs(orc.log_value - direct) < 1e-15
