import math
from fractions import Fraction

import numpy as np
import pytest

from apeuler import (
    BernoulliCache,
    InvalidArgumentError,
    euler_phi,
    mobius,
    sieve,
)
from apeuler import arith
from apeuler.arith import divisors, factorize


def _trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def test_sieve_small():
    assert list(sieve(10).primes) == [2, 3, 5, 7]
    assert list(sieve(2).primes) == [2]
    assert list(sieve(30).primes) == _trial_division_primes(30)


def test_sieve_rejects_tiny_limit():
    with pytest.raises(InvalidArgumentError):
        sieve(1)


def test_sieve_refuses_a_limit_past_the_ceiling_before_allocating(monkeypatch):
    assert arith.SIEVE_MAX >= 10**8
    monkeypatch.setattr(arith, "np", None)  # any array work would raise AttributeError
    for limit in (arith.SIEVE_MAX + 1, 10**10):
        with pytest.raises(InvalidArgumentError):
            sieve(limit)


def test_sieve_against_trial_division():
    limit = 10**4
    assert list(sieve(limit).primes) == _trial_division_primes(limit)


def test_sieve_count_1e6(primes_1e6):
    # independent one-shot sieve, different code path from the segmented one
    flags = np.ones(10**6 + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, 1001):
        if flags[p]:
            flags[p * p :: p] = False
    assert len(primes_1e6) == int(flags.sum()) == 78498


def test_sieve_segment_boundaries():
    # limit straddling a segment edge must not lose or duplicate primes
    limit = (1 << 20) + 1000
    seg = sieve(limit).primes
    assert len(seg) == len(set(seg.tolist()))
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    assert np.array_equal(seg, np.flatnonzero(flags))


def test_prime_table_range_helpers(primes_1e6):
    assert list(primes_1e6.in_range(10, 20)) == [11, 13, 17, 19]
    assert list(primes_1e6.below(12)) == [2, 3, 5, 7, 11]


@pytest.mark.parametrize("n,expected", [(1, 1), (12, 0), (30, -1), (2, -1), (6, 1)])
def test_mobius_values(n, expected):
    assert mobius(n) == expected


@pytest.mark.parametrize("n,expected", [(1, 1), (8, 4), (100, 40)])
def test_phi_values(n, expected):
    assert euler_phi(n) == expected


def test_phi_matches_gcd_count():
    for n in (1, 2, 12, 100, 360):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_mobius_phi_reject_zero():
    with pytest.raises(InvalidArgumentError):
        mobius(0)
    with pytest.raises(InvalidArgumentError):
        euler_phi(0)


def test_divisor_sum_identities():
    for n in range(1, 10**4 + 1):
        ds = divisors(n)
        assert sum(mobius(d) for d in ds) == (1 if n == 1 else 0)
        assert sum(euler_phi(d) for d in ds) == n


def test_factorize_reconstructs():
    for n in (1, 2, 97, 360, 2**10, 10**6 + 3):
        assert math.prod(p**e for p, e in factorize(n)) == n


def test_bernoulli_values():
    b = BernoulliCache(12)
    assert b[0] == 1
    assert b[1] == Fraction(-1, 2)
    assert b[2] == Fraction(1, 6)
    assert b[4] == Fraction(-1, 30)
    assert b[12] == Fraction(-691, 2730)
    assert all(b[n] == 0 for n in range(3, 13, 2))


def _bernoulli_by_recurrence(n):
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1, in exact rationals
    out = [Fraction(1)]
    for m in range(1, n + 1):
        out.append(-sum(math.comb(m + 1, j) * out[j] for j in range(m)) / (m + 1))
    return out


def test_bernoulli_table_matches_the_recurrence():
    reference = _bernoulli_by_recurrence(130)
    b = BernoulliCache(130)
    assert [b[n] for n in range(131)] == reference


def test_bernoulli_cache_grows_on_demand():
    reference = _bernoulli_by_recurrence(150)
    b = BernoulliCache(4)
    assert b[122] == reference[122]
    assert b[123] == 0
    assert [b[n] for n in range(151)] == reference
    step = BernoulliCache(0)
    assert [step[n] for n in range(151)] == reference


def test_bernoulli_build_makes_one_fraction_per_entry(monkeypatch):
    # the rational recurrence builds a Fraction per (m, j) pair, about 8,500 up to 130
    made = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(1)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(arith, "Fraction", Counted)
    BernoulliCache(130)
    assert len(made) <= 140
