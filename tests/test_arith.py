import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from apeuler import (
    InvalidArgumentError,
    euler_phi,
    mobius,
    sieve,
)
from apeuler import arith
from apeuler.arith import bernoulli_numbers, divisors, factorize


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
    assert len(primes_1e6) == int(_eratosthenes_flags(10**6).sum()) == 78498


def test_sieve_segment_boundaries():
    # limit straddling a segment edge must not lose or duplicate primes
    limit = 2 * arith._SEGMENT + 1000
    seg = sieve(limit).primes
    assert len(seg) == len(set(seg.tolist()))
    assert np.array_equal(seg, np.flatnonzero(_eratosthenes_flags(limit)))


def _concatenated_sieve(limit, segment=arith._SEGMENT):
    """The earlier sieve: every integer flagged, one int64 chunk per segment, joined at the end."""
    base = np.flatnonzero(_eratosthenes_flags(max(math.isqrt(limit), 2)))
    chunks = []
    for lo in range(2, limit + 1, segment):
        hi = min(lo + segment, limit + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in base.tolist():
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                seg[start - lo :: p] = False
        chunks.append(lo + np.flatnonzero(seg).astype(np.int64))
    return np.concatenate(chunks)


def _eratosthenes_flags(limit):
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


_EDGE = 2 * arith._SEGMENT


@pytest.mark.parametrize(
    "limit",
    [2, 3, 4, 9, _EDGE - 1, _EDGE, _EDGE + 1, _EDGE + 2, 3 * _EDGE // 2 + 1, 10**7],
)
def test_odd_only_sieve_matches_the_concatenated_one(limit):
    # segments of _SEGMENT odd numbers end at the integers 2 _SEGMENT k
    got = sieve(limit).primes
    want = _concatenated_sieve(limit)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "lo, hi, segment",
    [(0, 2, 1), (2, 2, 4), (3, 3, 1), (1, 100, 1), (1, 100, 3), (4, 4, 8), (90, 96, 2),
     (999_983, 999_983, 5), (999_984, 1_000_002, 4), (10**6, 1_100_000, 1 << 10),
     (5, 3 * 2**20 + 1, 1 << 17), (0, 10**6, arith._SEGMENT)],
)
def test_prime_segments_yield_the_primes_of_a_range_once(primes_1e6, lo, hi, segment):
    # segment edges fall inside the range, on its ends, and past it; 999,983 is prime
    table = primes_1e6 if hi <= 10**6 else sieve(hi)
    chunks = list(arith.prime_segments(lo, hi, segment))
    got = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    assert got.dtype == np.int64
    assert np.array_equal(got, table.in_range(lo, hi))


def test_prime_count_majorant_holds_up_to_1e6(primes_1e6):
    # pi(p_k) = k at the k-th prime, where the count jumps; it must stay below the table size
    caps = [arith._prime_count_majorant(p) for p in primes_1e6.primes.tolist()]
    assert all(cap > k for k, cap in enumerate(caps, start=1))
    assert arith._prime_count_majorant(10**6) <= 1.01 * 78498


def test_sieve_1e8_holds_only_the_table():
    tracemalloc.start()
    try:
        primes = sieve(10**8).primes
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(primes) == 5_761_455
    assert primes[-1] == 99_999_989
    # the unused tail of the table's buffer counts too: the majorant is within 0.8% at 10^8
    assert peak <= primes.nbytes + 4 * 2**20


def test_prime_table_range_helpers(primes_1e6):
    assert list(primes_1e6.in_range(10, 20)) == [11, 13, 17, 19]
    assert list(primes_1e6.below(12)) == [2, 3, 5, 7, 11]


def test_prime_table_refuses_a_bound_past_its_limit():
    # up to the limit a table answers; past it, primes it does not hold would be missing
    table = sieve(100)
    assert table.below(100)[-1] == 97 and table.in_range(90, 100).tolist() == [97]
    for ask in (lambda: table.below(101), lambda: table.in_range(2, 101), lambda: table.in_range(500, 1000)):
        with pytest.raises(InvalidArgumentError, match=r"^prime table limit 100 too small for P="):
            ask()


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
    b = bernoulli_numbers(12)
    assert len(b) == 13
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
    assert bernoulli_numbers(130) == reference
    assert [bernoulli_numbers(n) for n in range(6)] == [reference[: n + 1] for n in range(6)]
    with pytest.raises(InvalidArgumentError):
        bernoulli_numbers(-1)


def test_bernoulli_build_makes_one_fraction_per_entry(monkeypatch):
    # the rational recurrence builds a Fraction per (m, j) pair, about 8,500 up to 130
    made = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(1)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(arith, "Fraction", Counted)
    bernoulli_numbers(130)
    assert len(made) <= 140
