import math
import tracemalloc

import numpy as np
import pytest

from apeuler import (
    APProductSpec,
    InvalidArgumentError,
    InvalidSpecError,
    MultiTermSpec,
    Polynomial,
    RationalProductSpec,
    oracle_log_product,
)
from apeuler import arith, oracle, sieve


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


def test_limit_past_sieve_max_refused_before_allocating(primes_1e6, monkeypatch):
    # a limit above the table is streamed; past SIEVE_MAX it is refused before any array exists
    monkeypatch.setattr(oracle, "np", None)  # any array work would raise AttributeError
    monkeypatch.setattr(arith, "np", None)
    for limit in (arith.SIEVE_MAX + 1, 10**10):
        with pytest.raises(InvalidArgumentError, match="exceeds the largest supported"):
            oracle_log_product(APProductSpec(s=2 + 0j), primes_1e6, limit)


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


def test_residue_filter(primes_1e6):
    spec = APProductSpec(s=3 + 0j, q=4, a=3, p_min=3)
    orc = oracle_log_product(spec, primes_1e6, 100)
    direct = sum(
        math.log(1 - p**-3.0)
        for p in (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83)
    )
    assert abs(orc.log_value - direct) < 1e-15


def _whole_array_log_product(spec, primes, prime_limit):
    """The earlier oracle: every selected prime's term at once, one np.sum of the logs."""
    ps = primes.in_range(spec.p_min, prime_limit)
    if spec.q > 1:
        ps = ps[ps % spec.q == spec.a % spec.q]
    ps = ps.astype(float)
    logp = np.log(ps)
    if isinstance(spec, APProductSpec):
        t = np.exp(-complex(spec.s) * logp)
    elif isinstance(spec, RationalProductSpec):
        x = 1.0 / ps
        num = np.zeros_like(ps, dtype=complex)
        for c in reversed(spec.f.coeffs):
            num = num * x + c
        den = np.zeros_like(ps, dtype=complex)
        for c in reversed(spec.g.coeffs):
            den = den * x + c
        t = num / den
    else:
        t = np.zeros_like(ps, dtype=complex)
        for al, u, v in spec.terms:
            t += al * np.exp(-(u * complex(spec.s) + v) * logp)
    return complex(np.sum(np.log(1.0 - t)))


_BLOCKED_SPECS = [
    APProductSpec(s=2 + 0j),
    APProductSpec(s=1.5 + 1j, q=4, a=3, p_min=5),
    APProductSpec(s=1.2 - 0.5j, q=30, a=7, p_min=7),
    RationalProductSpec(f=Polynomial.of([0, 0, 2]), g=Polynomial.of([1, 0.5j]), p_min=5),
    RationalProductSpec(f=Polynomial.of([0, 0, 0, 1]), g=Polynomial.of([1, 1]), q=4, a=3, p_min=5),
    MultiTermSpec(terms=((-1 + 0j, 1.0, 0.0), (1 + 0j, 2.0, -1.0)), s=2 + 0j, p_min=10),
    MultiTermSpec(terms=((0.5j, 1.0, 0.5), (2 + 0j, 2.0, 0.0)), s=1.5 + 2j, q=30, a=11, p_min=11),
    APProductSpec(s=1.5 + 1j, q=4, a=1, p_min=5),
]


@pytest.mark.parametrize("table", ["primes_1e7", "primes_1e6"])
@pytest.mark.parametrize("spec", _BLOCKED_SPECS)
@pytest.mark.parametrize("limit", [10**5, 2_000_003, 10**7])
def test_blocked_sum_matches_the_whole_array_formula(request, primes_1e7, table, spec, limit):
    # 10^5 is inside the first block of _BLOCK table primes; 2,000,003 and 10^7 end mid-block,
    # and past a 10^6 table they are streamed
    assert len(primes_1e7.in_range(spec.p_min, limit)) % oracle._BLOCK
    want = _whole_array_log_product(spec, primes_1e7, limit)
    got = oracle_log_product(spec, request.getfixturevalue(table), limit).log_value
    assert abs(got - want) <= 1e-14


def _traced_peak(spec, primes, limit):
    tracemalloc.start()
    try:
        oracle_log_product(spec, primes, limit)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", _BLOCKED_SPECS)
def test_oracle_holds_one_block_at_a_time(primes_1e7, spec):
    # the whole-array formula peaked at 5.7-45.8 MB beyond the table for these specs
    assert _traced_peak(spec, primes_1e7, 10**7) <= 4 * 2**20
    # streamed past a table of 25 primes, the peak does not grow with the limit
    small = sieve(100)
    streamed = _traced_peak(spec, small, 10**7)
    assert streamed <= 4 * 2**20
    assert abs(streamed - _traced_peak(spec, small, 10**6)) <= 0.1 * 2**20


def _summed_primes(monkeypatch, spec, primes, limit):
    """The primes whose terms oracle_log_product forms, in order, and its log value."""
    seen = []
    terms = oracle._terms

    def recording(spec, ps):
        seen.append(ps.astype(np.int64))
        return terms(spec, ps)

    monkeypatch.setattr(oracle, "_terms", recording)
    value = oracle_log_product(spec, primes, limit).log_value
    return np.concatenate(seen) if seen else np.zeros(0, dtype=np.int64), value


@pytest.mark.parametrize(
    "table_limit, spec, limit",
    [
        (999_983, APProductSpec(s=1.5 + 1j), 1_000_100),  # the table ends at a prime
        (999_983, APProductSpec(s=1.5 + 1j), 999_983),  # nothing streamed
        (999_983, APProductSpec(s=1.5 + 1j, q=30, a=7, p_min=7), 1_200_000),
        (999_983, APProductSpec(s=1.5 + 1j, q=4, a=1, p_min=999_983), 1_000_033),
        (1_000, APProductSpec(s=2 + 0j, p_min=1_009), 5_000),  # P above the table, P prime
        (1_000, APProductSpec(s=2 + 0j, q=4, a=3, p_min=1_500), 5_000),
        (1_000, MultiTermSpec(terms=((0.5j, 1.0, 0.5),), s=1.5 + 2j, q=30, a=11, p_min=11), 3 * 10**6),
    ],
)
def test_no_prime_is_lost_or_counted_twice_where_the_table_ends(
    monkeypatch, primes_1e7, table_limit, spec, limit
):
    ps = primes_1e7.in_range(spec.p_min, limit)
    want = ps[ps % spec.q == spec.a % spec.q]
    got, value = _summed_primes(monkeypatch, spec, sieve(table_limit), limit)
    assert np.array_equal(got, want)
    # each prime's term is above 1e-9 here, far over the tolerance
    assert abs(value - _whole_array_log_product(spec, primes_1e7, limit)) <= 1e-14


def test_factor_crossing_zero_in_a_late_block_rejected(primes_1e7):
    # G(1/p) = 1 - c/p nearly vanishes at the prime p = 5,000,011, the 348,514th:
    # there |term(p)| = 1/(p (p - c)) is about 2, and at most 1e-7 at every other prime
    c = 5_000_011 - 1e-7
    spec = RationalProductSpec(f=Polynomial.of([0, 0, 1]), g=Polynomial.of([1, -c]), p_min=2)
    assert oracle_log_product(spec, primes_1e7, 4_999_999).log_value != 0
    with pytest.raises(InvalidSpecError, match="touches or crosses 0"):
        oracle_log_product(spec, primes_1e7, 10**7)


@pytest.mark.parametrize("s", [2 + 0j, 1.5 + 1j, 12 + 0j, 40 + 1e6j])
@pytest.mark.parametrize("q, a, p_min", [(1, 1, 2), (4, 3, 11), (101, 7, 2)])
@pytest.mark.parametrize("limit", [10**5, 2 * 10**6])  # the second runs past the end of the table
def test_ap_sums_as_its_one_term_multi_product(primes_1e6, s, q, a, p_min, limit):
    # the term (a_1, u_1, v_1) = (1, 1, 0) as ``multi --terms=1,0,1,0`` parses it
    ap = oracle_log_product(APProductSpec(s=s, q=q, a=a, p_min=p_min), primes_1e6, limit)
    multi = MultiTermSpec(terms=((1 + 0j, 1.0, 0.0),), s=s, q=q, a=a, p_min=p_min)
    assert repr(ap) == repr(oracle_log_product(multi, primes_1e6, limit))
