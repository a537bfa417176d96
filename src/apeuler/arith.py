"""Exact integer substrate: prime sieve, multiplicative functions, Bernoulli numbers.

Everything here is exact (integers and rationals); floating point enters only
in the analytic modules built on top.  Nothing is computed at import: the
Bernoulli numbers are built by ``bernoulli_numbers`` when the Euler-Maclaurin
kernel first needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import InvalidArgumentError

# Odd numbers per segment of a table build: a 1 MB flag buffer spanning 2 * _SEGMENT integers.
_SEGMENT = 1 << 20
# Largest sieve limit accepted.  It caps time, not the oracle's memory: the oracle
# streams its primes past the table in segments (a table up to it takes 46 MB).
SIEVE_MAX = 10**8
_ZERO = Fraction(0)


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit`` (inclusive), ascending."""

    limit: int
    primes: np.ndarray  # int64, sorted ascending

    def __len__(self) -> int:
        return len(self.primes)

    def _check_limit(self, bound: int) -> None:
        """Refuse a bound past ``limit``: the table cannot tell which primes lie beyond it."""
        if bound > self.limit:
            raise InvalidArgumentError(f"prime table limit {self.limit} too small for P={bound}")

    def in_range(self, lo: int, hi: int) -> np.ndarray:
        """Primes p with lo <= p <= hi; refused (``_check_limit``) for hi past ``limit``."""
        self._check_limit(hi)
        i = np.searchsorted(self.primes, lo, side="left")
        j = np.searchsorted(self.primes, hi, side="right")
        return self.primes[i:j]

    def below(self, bound: int) -> np.ndarray:
        """Primes p < bound; refused (``_check_limit``) for a bound past ``limit``."""
        self._check_limit(bound)
        return self.primes[: np.searchsorted(self.primes, bound, side="left")]


def _simple_sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def _prime_count_majorant(x: int) -> int:
    """An integer above pi(x) for x >= 2.

    Dusart's bound pi(x) < x/ln x (1 + 1.2762/ln x) holds for every x > 1
    (thesis, Limoges 1998), and was checked at every prime up to SIEVE_MAX.
    It is 0.75% above pi(10^8), where Rosser and Schoenfeld's 1.25506 x/ln x
    is 18% above.
    """
    log_x = math.log(x)
    return int(x / log_x * (1 + 1.2762 / log_x)) + 1


def check_sieve_limit(limit: int, name: str = "sieve limit") -> None:
    """Refuse a limit below 2 or past SIEVE_MAX, before any array exists."""
    if limit < 2:
        raise InvalidArgumentError(f"{name} must be >= 2")
    if limit > SIEVE_MAX:
        raise InvalidArgumentError(f"{name} {limit} exceeds the largest supported, {SIEVE_MAX}")


def prime_segments(lo: int, hi: int, segment: int = _SEGMENT) -> Iterator[np.ndarray]:
    """The primes p with lo <= p <= hi, ascending, one int64 array per segment.

    2 comes alone, then the odd numbers from the first one >= lo are sieved
    ``segment`` of them at a time in one reused flag buffer.  Apart from the
    arrays it yields it holds that buffer and the odd primes up to sqrt(hi).
    The caller checks hi with ``check_sieve_limit``.
    """
    if lo <= 2 <= hi:
        yield np.array([2], dtype=np.int64)
    base = _simple_sieve(max(math.isqrt(hi), 2))[1:]  # odd primes up to sqrt(hi)
    k0, k1 = max(lo, 1) // 2, (hi + 1) // 2  # the odd numbers 2 k + 1 in [lo, hi]
    flags = np.empty(max(0, min(segment, k1 - k0)), dtype=bool)
    for i0 in range(k0, k1, segment):
        seg = flags[: min(segment, k1 - i0)]
        seg[:] = True
        first = 2 * i0 + 1  # seg[i] stands for first + 2 i
        end = first + 2 * len(seg)
        if i0 == 0:
            seg[0] = False  # 1 is not prime
        ps = base[: np.searchsorted(base, math.isqrt(end - 1), side="right")]
        start = np.maximum(ps * ps, -(-first // ps) * ps)
        start += ps * (start % 2 == 0)  # odd multiples only
        for p, o in zip(ps.tolist(), ((start - first) // 2).tolist()):
            seg[o::p] = False
        found = np.flatnonzero(seg)
        found *= 2
        found += first
        yield found
        del found  # else it lives on while the next segment's is allocated


def sieve(limit: int) -> PrimeTable:
    """Segmented Eratosthenes sieve up to ``limit`` inclusive, 2 <= limit <= SIEVE_MAX.

    ``prime_segments`` sieves the odd numbers _SEGMENT at a time, and each
    segment's primes are written straight into a single table sized by
    ``_prime_count_majorant``; the returned primes are a view of its first
    pi(limit) entries, so the pages past them are never touched and never
    become resident.  Apart from the table it allocates under 3 MB at any
    limit: the flag buffer and one segment's primes.
    """
    check_sieve_limit(limit)
    out = np.empty(_prime_count_majorant(limit), dtype=np.int64)
    n = 0
    for found in prime_segments(2, limit):
        out[n : n + len(found)] = found
        n += len(found)
        del found  # else it lives on while the next segment's is allocated
    return PrimeTable(limit=limit, primes=out[:n])


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending."""
    if n < 1:
        raise InvalidArgumentError("factorize requires n >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def mobius(n: int) -> int:
    """Moebius function: 0 unless n is squarefree, else (-1)^(number of prime factors)."""
    if n < 1:
        raise InvalidArgumentError("mobius requires n >= 1")
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int) -> int:
    """Euler totient."""
    if n < 1:
        raise InvalidArgumentError("euler_phi requires n >= 1")
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def bernoulli_numbers(n: int) -> list[Fraction]:
    """Exact Bernoulli numbers B_0..B_n (B_1 = -1/2 convention), as a list.

    The even values come from the integer tangent numbers T_k (tan x =
    sum_k T_k x^(2k-1)/(2k-1)!) by B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1));
    odd values past B_1 are zero.  The T_k follow Brent and Harvey's in-place
    integer recurrence (Algorithm TangentNumbers of "Fast computation of
    Bernoulli, Tangent and Secant numbers", 2011, arXiv:1108.0286): O(n^2)
    small-by-big integer products and one Fraction per entry, where the
    classical sum_j C(m+1, j) B_j = 0 recurrence needs O(n^2) rational sums.
    """
    if n < 0:
        raise InvalidArgumentError("n must be >= 0")
    top = n // 2  # largest k with 2k <= n
    t = [0, 1] + [0] * (top - 1)  # t[k] = T_k once the passes are done
    for k in range(2, top + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, top + 1):
        for j in range(k, top + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    values = [Fraction(1), Fraction(-1, 2)]
    for k in range(1, top + 1):
        values.append(Fraction((-1) ** (k - 1) * 2 * k * t[k], 4**k * (4**k - 1)))
        values.append(_ZERO)
    return values[: n + 1]
