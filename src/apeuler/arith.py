"""Exact integer substrate: prime sieve, multiplicative functions, Bernoulli numbers.

Everything here is exact (integers and rationals); floating point enters only
in the analytic modules built on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError

# Segment size for the segmented sieve; keeps peak memory modest even at 1e8.
_SEGMENT = 1 << 20
# Largest sieve limit accepted: its table of about 5.8e6 primes takes 46 MB.
SIEVE_MAX = 10**8
_ZERO = Fraction(0)


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit`` (inclusive), ascending."""

    limit: int
    primes: np.ndarray  # int64, sorted ascending

    def __len__(self) -> int:
        return len(self.primes)

    def in_range(self, lo: int, hi: int) -> np.ndarray:
        """Primes p with lo <= p <= hi."""
        i = np.searchsorted(self.primes, lo, side="left")
        j = np.searchsorted(self.primes, hi, side="right")
        return self.primes[i:j]

    def below(self, bound: int) -> np.ndarray:
        """Primes p < bound."""
        return self.primes[: np.searchsorted(self.primes, bound, side="left")]


def _simple_sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def sieve(limit: int) -> PrimeTable:
    """Segmented Eratosthenes sieve up to ``limit`` inclusive, 2 <= limit <= SIEVE_MAX."""
    if limit < 2:
        raise InvalidArgumentError("sieve limit must be >= 2")
    if limit > SIEVE_MAX:
        raise InvalidArgumentError(f"sieve limit {limit} exceeds the largest supported, {SIEVE_MAX}")
    root = math.isqrt(limit)
    base = _simple_sieve(max(root, 2))
    chunks = []
    for lo in range(2, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        seg = np.ones(hi - lo, dtype=bool)
        for p in base:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                seg[start - lo :: p] = False
        chunks.append(lo + np.flatnonzero(seg).astype(np.int64))
    return PrimeTable(limit=limit, primes=np.concatenate(chunks))


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


class BernoulliCache:
    """Exact Bernoulli numbers B_0, B_1, ... (B_1 = -1/2 convention), grown on demand.

    The even values come from the integer tangent numbers T_k (tan x =
    sum_k T_k x^(2k-1)/(2k-1)!) by B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1));
    odd values past B_1 are zero.  The T_k follow Brent and Harvey's in-place
    integer recurrence (Algorithm TangentNumbers of "Fast computation of
    Bernoulli, Tangent and Secant numbers", 2011, arXiv:1108.0286): O(k^2)
    small-by-big integer products and one Fraction per entry, where the
    classical sum_j C(m+1, j) B_j = 0 recurrence needs O(k^2) rational sums.
    """

    def __init__(self, up_to: int = 2):
        if up_to < 0:
            raise InvalidArgumentError("up_to must be >= 0")
        self._values: list[Fraction] = [Fraction(1)]
        self.ensure(up_to)

    def ensure(self, n: int) -> None:
        """Make B_0..B_n available, in one pass that at least doubles the table."""
        if n < len(self._values):
            return
        top = (max(n, 2 * len(self._values)) + 1) // 2  # largest k with B_2k recomputed
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
        self._values = values

    def __getitem__(self, n: int) -> Fraction:
        self.ensure(n)
        return self._values[n]
