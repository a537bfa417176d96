"""Brute-force ground truth: direct log-sums of the products over sieved primes.

Each factor satisfies |term(p)| < 1/2 under the engine preconditions, so the
per-factor principal logs are unambiguous and their sum is the product's log.
A term is formed in one of two ways: F(1/p)/G(1/p) for a rational product, or
sum_l a_l p^-(u_l s + v_l) for a multi-term one; an ``ap`` product is summed
as the one-term multi-term product with (a_1, u_1, v_1) = (1, 1, 0).
The omitted primes above ``prime_limit`` are covered by an integral-comparison
tail bound.  The given prime table is read in blocks of _BLOCK primes, and the
primes past it up to the limit are sieved one segment at a time, so the memory
used beyond the table does not grow with the limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import PrimeTable, check_sieve_limit, prime_segments
from .engine import APProductSpec, MultiTermSpec, RationalProductSpec
from .errors import InvalidSpecError

ProductSpec = APProductSpec | RationalProductSpec | MultiTermSpec

# Table primes read per block, and odd numbers per streamed sieve segment past the
# table (a 64 KB flag buffer).  Each is the largest power of two at which the oracle
# adds under 0.1 MB to the peak of a CLI job that evaluates over a 10^6 table.
_BLOCK = 1 << 14
_STREAM_SEGMENT = 1 << 16


@dataclass(frozen=True)
class OracleResult:
    log_value: complex
    tail_bound: float


def _terms(spec: RationalProductSpec | MultiTermSpec, ps: np.ndarray) -> np.ndarray:
    """term(p) for each p in ps (floats), in a fresh array the caller may overwrite."""
    if isinstance(spec, RationalProductSpec):
        x = 1.0 / ps
        num = np.zeros_like(ps, dtype=complex)
        for c in reversed(spec.f.coeffs):
            num *= x
            num += c
        den = np.zeros_like(ps, dtype=complex)
        for c in reversed(spec.g.coeffs):
            den *= x
            den += c
        num /= den
        return num
    s = complex(spec.s)
    logp = np.log(ps)
    acc = np.zeros_like(ps, dtype=complex)
    z = np.empty_like(acc)
    for al, u, v in spec.terms:
        np.multiply(-(u * s + v), logp, out=z)
        np.exp(z, out=z)
        z *= al
        acc += z
    return acc


def _log_factors(t: np.ndarray) -> np.ndarray:
    """log(1 - term(p)), written over the terms once every |term(p)| < 1 is checked."""
    if float(np.max(np.abs(t))) >= 1.0:
        raise InvalidSpecError("a factor 1 - term(p) touches or crosses 0")
    np.subtract(1.0, t, out=t)
    return np.log(t, out=t)


def _tail_bound(spec: RationalProductSpec | MultiTermSpec, prime_limit: int) -> float:
    """1.5 * C * integral_{limit}^inf t^(-sigma_min) dt, C the coefficient mass."""
    if isinstance(spec, RationalProductSpec):
        j0 = next(j for j, cf in enumerate(spec.f.coeffs) if cf != 0)
        sigma_min = float(j0)
        g_mass = sum(abs(cf) for cf in spec.g.coeffs[1:])
        c = sum(abs(cf) for cf in spec.f.coeffs) / max(0.5, 1 - g_mass / prime_limit)
    else:
        s = complex(spec.s)
        sigma_min = min(u * s.real + v for _, u, v in spec.terms)
        c = sum(abs(al) for al, _, _ in spec.terms)
    if sigma_min <= 1:
        raise InvalidSpecError("tail exponent must exceed 1")
    return 1.5 * c * prime_limit ** (1 - sigma_min) / (sigma_min - 1)


def _block_log(spec: RationalProductSpec | MultiTermSpec, block: np.ndarray) -> complex:
    """sum of log(1 - term(p)) over the primes of ``block`` with p = a mod q."""
    if spec.q > 1:
        block = block[block % spec.q == spec.a % spec.q]
    if not len(block):
        return 0j
    return complex(np.sum(_log_factors(_terms(spec, block.astype(float)))))


def oracle_log_product(
    spec: ProductSpec, primes: PrimeTable, prime_limit: int
) -> OracleResult:
    """Direct sum of log(1 - term(p)) over p = a mod q, P <= p <= prime_limit.

    The table's primes are read _BLOCK at a time; the primes past the table,
    up to the limit, are sieved _STREAM_SEGMENT odd numbers at a time.  Each
    block's logs are formed in place, so no temporary grows with the limit.
    A limit below 2 or past SIEVE_MAX is refused before any array exists.
    An ``ap`` spec is summed as the one-term multi-term product it is.
    """
    check_sieve_limit(prime_limit, "prime_limit")
    if isinstance(spec, APProductSpec):
        spec = MultiTermSpec(((1, 1, 0),), spec.s, spec.q, spec.a, spec.p_min, spec.depth)
    ps = primes.in_range(spec.p_min, min(prime_limit, primes.limit))
    log_value = 0j
    for lo in range(0, len(ps), _BLOCK):
        log_value += _block_log(spec, ps[lo : lo + _BLOCK])
    for block in prime_segments(max(spec.p_min, primes.limit + 1), prime_limit, _STREAM_SEGMENT):
        log_value += _block_log(spec, block)
    return OracleResult(log_value, _tail_bound(spec, prime_limit))
