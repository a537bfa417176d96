"""Brute-force ground truth: direct log-sums of the products over sieved primes.

Each factor satisfies |term(p)| < 1/2 under the engine preconditions, so the
per-factor principal logs are unambiguous and their sum is the product's log.
The omitted primes above ``prime_limit`` are covered by an integral-comparison
tail bound.  The table is read in blocks of _BLOCK primes, so the memory
used beyond the table does not grow with the limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import PrimeTable
from .engine import APProductSpec, MultiTermSpec, RationalProductSpec
from .errors import InvalidArgumentError, InvalidSpecError

ProductSpec = APProductSpec | RationalProductSpec | MultiTermSpec

# Table primes read per block.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class OracleResult:
    log_value: complex
    tail_bound: float


def _terms(spec: ProductSpec, ps: np.ndarray) -> np.ndarray:
    """term(p) for each p in ps (floats), in a fresh array the caller may overwrite."""
    if isinstance(spec, APProductSpec):
        t = -complex(spec.s) * np.log(ps)
        return np.exp(t, out=t)
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
    if isinstance(spec, MultiTermSpec):
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
    raise InvalidArgumentError(f"unsupported spec type {type(spec).__name__}")


def _log_factors(t: np.ndarray) -> np.ndarray:
    """log(1 - term(p)), written over the terms once every |term(p)| < 1 is checked."""
    if float(np.max(np.abs(t))) >= 1.0:
        raise InvalidSpecError("a factor 1 - term(p) touches or crosses 0")
    np.subtract(1.0, t, out=t)
    return np.log(t, out=t)


def _tail_bound(spec: ProductSpec, prime_limit: int) -> float:
    """1.5 * C * integral_{limit}^inf t^(-sigma_min) dt, C the coefficient mass."""
    if isinstance(spec, APProductSpec):
        sigma_min = complex(spec.s).real
        c = 1.0
    elif isinstance(spec, RationalProductSpec):
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


def oracle_log_product(
    spec: ProductSpec, primes: PrimeTable, prime_limit: int
) -> OracleResult:
    """Direct sum of log(1 - term(p)) over p = a mod q, P <= p <= prime_limit.

    The table is read _BLOCK primes at a time and each block's logs are
    formed in place, so every temporary is O(_BLOCK) whatever the limit.  No
    name holds a block's arrays past its iteration, so they are freed before
    the next block's are formed.
    """
    if prime_limit < 2:
        raise InvalidArgumentError("prime_limit must be >= 2")
    if prime_limit > primes.limit:
        raise InvalidArgumentError("prime_limit exceeds the sieve limit")
    ps = primes.in_range(spec.p_min, prime_limit)
    log_value = 0j
    for lo in range(0, len(ps), _BLOCK):
        block = ps[lo : lo + _BLOCK]
        if spec.q > 1:
            block = block[block % spec.q == spec.a % spec.q]
        if len(block):
            log_value += complex(np.sum(_log_factors(_terms(spec, block.astype(float)))))
    return OracleResult(log_value, _tail_bound(spec, prime_limit))
