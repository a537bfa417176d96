"""Brute-force ground truth: direct log-sums of the products over sieved primes.

Each factor satisfies |term(p)| < 1/2 under the engine preconditions, so the
per-factor principal logs are unambiguous and their sum is the product's log.
The omitted primes above ``prime_limit`` are covered by an integral-comparison
tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import PrimeTable
from .engine import APProductSpec, MultiTermSpec, RationalProductSpec
from .errors import InvalidArgumentError, InvalidSpecError

ProductSpec = APProductSpec | RationalProductSpec | MultiTermSpec


@dataclass(frozen=True)
class OracleResult:
    log_value: complex
    tail_bound: float


def _select_primes(
    spec: ProductSpec, primes: PrimeTable, prime_limit: int
) -> np.ndarray:
    if prime_limit < 2:
        raise InvalidArgumentError("prime_limit must be >= 2")
    if prime_limit > primes.limit:
        raise InvalidArgumentError("prime_limit exceeds the sieve limit")
    ps = primes.in_range(spec.p_min, prime_limit)
    if spec.q > 1:
        ps = ps[ps % spec.q == spec.a % spec.q]
    return ps.astype(float)


def _terms(spec: ProductSpec, ps: np.ndarray) -> np.ndarray:
    logp = np.log(ps)
    if isinstance(spec, APProductSpec):
        return np.exp(-complex(spec.s) * logp)
    if isinstance(spec, RationalProductSpec):
        x = 1.0 / ps
        num = np.zeros_like(ps, dtype=complex)
        for c in reversed(spec.f.coeffs):
            num = num * x + c
        den = np.zeros_like(ps, dtype=complex)
        for c in reversed(spec.g.coeffs):
            den = den * x + c
        return num / den
    if isinstance(spec, MultiTermSpec):
        s = complex(spec.s)
        acc = np.zeros_like(ps, dtype=complex)
        for al, u, v in spec.terms:
            acc += al * np.exp(-(u * s + v) * logp)
        return acc
    raise InvalidArgumentError(f"unsupported spec type {type(spec).__name__}")


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
    """Direct sum of log(1 - term(p)) over p = a mod q, P <= p <= prime_limit."""
    ps = _select_primes(spec, primes, prime_limit)
    if len(ps) == 0:
        return OracleResult(0j, _tail_bound(spec, prime_limit))
    t = _terms(spec, ps)
    if float(np.max(np.abs(t))) >= 1.0:
        raise InvalidSpecError("a factor 1 - term(p) touches or crosses 0")
    log_value = complex(np.sum(np.log(1.0 - t)))
    return OracleResult(log_value, _tail_bound(spec, prime_limit))


def oracle_log_product_direct(
    spec: ProductSpec, primes: PrimeTable, prime_limit: int
) -> OracleResult:
    """Second, independent path: multiply the factors, log once per block.

    Blocks keep the running product away from under/overflow; used to
    cross-check the log-sum path.
    """
    ps = _select_primes(spec, primes, prime_limit)
    if len(ps) == 0:
        return OracleResult(0j, _tail_bound(spec, prime_limit))
    t = _terms(spec, ps)
    if float(np.max(np.abs(t))) >= 1.0:
        raise InvalidSpecError("a factor 1 - term(p) touches or crosses 0")
    acc = 0j
    block = 1 << 14
    for lo in range(0, len(t), block):
        acc += np.log(complex(np.prod(1.0 - t[lo : lo + block])))
    return OracleResult(acc, _tail_bound(spec, prime_limit))
