"""Floating evaluation of Hurwitz zeta, Dirichlet L-functions and truncated logs.

Every value comes back as a ``ValueWithBound``: a complex double paired with a
rigorous absolute radius covering all mathematical truncations.  Floating
rounding is still left out of these bounds (double precision leaves roughly
four guard digits at the default target of 1e-14, but log L_P near 1 carries
an error of about 1e-16 that no bound covers); the engine's direct prime sums
for large Re s do include theirs.

``EvalParams`` holds that target alone; the Euler-Maclaurin (N, M) search
starts and stops at fixed module constants.  ``LSeries`` caches the Hurwitz
residue vector per (s, q) and the truncated log-L per (s, q, row, P).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .arith import BernoulliCache, PrimeTable
from .characters import DirichletCharacter
from .errors import (
    InvalidArgumentError,
    OutOfDomainError,
    PrecisionUnreachableError,
)

DEFAULT_TARGET_EPS = 1e-14


@dataclass(frozen=True)
class ValueWithBound:
    """A complex value with a rigorous absolute error radius."""

    value: complex
    bound: float

    def __post_init__(self):
        if not (self.bound >= 0.0) or not math.isfinite(self.bound):
            raise InvalidArgumentError("bound must be a finite nonnegative real")
        if not (math.isfinite(self.value.real) and math.isfinite(self.value.imag)):
            raise OutOfDomainError("non-finite value")

    def __add__(self, other: "ValueWithBound") -> "ValueWithBound":
        return ValueWithBound(self.value + other.value, self.bound + other.bound)

    def scaled(self, c: complex) -> "ValueWithBound":
        return ValueWithBound(c * self.value, abs(c) * self.bound)

    def exp(self) -> "ValueWithBound":
        """exp with the multiplicative propagation |exp(x)| * (e^b - 1).

        The radius is formed as e^(Re x + b) * (1 - e^-b), which overflows, and
        raises PrecisionUnreachableError, exactly when e^b |exp(x)| does.
        """
        try:
            v = cmath.exp(self.value)
            radius = math.exp(self.value.real + self.bound) * -math.expm1(-self.bound)
        except OverflowError:
            raise PrecisionUnreachableError("exp of the ball overflows") from None
        return ValueWithBound(v, radius)

    def log(self) -> "ValueWithBound":
        """Principal log; requires the bound ball to stay away from 0."""
        r = abs(self.value)
        if self.bound >= r:
            raise PrecisionUnreachableError("log of a ball containing 0")
        # |log(v + d) - log(v)| <= -log(1 - b/|v|)  for |d| <= b < |v|
        return ValueWithBound(cmath.log(self.value), -math.log1p(-self.bound / r))


@dataclass(frozen=True)
class EvalParams:
    """Requested accuracy of every Hurwitz evaluation."""

    target_eps: float = DEFAULT_TARGET_EPS

    def __post_init__(self):
        if not 0 < self.target_eps < math.inf:  # NaN fails too
            raise InvalidArgumentError("target_eps must be positive and finite")


# Euler-Maclaurin starting (N, M) and their ceilings.
_EM_TERMS = 16
_EM_ORDER = 4
_MAX_TERMS = 1 << 22
_MAX_ORDER = 60
_BERNOULLI = BernoulliCache(130)
# Largest (x, n) grid evaluated at once by the Euler-Maclaurin kernel.
_BLOCK_ELEMS = 1 << 20


def _log_abs_fraction(fr) -> float:
    # math.log handles arbitrary-size ints exactly enough for bound work
    return math.log(abs(fr.numerator)) - math.log(fr.denominator)


def _choose_em(s: complex, x: float, params: EvalParams) -> tuple[int, int]:
    """Pick (N, M) so the Euler-Maclaurin remainder majorant is <= target_eps.

    The remainder bound is K(M) * (N + x)^(-sigma - 2M - 1) with
    K(M) = (|s+2M+1| / (sigma+2M+1)) * |B_{2M+2}| / (2M+2)! * |(s)_{2M+1}|,
    so for each M the needed N is solved directly in log space.
    """
    sigma = s.real
    log_eps = math.log(params.target_eps)
    best: tuple[int, int] | None = None
    log_poch = 0.0
    j = 0
    for m in range(1, _MAX_ORDER + 1):
        while j < 2 * m + 1:
            log_poch += math.log(abs(s + j))
            j += 1
        if m < _EM_ORDER:
            continue
        log_k = (
            math.log(abs(s + 2 * m + 1))
            - math.log(sigma + 2 * m + 1)
            + _log_abs_fraction(_BERNOULLI[2 * m + 2])
            - math.lgamma(2 * m + 3)
            + log_poch
        )
        t = (log_k - log_eps) / (sigma + 2 * m + 1)
        need = math.ceil(math.exp(min(t, 50.0)) - x) + 1 if t > 0 else 1
        n = max(_EM_TERMS, need)
        if n <= _MAX_TERMS and (best is None or n < best[0]):
            best = (n, m)
        if best is not None and best[0] <= 4 * _EM_TERMS:
            break
    if best is None:
        raise PrecisionUnreachableError(
            f"Euler-Maclaurin cannot reach eps={params.target_eps} within ceilings"
        )
    return best


def _hurwitz_em(
    s: complex, xs: np.ndarray, n_terms: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maclaurin values of zeta(s, x) for every x in ``xs`` with explicit (N, M).

    Returns the values and, per x, the remainder majorant.
    """
    sigma = s.real
    block = max(1, _BLOCK_ELEMS // n_terms)  # rows of the (x, n) grid summed at once
    k = np.arange(n_terms, dtype=float)
    value = np.concatenate([
        np.exp(-s * np.log(k + xs[i : i + block, None])).sum(axis=1)
        for i in range(0, len(xs), block)
    ])
    w = xs + n_terms
    logw = np.log(w)
    value += np.exp((1 - s) * logw) / (s - 1) + 0.5 * np.exp(-s * logw)

    poch = s  # (s)_{2j-1} for the current j
    wpow = np.exp((-s - 1) * logw)  # w^(-s-2j+1) for the current j
    w_inv2 = w**-2.0
    for jj in range(1, order + 1):
        b = _BERNOULLI[2 * jj]
        value += float(b) / math.factorial(2 * jj) * poch * wpow
        poch *= (s + 2 * jj - 1) * (s + 2 * jj)
        wpow *= w_inv2
    # remainder majorant, in log space to dodge overflow
    log_bound = (
        math.log(abs(s + 2 * order + 1))
        - math.log(sigma + 2 * order + 1)
        + _log_abs_fraction(_BERNOULLI[2 * order + 2])
        - math.lgamma(2 * order + 3)
        + sum(math.log(abs(s + j)) for j in range(2 * order + 1))
        - (sigma + 2 * order + 1) * logw
    )
    return value, np.exp(np.minimum(log_bound, 700.0))


def _hurwitz_vector(
    s: complex, xs: np.ndarray, params: EvalParams
) -> tuple[np.ndarray, np.ndarray]:
    """zeta(s, x) and remainder bounds for all x in ``xs`` (in (0, 1]), in one pass.

    (N, M) is chosen at the smallest x, where the most terms are needed; the
    remainder majorant is still evaluated and checked against target_eps per x.
    """
    n, m = _choose_em(s, float(xs.min()), params)
    values, bounds = _hurwitz_em(s, xs, n, m)
    if not np.isfinite(values).all():
        raise OutOfDomainError("non-finite value")
    if (bounds > params.target_eps).any():
        raise PrecisionUnreachableError("remainder bound exceeds target_eps")
    return values, bounds


def hurwitz_zeta(s: complex, x: float, params: EvalParams = EvalParams()) -> ValueWithBound:
    """zeta(s, x) = sum_{n>=0} (n+x)^(-s) for Re s > 1 and 0 < x <= 1."""
    s = complex(s)
    if s.real <= 1:
        raise OutOfDomainError("hurwitz_zeta requires Re s > 1")
    if not (0 < x <= 1):
        raise OutOfDomainError("hurwitz_zeta requires 0 < x <= 1")
    values, bounds = _hurwitz_vector(s, np.array([x], dtype=float), params)
    return ValueWithBound(complex(values[0]), float(bounds[0]))


def _zeta_residues(s: complex, q: int, params: EvalParams) -> tuple[np.ndarray, float]:
    """zeta(s, r/q) placed at column r mod q for every unit r in 1..q (0 elsewhere).

    Also returns the sum of the remainder bounds.  Nothing here depends on the
    character, so one vector serves every L(s, chi) mod q.
    """
    r = np.arange(1, q + 1)
    r = r[np.gcd(r, q) == 1]
    values, bounds = _hurwitz_vector(s, r / q, params)
    out = np.zeros(q, dtype=complex)
    out[r % q] = values
    return out, float(bounds.sum())


def _l_from_residues(
    s: complex, chi: DirichletCharacter, residues: tuple[np.ndarray, float]
) -> ValueWithBound:
    """L(s, chi) = q^(-s) * sum_r chi(r) zeta(s, r/q) as one table-row product."""
    zeta_cols, bound = residues
    q = chi.modulus
    scale = cmath.exp(-s * math.log(q)) if q > 1 else 1.0
    return ValueWithBound(scale * complex(chi.values @ zeta_cols), abs(scale) * bound)


def dirichlet_l(
    s: complex,
    chi: DirichletCharacter,
    params: EvalParams = EvalParams(),
) -> ValueWithBound:
    """L(s, chi) for Re s > 1 via q^(-s) * sum_r chi(r) zeta(s, r/q)."""
    s = complex(s)
    if s.real <= 1:
        raise OutOfDomainError("dirichlet_l requires Re s > 1")
    return _l_from_residues(s, chi, _zeta_residues(s, chi.modulus, params))


class LSeries:
    """Evaluator bundling a prime table, accuracy parameters and two caches.

    The zeta(s, r/q) vector is cached once per (s, q); every L(s, chi) mod q
    is one character-table row times that vector, computed afresh because L
    is only asked for when the truncated log-L, cached per (s, q, row, P),
    misses.
    """

    def __init__(self, primes: PrimeTable, params: EvalParams = EvalParams()):
        self.primes = primes
        self.params = params
        self._residue_cache: dict = {}  # (s, q) -> _zeta_residues
        self._logl_cache: dict = {}  # (s, q, row, P)

    def zeta(self, s: complex) -> ValueWithBound:
        return hurwitz_zeta(s, 1.0, self.params)

    def dirichlet_l(self, s: complex, chi: DirichletCharacter) -> ValueWithBound:
        s = complex(s)
        if s.real <= 1:
            raise OutOfDomainError("dirichlet_l requires Re s > 1")
        key = (s, chi.modulus)
        residues = self._residue_cache.get(key)
        if residues is None:
            residues = self._residue_cache[key] = _zeta_residues(s, chi.modulus, self.params)
        return _l_from_residues(s, chi, residues)

    def zeta_p(self, s: complex, p_min: int) -> ValueWithBound:
        """zeta with Euler factors below p_min removed: zeta(s) * prod_{p<P} (1 - p^-s)."""
        s = complex(s)
        if s.real <= 1:
            raise OutOfDomainError("zeta_p requires Re s > 1")
        if p_min < 2:
            raise InvalidArgumentError("zeta_p requires P >= 2")
        z = self.zeta(s)
        factor = 1 + 0j
        for p in self.primes.below(p_min):
            factor *= 1 - cmath.exp(-s * math.log(int(p)))
        return ValueWithBound(z.value * factor, z.bound * abs(factor))

    def _branch_threshold(self, sigma: float) -> int:
        """Smallest P0 with 1/((sigma-1)(P0-1)^(sigma-1)) < 0.9.

        Below that threshold the series log of L_P0 has modulus < 0.9 < pi,
        so it coincides with the principal log of the value.  Refused when P0
        passes the prime table; that test is made on log P0 first, since P0
        overflows a double as sigma -> 1.
        """
        log_t = -math.log(0.9 * (sigma - 1)) / (sigma - 1)
        if log_t > math.log(self.primes.limit) + 1:
            raise InvalidArgumentError(
                f"prime table limit {self.primes.limit} too small for threshold e^{log_t:.4g}"
            )
        t = (1.0 / (0.9 * (sigma - 1))) ** (1.0 / (sigma - 1))
        return math.floor(t) + 2

    def log_truncated_l(
        self, s: complex, chi: DirichletCharacter, p_min: int
    ) -> ValueWithBound:
        """The Dirichlet-series log of L_P(s, chi) = prod_{p>=P} (1 - chi(p) p^-s)^-1.

        Normalized to vanish as Re s -> infinity; computed branch-correctly by
        removing enough initial Euler factors that the remaining log has
        modulus below pi, then adding the removed factors back per-factor.
        """
        s = complex(s)
        key = (s, chi.modulus, chi.index, p_min)
        out = self._logl_cache.get(key)
        if out is not None:
            return out
        if s.real <= 1:
            raise OutOfDomainError("log_truncated_l requires Re s > 1")
        if p_min < 2:
            raise InvalidArgumentError("log_truncated_l requires P >= 2")
        p0 = max(p_min, self._branch_threshold(s.real))
        if p0 > self.primes.limit:
            raise InvalidArgumentError(
                f"prime table limit {self.primes.limit} too small for threshold {p0}"
            )
        lval = self.dirichlet_l(s, chi)
        factor = 1 + 0j
        for p in self.primes.below(p0):
            factor *= 1 - chi(int(p)) * cmath.exp(-s * math.log(int(p)))
        main = ValueWithBound(lval.value * factor, lval.bound * abs(factor)).log()
        add_back = 0j
        for p in self.primes.in_range(p_min, p0 - 1):
            add_back += -cmath.log(1 - chi(int(p)) * cmath.exp(-s * math.log(int(p))))
        out = ValueWithBound(main.value + add_back, main.bound)
        self._logl_cache[key] = out
        return out
