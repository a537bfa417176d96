"""Exact coefficient machinery: power sums, necklace-type coefficients, root bounds.

Power sums of inverse roots come from the coefficient recursion (no root
finding); the multivariate coefficients M(m_1,...,m_k) are computed in exact
big-integer arithmetic with an integrality assertion.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .arith import divisors, mobius
from .errors import InternalError, InvalidArgumentError


@dataclass(frozen=True)
class Polynomial:
    """Complex polynomial, coefficients ascending by degree."""

    coeffs: tuple[complex, ...]

    @classmethod
    def of(cls, coeffs: Sequence[complex]) -> "Polynomial":
        cs = [complex(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0j]
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, j: int) -> complex:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0j

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial.of([self.coeff(j) - other.coeff(j) for j in range(n)])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def power_sums(h: Polynomial, k_max: int) -> list[complex]:
    """Power sums s(1..k_max) of the inverse roots of h, h(0) = 1 required.

    Computed by the coefficient recursion
    s(k) + a_1 s(k-1) + ... + a_{k-1} s(1) + k a_k = 0.
    """
    if h.coeff(0) != 1:
        raise InvalidArgumentError("power_sums requires constant term exactly 1")
    if k_max < 1:
        raise InvalidArgumentError("k_max must be >= 1")
    s: list[complex] = []
    for k in range(1, k_max + 1):
        acc = k * h.coeff(k)
        for i in range(1, k):
            acc += h.coeff(i) * s[k - i - 1]
        s.append(-acc)
    return s


def witt_b(h: Polynomial, k_max: int) -> list[complex]:
    """Exponents b(1..k_max) of the factorization h(t) = prod_j (1 - t^j)^b(j).

    b(k) = (1/k) sum_{d|k} mu(k/d) s(d) with s the power sums of h.
    """
    s = power_sums(h, k_max)
    out = []
    for k in range(1, k_max + 1):
        acc = 0j
        for d in divisors(k):
            mu = mobius(k // d)
            if mu:
                acc += mu * s[d - 1]
        out.append(acc / k)
    return out


def beta_bound(h: Polynomial) -> float:
    """A certified upper bound >= 2 for the inverse moduli of the roots of h.

    Any root rho of h (h(0)=1) satisfies |rho| >= 1 or
    1/|rho| <= |a_1| + ... + |a_delta|; the bound is exact in the coefficients,
    not computed from numerical roots.
    """
    if h.coeff(0) != 1:
        raise InvalidArgumentError("beta_bound requires constant term exactly 1")
    return max(2.0, sum(abs(c) for c in h.coeffs[1:]))


def beta_numeric(h: Polynomial) -> float:
    """Sharper, non-certified inverse-root radius via numpy roots (diagnostics only)."""
    import numpy as np

    if h.degree == 0:
        return 0.0
    # ascending coeffs read highest-first are x^d h(1/x), whose roots are the inverse roots
    inv = np.roots(list(h.coeffs))
    return float(max(abs(r) for r in inv)) if len(inv) else 0.0


# M(m) per multi-index.  A plain dict: a bounded functools.lru_cache keeps
# about 2.5 times the memory per entry.
_NECKLACE_MEMO: dict[tuple[int, ...], int] = {}
_NECKLACE_MEMO_MAX = 1 << 16


def necklace_m(m: Sequence[int]) -> int:
    """The integer M(m_1,...,m_k) = (1/N) sum_{d | gcd(m)} mu(d) (N/d)! / prod (m_i/d)!.

    Memoised per multi-index: the exact sum runs once per distinct tuple(m),
    so the necklace plans of one product family, which share most of their
    indices, pay for each M(m) once.  The memo is emptied when it reaches
    _NECKLACE_MEMO_MAX entries.  Entries must be integers (numpy integers
    included); invalid input raises on every call and is never stored.
    """
    key = tuple(map(operator.index, m))
    value = _NECKLACE_MEMO.get(key)
    if value is None:
        if len(_NECKLACE_MEMO) >= _NECKLACE_MEMO_MAX:
            _NECKLACE_MEMO.clear()
        value = _NECKLACE_MEMO[key] = _necklace_m(key)
    return value


def _necklace_m(m: tuple[int, ...]) -> int:
    if any(mi < 0 for mi in m):
        raise InvalidArgumentError("multi-index entries must be >= 0")
    n = sum(m)
    if n < 1:
        raise InvalidArgumentError("multi-index must have positive total")
    g = math.gcd(*m)
    acc = 0
    for d in divisors(g):
        mu = mobius(d)
        if not mu:
            continue
        t = math.factorial(n // d)
        for mi in m:
            t //= math.factorial(mi // d)
        acc += mu * t
    if acc % n != 0:
        raise InternalError(f"necklace coefficient not integral at m={tuple(m)}")
    return acc // n


def kappa(d: complex, f: int) -> complex:
    """Coefficients converting a log series in d into logs of (1 - x^f).

    kappa_f(d) = sum_{e | f} mu(f/e) d^e, the unique choice with
    sum_{f | n} kappa_f(d) = d^n, which makes
    sum_k d^k x^k / k = sum_f (kappa_f(d)/f) * (-log(1 - x^f))
    an exact identity for |d x| < 1.  Reduces to d at f = 1 and to
    d^f - d at prime f.  A numpy array d gives kappa_f of every entry.
    """
    if f < 1:
        raise InvalidArgumentError("kappa requires f >= 1")
    acc = 0j if isinstance(d, complex) else 0.0
    for e in divisors(f):
        mu = mobius(f // e)
        if mu:
            acc += mu * d**e
    return acc


def lambert_log_expand(
    f: Polynomial, g: Polynomial, j_max: int
) -> list[tuple[int, complex]]:
    """Coefficients c_j with log(1 - F/G) = sum_j c_j log(1 - z^j), j = 1..j_max.

    c_j = b_{G-F}(j) - b_G(j).  Requires G(0) = 1 and F(0) = 0; when
    additionally F'(0) = 0 the j = 1 coefficient vanishes.
    """
    if g.coeff(0) != 1:
        raise InvalidArgumentError("lambert_log_expand requires G(0) = 1")
    if f.coeff(0) != 0:
        raise InvalidArgumentError("lambert_log_expand requires F(0) = 0")
    b_gf = witt_b(g - f, j_max)
    b_g = witt_b(g, j_max)
    return [(j, b_gf[j - 1] - b_g[j - 1]) for j in range(1, j_max + 1)]


def multi_indices(k: int, n_max: int) -> Iterable[tuple[int, ...]]:
    """Multi-indices m in Z_{>=0}^k with 1 <= sum(m) <= n_max, lexicographic."""
    import itertools

    for m in itertools.product(range(n_max + 1), repeat=k):
        if 1 <= sum(m) <= n_max:
            yield m
