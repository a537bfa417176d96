"""Exact coefficient machinery: power sums, necklace-type coefficients, root bounds.

Power sums of inverse roots come from the coefficient recursion (no root
finding); the multivariate coefficients M(m_1,...,m_k) are computed in exact
big-integer arithmetic with an integrality assertion.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .arith import divisors, mobius
from .errors import InternalError, InvalidArgumentError, OutOfDomainError


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

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial.of([self.coeff(j) - other.coeff(j) for j in range(n)])


def power_sums(h: Polynomial, k_max: int) -> list[complex]:
    """Power sums s(1..k_max) of the inverse roots of h, h(0) = 1 required.

    Computed by the coefficient recursion
    s(k) + a_1 s(k-1) + ... + a_{k-1} s(1) + k a_k = 0; refused past the doubles.
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
    if not all(map(cmath.isfinite, s)):
        raise OutOfDomainError("power sums pass the double range")
    return s


def _mobius_sum(n: int, term: Callable, acc=0):
    """acc + sum_{d|n} mu(n/d) term(d), added in ascending d; term(d) is read only where mu(n/d) != 0."""
    for d in divisors(n):
        mu = mobius(n // d)
        if mu:
            acc += mu * term(d)
    return acc


def witt_b(h: Polynomial, k_max: int) -> list[complex]:
    """Exponents b(1..k_max) of the factorization h(t) = prod_j (1 - t^j)^b(j).

    b(k) = (1/k) sum_{d|k} mu(k/d) s(d) with s the power sums of h, one
    ``_mobius_sum`` per k.
    """
    s = power_sums(h, k_max)
    return [_mobius_sum(k, lambda d: s[d - 1], 0j) / k for k in range(1, k_max + 1)]


def beta_bound(h: Polynomial) -> float:
    """A certified upper bound >= 2 for the inverse moduli of the roots of h.

    Any root rho of h (h(0)=1) satisfies |rho| >= 1 or
    1/|rho| <= |a_1| + ... + |a_delta|; the bound is exact in the coefficients,
    not computed from numerical roots.
    """
    if h.coeff(0) != 1:
        raise InvalidArgumentError("beta_bound requires constant term exactly 1")
    return max(2.0, sum(abs(c) for c in h.coeffs[1:]))


def necklace_m(m: Sequence[int]) -> int:
    """The integer M(m_1,...,m_k) = (1/N) sum_{d | gcd(m)} mu(d) (N/d)! / prod (m_i/d)!.

    The sum runs over e = gcd(m)/d, a ``_mobius_sum`` in exact integers.
    Entries must be integers (numpy integers included).  The necklace plans
    in ``engine`` compile M(m) once per plan shape, not per call.
    """
    m = tuple(map(operator.index, m))
    if any(mi < 0 for mi in m):
        raise InvalidArgumentError("multi-index entries must be >= 0")
    n = sum(m)
    if n < 1:
        raise InvalidArgumentError("multi-index must have positive total")
    g = math.gcd(*m)
    acc = _mobius_sum(g, lambda e: math.factorial(n * e // g) // math.prod(math.factorial(mi * e // g) for mi in m))
    if acc % n != 0:
        raise InternalError(f"necklace coefficient not integral at m={m}")
    return acc // n


def kappa(d: complex, f: int) -> complex:
    """Coefficients converting a log series in d into logs of (1 - x^f).

    kappa_f(d) = sum_{e | f} mu(f/e) d^e, a ``_mobius_sum``, is the unique
    choice with sum_{f | n} kappa_f(d) = d^n, which makes
    sum_k d^k x^k / k = sum_f (kappa_f(d)/f) * (-log(1 - x^f))
    an exact identity for |d x| < 1.  Reduces to d at f = 1 and to
    d^f - d at prime f.  A numpy array d gives kappa_f of every entry.
    """
    if f < 1:
        raise InvalidArgumentError("kappa requires f >= 1")
    return _mobius_sum(f, lambda e: d**e, 0j if isinstance(d, complex) else 0.0)


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
