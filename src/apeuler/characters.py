"""Dirichlet characters mod q, stored as the discrete logs of the residues.

(Z/qZ)* is a product of cyclic groups of orders o_j (``slot_orders``): each
unit is n = prod g_j^d_j(n) over generators g_j, and the character with
exponents e is chi_e(n) = exp(2 pi i sum_j e_j d_j(n) / o_j).  Exponent and log
vectors are numbered alike, in mixed radix (``CharacterGroup.digits``): row i
is the character whose exponents are i's digits, and ``logs[n]`` is the number
of d(n), -1 off the units.  That O(q) array and the lambda(q) roots of unity
are all a group stores; chi_i(n) is formed where it is read, exact in integers
up to the root.  ``lseries._l_table`` sums every row at once by an inverse FFT;
``LSeries.y_residues`` weighs every row by conj chi(a) by the forward one.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .arith import divisors, euler_phi, factorize, mobius
from .errors import InvalidArgumentError

# Largest phi(q) * q accepted: the ``characters`` listing forms the whole angle
# table, near 44 bytes per entry (tracemalloc, q = 1009 and 2003), so the cap
# allows it about 1.5 GB and admits every q up to about 5,800; evaluation holds
# no array that size (ap at q = 2003, s = 2 peaks at 12 MB).  A log-L cut costs
# about 110 bytes per prime below P at its peak, whatever q is (q = 1009, s = 1.15, P = 630,000).
TABLE_MAX = 1 << 25


@dataclass(frozen=True, eq=False)
class CharacterGroup:
    """The phi(q) Dirichlet characters mod q, held as the discrete logs of the residues mod q, and y_p's counts."""

    modulus: int
    exponent: int  # lambda(q): every character value is a lambda-th root of unity, or 0
    slot_orders: tuple[int, ...]  # the orders of the generators of (Z/qZ)*
    logs: np.ndarray  # int64, length q: the number of residue n's generator exponents, -1 off the units
    _unsieve: dict = field(default_factory=dict, repr=False)  # L -> unsieve_counts(L)

    @cached_property
    def roots(self) -> np.ndarray:
        """exp(2 pi i k / lambda) for k < lambda as complex128; 1, i, -1 and -i exactly."""
        lam = self.exponent
        exact = (1, 1j, -1, complex(0, -1))  # at 4k = 0 mod lambda; the literal -1j has real part -0.0
        return np.array([exact[4 * k // lam] if 4 * k % lam == 0 else cmath.exp(2j * cmath.pi * (k / lam))
                         for k in range(lam)], dtype=complex)

    @cached_property
    def characters(self) -> tuple["DirichletCharacter", ...]:
        return tuple(DirichletCharacter(self, i) for i in range(len(self)))

    def digits(self, numbers) -> np.ndarray:
        """The one statement of the row order: numbers as exponent vectors in mixed radix over the orders, last fastest."""
        return np.asarray(numbers)[:, None] // _strides(self.slot_orders) % np.array(self.slot_orders, dtype=np.int64)

    @cached_property
    def turns(self) -> np.ndarray:
        """turns[n, j] = d_j(n) lambda / o_j: residue n's generator exponents in 1/lambda turns, 0 off the units."""
        return self.digits(np.maximum(self.logs, 0)) * (self.exponent // np.array(self.slot_orders, dtype=np.int64))

    def angles(self, rows, residues) -> np.ndarray:
        """k with chi_i(n) = roots[k] for every row i in ``rows`` by every n in ``residues``, -1 off the units."""
        n = np.asarray(residues) % self.modulus
        return np.where(self.logs[n] >= 0, self.digits(rows) @ self.turns[n].T % self.exponent, -1)

    def power_rows(self, d: int) -> np.ndarray:
        """Row indices of chi_i^d for every row i, d >= 0: exponents d e mod the orders, read back as a row."""
        exps = d % self.exponent * self.digits(np.arange(len(self)))
        return exps % np.array(self.slot_orders, dtype=np.int64) @ _strides(self.slot_orders)

    def unsieve_counts(self, depth: int) -> tuple[np.ndarray, ...]:
        """y_p's Moebius-unsieving counts to depth L, for every residue; built once per L and kept.

        c_ell(chi, psi) = sum of mu(d) over squarefree d | ell with chi^d = psi is an exact integer, so terms that
        cancel leave no entry (none at ell > 1 if q = 1).  Returns the (ell, psi) read, ell ascending, as ``ells``
        and ``rows``; ``starts[chi]``, where chi's nonzero c begin (c_1(chi, chi) = 1); and per nonzero c, by chi,
        its (ell, psi)'s ``index`` and c / ell.
        """
        out = self._unsieve.get(depth)
        if out is None:
            phi, pairs = len(self), [(ell, d) for ell in range(1, depth + 1) for d in divisors(ell) if mobius(d)]
            width = (depth + 1) * phi  # (chi, ell, chi^d) as chi width + ell phi + chi^d
            keys, c = np.unique(np.concatenate([np.arange(phi) * width + ell * phi + self.power_rows(d)
                                                for ell, d in pairs]), return_inverse=True)
            c = np.bincount(c, np.repeat([mobius(d) for _, d in pairs], phi))  # each entry's key, then each key's count
            chis, reads = np.divmod(keys[c != 0], width)
            (reads, index), c = np.unique(reads, return_inverse=True), c[c != 0]
            ells, rows = np.divmod(reads, phi)
            out = self._unsieve[depth] = (ells, rows, np.searchsorted(chis, np.arange(phi)), index, c / ells[index])
        return out

    def __len__(self) -> int:
        return math.prod(self.slot_orders)


@dataclass(frozen=True)
class DirichletCharacter:
    """A handle on row ``index`` of a character group, as L-evaluation takes it."""

    group: CharacterGroup = field(repr=False)
    index: int

    @property
    def modulus(self) -> int:
        return self.group.modulus

    @cached_property
    def exponents(self) -> np.ndarray:
        """chi's exponents e: chi(g_j) = exp(2 pi i e_j / o_j) at each generator g_j."""
        return self.group.digits([self.index])[0]

    def __call__(self, n: int) -> complex:
        k = int(self.group.angles([self.index], [n])[0, 0])
        return 0j if k < 0 else complex(self.group.roots[k])

    @cached_property
    def order(self) -> int:
        """Smallest k >= 1 with chi^k principal."""
        return math.lcm(*(o // math.gcd(o, e) for o, e in zip(self.group.slot_orders, self.exponents.tolist())))

    def __pow__(self, d: int) -> "DirichletCharacter":
        if d < 0:
            raise InvalidArgumentError("character power must be >= 0")
        return self.group.characters[int(self.group.power_rows(d)[self.index])]


def _primitive_root(p: int, e: int) -> int:
    """A generator of (Z/p^e Z)* for odd prime p."""
    prime_factors = [f for f, _ in factorize(p - 1)]
    g = 2
    while any(pow(g, (p - 1) // f, p) == 1 for f in prime_factors):
        g += 1
    if e > 1 and pow(g, p - 1, p * p) == 1:
        g += p  # g generates mod p but not mod p^2; g + p always does
    return g


def _component_generators(p: int, e: int) -> list[tuple[int, int]]:
    """Generators (with orders) of (Z/p^e Z)*."""
    q = p**e
    if p == 2:
        if e == 1:
            return []
        if e == 2:
            return [(3, 2)]
        return [(q - 1, 2), (5, 2 ** (e - 2))]  # -1 and 5
    return [(_primitive_root(p, e), euler_phi(q))]


def _strides(orders: tuple[int, ...]) -> np.ndarray:
    """The strides of mixed radix over ``orders``, the last digit fastest: a number is its digits @ strides."""
    return np.array([math.prod(orders[k + 1:]) for k in range(len(orders))], dtype=np.int64)


def _component_dlog(q: int, gens: list[tuple[int, int]]) -> np.ndarray:
    """Discrete logs with respect to ``gens`` of every residue mod q, one row each (0 off the units)."""
    exps = list(itertools.product(*(range(o) for _, o in gens)))
    out = np.zeros((q, len(gens)), dtype=np.int64)
    out[[math.prod(pow(g, t, q) for (g, _), t in zip(gens, row)) % q for row in exps]] = exps
    return out


@lru_cache(maxsize=None)
def character_group(q: int) -> CharacterGroup:
    """Build the character group mod q through the structure of (Z/qZ)*."""
    if q < 1:
        raise InvalidArgumentError("modulus must be >= 1")
    phi = euler_phi(q)
    if phi * q > TABLE_MAX:
        raise InvalidArgumentError(
            f"modulus {q} needs a character table of phi(q) * q = {phi * q} entries, "
            f"above the largest supported, {TABLE_MAX}"
        )
    components = [(p**e, _component_generators(p, e)) for p, e in factorize(q)]
    slot_orders = tuple(o for _, gens in components for _, o in gens)
    n = np.arange(q)
    dlogs = np.hstack([np.zeros((q, 0), dtype=np.int64), *(_component_dlog(qi, gens)[n % qi] for qi, gens in components)])
    logs = np.where(np.gcd(n, q) == 1, dlogs @ _strides(slot_orders), -1)
    assert np.array_equal(np.sort(logs[logs >= 0]), np.arange(phi))  # the units fill the grid once each
    return CharacterGroup(q, math.lcm(*slot_orders), slot_orders, logs)
