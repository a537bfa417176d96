"""Dirichlet characters mod q as integer exponent tables.

Every character mod q takes its values among the lambda-th roots of unity,
lambda = lambda(q) being the exponent of (Z/qZ)*.  A ``CharacterGroup`` holds
one int table E of shape phi(q) x q: E[i, n] = k means chi_i(n) =
exp(2*pi*i*k/lambda), and E[i, n] = -1 marks residues not coprime to q.
Orthogonality, conjugation and powers are exact integer arithmetic mod lambda
(chi_i^d from the generator exponents that row index i encodes); conversion to
floating complex happens once, in the cached value table, exact at the quarter turns.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .arith import divisors, euler_phi, factorize, mobius
from .errors import InvalidArgumentError

# Largest phi(q) * q accepted.  An ap evaluation mod q peaks near 30 bytes per
# table entry, 24 of them the table and its value table (tracemalloc, q = 1009
# and 2003 at s = 2), so the cap allows about 1 GB and admits every q up to
# about 5,800.  A log-L cut costs about 110 bytes per prime below P at its
# peak, whatever q is (q = 1009, s = 1.15, P = 630,000: about 51,000 primes).
TABLE_MAX = 1 << 25


@dataclass(frozen=True, eq=False)
class CharacterGroup:
    """The full group of the phi(q) Dirichlet characters mod q: one table row each, their one stored form."""

    modulus: int
    exponent: int  # lambda(q): every table entry lies in [0, exponent) or is -1
    table: np.ndarray  # int64, phi(q) x q
    slot_orders: tuple[int, ...]  # the orders of the generators of (Z/qZ)*
    _unsieve: dict = field(default_factory=dict, repr=False)  # (a, L) -> unsieve_weights

    @cached_property
    def values(self) -> np.ndarray:
        """chi_i(n) as complex128, equal bit for bit to ``characters[i](n)``; 1, i, -1 and -i exactly."""
        lam = self.exponent
        exact = (1, 1j, -1, complex(0, -1))  # at 4k = 0 mod lambda; the literal -1j has real part -0.0
        roots = [exact[4 * k // lam] if 4 * k % lam == 0 else cmath.exp(2j * cmath.pi * (k / lam)) for k in range(lam)]
        return np.array(roots + [0j])[self.table]  # index -1 picks the trailing 0

    @cached_property
    def characters(self) -> tuple["DirichletCharacter", ...]:
        return tuple(DirichletCharacter(self, i) for i in range(len(self)))

    def power_rows(self, d: int) -> np.ndarray:
        """Row indices of chi_i^d for every row i, d >= 0: exponents d e mod the orders, read back as a row."""
        exps, strides = _row_exponents(self.slot_orders)
        return (d % self.exponent * exps % np.array(self.slot_orders, dtype=np.int64)) @ strides

    def unsieve_weights(self, a: int, depth: int) -> list[tuple[int, list[int], list[complex]]]:
        """The Moebius-unsieving weights of y_p for residue a, one entry per depth ell <= L with a nonzero weight.

        Entry (ell, rows, weights): weights[j] = sum over d | ell and chi with
        chi^d = row rows[j] of mu(d) conj chi(a), nonzero rows only.  They are
        added in (d, chi) order so that cancelling weights come out exactly 0,
        and a depth left with none (every ell > 1 at q = 1) is not listed.
        Built once per (a, L) and kept for the life of the group.
        """
        key = (a % self.modulus, depth)
        out = self._unsieve.get(key)
        if out is None:
            conj_a = self.values[:, key[0]].conj()
            out = []
            for ell in range(1, depth + 1):
                weights = np.zeros(len(self), dtype=complex)
                for d in divisors(ell):
                    mu = mobius(d)
                    if mu:
                        np.add.at(weights, self.power_rows(d), mu * conj_a)
                rows = np.flatnonzero(weights)
                if len(rows):
                    out.append((ell, rows.tolist(), weights[rows].tolist()))
            self._unsieve[key] = out
        return out

    def __len__(self) -> int:
        return len(self.table)


@dataclass(frozen=True)
class DirichletCharacter:
    """A handle on row ``index`` of a character group's tables, as L-evaluation takes it."""

    group: CharacterGroup = field(repr=False)
    index: int

    @property
    def modulus(self) -> int:
        return self.group.modulus

    def __call__(self, n: int) -> complex:
        return complex(self.group.values[self.index, n % self.modulus])

    @cached_property
    def order(self) -> int:
        """Smallest k >= 1 with chi^k principal."""
        lam = self.group.exponent
        exps = self.group.table[self.index]
        return lam // math.gcd(lam, *exps[exps >= 0].tolist())

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


def _row_exponents(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The one statement of the row order: row i's exponents are i in mixed radix over ``orders``, the last fastest.

    Returned with the strides back to i (i = exponents @ strides); row 0 is principal.
    """
    strides = np.array([math.prod(orders[k + 1:]) for k in range(len(orders))], dtype=np.int64)
    rows = np.arange(math.prod(orders), dtype=np.int64)[:, None]
    return rows // strides % np.array(orders, dtype=np.int64), strides


def _component_dlog(q: int, gens: list[tuple[int, int]]) -> np.ndarray:
    """Discrete logs with respect to ``gens`` of every residue mod q, one row each (0 off the units)."""
    exps = _row_exponents(tuple(o for _, o in gens))[0]
    out = np.zeros((q, len(gens)), dtype=np.int64)
    out[[math.prod(pow(g, t, q) for (g, _), t in zip(gens, row)) % q for row in exps.tolist()]] = exps
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
    lam = math.lcm(*slot_orders)

    # Discrete logs of every unit n on every generator, scaled to exponents mod lambda.
    n = np.arange(q)
    units = np.gcd(n, q) == 1
    dlogs = np.hstack([np.zeros((q, 0), dtype=np.int64), *(_component_dlog(qi, gens)[n % qi] for qi, gens in components)])
    scale = np.array([lam // o for o in slot_orders], dtype=np.int64)
    exps = _row_exponents(slot_orders)[0]
    table = np.full((len(exps), q), -1, dtype=np.int64)
    table[:, units] = (exps * scale) @ dlogs[units].T % lam

    assert len(table) == phi
    assert not table[0, units].any()  # row 0 is the principal character
    return CharacterGroup(q, lam, table, slot_orders)
