"""Floating evaluation of Hurwitz zeta, Dirichlet L-functions and truncated logs.

Every value comes back as a ``ValueWithBound``: a complex double paired with a
rigorous absolute radius covering all mathematical truncations.  Floating
rounding is still left out of these bounds: that of the kernel's N-term sums
and of ``_l_table``'s character-table products (a truncated log reads L - 1,
so it adds no ulp of 1); the engine's direct prime sums for large Re s do
include theirs.

``EvalParams`` holds that target alone; the Euler-Maclaurin (N, M) search
starts and stops at fixed module constants.  One kernel, ``_hurwitz_em``, sums
n^-s over n = qk + r for a list of distinct exponents and a list of r;
``_hurwitz_grid`` chooses (N, M) for all its exponents in one array search,
``_choose_em``, and makes one kernel call per (N, M) among them.  L - 1 is
formed in one place, ``_l_table``: one such pass over the units r, then one
table product per exponent; each reader of L adds the 1.  The module
``dirichlet_l`` reads its row of a fresh table and ``LSeries.dirichlet_l`` of a
cached one, so the two agree bit for bit.  ``LSeries`` keeps two caches: L - 1
of every character row per (s, q), filled a list of exponents at a time; and
per (s, q, P), the part of a truncated log-L that no row owns (the primes below
P as their columns mod q with p^-s), O(pi(P)) in size, with a slot per row for
its truncated log.  ``LSeries._check_branch`` certifies from zeta(sigma) <
sigma/(sigma-1) that each such log is the principal log of its value.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .arith import PrimeTable, bernoulli_numbers
from .characters import CharacterGroup, DirichletCharacter, character_group
from .errors import (
    InvalidArgumentError,
    OutOfDomainError,
    PrecisionUnreachableError,
)

DEFAULT_TARGET_EPS = 1e-14


def _ball_log(d: complex, b: float) -> tuple[complex, float]:
    """Principal log of the ball of radius b about 1 + d, and its radius, from d; refused if the ball holds 0."""
    re, im = d.real, d.imag
    r = math.hypot(1 + re, im)
    if b >= r:
        raise PrecisionUnreachableError("log of a ball containing 0")
    # log1p(2 Re d + |d|^2) keeps a small d's digits; |log(v + e) - log(v)| <= -log(1 - b/|v|) for |e| <= b < |v|
    return complex(0.5 * math.log1p(re * (2 + re) + im * im), math.atan2(im, 1 + re)), -math.log1p(-b / r)


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
        return ValueWithBound(*_ball_log(self.value - 1, self.bound))


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
# Largest (row, n) grid evaluated at once by the Euler-Maclaurin kernel; a row is one (s, x).
_BLOCK_ELEMS = 1 << 20


def _held(exps: np.ndarray, cap: float = 1e300) -> np.ndarray:
    """``exps`` with every real and imaginary part held to [-cap, cap], in a new array.

    Past Re s = 1e300, n^-s keeps its double at every n >= 1.  Past |Im s| = 1e300
    the angle t log n keeps no digit, so any angle will do: the rounding u |s| log p
    that the engine's direct sums bound per prime covers every angle.  Held,
    s log n, |s| and the multiples of s that a plan forms stay finite, so no
    later step needs a guard of its own against huge exponents.
    """
    return np.clip(exps.view(float), -cap, cap).view(complex)


def _log_abs_fraction(fr) -> float:
    # math.log handles arbitrary-size ints exactly enough for bound work
    return math.log(abs(fr.numerator)) - math.log(fr.denominator)


@functools.cache
def _em_table() -> np.ndarray:
    """Rows B_2j / (2j)!, log|B_2j| and log (2j)! for j = 0.._MAX_ORDER + 1, as floats.

    Built on first use, with the Bernoulli numbers under it, so importing the
    module stays cheap.  Each entry is one scalar expression (``float(B) /
    (2j)!``, ``_log_abs_fraction``, ``math.lgamma``), so reading it gives the
    bits forming it per call would.
    """
    evens = bernoulli_numbers(2 * _MAX_ORDER + 2)[::2]  # B_2j for j = 0.._MAX_ORDER + 1
    table = np.array([
        [float(b) / math.factorial(2 * j) for j, b in enumerate(evens)],
        [_log_abs_fraction(b) for b in evens],
        [math.lgamma(2 * j + 1) for j in range(len(evens))],
    ])
    table.flags.writeable = False
    return table


def _choose_em(exps: np.ndarray, x: float, params: EvalParams) -> tuple[np.ndarray, np.ndarray]:
    """Pick (N, M) per exponent so the Euler-Maclaurin remainder majorant is <= target_eps at x.

    The remainder bound is K(M) * (N + x)^(-sigma - 2M - 1) with
    K(M) = (|s+2M+1| / (sigma+2M+1)) * |B_{2M+2}| / (2M+2)! * |(s)_{2M+1}|,
    so for each M the needed N is solved directly in log space, in one array
    pass over every exponent and every M from _EM_ORDER to _MAX_ORDER.  Per
    exponent the choice is the first M whose N is at most 4 * _EM_TERMS, or
    failing that the first M with the smallest N within _MAX_TERMS; that is
    where a scan upwards in M that keeps the smallest N and stops once it is
    at most 4 * _EM_TERMS ends.  log K(M) and t are formed with that scan's
    operations in its order; numpy's log, abs and exp may differ from the
    math module's in the last bit, too little to move an N.  Returns N and M
    per exponent; both are 0 where no M gives an N within _MAX_TERMS.
    """
    _, log_b, log_fact = _em_table()
    orders = slice(_EM_ORDER + 1, _MAX_ORDER + 2)  # j = M + 1
    z = exps[:, None] + np.arange(2 * _MAX_ORDER + 1)  # s + j
    evens = slice(2 * _EM_ORDER, 2 * _MAX_ORDER + 1, 2)  # j = 2M
    log_poch = np.cumsum(np.log(np.abs(z)), axis=1)[:, evens]  # summed in order of j, from 0 to 2M
    top = z[:, evens] + 1  # s + 2M + 1, rounded as (s + 2M) + 1
    log_k = np.log(np.abs(top)) - np.log(top.real) + log_b[orders] - log_fact[orders] + log_poch
    t = (log_k - math.log(params.target_eps)) / top.real
    # N = max(_EM_TERMS, ceil(e^t - x) + 1); for t <= 0 (or NaN) that is _EM_TERMS
    n = np.fmax(_EM_TERMS, np.ceil(np.exp(np.minimum(t, 50.0)) - x) + 1)
    n[n > _MAX_TERMS] = np.inf  # no N within the ceiling at this M
    small = n <= 4 * _EM_TERMS
    k = np.where(small.any(axis=1), small.argmax(axis=1), n.argmin(axis=1))
    n = n[np.arange(len(exps)), k]
    found = n <= _MAX_TERMS
    return np.where(found, n, 0).astype(np.int64), np.where(found, k + _EM_ORDER, 0)


def _hurwitz_em(
    exps: np.ndarray, rs: np.ndarray, q: int, n_terms: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Euler-Maclaurin values of sum_{k>=0} (qk + r)^-s for every s in ``exps`` and r in ``rs``, with explicit (N, M).

    Returns the values and the remainder majorants as (len(exps), len(rs))
    arrays; the tail sits at W = qN + r, where the majorant K(M) q^(2M+1)
    W^(-sigma-2M-1) is |q^-s| times zeta(s, r/q)'s.  log(qk + r) is formed once
    per r, and once per exponent the Pochhammer symbols, in Python's complex
    arithmetic (numpy's may fuse a multiply-add), and log K(M), in rows that do
    not mix: each (s, r) comes out bit for bit as it would alone.  Pochhammer
    takes s held at 1e40: past it M = 4 (a higher M only raises N <= 2^22 << |s|)
    and (s)_7 < 1e282; past Re s = 1e40 each correction term is 0 (W > 16), past
    |Im s| = 1e40 below (2 pi W / (q |s|))^2 < 1e-60 of the majorant.
    """
    s = exps[:, None]
    qk = q * np.arange(n_terms, dtype=float)
    value = np.empty((len(exps), len(rs)), dtype=complex)
    r_block = max(1, _BLOCK_ELEMS // n_terms)  # the (r, k) grid of logs held at once
    s_block = max(1, _BLOCK_ELEMS // (n_terms * min(r_block, len(rs))))
    for j in range(0, len(rs), r_block):
        logs = np.log(qk + rs[j : j + r_block, None])
        for i in range(0, len(exps), s_block):
            value[i : i + s_block, j : j + r_block] = np.exp(-s[i : i + s_block, :, None] * logs).sum(axis=2)
    w = q * n_terms + rs
    logw = np.log(w)
    value += np.exp((1 - s) * logw) / (q * (s - 1)) + 0.5 * np.exp(-s * logw)

    b_fact, log_b, log_fact = _em_table()
    coeffs = []  # per j: B_2j / (2j)! * (s)_{2j-1}, per exponent
    poch = listed = _held(exps, 1e40).tolist()
    for jj, b in enumerate(b_fact[1 : order + 1].tolist(), 1):
        coeffs.append([b * p for p in poch])
        poch = [p * ((e + 2 * jj - 1) * (e + 2 * jj)) for p, e in zip(poch, listed)]
    wpow = q * np.exp((-s - 1) * logw)  # q^(2j-1) W^(-s-2j+1) for the current j
    step = (w / q) ** -2.0
    for c in np.array(coeffs, dtype=complex)[:, :, None]:
        value += c * wpow
        wpow *= step
    # remainder majorant, in log space to dodge overflow
    top = 2 * order + 1
    log_k = (
        np.log(np.abs(exps + top))
        - np.log(exps.real + top)
        + log_b[order + 1]
        - log_fact[order + 1]
        + np.log(np.abs(s + np.arange(top))).sum(axis=1)
    )
    log_bound = log_k[:, None] + top * math.log(q) - (s.real + top) * logw
    return value, np.exp(np.minimum(log_bound, 700.0))


def _hurwitz_grid(
    exps: list[complex], rs: np.ndarray, q: int, params: EvalParams
) -> tuple[np.ndarray, np.ndarray]:
    """sum_{k>=0} (qk + r)^-s and remainder bounds for every s in ``exps`` and r in ``rs``.

    Both arrays have one row per exponent.  The exponents are held (``_held``);
    one array search chooses (N, M) for every s at x = min(1, r)/q, where the
    most terms are needed (1/q for an L table), and the exponents that share an
    (N, M) go to one kernel call.  Each majorant is still checked against
    target_eps; a refusal is raised for the first s, in order, that fails.
    """
    stacked = _held(np.array(exps, dtype=complex))
    n, m = _choose_em(stacked, min(1.0, float(rs.min())) / q, params)
    values = np.zeros((len(exps), len(rs)), dtype=complex)
    bounds = np.zeros((len(exps), len(rs)))
    groups, which = np.unique(n * (_MAX_ORDER + 1) + m, return_inverse=True)  # one key per (N, M)
    for g, key in enumerate(groups.tolist()):
        if key:  # key 0 is (0, 0): no (N, M) reaches target_eps
            rows = np.flatnonzero(which == g)
            values[rows], bounds[rows] = _hurwitz_em(stacked[rows], rs, q, *divmod(key, _MAX_ORDER + 1))
    unreachable = n == 0
    nonfinite = ~np.isfinite(values).all(axis=1)
    bad = unreachable | nonfinite | (bounds > params.target_eps).any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        if unreachable[i]:
            raise PrecisionUnreachableError(
                f"Euler-Maclaurin cannot reach eps={params.target_eps} within ceilings"
            )
        if nonfinite[i]:
            raise OutOfDomainError("non-finite value")
        raise PrecisionUnreachableError("remainder bound exceeds target_eps")
    return values, bounds


def hurwitz_zeta(s: complex, x: float, params: EvalParams = EvalParams()) -> ValueWithBound:
    """zeta(s, x) = sum_{n>=0} (n+x)^(-s) for Re s > 1 and 0 < x <= 1: the kernel at q = 1, r = x."""
    s = complex(s)
    if s.real <= 1:
        raise OutOfDomainError("hurwitz_zeta requires Re s > 1")
    if not (0 < x <= 1):
        raise OutOfDomainError("hurwitz_zeta requires 0 < x <= 1")
    values, bounds = _hurwitz_grid([s], np.array([x], dtype=float), 1, params)
    return ValueWithBound(complex(values[0, 0]), float(bounds[0, 0]))


def _l_table(exps: list[complex], group: CharacterGroup, params: EvalParams) -> list[tuple[list[complex], float]]:
    """Per s in ``exps``: L(s, chi) - 1 = sum_{n>=2} chi(n) n^-s for every row of ``group``.

    The only place L is formed.  One batched ``_hurwitz_grid`` pass sums n^-s
    over n = qk + r at every unit r in 1..q for all of ``exps``, r = 1 passed
    as q + 1 so that n = 1 is left out; then each exponent takes one product
    of the character table with its own sums, so its rows do not depend on
    what else shared the pass.  Those sums sit at column r mod q of one
    q-wide vector, 0 at the non-units: taking the unit columns of the table
    instead would copy a phi(q) x phi(q) block on every call.  Per exponent
    the rows come as one list, with one shared bound, the sum of that
    exponent's remainder bounds.
    """
    q = group.modulus
    r = np.arange(1, q + 1)
    r = r[np.gcd(r, q) == 1]
    sums, bounds = _hurwitz_grid(exps, np.where(r == 1, q + 1, r), q, params)
    column = np.zeros(q, dtype=complex)
    out = []
    for sums_r, bound in zip(sums, bounds.sum(axis=1).tolist()):
        column[r % q] = sums_r
        out.append(((group.values @ column).tolist(), bound))
    return out


def dirichlet_l(
    s: complex,
    chi: DirichletCharacter,
    params: EvalParams = EvalParams(),
) -> ValueWithBound:
    """L(s, chi) for Re s > 1: the row of chi in a fresh ``_l_table`` of its group.

    The same table product ``LSeries.dirichlet_l`` reads from its cache, so
    the two agree bit for bit; it forms every row of the group, O(phi(q) q).
    """
    s = complex(s)
    if s.real <= 1:
        raise OutOfDomainError("dirichlet_l requires Re s > 1")
    values, bound = _l_table([s], chi.group, params)[0]
    return ValueWithBound(1 + values[chi.index], bound)


class _Cut(NamedTuple):
    """The (s, q, P) entry of a truncated log L_P(s, chi) mod q: what no row owns, and each row's log."""

    cols: np.ndarray  # p mod q for each prime p below P
    powers: list[complex]  # p^-s for each of those primes
    l_values: tuple[list[complex], float]  # the (s, q) entry of the L cache, shared with it
    logs: list[ValueWithBound | None]  # per table row: its truncated log, None until first read


class LSeries:
    """Evaluator bundling a prime table, accuracy parameters and two caches.

    * per (s, q): L(s, chi) - 1 of every character-table row and their shared
      bound, one ``_l_table`` entry.  ``fill_l_tables`` builds the missing
      entries of a list of exponents in one batched Euler-Maclaurin pass;
      zeta(s) is the q = 1 entry, and ``dirichlet_l`` and every truncated
      log-L miss read their row from it.
    * per (s, q, P): one entry, built on the first read of any row: the
      primes below P as their columns mod q with p^-s, and a slot per row
      for its truncated log-L, formed on that row's first read.  Its size is
      O(phi(q) + pi(P)), not O(phi(q) pi(P)): a row reads chi(p) from the
      table through the columns, and forms only its own Euler product over
      those primes and the log.
    """

    def __init__(self, primes: PrimeTable, params: EvalParams = EvalParams()):
        self.primes = primes
        self.params = params
        self._l_cache: dict = {}  # (s, q) -> (L - 1 per table row as a list, shared bound)
        self._cut_cache: dict = {}  # (s, q, P) -> _Cut

    def fill_l_tables(self, exps: Iterable[complex], q: int) -> None:
        """Cache L(s, chi) - 1 of every row mod q for every s in ``exps`` (Re s > 1) not cached yet.

        The missing exponents go through one ``_l_table`` call: one kernel
        call per Euler-Maclaurin (N, M) among them.
        """
        cache = self._l_cache
        missing = [s for s in dict.fromkeys(map(complex, exps)) if (s, q) not in cache]
        if missing:
            cache.update(zip(((s, q) for s in missing), _l_table(missing, character_group(q), self.params)))

    def _l_values(self, s: complex, q: int) -> tuple[list[complex], float]:
        """The (s, q) entry of the L cache, filled alone if it is missing."""
        out = self._l_cache.get((s, q))
        if out is None:
            self.fill_l_tables([s], q)
            out = self._l_cache[(s, q)]
        return out

    def zeta(self, s: complex) -> ValueWithBound:
        """zeta(s) = L(s, chi_0) mod 1, the q = 1 entry of the L cache."""
        s = complex(s)
        if s.real <= 1:
            raise OutOfDomainError("zeta requires Re s > 1")
        values, bound = self._l_values(s, 1)
        return ValueWithBound(1 + values[0], bound)

    def dirichlet_l(self, s: complex, chi: DirichletCharacter) -> ValueWithBound:
        s = complex(s)
        if s.real <= 1:
            raise OutOfDomainError("dirichlet_l requires Re s > 1")
        values, bound = self._l_values(s, chi.modulus)
        return ValueWithBound(1 + values[chi.index], bound)

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

    def _check_branch(self, sigma: float, p_min: int) -> None:
        """Refuse a (sigma, P) at which the series log of L_P(s, chi) may not be its principal log.

        For every chi, |log L_P(s, chi)| <= log zeta_P(sigma) < B with
        B = log(sigma/(sigma-1)) + sum_{p<P} log(1 - p^-sigma), since
        zeta(sigma) < sigma/(sigma-1).  B < 3 < pi makes the principal log of
        L(s, chi) prod_{p<P} (1 - chi(p) p^-s) the series log.
        The prime sum is formed only where log(sigma/(sigma-1)) >= 3, that is
        sigma <= 1.0524.  The one place the log-L layer refuses: Re s <= 1,
        P < 2, P past the prime table, or B >= 3.
        """
        if sigma <= 1:
            raise OutOfDomainError("log_truncated_l requires Re s > 1")
        if p_min < 2:
            raise InvalidArgumentError("log_truncated_l requires P >= 2")
        limit = self.primes.limit
        if p_min > limit:
            raise InvalidArgumentError(f"prime table limit {limit} too small for P={p_min}")
        b = math.log(sigma / (sigma - 1))
        if b >= 3:
            b += sum(math.log1p(-(p ** -sigma)) for p in self.primes.below(p_min).tolist())
            if b >= 3:
                raise OutOfDomainError(
                    f"Re s={sigma:.6g} too close to 1 for P={p_min}: branch bound B={b:.4g} is not below 3"
                )

    def log_truncated_l(
        self, s: complex, chi: DirichletCharacter, p_min: int
    ) -> ValueWithBound:
        """The Dirichlet-series log of L_P(s, chi) = prod_{p>=P} (1 - chi(p) p^-s)^-1.

        Normalized to vanish as Re s -> infinity: the principal log of
        L(s, chi) prod_{p<P} (1 - chi(p) p^-s), which ``_check_branch``
        certifies to be that series log.  It is carried as 1 + d from d = L - 1,
        each factor 1 + t folded in as d + t + d t, and L's radius b as b |1 + d| / |L|.
        """
        s = complex(s)
        q = chi.modulus
        cut = self._cut_cache.get((s, q, p_min))
        if cut is None:
            self._check_branch(s.real, p_min)
            primes = self.primes.below(p_min)
            powers = [cmath.exp(-s * math.log(p)) for p in primes.tolist()]
            cut = _Cut(primes % q, powers, self._l_values(s, q), [None] * len(chi.group))
            self._cut_cache[(s, q, p_min)] = cut
        out = cut.logs[chi.index]
        if out is not None:
            return out
        values, bound = cut.l_values
        d = lam = values[chi.index]
        for c, z in zip(chi.group.values[chi.index].take(cut.cols).tolist(), cut.powers):
            t = -c * z
            d += t + d * t
        out = cut.logs[chi.index] = ValueWithBound(*_ball_log(d, bound * abs(1 + d) / abs(1 + lam)))
        return out
