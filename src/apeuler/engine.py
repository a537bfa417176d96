"""The headline computations: truncated Euler products over primes in progressions.

Every product family compiles to one term plan: a dict {s_j: c_j} standing
for sum_j c_j * y_p(s_j), equal exponents merged, plus one fixed bound (the
structural truncation, the Lambert cut, kappa tails).  ``_execute`` evaluates
each exponent once and returns the log exponent with its total bound
(``ap_product`` is the one-term plan {s: 1}):

  * ``ap_product``       -- prod_{p >= P, p = a mod q} (1 - p^-s)
  * ``rational_product`` -- prod (1 - F(1/p)/G(1/p)) for complex polynomials
  * ``multi_term_product`` -- prod (1 - sum_l a_l p^-(u_l s + v_l))

plus ``continuation_demo`` which rebuilds prod_p (1 + p^-s - p^-(2s-1)) from
its necklace factorization and three zeta front factors.

Necklace plans (multi and the demo) are compiled in array passes over all
multi-indices at once, from index arrays built once per plan shape; see
``_necklace_plan``.

An exponent whose tail past a prime cut X_j <= max(10^4, 16 P) is below
rounding (large Re s_j) is summed directly over the primes up to X_j, with
that tail and the rounding in its bound; every other exponent goes through
y_p.  One array call of ``_direct_cut`` routes every exponent of a plan, and
one batched Euler-Maclaurin pass fills every L table its y_p calls read.

Sign convention: ``y_p`` approximates sum_{p >= P, p = a mod q} log(1 - p^-s)
itself (it tends to 0 as P grows), so every product is exp of a plain sum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .arith import PrimeTable
from .characters import character_group
from .errors import InvalidArgumentError, OutOfDomainError, PrecisionUnreachableError
from .lseries import LSeries, ValueWithBound, _held
from .witt import (
    Polynomial,
    beta_bound,
    kappa,
    lambert_log_expand,
    multi_indices,
    necklace_m,
)

# Unit roundoff of IEEE doubles.
_U = 2.0**-53
# Largest prime cut X_j summed directly at any P; past it, only up to 16 P.
_DIRECT_CAP = 10**4
# Largest (exponent, prime) block of the direct sums' running sums formed at once.
_DIRECT_BLOCK = 1 << 11
# Necklace plan shape -> (multi-indices, M(m)); at most _NECKLACE_ROWS_MAX rows in all.
_NECKLACE_SHAPES: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_NECKLACE_ROWS_MAX = 1 << 16


@dataclass(frozen=True)
class APProductSpec:
    s: complex
    q: int = 1
    a: int = 1
    p_min: int = 2
    depth: int = 10  # the truncation depth L

    def validate(self) -> None:
        if complex(self.s).real <= 1:
            raise InvalidArgumentError("product requires Re s > 1")
        if self.q < 1:
            raise InvalidArgumentError("modulus q must be >= 1")
        if math.gcd(self.a, self.q) != 1:
            raise InvalidArgumentError("residue a must be invertible mod q")
        if self.p_min < 2:
            raise InvalidArgumentError("P must be >= 2")
        if self.depth < 2:
            raise InvalidArgumentError("L must be >= 2")


@dataclass(frozen=True)
class RationalProductSpec:
    f: Polynomial
    g: Polynomial
    q: int = 1
    a: int = 1
    p_min: int = 2
    depth: int = 10

    def beta(self) -> float:
        return max(beta_bound(self.g), beta_bound(self.g - self.f))

    def validate(self) -> None:
        if self.g.coeff(0) != 1:
            raise InvalidArgumentError("rational product requires G(0) = 1")
        if self.f.coeff(0) != 0 or self.f.coeff(1) != 0:
            raise InvalidArgumentError("rational product requires F(0) = F'(0) = 0")
        if self.q < 1 or math.gcd(self.a, self.q) != 1:
            raise InvalidArgumentError("residue a must be invertible mod q")
        if self.depth < 2:
            raise InvalidArgumentError("L must be >= 2")
        if self.p_min < 2 * self.beta():
            raise InvalidArgumentError(
                f"P must be >= 2*beta = {2 * self.beta():g} for this F, G"
            )


@dataclass(frozen=True)
class MultiTermSpec:
    terms: tuple[tuple[complex, float, float], ...]  # (a_l, u_l, v_l)
    s: complex
    q: int = 1
    a: int = 1
    p_min: int = 2
    depth: int = 10

    @property
    def k(self) -> int:
        return len(self.terms)

    @property
    def coeff_cap(self) -> float:
        """A = max(1, max |a_l|)."""
        return max(1.0, max(abs(al) for al, _, _ in self.terms))

    def validate(self) -> None:
        s = complex(self.s)
        if s.real <= 1:
            raise InvalidArgumentError("product requires Re s > 1")
        if not self.terms:
            raise InvalidArgumentError("at least one term is required")
        if self.q < 1 or math.gcd(self.a, self.q) != 1:
            raise InvalidArgumentError("residue a must be invertible mod q")
        if self.depth < max(2, self.k):
            raise InvalidArgumentError("L must be >= max(2, k)")
        if self.p_min < 2 * self.k * self.coeff_cap:
            raise InvalidArgumentError(
                f"P must be >= 2kA = {2 * self.k * self.coeff_cap:g}"
            )
        for al, u, v in self.terms:
            if u * s.real + v <= 1:
                raise OutOfDomainError(
                    "each exponent must satisfy u*Re(s) + v > 1"
                )


@dataclass(frozen=True)
class ProductResult:
    """Computed exponent and aggregated bound; value = exp(log_value)."""

    log_value: complex
    total_bound: float

    def __post_init__(self):
        if not (self.total_bound >= 0.0) or not math.isfinite(self.total_bound):
            raise InvalidArgumentError("total bound must be a finite nonnegative real")
        if not cmath.isfinite(self.log_value):
            raise OutOfDomainError("non-finite log value")

    @property
    def value(self) -> complex:
        return cmath.exp(self.log_value)


def _log_y_magnitude_majorant(
    sigma: float | np.ndarray, p_min: int, depth: int
) -> float | np.ndarray:
    """Log of a certified bound on |y_p|: P^-sigma (2 + L P / (sigma - 1)), elementwise in sigma.

    That is 2 P^-sigma + L P^(1-sigma) / (sigma - 1): the n = P term stays out of
    the integral comparison, without which large sigma would break the bound.
    In log space, so neither factor overflows or underflows.
    """
    return np.log(2 + depth * p_min / (sigma - 1)) - sigma * math.log(p_min)


def y_p(
    s: complex, q: int, a: int, p_min: int, depth: int, ls: LSeries
) -> ValueWithBound:
    """Truncated approximation to sum_{p >= P, p = a mod q} log(1 - p^-s).

    Character decomposition with a Moebius unsieving over powers; the weights
    attached to equal character powers are combined before any L-evaluation so
    exact cancellations (notably all depths > 1 at q = 1) cost nothing.
    """
    s = complex(s)
    if s.real <= 1:
        raise OutOfDomainError("y_p requires Re s > 1")
    if math.gcd(a, q) != 1:
        raise InvalidArgumentError("residue a must be invertible mod q")
    if p_min < 2 or depth < 2:
        raise InvalidArgumentError("P >= 2 and L >= 2 required")
    grp = character_group(q)
    phi = len(grp)
    total = 0j
    bound = 0.0
    for ell, rows, weights in grp.unsieve_weights(a, depth):
        for row, w in zip(rows, weights):
            lt = ls.log_truncated_l(ell * s, grp.characters[row], p_min)
            total += w * lt.value / (ell * phi)
            bound += abs(w) * lt.bound / (ell * phi)
    return ValueWithBound(-total, bound)


def _direct_cut(sigma: np.ndarray, p_min: int, limit: int) -> np.ndarray:
    """Per sigma, the smallest X whose tail bound 2 sigma/(sigma-1) (X+1)^(1-sigma) is <= u P^-sigma.

    That majorizes sum_{n > X} |log(1 - n^-s)| by |log(1 - z)| <= 2|z|.  The
    cut is 0 where X would pass min(limit, max(_DIRECT_CAP, 16 P)), a route by
    X/P: up to 16 P the sum costs a few times the pi(P) Euler factors through
    which y_p would cancel L - 1.  sigma comes held (``_held``), so sigma log P
    stays finite; past sigma = 1e300 the cut is P.
    """
    log_x1 = (sigma * math.log(p_min) - np.log(_U / 2 * ((sigma - 1) / sigma))) / (sigma - 1)
    fits = log_x1 <= math.log(min(limit, max(_DIRECT_CAP, 16 * p_min)) + 1)
    cut = np.maximum(p_min, np.ceil(np.exp(np.where(fits, log_x1, 0.0))) - 1)
    return np.where(fits, cut, 0).astype(np.int64)


def _direct_sums(
    exps: np.ndarray, xs: np.ndarray, q: int, a: int, p_min: int, primes: PrimeTable
) -> tuple[np.ndarray, np.ndarray]:
    """sum_{P <= p <= X_j, p = a mod q} log(1 - p^-s_j) for each s_j in exps, X_j in xs, with bounds.

    With z = r e^(i theta), log(1 - z) is formed as (1/2) log1p(r^2 - 2 Re z) +
    i atan2(-Im z, 1 - Re z): complex log1p loses small arguments.  When every
    s_j is real, theta is 0, so Re z is exactly r and the imaginary part of
    every cell exactly 0: only the real part is formed.  The cells are formed
    in one pass over the (s_j, p) pairs that are summed, with no padding.
    Each row is summed from its smallest cell; the running sums are taken in
    blocks of rows of adjacent widths, widest first, each row zero-padded at
    its start to its block's width.

    The bound is the tail past X_j plus rounding.  Allowing 4 ulp per libm
    call, a cell is off by at most u r (20 |s_j| log p + 40); a row, summed
    from its smallest cell, adds u sum_k (|Re S_k| + |Im S_k|) over its
    partial sums S_k; the caller's product with c_j and its fsum add 8 u sum r.
    Each cell, and each row for its tail, adds 2^-1000 for underflow.  The
    exponents come held (``_held``), so s_j log p and |s_j| are finite.
    """
    ps = primes.in_range(p_min, int(xs.max()))
    ps = ps[ps % q == a % q]
    logp = np.log(ps.astype(float))
    counts = np.searchsorted(ps, xs, side="right")
    order = np.argsort(-counts, kind="stable")  # widest row first
    widths = counts[order]
    ends = np.cumsum(widths)
    row = np.repeat(order, widths)  # per cell; a row's cells run from its largest prime down
    lp = logp[np.repeat(ends - 1, widths) - np.arange(ends[-1])]
    s = exps[row]
    r = np.exp(-s.real * lp)
    if not exps.imag.any():
        cells = 0.5 * np.log1p(r * r - 2 * r)
    else:
        theta = -s.imag * lp
        re, im = r * np.cos(theta), r * np.sin(theta)
        cells = 0.5 * np.log1p(r * r - 2 * re) + 1j * np.arctan2(-im, 1 - re)
    values = np.zeros(len(xs), dtype=complex)
    spread = np.zeros(len(xs))  # sum_k |Re S_k| + |Im S_k| per row
    i, live = 0, int(np.count_nonzero(widths))
    while i < live:
        width = int(widths[i])
        j = min(live, i + max(1, _DIRECT_BLOCK // width))
        block = np.zeros((j - i, width), dtype=cells.dtype)
        # each row right-aligned: its padding first, then its cells from the smallest
        block[np.arange(width) >= width - widths[i:j, None]] = cells[ends[i] - width : ends[j - 1]]
        partial = block.cumsum(axis=1)
        values[order[i:j]] = partial[:, -1]
        spread[order[i:j]] = np.abs(partial.view(float)).sum(axis=1)
        i = j
    rounding = np.bincount(row, 20 * (r * np.abs(s)) * lp + 48 * r, len(xs)) + spread
    sigma = exps.real
    tails = 2 * (sigma / (sigma - 1)) * np.exp((1 - sigma) * np.log(xs + 1.0))
    return values, tails + _U * rounding + (counts + 1) * 2.0**-1000


def _execute(
    plan: dict[complex, complex], fixed: float, q: int, a: int, p_min: int, depth: int, ls: LSeries,
    front: tuple[complex, ...] = (),
) -> ProductResult:
    """sum_j c_j y_p(s_j) over a term plan {s_j: c_j}, plus the plan's fixed bound.

    The exponents are held once (``_held``), then each is evaluated once: one
    _direct_cut call routes them all, to _direct_sums where a prime cut X_j
    fits, to y_p (in plan order) where it does not.

    Before the first y_p, every ell * s_j those calls evaluate (s_j a routed
    exponent, ell a depth with nonzero unsieve weights) goes to
    ``LSeries.fill_l_tables`` in one call, after the ``front`` exponents (Re s
    > 1) whose L tables mod q the caller reads afterwards, so every L(s, chi)
    they read comes from one batched Euler-Maclaurin pass.  The batch stops
    short of the first s_j that ``LSeries._check_branch`` refuses (Re s_j <= 1,
    P past the prime table, or Re s_j too close to 1 for P): that refusal is
    still raised by y_p, in plan order, with its exit code and message, and
    nothing past it is evaluated.

    y_p's bound leaves out its own rounding, about u |c_j| for each routed
    exponent.  A plan whose floor u sum |c_j| over those exponents passes the
    total bound by more than u is refused with PrecisionUnreachableError: its
    coefficients amplify rounding past anything its bound shows.  The one u
    let through is the floor of a plain one-term plan, which belongs to y_p:
    its L - 1 sums and table products round outside every bound.
    """
    exps = _held(np.array(list(plan), dtype=complex))
    coeffs = np.array(list(plan.values()), dtype=complex)
    cuts = _direct_cut(exps.real, p_min, ls.primes.limit)
    direct = cuts > 0
    floor = _U * float(np.abs(coeffs[~direct]).sum())
    routed = exps[~direct].tolist()
    batch = list(front)
    if routed:
        ells = [ell for ell, rows, _ in character_group(q).unsieve_weights(a, depth) if rows]
        for s in routed:
            try:
                ls._check_branch(s.real, p_min)
            except (InvalidArgumentError, OutOfDomainError):
                break  # y_p refuses s below, in plan order
            batch += [ell * s for ell in ells]
    ls.fill_l_tables(batch, q)
    total = 0j
    bound = fixed
    for s, c in zip(routed, coeffs[~direct].tolist()):
        y = y_p(s, q, a, p_min, depth, ls)
        total += c * y.value
        bound += abs(c) * y.bound
    if direct.any():
        values, bounds = _direct_sums(exps[direct], cuts[direct], q, a, p_min, ls.primes)
        terms = coeffs[direct] * values
        total += complex(math.fsum(terms.real), math.fsum(terms.imag))
        bound += float(np.abs(coeffs[direct]) @ bounds)
    if floor > bound + _U:
        raise PrecisionUnreachableError(
            f"rounding floor {floor:.3g} of the plan's coefficients exceeds its bound {bound:.3g}"
        )
    return ProductResult(total, bound)


def ap_product(spec: APProductSpec, ls: LSeries) -> ProductResult:
    """prod_{p >= P, p = a mod q} (1 - p^-s) with structural bound P^(-L Re s)."""
    spec.validate()
    s = complex(spec.s)
    structural = math.exp(-spec.depth * s.real * math.log(spec.p_min))
    return _execute({s: 1}, structural, spec.q, spec.a, spec.p_min, spec.depth, ls)


def rational_product(spec: RationalProductSpec, ls: LSeries) -> ProductResult:
    """prod_{p >= P, p = a mod q} (1 - F(1/p)/G(1/p))."""
    spec.validate()
    beta = spec.beta()
    depth = spec.depth
    j_max = 2 * depth  # the series cut that makes the stated bound applicable
    # c_1 vanishes because F'(0) = 0; the j = 1 term would sit at Re s = 1
    plan = {complex(j): c for j, c in lambert_log_expand(spec.f, spec.g, j_max) if j >= 2}
    deg = max((spec.g - spec.f).degree, spec.g.degree)
    cut = 8 * deg * beta**2 * (beta / spec.p_min) ** (2 * depth)
    return _execute(plan, cut, spec.q, spec.a, spec.p_min, depth, ls)


def _kappa_tail(
    ac: float | np.ndarray, sigma: float | np.ndarray, p_min: int, depth: int
) -> float | np.ndarray:
    """sum_{f > L} ac^f * exp(_log_y_magnitude_majorant(f sigma, P, L)), in closed form.

    With f0 = L + 1 and r = ac P^-sigma each term is at most
    (2 + L P / (f0 sigma - 1)) r^f, so the tail is at most
    ac^f0 * exp(_log_y_magnitude_majorant(f0 sigma, P, L)) / (1 - r); evaluated
    in log space, elementwise over arrays ac and sigma.  Refused if any r >= 1.
    """
    f0 = depth + 1
    log_ac = np.log(ac)
    log_r = log_ac - sigma * math.log(p_min)
    if np.any(log_r >= 0):
        raise PrecisionUnreachableError("kappa series diverges: max(1, |c|) P^-Re(w) >= 1")
    return np.exp(
        _log_y_magnitude_majorant(f0 * sigma, p_min, depth)
        + f0 * log_ac
        - np.log1p(-np.exp(log_r))
    )


def _necklace_shape(shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The multi-indices of a necklace plan shape as one int array, and M(m) per row as floats.

    ``("multi", k, L)`` holds every m in Z_{>=0}^k with 1 <= |m| <= L in
    lexicographic order; ``("demo", n_max)`` every (m1, m2) with m1, m2 >= 1
    and m1 + 2 m2 <= n_max.  Compiled once per shape (one exact M(m) per
    index) and cached read-only.  The cache holds at most _NECKLACE_ROWS_MAX
    rows in all: it is emptied when the next shape would pass that, and a
    larger shape is compiled for its caller alone.
    """
    out = _NECKLACE_SHAPES.get(shape)
    if out is not None:
        return out
    if shape[0] == "multi":
        width, indices = shape[1], multi_indices(*shape[1:])
    else:
        n_max = shape[1]
        width = 2
        indices = (
            (m1, m2) for m1 in range(1, n_max - 1) for m2 in range(1, (n_max - m1) // 2 + 1)
        )
    flat, mm = [], []  # streamed: no list of index tuples is held
    for m in indices:
        flat += m
        mm.append(necklace_m(m))
    out = (np.array(flat, dtype=np.int64).reshape(len(mm), width), np.array(mm, dtype=float))
    for arr in out:
        arr.flags.writeable = False
    if len(mm) <= _NECKLACE_ROWS_MAX:
        if sum(len(held) for _, held in _NECKLACE_SHAPES.values()) + len(mm) > _NECKLACE_ROWS_MAX:
            _NECKLACE_SHAPES.clear()
        _NECKLACE_SHAPES[shape] = out
    return out


def _necklace_plan(
    terms: tuple, s: complex, shape: tuple, p_min: int, depth: int
) -> tuple[dict[complex, complex], float]:
    """Term plan of sum_m M(m) log(1 - c_m p^-w_m) over the multi-indices m of ``shape``.

    c_m = prod_l a_l^m_l and w_m = sum_l m_l (u_l s + v_l).  s is held first
    (``_held``) at 1e300 / max(1, |u_l|), so every u_l s is finite and Im w_m
    is t sum_l m_l u_l for one held t: two exponents merge only where they
    merge at the true s, and no coefficient that bounds an angle cancels.
    Each u_l s + v_l is then held at 1e300, which moves only Re parts past
    1e300, where p^-w is 0, so that w_m and f w_m stay finite.  Each factor
    expands as sum_f (kappa_f(c_m)/f) y_p(f w_m), cut at f = L; the fixed bound
    is the kappa tail past the cut, using |kappa_f(c)/f| <= max(1, |c|)^f.

    Compiled in array passes: the indices and their M(m) are read from
    ``_necklace_shape``, c_m, w_m and the kappa tails are array expressions
    over them, and kappa_f runs once per f over every c_m.  The exponents
    f w_m are merged into the plan one f at a time, so equal exponents share
    one entry.
    """
    idx, mm = _necklace_shape(shape)
    c = np.ones(len(mm), dtype=complex)
    w = np.zeros(len(mm), dtype=complex)
    s = complex(_held(np.array([s]), 1e300 / max(1.0, *(abs(u) for _, u, _ in terms)))[0])
    es = _held(np.array([u * s + v for _, u, v in terms], dtype=complex)).tolist()
    for (al, _, _), e, ml in zip(terms, es, idx.T):
        c *= complex(al) ** ml  # complex: an integer a_l must not wrap in int64
        w += ml * e
    live = (mm != 0) & (c != 0)
    mm, c, w = mm[live], c[live], w[live]
    plan: dict[complex, complex] = {}
    for f in range(1, depth + 1):
        kf = kappa(c, f)
        nz = kf != 0
        for e, cf in zip((f * w[nz]).tolist(), (mm[nz] * kf[nz] / f).tolist()):
            plan[e] = plan.get(e, 0) + cf
    tails = _kappa_tail(np.maximum(1.0, np.abs(c)), w.real, p_min, depth)
    return plan, float(np.abs(mm) @ tails)


def multi_term_product(spec: MultiTermSpec, ls: LSeries) -> ProductResult:
    """prod_{p >= P, p = a mod q} (1 - sum_l a_l p^-(u_l s + v_l)).

    Necklace factorization into single-term products, each planned through
    the telescoping kappa expansion; multi-indices are enumerated in
    lexicographic order for reproducibility.
    """
    spec.validate()
    s = complex(spec.s)
    k = spec.k
    cap = spec.coeff_cap
    depth = spec.depth
    plan, fixed = _necklace_plan(spec.terms, s, ("multi", k, depth), spec.p_min, depth)
    structural = (
        2**k
        * cap**depth
        / (math.factorial(k) * spec.p_min**depth)
        * ((depth + k) ** k + 1 + math.log(depth) + 3 * k * cap / depth)
    )
    return _execute(plan, fixed + structural, spec.q, spec.a, spec.p_min, depth, ls)


def _demo_tail_majorant(sigma: float, n_cut: int) -> float:
    """Bound on the neglected necklace factors with m1 + 2*m2 > n_cut.

    Each factor log is at most 4.5 * M(m) * 2^(-Re w) with
    Re w = m1*sigma + m2*(2*sigma - 1) and M(m) <= 2^N, giving the double
    geometric series 4.5 sum_{m2 >= 1} y^m2 x^max(1, N - 2 m2 + 1) / (1 - x) in
    x = 2^(1-sigma), y = x^2.  Its first K = floor(N/2) terms are x^(N+1) each
    and the rest sum to x y^(K+1) / (1 - y), so it is taken in closed form.
    """
    t = 1 - sigma  # log2 of x
    k = n_cut // 2
    head = k * 2.0 ** ((n_cut + 1) * t)
    rest = 2.0 ** ((2 * k + 3) * t) / -math.expm1(2 * t * math.log(2))
    return 4.5 * (head + rest) / -math.expm1(t * math.log(2))


# 1 + p^-s - p^-(2s-1) = 1 - (a_1 p^-s + a_2 p^-(2s-1)); real coefficients keep c_m exact
_DEMO_TERMS = ((-1.0, 1.0, 0.0), (1.0, 2.0, -1.0))


def continuation_demo(
    s: complex, n_max: int, ls: LSeries, depth: int = 10
) -> ValueWithBound:
    """prod_{p >= 2} (1 + p^-s - p^-(2s-1)) rebuilt from its necklace factorization.

    The (1,0) and (0,1) indices contribute prod (1 + p^-s) = zeta(s)/zeta(2s)
    and prod (1 - p^-(2s-1)) = 1/zeta(2s-1), absorbed as closed-form front
    factors; the remaining double product runs over m1, m2 >= 1 with
    m1 + 2*m2 <= n_max.  All three zeta arguments must have real part > 1,
    which confines the demo to Re s > 1.
    """
    s = complex(s)
    if (2 * s - 1).real <= 1:  # then 2s and s have real part > 1 too
        raise OutOfDomainError("zeta argument 2s-1 has real part <= 1")
    if n_max < 3:
        raise InvalidArgumentError("n_max must be >= 3")
    if depth < 2:
        raise InvalidArgumentError("L must be >= 2")
    plan, fixed = _necklace_plan(_DEMO_TERMS, s, ("demo", n_max), 2, depth)
    exps = np.array(list(plan), dtype=complex)
    fixed += float(np.abs(list(plan.values())) @ 2.0 ** (-depth * exps.real))  # P^(-L Re s_j)
    # the three front factors join the plan's Hurwitz pass, ahead of its exponents
    res = _execute(plan, fixed, 1, 1, 2, depth, ls, front=(2 * s - 1, 2 * s, s))
    z1 = ls.zeta(2 * s - 1).log()
    z2 = ls.zeta(2 * s).log()
    z3 = ls.zeta(s).log()
    acc = z3.value - z1.value - z2.value + res.log_value
    bnd = z3.bound + z1.bound + z2.bound + res.total_bound + _demo_tail_majorant(s.real, n_max)
    # Rounding of the demo's own operations.  Each zeta-front log is off by at
    # most 2u + 3u |log|, the four-term sum by 3u times the summed magnitudes,
    # so acc by u (6 + 7 sum); cmath.exp's own rounding is at most 6u |value|.
    bnd += _U * (6 + 7 * (abs(z1.value) + abs(z2.value) + abs(z3.value) + abs(res.log_value)))
    out = ValueWithBound(acc, bnd).exp()
    return ValueWithBound(out.value, out.bound + 6 * _U * abs(out.value))
