import cmath
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apeuler import (
    EvalParams,
    InvalidArgumentError,
    OutOfDomainError,
    PrecisionUnreachableError,
    ValueWithBound,
    character_group,
    dirichlet_l,
    hurwitz_zeta,
)
from apeuler.arith import bernoulli_numbers
from apeuler.lseries import _MAX_ORDER, _choose_em, _hurwitz_em, _hurwitz_grid, _l_table

BERNOULLI = bernoulli_numbers(2 * _MAX_ORDER + 2)  # every B_2j the kernel reads
GRID_S = [complex(sig, im) for sig in (1.5, 2.0, 3.0) for im in (0.0, 1.0)]


def test_value_with_bound_rejects_bad_bounds():
    with pytest.raises(InvalidArgumentError):
        ValueWithBound(1 + 0j, -1.0)
    with pytest.raises(InvalidArgumentError):
        ValueWithBound(1 + 0j, math.nan)


def test_zeta_two():
    z = hurwitz_zeta(2, 1.0)
    assert abs(z.value - math.pi**2 / 6) <= z.bound + 1e-13


def test_zeta_half_identity_real():
    z = hurwitz_zeta(2, 0.5)
    assert abs(z.value - math.pi**2 / 2) <= z.bound + 1e-13


@pytest.mark.parametrize("s", GRID_S)
def test_zeta_half_identity_complex(s):
    # zeta(s, 1/2) = (2^s - 1) zeta(s)
    lhs = hurwitz_zeta(s, 0.5)
    rhs = hurwitz_zeta(s, 1.0)
    factor = 2**s - 1
    tol = lhs.bound + abs(factor) * rhs.bound + 1e-12
    assert abs(lhs.value - factor * rhs.value) <= tol


def test_zeta_three_against_direct_sum():
    # independent oracle: direct summation plus an integral tail bracket
    n = 10**7
    partial = float(np.sum(np.arange(1, n + 1, dtype=float) ** -3.0))
    tail_lo = 0.5 * (n + 1) ** -2.0
    tail_hi = 0.5 * n**-2.0
    z = hurwitz_zeta(3, 1.0)
    assert partial + tail_lo - 1e-12 <= z.value.real <= partial + tail_hi + 1e-12


def test_hurwitz_domain_errors():
    with pytest.raises(OutOfDomainError):
        hurwitz_zeta(1.0, 1.0)
    with pytest.raises(OutOfDomainError):
        hurwitz_zeta(0.5 + 3j, 1.0)
    with pytest.raises(OutOfDomainError):
        hurwitz_zeta(2.0, 1.5)
    with pytest.raises(OutOfDomainError):
        hurwitz_zeta(2.0, 0.0)


@pytest.mark.parametrize("s", [1100, 1024])
def test_hurwitz_zeta_past_the_double_range_is_refused_before_the_kernel(s):
    # zeta(s, 1/2) > 2^s is not a double: refused without an overflow warning.  At
    # s = 1024, s log 2 rounds to log(DBL_MAX) and the kernel's exp stays finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(OutOfDomainError, match="past the double range"):
            hurwitz_zeta(s, 0.5)
        assert hurwitz_zeta(1000, 0.5).value == 1.0715086071861939e301  # 2^1000 + 1.5^-1000 + ...


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
def test_eval_params_refuse_a_target_that_is_not_positive_and_finite(eps):
    with pytest.raises(InvalidArgumentError):
        EvalParams(target_eps=eps)


def test_bound_honesty_doubled_parameters():
    # the grid's value and bound against the kernel at (2N, M + 4), on the
    # columns of hurwitz_zeta (q = 1, r = x <= 1) and of L tables (r >= 2, r = q + 1)
    for s in GRID_S:
        for q, r in ((1, 1.0), (1, 0.5), (1, 0.25), (1, 2), (4, 3), (4, 5), (30, 31)):
            params = EvalParams()
            s_r = np.array([s]), np.array([r], dtype=float)
            n, m, _ = (c[0].item() for c in _choose_em(s_r[0], min(1, r) / q, params))
            ((base,),), ((base_bound,),) = _hurwitz_grid([s], s_r[1], q, params)
            ((refined,),) = _hurwitz_em(*s_r, q, 2 * n, min(m + 4, 60))
            assert abs(base - refined) <= base_bound + 1e-13


_EXPONENT = st.builds(
    complex,
    st.floats(min_value=1.05, max_value=60.0, exclude_min=True),
    st.floats(min_value=-50.0, max_value=50.0),
)
_X = st.floats(min_value=1e-3, max_value=1.0)


_EXPONENTS = st.lists(_EXPONENT, min_size=1, max_size=8, unique=True)
_XS = st.lists(_X, min_size=1, max_size=5)
_Q = st.integers(1, 30)


@given(exps=_EXPONENTS, rs=_XS, q=_Q, n_terms=st.integers(16, 300), order=st.integers(4, 12))
@settings(max_examples=60, deadline=None)
def test_stacked_kernel_rows_equal_one_exponent_calls(exps, rs, q, n_terms, order):
    values = _hurwitz_em(np.array(exps), np.array(rs), q, n_terms, order)
    for i, si in enumerate(exps):
        for j, rj in enumerate(rs):
            ((v,),) = _hurwitz_em(np.array([si]), np.array([rj]), q, n_terms, order)
            assert values[i, j] == v


@pytest.mark.parametrize("block", [1, 40, 200])
def test_kernel_blocks_change_no_bit(monkeypatch, block):
    # at 1, 40 and 200 cells per block the kernel splits the columns r (and at
    # 200 takes two exponents per block) where the default block holds all
    from apeuler import lseries

    exps, rs = np.array([1.3 + 2j, 2.0 + 0j, 5 - 7j]), np.array([7, 11, 13, 29, 31])
    whole = lseries._hurwitz_em(exps, rs, 30, 20, 5)
    monkeypatch.setattr(lseries, "_BLOCK_ELEMS", block)
    assert whole.view(np.int64).tolist() == lseries._hurwitz_em(exps, rs, 30, 20, 5).view(np.int64).tolist()


@given(exps=_EXPONENTS, rs=_XS, q=_Q, eps=st.sampled_from([1e-8, 1e-14, 1e-20, 1e-40]))
@settings(max_examples=60, deadline=None)
def test_remainder_majorant_matches_the_per_exponent_formula(exps, rs, q, eps):
    # the grid's bounds against K(M) q^(2M+1) W^(-sigma-2M-1) at W = qN + r,
    # with (N, M) and log K(M) from the scalar search below; the target moves M
    params = EvalParams(target_eps=eps)
    rs = np.array(rs)
    _, bounds = _hurwitz_grid(exps, rs, q, params)
    for si, row in zip(exps, bounds):
        n, order, log_k = _choose_em_scalar(si, min(1.0, rs.min()) / q, params)
        top = 2 * order + 1
        for rj, b in zip(rs.tolist(), row):
            ref = math.exp(min(log_k + top * math.log(q) - (si.real + top) * math.log(q * n + rj), 700.0))
            assert b == pytest.approx(ref, rel=1e-12)


@given(exps=st.lists(_EXPONENT, min_size=2, max_size=6, unique=True), rs=st.lists(_X, min_size=1, max_size=5),
       q=st.sampled_from((1, 5)))
@example(exps=[2 + 0j, 1.1 + 40j, 3 + 20j], rs=[0.25, 1.0], q=1)  # (16, 4), (56, 6) and (37, 4)
@settings(max_examples=40, deadline=None)
def test_batched_grid_equals_one_exponent_grids(exps, rs, q):
    # exponents drawn this far apart fall in different Euler-Maclaurin (N, M) groups
    rs = np.array(rs)
    values, bounds = _hurwitz_grid(exps, rs, q, EvalParams())
    for s, v, b in zip(exps, values, bounds):
        (one_v,), (one_b,) = _hurwitz_grid([s], rs, q, EvalParams())
        assert v.tolist() == one_v.tolist() and b.tolist() == one_b.tolist()


def _choose_em_scalar(s: complex, x: float, params: EvalParams) -> tuple[int, int, float | None]:
    """The per-exponent (N, M) search the array search replaced, kept as its reference.

    Returns N, M and log K(M), with log K(M) =
    log|s+2M+1| - log(sigma+2M+1) + log|B_2M+2| - log (2M+2)! + sum_j<2M+1 log|s+j|.
    (0, 0, None) stands for its refusal: no M gives an N within the ceiling.
    """
    from apeuler.lseries import _EM_ORDER, _EM_TERMS, _MAX_TERMS, _log_abs_fraction

    sigma = s.real
    log_eps = math.log(params.target_eps)
    best = None
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
            + _log_abs_fraction(BERNOULLI[2 * m + 2])
            - math.lgamma(2 * m + 3)
            + log_poch
        )
        t = (log_k - log_eps) / (sigma + 2 * m + 1)
        need = math.ceil(math.exp(min(t, 50.0)) - x) + 1 if t > 0 else 1
        n = max(_EM_TERMS, need)
        if n <= _MAX_TERMS and (best is None or n < best[0]):
            best = (n, m, log_k)
        if best is not None and best[0] <= 4 * _EM_TERMS:
            break
    return best or (0, 0, None)


def _search_matches_the_scalar_search(exps, x, params):
    n, m, log_k = _choose_em(np.array(exps, dtype=complex), x, params)
    ref = [_choose_em_scalar(s, x, params) for s in exps]
    assert list(zip(n.tolist(), m.tolist())) == [(nr, mr) for nr, mr, _ in ref]
    for got, (_, _, want) in zip(log_k.tolist(), ref):
        if want is not None:
            assert got == pytest.approx(want, rel=1e-13, abs=1e-12)


@given(
    exps=st.lists(
        st.builds(
            complex,
            st.floats(min_value=1.0, max_value=80.0, exclude_min=True),
            st.one_of(st.just(0.0), st.floats(min_value=-3000.0, max_value=3000.0)),
        ),
        min_size=1,
        max_size=12,
    ),
    x=st.one_of(st.integers(1, 2003).map(lambda q: 1 / q), _X),
    eps=st.sampled_from([1e-14, 1e-10, 1e-20, 1e-300]),
)
@example(exps=[2 + 1e6j, 60 + 0j, 2 + 0j], x=1.0, eps=1e-300)  # 2 + 1e6 i: no (N, M) reaches 1e-300
@settings(max_examples=200, deadline=None)
def test_batched_search_matches_the_scalar_search(exps, x, eps):
    _search_matches_the_scalar_search(exps, x, EvalParams(target_eps=eps))


def test_batched_search_matches_the_scalar_search_on_every_golden_exponent(primes_1e6, bench_jobs, monkeypatch):
    from apeuler import LSeries
    from apeuler import lseries

    searched = []  # per array search: its exponents, its x and its params
    batched = lseries._choose_em

    def recording(exps, x, params):
        searched.append((exps.tolist(), x, params))
        return batched(exps, x, params)

    monkeypatch.setattr(lseries, "_choose_em", recording)
    ls = LSeries(primes_1e6)  # shared: each (s, q) is searched once, at x = 1/q
    for mode, spec in bench_jobs.golden_jobs():
        bench_jobs.run_library(mode, spec, ls)
    assert sum(len(exps) for exps, _, _ in searched) > 100  # 129 distinct (s, q) when written
    for exps, x, params in searched:
        _search_matches_the_scalar_search(exps, x, params)


def test_batched_grid_raises_the_first_refusal_in_order(monkeypatch):
    from apeuler import lseries

    # at 1e-300, s = 60 finds an (N, M) and 2 + 1e6 i none; a NaN planted in
    # the s = 60 rows makes both fail, and the refusal raised is the first one's
    kernel = lseries._hurwitz_em

    def planting(s, rs, q, n_terms, order):
        return np.where(s[:, None] == 60, np.nan, kernel(s, rs, q, n_terms, order))

    monkeypatch.setattr(lseries, "_hurwitz_em", planting)
    params = EvalParams(target_eps=1e-300)
    with pytest.raises(OutOfDomainError, match="non-finite"):
        _hurwitz_grid([60 + 0j, 2 + 1e6j], np.array([1.0]), 1, params)
    with pytest.raises(PrecisionUnreachableError, match="cannot reach"):
        _hurwitz_grid([2 + 1e6j, 60 + 0j], np.array([1.0]), 1, params)


@pytest.mark.parametrize("sigma", [1e44, 1e50, 1e100, 1e300, 1e308])
def test_zeta_at_huge_re_s_is_one(sigma):
    # the Pochhammer factor (s)_7 overflowed past sigma = 1.09e44 (with a
    # RuntimeWarning, an error under this suite's filterwarnings)
    from apeuler import LSeries, sieve

    z = LSeries(sieve(1000)).zeta(sigma)
    assert z.value == 1 and z.bound == 0


def test_dirichlet_l_mod_one_is_zeta():
    chi = character_group(1).characters[0]
    z = dirichlet_l(2, chi)
    assert abs(z.value - math.pi**2 / 6) <= z.bound + 1e-13


def test_dirichlet_l_catalan():
    # oracle: alternating series 1 - 1/9 + 1/25 - ..., tail below the next term
    n = np.arange(2 * 10**6)
    partial = float(np.sum((-1.0) ** n * (2 * n + 1) ** -2.0))
    tail = (2 * len(n) + 1.0) ** -2.0
    chi = character_group(4).characters[1]
    val = dirichlet_l(2, chi)
    assert abs(val.value - partial) <= val.bound + tail + 1e-12


def test_dirichlet_l_principal_mod_two():
    chi = character_group(2).characters[0]
    val = dirichlet_l(3, chi)
    z3 = hurwitz_zeta(3, 1.0)
    assert abs(val.value - (1 - 2**-3) * z3.value) <= val.bound + z3.bound + 1e-13


@pytest.mark.parametrize("q", [1, 4, 8, 24, 30, 101, 210, 1009])
def test_batched_l_table_rows_equal_one_exponent_tables(q):
    # an exponent's L values do not depend on what else shared its fill: the
    # FFT runs along each exponent's own grid (one axis or several, up to 1008 long)
    exps = [2 + 0j, 1.1 + 40j, 3 + 20j, 1.5 - 3j, 12 + 0j, 1.2 + 0.5j]
    group = character_group(q)
    for s, row in zip(exps, _l_table(exps, group, EvalParams())):
        (alone,) = _l_table([s], group, EvalParams())
        assert repr(row) == repr(alone)  # bit for bit, signed zeros included


def test_zeta_p_basic(ls6):
    z = ls6.zeta_p(2, 2)
    assert abs(z.value - math.pi**2 / 6) <= z.bound + 1e-13
    z3 = ls6.zeta_p(2, 3)
    assert abs(z3.value - math.pi**2 / 8) <= z3.bound + 1e-13


def test_zeta_p_refuses_a_bound_past_the_prime_table():
    # a table to 100 lists no prime in [100, 1000): read as all of them, the
    # factors below 1000 gave 1.0018203 with bound 7.2e-16, where
    # prod_{p >= 1000} (1 - p^-2)^-1 is about 1.0001270
    from apeuler import LSeries, sieve

    ls = LSeries(sieve(100))
    with pytest.raises(InvalidArgumentError, match=r"^prime table limit 100 too small for P=1000$"):
        ls.zeta_p(2, 1000)
    with pytest.raises(InvalidArgumentError, match=r"^prime table limit 100 too small for P=101$"):
        ls.zeta_p(2, 101)
    assert ls.zeta_p(2, 100).value == LSeries(sieve(1000)).zeta_p(2, 100).value


def test_zeta_p_100_against_filtered_sum(ls6):
    n = 10**7
    mask = np.ones(n + 1, dtype=bool)
    mask[0] = False
    for p in ls6.primes.below(100):
        mask[p::p] = False
    direct = float(np.sum(np.flatnonzero(mask).astype(float) ** -2.0))
    tail = 1.0 / n
    z = ls6.zeta_p(2, 100)
    assert abs(z.value - direct) <= z.bound + tail + 1e-12


def test_log_truncated_l_zeta_case(ls6):
    chi = character_group(1).characters[0]
    lt = ls6.log_truncated_l(2 + 0j, chi, 2)
    assert abs(lt.value - math.log(math.pi**2 / 6)) <= lt.bound + 1e-13


def test_log_truncated_l_far_truncation_small(ls6):
    chi = character_group(1).characters[0]
    lt = ls6.log_truncated_l(2 + 0j, chi, 10**4)
    assert abs(lt.value) < 1e-4  # roughly sum p^{-2} beyond 10^4


@pytest.mark.parametrize("s", [1.001 + 0j, 1.001 + 5j])
def test_log_truncated_l_refuses_a_threshold_past_the_table(ls6, s):
    # the branch bound B = log(1.001/0.001) = 6.9 at P = 2 is not below 3
    chi = character_group(4).characters[1]
    with pytest.raises(OutOfDomainError, match="too close to 1 for P=2"):
        ls6.log_truncated_l(s, chi, 2)


def test_log_truncated_l_double_sum_oracle(ls6):
    chi = character_group(4).characters[1]
    ps = ls6.primes.in_range(5, 10**6)
    direct = 0j
    residues = np.ones_like(ps)  # p^k mod 4, stepped in k
    values = np.array([chi(n) for n in range(4)])
    for k in range(1, 41):
        residues = residues * (ps % 4) % 4
        direct += np.sum(values[residues] * ps.astype(float) ** (-2.0 * k)) / k
    tail = 2.0 / 10**6  # geometric remainder over p > 1e6 and k > 40
    lt = ls6.log_truncated_l(2 + 0j, chi, 5)
    assert abs(lt.value - direct) <= lt.bound + tail + 1e-12


@pytest.mark.parametrize("q", [1, 3, 4, 5, 8])
@pytest.mark.parametrize("p_min", [2, 10, 100])
@pytest.mark.parametrize("s", GRID_S)
def test_exp_log_identity_grid(ls6, q, p_min, s):
    for chi in character_group(q).characters:
        lt = ls6.log_truncated_l(s, chi, p_min)
        lval = ls6.dirichlet_l(s, chi)
        removed = 1 + 0j
        for p in ls6.primes.below(p_min):
            removed *= 1 - chi(int(p)) * cmath.exp(-s * math.log(int(p)))
        target = lval.value * removed
        tol = abs(cmath.exp(lt.value)) * math.expm1(lt.bound)
        tol += lval.bound * abs(removed) + 1e-12
        assert abs(cmath.exp(lt.value) - target) <= tol
        assert abs(lt.value.imag) < math.pi


@pytest.mark.parametrize("q", [1, 3, 4, 5, 8])
@pytest.mark.parametrize("p_min", [2, 10, 100])
@pytest.mark.parametrize("s", GRID_S)
def test_log_modulus_dominated_by_zeta_p(ls6, q, p_min, s):
    sigma = s.real
    zp = ls6.zeta_p(sigma, p_min)
    cap = math.log(zp.value.real + zp.bound)
    for chi in character_group(q).characters:
        lt = ls6.log_truncated_l(s, chi, p_min)
        assert abs(lt.value) <= cap + lt.bound + 1e-12


@pytest.mark.parametrize("q", [1, 4, 5])
def test_add_back_between_p_and_the_branch_threshold(ls6, q):
    # each log is the principal log of its own product, and consecutive ones differ by one factor
    s = 1.3 + 5j
    for chi in character_group(q).characters:
        step = ls6.log_truncated_l(s, chi, 7).value - ls6.log_truncated_l(s, chi, 11).value
        assert abs(step + cmath.log(1 - chi(7) * cmath.exp(-s * math.log(7)))) <= 1e-15
        for p_min in (10, 11, 50):
            assert abs(ls6.log_truncated_l(s, chi, p_min).value.imag) < math.pi


def test_a_second_row_at_one_cut_reuses_its_l_product_and_prime_powers(primes_1e6, monkeypatch):
    # the L values of every row are formed once per (s, q), by the fill, and
    # the primes below P with their p^-s once per (s, q, P); a miss for
    # another row runs only its own factors
    from apeuler import LSeries, lseries
    from apeuler.arith import PrimeTable

    products, prime_lists = [], []
    l_table, below = lseries._l_table, PrimeTable.below
    monkeypatch.setattr(
        lseries, "_l_table", lambda exps, group, params: products.append(exps) or l_table(exps, group, params)
    )
    monkeypatch.setattr(PrimeTable, "below", lambda self, bound: prime_lists.append(bound) or below(self, bound))
    ls = LSeries(primes_1e6)
    s = 1.5 + 3j  # at P = 7 the factors at 2, 3 and 5 are removed
    chars = character_group(5).characters
    ls.fill_l_tables([s], 5)
    assert (products, prime_lists) == ([[s]], [])
    ls.log_truncated_l(s, chars[1], 7)
    assert (products, prime_lists) == ([[s]], [7])
    for chi in chars:
        ls.log_truncated_l(s, chi, 7)
    assert (products, prime_lists) == ([[s]], [7])
    ls.log_truncated_l(s, chars[1], 11)  # another P is another cut entry, with the same L values
    assert (products, prime_lists) == ([[s]], [7, 11])
    for chi in chars:  # LSeries.dirichlet_l reads the cached table, the module dirichlet_l a fresh one
        assert ls.dirichlet_l(s, chi) == dirichlet_l(s, chi)
    assert products[1:] == [[s]] * len(chars)


def test_each_row_log_is_formed_once_per_cut_entry(primes_1e6):
    # one (s, q, P) entry holds every row's truncated log, formed on its first read
    from apeuler import LSeries

    ls = LSeries(primes_1e6)
    s, q = 1.5 + 3j, 5
    chars = character_group(q).characters
    first = [ls.log_truncated_l(s, chi, 2) for chi in chars]
    assert list(ls._cut_cache) == [(s, q, 2)]
    assert all(ls.log_truncated_l(s, chi, 2) is out for chi, out in zip(chars, first))
    other = ls.log_truncated_l(s, chars[1], 3)  # another P is another entry
    assert list(ls._cut_cache) == [(s, q, 2), (s, q, 3)]
    assert other is not first[1]
    assert ls._cut_cache[(s, q, 3)].logs == [None, other, None, None]


def test_branch_cut_raises_every_log_l_refusal():
    from apeuler import LSeries, sieve

    ls = LSeries(sieve(100))
    with pytest.raises(OutOfDomainError, match=r"^log_truncated_l requires Re s > 1$"):
        ls._check_branch(1.0, 2)
    with pytest.raises(InvalidArgumentError, match=r"^log_truncated_l requires P >= 2$"):
        ls._check_branch(2.0, 1)
    with pytest.raises(OutOfDomainError, match=r"^Re s=1.001 too close to 1 for P=2: branch bound B=6.909 is not below 3$"):
        ls._check_branch(1.001, 2)
    with pytest.raises(InvalidArgumentError, match=r"^prime table limit 100 too small for P=200$"):
        ls._check_branch(5.0, 200)
    assert ls._check_branch(5.0, 100) is None
    # log(sigma/(sigma-1)) passes 3 below sigma = 1.0524; the primes below P then pull B back under it
    assert ls._check_branch(1.06, 2) is None
    with pytest.raises(OutOfDomainError, match=r"^Re s=1.05 too close to 1 for P=2: branch bound B=3.045 is not below 3$"):
        ls._check_branch(1.05, 2)
    assert ls._check_branch(1.05, 3) is None
    assert ls._check_branch(1.01, 17) is None
    with pytest.raises(OutOfDomainError, match=r"^Re s=1.01 too close to 1 for P=13: "):
        ls._check_branch(1.01, 13)
    # the named Re s reads above 1 however close to 1 it is
    with pytest.raises(OutOfDomainError, match=r"^Re s=1.0000001 too close to 1 for P=2: branch bound B=16.12 is not below 3$"):
        ls._check_branch(1.0000001, 2)


def test_a_cut_near_sigma_one_holds_its_primes_not_a_table_of_them(primes_1e6):
    # at P = 630,000 the cut holds about 51,000 primes below P; a
    # phi(q) x pi(P) table of chi(p) would take 16 kB per prime at q = 1009
    import tracemalloc

    from apeuler import LSeries

    q, s = 1009, 1.15 + 0j
    group = character_group(q)
    group.roots  # the roots and the L table are built before the trace
    ls = LSeries(primes_1e6)
    ls.fill_l_tables([s], q)
    tracemalloc.start()
    try:
        ls.log_truncated_l(s, group.characters[1], 630_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(ls._cut_cache[(s, q, 630_000)].turns)
    assert n > 50_000
    assert peak < 256 * n


@given(
    q=st.sampled_from((1, 4, 5, 30, 101, 210)),
    p_min=st.sampled_from((2, 3, 7, 11)),
    sigma=st.floats(min_value=1.2, max_value=12.0, exclude_min=True),
    t=st.floats(min_value=-30.0, max_value=30.0),
)
@example(q=210, p_min=11, sigma=1.2000001, t=17.2)  # sigma at the floor; every prime below P divides q
@example(q=101, p_min=7, sigma=1.2000000000000002, t=19.5)  # failed while the two dirichlet_l paths differed
@settings(max_examples=25, deadline=None)
def test_log_truncated_l_matches_dirichlet_l_times_its_euler_factors(primes_1e6, q, p_min, sigma, t):
    from apeuler import LSeries

    s = complex(sigma, t)
    ls = LSeries(primes_1e6)
    primes = primes_1e6.below(p_min).tolist()
    for chi in character_group(q).characters:
        removed = 1 + 0j
        for p in primes:
            removed *= 1 - chi(p) * p**-s
        ref = cmath.log(dirichlet_l(s, chi).value * removed)
        assert abs(ls.log_truncated_l(s, chi, p_min).value - ref) <= 8 * 2.0**-52 * (1 + abs(ref))


@pytest.mark.parametrize("p_min", [2, 10, 100])
@pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
def test_zeta_p_tail_inequality(ls6, sigma, p_min):
    # log of the truncated zeta product is bounded by an integral tail estimate:
    # sum_{p >= P} -log(1 - p^-sigma) <= 2 sum_{n >= P} n^-sigma
    zp = ls6.zeta_p(sigma, p_min)
    lhs = math.log(zp.value.real - zp.bound)
    assert lhs <= 2.0 * (p_min - 1) ** (1 - sigma) / (sigma - 1) + 1e-12


def test_hurwitz_kernel_runs_once_per_exponent(primes_1e6, monkeypatch):
    from apeuler import APProductSpec, LSeries, MultiTermSpec, ap_product, multi_term_product
    from apeuler import lseries
    from apeuler.arith import euler_phi

    calls = []  # per kernel call: its (N, M) and the rows of each exponent
    kernel = lseries._hurwitz_em

    def counting(s, rs, q, n_terms, order):
        assert len(set(s.tolist())) == len(s)  # the kernel is handed distinct exponents
        calls.append(((n_terms, order), dict.fromkeys(s.tolist(), len(rs))))
        return kernel(s, rs, q, n_terms, order)

    def check(q, exponents):
        # one call per (N, M) among the exponents; each residue vector computed once
        n, m, _ = _choose_em(np.array(list(exponents)), 1 / q, EvalParams())
        groups = set(zip(n.tolist(), m.tolist()))
        assert sorted(nm for nm, _ in calls) == sorted(groups)
        seen = [e for _, rows in calls for e in rows]
        assert Counter(seen) == Counter(exponents)
        assert all(r == euler_phi(q) for _, rows in calls for r in rows.values())

    monkeypatch.setattr(lseries, "_hurwitz_em", counting)
    ls = LSeries(primes_1e6)
    # residue 2 generates (Z/101Z)* and leaves a nonzero weight at every
    # depth; residue 1 skips the depths whose weights all cancel
    spec = APProductSpec(s=2 + 0j, q=101, a=2, p_min=2, depth=10)
    ap_product(spec, ls)
    check(101, [ell * spec.s for ell in range(1, spec.depth + 1)])
    calls.clear()
    for a in (1, 3, 100):
        ap_product(APProductSpec(s=2 + 0j, q=101, a=a, p_min=2, depth=10), ls)
    assert calls == []
    # the benchmark's multi job at q = 5, k = 3: one kernel call per (N, M)
    # group for its 24 residue vectors, where each vector used to take one
    terms = tuple(zip((cmath.rect(0.9, 0.7), cmath.rect(0.6, 2.9), cmath.rect(0.4, 4.4)),
                      (1.0, 2.0, 3.0), (0.0, -1.0, -1.0)))
    multi_term_product(MultiTermSpec(terms=terms, s=2 + 0j, q=5, a=2, p_min=7, depth=8),
                       LSeries(primes_1e6))
    exponents = [e for _, rows in calls for e in rows]
    assert len(set(exponents)) == 24
    check(5, set(exponents))


@pytest.mark.parametrize("q", [3, 4, 5, 8, 30, 101])
@pytest.mark.parametrize("s", [2 + 0j, 1.5 + 3j])
def test_table_l_matches_hurwitz_sum(ls6, q, s):
    units = [r for r in range(1, q + 1) if math.gcd(r, q) == 1]
    zetas = {r: hurwitz_zeta(s, r / q) for r in units}
    scale = q**-s
    for chi in character_group(q).characters:
        direct = scale * sum(chi(r) * zetas[r].value for r in units)
        direct_bound = abs(scale) * sum(z.bound for z in zetas.values())
        for val in (ls6.dirichlet_l(s, chi), dirichlet_l(s, chi)):
            assert abs(val.value - direct) <= val.bound + direct_bound + 1e-12
