import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apeuler import (
    APProductSpec,
    InvalidArgumentError,
    MultiTermSpec,
    OutOfDomainError,
    Polynomial,
    RationalProductSpec,
    ap_product,
    continuation_demo,
    multi_term_product,
    oracle_log_product,
    rational_product,
    y_p,
)
from apeuler import PrecisionUnreachableError, character_group, engine
from apeuler.arith import divisors, factorize, mobius
from apeuler.engine import (
    _demo_tail_majorant,
    _execute,
    _kappa_tail,
    _log_y_magnitude_majorant,
    _necklace_plan,
    _necklace_shape,
)
from apeuler.witt import kappa, multi_indices, necklace_m


def _ap_oracle(primes, s, q, a, p_min):
    spec = APProductSpec(s=s, q=q, a=a, p_min=p_min, depth=2)
    return oracle_log_product(spec, primes, primes.limit)


def test_y_p_zeta_inverse(ls6, primes_1e6):
    y = y_p(2 + 0j, 1, 1, 2, 10, ls6)
    orc = _ap_oracle(primes_1e6, 2 + 0j, 1, 1, 2)
    assert abs(y.value - orc.log_value) <= y.bound + orc.tail_bound
    # and the closed form: sum log(1 - p^-2) = -log zeta(2)
    assert abs(y.value - math.log(6 / math.pi**2)) <= y.bound + 2**-20
    # at q = 1 every depth ell > 1 cancels, so only ell = 1 is listed
    assert [arr.tolist() for arr in character_group(1).unsieve_counts(10)] == [[1], [0], [0], [0], [1.0]]


@pytest.mark.parametrize("q,a", [(4, 1), (4, 3), (5, 2)])
def test_y_p_progressions_against_oracle(ls6, primes_1e6, q, a):
    for s in (2 + 0j, 1.5 + 1j):
        y = y_p(s, q, a, 5, 10, ls6)
        orc = _ap_oracle(primes_1e6, s, q, a, 5)
        assert abs(y.value - orc.log_value) <= y.bound + orc.tail_bound


def test_y_p_residue_classes_sum_to_full_product(ls6):
    # summing over all invertible residues recovers the q = 1 value
    q, p_min, depth = 5, 7, 10
    s = 2 + 0j
    parts = [y_p(s, q, a, p_min, depth, ls6) for a in (1, 2, 3, 4)]
    whole = y_p(s, 1, 1, p_min, depth, ls6)
    tol = whole.bound + sum(p.bound for p in parts)
    tol += 2 * p_min ** (-depth * s.real)  # truncation depth mismatch headroom
    assert abs(sum(p.value for p in parts) - whole.value) <= tol + 1e-14


@pytest.mark.parametrize("q", [30, 101, 1008, 1009])  # 1008: the four-axis grid (2, 4, 6, 6)
def test_every_residue_from_one_fft(ls6, q):
    grp = character_group(q)
    phi, depth = len(grp), 10
    units = np.flatnonzero(grp.logs >= 0)
    conj = np.append(grp.roots, 0)[grp.angles(np.arange(phi), units)].conj()  # chi by a: conj chi(a)
    for s in (2 + 0j, 1.5 + 3j):
        for p_min in (2, 7):
            y, bound = ls6.y_residues(s, q, p_min, depth)
            # summed over a only chi_0 is left, and sum_{d | ell} mu(d) = [ell = 1]: -log L_P(s, chi_0)
            zeta = ls6.zeta_p(s, p_min).log()
            removed = sum(cmath.log(1 - p**-s) for p, _ in factorize(q) if p >= p_min)
            assert abs(y.sum() + zeta.value + removed) <= phi * bound + zeta.bound
            # y(a) = -(1/phi) sum_chi conj chi(a) sum_ell (1/ell) sum_{d | ell} mu(d) log L_P(ell s, chi^d)
            h = np.zeros(phi, dtype=complex)
            for ell in range(1, depth + 1):
                logs = np.array([ls6.log_truncated_l(ell * s, chi, p_min).value for chi in grp.characters])
                for d in divisors(ell):
                    if mobius(d):
                        h += mobius(d) / ell * logs[grp.power_rows(d)]
            # both sides round: the FFT by about log2(phi) u sum |h| / phi per entry
            tol = 8 * math.log2(2 * phi) * 2.0**-53 * np.abs(h).sum() / phi
            assert np.abs(y[grp.logs[units]] + h @ conj / phi).max() <= tol
            a = int(units[-1])
            got = y_p(s, q, a, p_min, depth, ls6)
            assert (got.value, got.bound) == (y[grp.logs[a]], bound)


@pytest.mark.parametrize("q", [30, 101, 210])
def test_a_residue_sweep_forms_one_table_per_key(primes_1e6, monkeypatch, q):
    # the first residue forms the (s, q, P, L) table; every later one reads it, bit for bit a fresh series' value
    from apeuler import LSeries, lseries

    reads = []
    real = lseries.LSeries.log_truncated_l
    monkeypatch.setattr(lseries.LSeries, "log_truncated_l", lambda self, *args: reads.append(args) or real(self, *args))
    ls = LSeries(primes_1e6)
    units = np.flatnonzero(character_group(q).logs >= 0).tolist()
    for s in (2 + 0j, 1.5 + 3j):
        swept = []
        for a in units:
            reads.clear()
            swept.append(y_p(s, q, a, 7, 10, ls))
            assert (len(reads) > 0) == (a == 1)
        for a, got in zip(units, swept):
            fresh = y_p(s, q, a, 7, 10, LSeries(primes_1e6))
            assert (got.value, got.bound) == (fresh.value, fresh.bound)
    assert list(ls._y_cache) == [(2 + 0j, q, 7, 10), (1.5 + 3j, q, 7, 10)]


def test_y_p_validation():
    from apeuler import LSeries, sieve

    ls = LSeries(sieve(100))
    with pytest.raises(OutOfDomainError):
        y_p(1 + 0j, 1, 1, 2, 10, ls)
    with pytest.raises(InvalidArgumentError):
        y_p(2 + 0j, 4, 2, 2, 10, ls)
    with pytest.raises(InvalidArgumentError):
        y_p(2 + 0j, 1, 1, 1, 10, ls)


def test_ap_product_zeta_two(ls6):
    res = ap_product(APProductSpec(s=2 + 0j, q=1, a=1, p_min=2, depth=12), ls6)
    assert abs(res.value - 6 / math.pi**2) <= res.total_bound + 1e-13


def test_ap_product_spec_validation():
    with pytest.raises(InvalidArgumentError):
        APProductSpec(s=1 + 0j).validate()
    with pytest.raises(InvalidArgumentError):
        APProductSpec(s=2 + 0j, q=6, a=3).validate()
    with pytest.raises(InvalidArgumentError):
        APProductSpec(s=2 + 0j, p_min=1).validate()
    with pytest.raises(InvalidArgumentError):
        APProductSpec(s=2 + 0j, depth=1).validate()


def test_rational_product_matches_ap_square(ls6, primes_1e6):
    # F = t^2, G = 1 gives the plain product at s = 2
    spec = RationalProductSpec(
        f=Polynomial.of([0, 0, 1]), g=Polynomial.of([1]), p_min=5, depth=10
    )
    res = rational_product(spec, ls6)
    ap = ap_product(APProductSpec(s=2 + 0j, p_min=5, depth=10), ls6)
    assert abs(res.log_value - ap.log_value) <= res.total_bound + ap.total_bound
    orc = oracle_log_product(spec, primes_1e6, 10**6)
    assert abs(res.log_value - orc.log_value) <= res.total_bound + orc.tail_bound


def test_rational_product_double_square(ls6, primes_1e6):
    spec = RationalProductSpec(
        f=Polynomial.of([0, 0, 2]), g=Polynomial.of([1]), p_min=5, depth=10
    )
    res = rational_product(spec, ls6)
    orc = oracle_log_product(spec, primes_1e6, 10**6)
    assert abs(res.log_value - orc.log_value) <= res.total_bound + orc.tail_bound


def _demo_product(depth, ls):
    # the demo returns its value alone; its log is exactly real where the value is
    res = continuation_demo(3 + 0j, 30, ls, depth=depth)
    return engine.ProductResult(cmath.log(res.value), res.bound)


@pytest.mark.parametrize(
    "product,spec",
    [(ap_product, APProductSpec(s=2 + 0j, q=q, a=a, p_min=p_min, depth=10))
     for q, a, p_min in [(4, 1, 5), (8, 3, 2), (3, 2, 2), (12, 5, 7), (5, 2, 2), (24, 7, 2), (30, 7, 2)]]
    + [(rational_product, RationalProductSpec(
        f=Polynomial.of([0, 0, 0, 1]), g=Polynomial.of([1, 1]), q=4, a=3, p_min=5, depth=10))]
    + [(multi_term_product, MultiTermSpec(terms=((-0.4 + 0j, 1.0, 0.0),), s=3 + 0j, p_min=2, depth=depth))
       for depth in (100, 150)]
    + [(_demo_product, 101)],
)
def test_real_s_gives_an_exactly_real_result(ls6, product, spec):
    # every character mod these q takes only the values +-1 and +-i, which
    # the tables hold exactly, so no rounding is left in the imaginary part;
    # real-coefficient necklace plans past L = 100 keep c_m and kappa_f real
    res = product(spec, ls6)
    assert res.log_value.imag == 0 and res.value.imag == 0


@pytest.mark.parametrize("q", [8, 30, 101])
def test_real_s_gives_an_exactly_real_result_at_every_residue(ls6, q):
    # y is real at real s, but the FFT over the characters can leave rounding in
    # its imaginary part (it does at q = 101, whose characters take 100th roots of 1)
    for a in range(1, q):
        if math.gcd(a, q) == 1:
            res = ap_product(APProductSpec(s=2 + 0j, q=q, a=a, p_min=2, depth=10), ls6)
            assert res.log_value.imag == 0 and res.value.imag == 0


def test_rational_product_cubic_over_linear(ls6, primes_1e6):
    spec = RationalProductSpec(
        f=Polynomial.of([0, 0, 0, 1]),
        g=Polynomial.of([1, 1]),
        q=4,
        a=3,
        p_min=5,
        depth=10,
    )
    res = rational_product(spec, ls6)
    orc = oracle_log_product(spec, primes_1e6, 10**6)
    assert abs(res.log_value - orc.log_value) <= res.total_bound + orc.tail_bound


def test_rational_spec_validation():
    with pytest.raises(InvalidArgumentError):
        RationalProductSpec(f=Polynomial.of([0, 1]), g=Polynomial.of([1])).validate()
    with pytest.raises(InvalidArgumentError):
        RationalProductSpec(f=Polynomial.of([0, 0, 1]), g=Polynomial.of([2])).validate()
    with pytest.raises(InvalidArgumentError):
        # P below twice the certified inverse-root radius
        RationalProductSpec(
            f=Polynomial.of([0, 0, 1]), g=Polynomial.of([1]), p_min=3
        ).validate()


def test_multi_term_single_matches_ap_exactly(ls6):
    # k = 1 with a_1 = 1, u = 1, v = 0 must reduce to the plain product
    for s in (2 + 0j, 1.5 + 1j):
        for q, a in ((1, 1), (4, 3)):
            multi = multi_term_product(
                MultiTermSpec(
                    terms=((1 + 0j, 1.0, 0.0),), s=s, q=q, a=a, p_min=5, depth=8
                ),
                ls6,
            )
            plain = ap_product(
                APProductSpec(s=s, q=q, a=a, p_min=5, depth=8), ls6
            )
            assert multi.log_value == plain.log_value


def test_multi_term_two_terms_against_oracle(ls6, primes_1e6):
    spec = MultiTermSpec(
        terms=((-1 + 0j, 1.0, 0.0), (1 + 0j, 2.0, -1.0)),
        s=2 + 0j,
        p_min=10,
        depth=8,
    )
    res = multi_term_product(spec, ls6)
    orc = oracle_log_product(spec, primes_1e6, 10**6)
    assert abs(res.log_value - orc.log_value) <= res.total_bound + orc.tail_bound


def test_multi_term_complex_coefficient_against_oracle(ls6, primes_1e6):
    spec = MultiTermSpec(
        terms=((0.5 + 0.5j, 1.0, 0.0), (1 + 0j, 1.0, 1.0)),
        s=1.5 + 1j,
        q=3,
        a=2,
        p_min=7,
        depth=8,
    )
    res = multi_term_product(spec, ls6)
    orc = oracle_log_product(spec, primes_1e6, 10**6)
    assert abs(res.log_value - orc.log_value) <= res.total_bound + orc.tail_bound


def test_multi_term_spec_validation():
    with pytest.raises(InvalidArgumentError):
        MultiTermSpec(terms=(), s=2 + 0j).validate()
    with pytest.raises(OutOfDomainError):
        MultiTermSpec(terms=((1 + 0j, 1.0, -1.0),), s=1.5 + 0j, p_min=5).validate()
    with pytest.raises(InvalidArgumentError):
        # P below 2kA
        MultiTermSpec(
            terms=((3 + 0j, 1.0, 0.0),), s=2 + 0j, p_min=5, depth=8
        ).validate()


def test_single_factor_log_plus_sign(ls6, primes_1e6):
    # sum log(1 + p^-s) against the direct sum
    s = 2.5 + 0j
    plan, fixed = _necklace_plan(((-1 + 0j, 1.0, 0.0),), s, *_necklace_shape(1, 1), 2, 10)
    fixed += sum(abs(c) * 2.0 ** (-10 * e.real) for e, c in plan.items())
    res = _execute(plan, fixed, 1, 1, 2, 10, ls6)
    ps = primes_1e6.primes.astype(float)
    direct = float(np.sum(np.log1p(ps**-2.5)))
    tail = 1.5 * 10**6 ** (1 - 2.5) / 1.5
    assert abs(res.log_value - direct) <= res.total_bound + tail


@pytest.mark.parametrize("seed", range(10))
def test_bound_containment_randomized(ls6, primes_1e6, seed):
    rng = np.random.default_rng(2000 + seed)
    q = int(rng.choice([1, 3, 4, 5, 8]))
    units = [n for n in range(1, q + 1) if math.gcd(n, q) == 1]
    a = int(rng.choice(units))
    s = complex(1.5 + 1.5 * rng.random(), 2 * rng.random() - 1)
    p_min = int(rng.choice([2, 5, 20, 50]))
    depth = int(rng.integers(4, 12))
    spec = APProductSpec(s=s, q=q, a=a, p_min=p_min, depth=depth)
    res = ap_product(spec, ls6)
    orc = oracle_log_product(spec, primes_1e6, 10**6)
    assert abs(res.log_value - orc.log_value) <= res.total_bound + orc.tail_bound


def test_depth_refinement_within_bounds(ls6):
    spec4 = APProductSpec(s=1.5 + 1j, q=5, a=2, p_min=5, depth=4)
    spec8 = APProductSpec(s=1.5 + 1j, q=5, a=2, p_min=5, depth=8)
    r4 = ap_product(spec4, ls6)
    r8 = ap_product(spec8, ls6)
    assert abs(r4.log_value - r8.log_value) <= r4.total_bound + r8.total_bound
    assert r8.total_bound < r4.total_bound


def test_continuation_demo_at_three(ls6, primes_1e6):
    res = continuation_demo(3 + 0j, 24, ls6, depth=8)
    ps = primes_1e6.primes.astype(float)
    terms = ps**-3.0 - ps**-5.0
    direct = complex(np.sum(np.log1p(terms)))
    tail = 1.5 * 2 * 10**6 ** (1 - 3.0) / 2.0
    assert abs(res.value - cmath.exp(direct)) <= res.bound + 3 * tail


def test_continuation_demo_domain():
    from apeuler import LSeries, sieve

    ls = LSeries(sieve(100))
    with pytest.raises(OutOfDomainError):
        continuation_demo(1 + 0j, 10, ls)
    with pytest.raises(OutOfDomainError):
        continuation_demo(0.9 + 0j, 10, ls)
    with pytest.raises(InvalidArgumentError):
        continuation_demo(2 + 0j, 2, ls)


@pytest.mark.parametrize("depth", [0, 1])
def test_continuation_demo_checks_depth_before_routing(ls6, depth):
    # at s = 3 every exponent is summed directly, so no y_p call would check L
    with pytest.raises(InvalidArgumentError):
        continuation_demo(3 + 0j, 30, ls6, depth=depth)


def test_product_result_refuses_non_finite_parts():
    with pytest.raises(OutOfDomainError):
        engine.ProductResult(complex(math.nan, 0.0), 1e-10)
    with pytest.raises(InvalidArgumentError):
        engine.ProductResult(0j, math.inf)


def test_rational_product_refuses_a_nan_coefficient(ls6):
    # beta_bound takes max(2, nan) = 2, so the spec validates; the result must not
    spec = RationalProductSpec(f=Polynomial.of([0, 0, 1]), g=Polynomial.of([1, math.nan]), p_min=5)
    spec.validate()
    with pytest.raises((InvalidArgumentError, OutOfDomainError)):
        rational_product(spec, ls6)


def test_y_p_all_residues_mod_101_sum_to_zeta(ls6):
    # the character sums over all classes cancel every non-principal term
    # exactly, leaving -log L_P(s, chi_0) = -log zeta_P(s) - log(1 - 101^-s)
    q, s, p_min, depth = 101, 2 + 0j, 2, 10
    parts = [y_p(s, q, a, p_min, depth, ls6) for a in range(1, q)]
    zp = ls6.zeta_p(s, p_min).log()
    target = -zp.value - cmath.log(1 - q**-s)
    tol = sum(p.bound for p in parts) + zp.bound + 1e-12
    assert abs(sum(p.value for p in parts) - target) <= tol


def _count_y_p(monkeypatch):
    calls = []
    real = engine.y_p

    def counting(s, *rest):
        calls.append(complex(s))
        return real(s, *rest)

    monkeypatch.setattr(engine, "y_p", counting)
    return calls


def _count_direct(monkeypatch):
    exps = []
    real = engine._direct_sums

    def counting(cuts, *rest):
        exps.extend(cuts)
        return real(cuts, *rest)

    monkeypatch.setattr(engine, "_direct_sums", counting)
    return exps


def test_continuation_demo_one_y_p_call_per_exponent(ls6, monkeypatch):
    calls = _count_y_p(monkeypatch)
    direct = _count_direct(monkeypatch)
    continuation_demo(2 + 0j, 30, ls6, depth=10)
    # 242 y_p calls before equal exponents were merged.  Of the 82 exponents,
    # 26 were once skipped as negligible; all but w = 5 now have a prime cut
    # X_j <= 10^4 and are summed directly.
    assert len(calls) == len(set(calls)) == 1
    assert len(direct) == len(set(direct)) == 81
    assert set(calls).isdisjoint(direct)


def test_ap_product_is_the_one_term_plan(ls6, monkeypatch):
    calls = _count_y_p(monkeypatch)
    spec = APProductSpec(s=1.5 + 1j, q=5, a=2, p_min=5, depth=8)
    res = ap_product(spec, ls6)
    assert calls == [1.5 + 1j]
    y = y_p(spec.s, spec.q, spec.a, spec.p_min, spec.depth, ls6)
    assert res.log_value == y.value
    assert res.total_bound == y.bound + math.exp(-spec.depth * spec.s.real * math.log(spec.p_min))


def test_multi_term_one_y_p_call_per_exponent(ls6, monkeypatch):
    calls = _count_y_p(monkeypatch)
    direct = _count_direct(monkeypatch)
    spec = MultiTermSpec(
        terms=((0.9 + 0j, 1.0, 0.0), (0.6j, 2.0, -1.0), (-0.4 + 0j, 3.0, -1.0)),
        s=2 + 0j, q=5, a=2, p_min=7, depth=8,
    )
    multi_term_product(spec, ls6)
    # 104 y_p calls before equal exponents were merged.  Of the 160 exponents,
    # 139 were once skipped as negligible; all but 5 are now summed directly.
    assert len(calls) == len(set(calls)) == 5
    assert len(direct) == len(set(direct)) == 155
    assert set(calls).isdisjoint(direct)


def test_a_families_job_makes_one_hurwitz_fill(primes_1e6, bench_jobs, monkeypatch):
    # every job of the benchmark's families pass (seed 1) forms all its L
    # tables in one batched pass; a demo's three zeta front factors join its
    # plan's exponents there
    from apeuler import LSeries, lseries

    fills = []
    real = lseries._l_table
    monkeypatch.setattr(lseries, "_l_table", lambda exps, *args: fills.append(exps) or real(exps, *args))
    jobs = bench_jobs.families_jobs(1)
    for mode, spec in jobs:
        fills.clear()
        bench_jobs.run_library(mode, spec, LSeries(primes_1e6))
        assert len(fills) == 1, bench_jobs.key(mode, spec)
    assert sum(mode == "demo" for mode, _ in jobs) == 4


@pytest.mark.parametrize("s", [2 + 0j, 1.5 + 2j])
def test_demo_front_factors_equal_zeta_on_a_fresh_series(primes_1e6, s):
    from apeuler import LSeries

    ls = LSeries(primes_1e6)
    continuation_demo(s, 30, ls)
    for arg in (2 * s - 1, 2 * s, s):
        got, alone = ls.zeta(arg), LSeries(primes_1e6).zeta(arg)
        assert (got.value, got.bound) == (alone.value, alone.bound)


def _direct_sums_single_layout(exps, xs, q, a, p_min, primes):
    """The direct sums as formed before cells were laid out per row, kept as the reference.

    Per row: its value, its bound as one row was bounded before the rows were
    weighted and summed at once (its tail, 48 u r per cell, the spread of its
    partial sums and (count + 1) 2^-1000), and its cells.  Rows are sorted by
    X_j and cut into blocks of at most 2^11 cells, each block as wide as its
    widest row; every cell, padding included, is formed as a complex log.
    """
    ps = primes.in_range(p_min, int(xs.max()))
    ps = ps[ps % q == a % q]
    logp = np.log(ps.astype(float))
    counts = np.searchsorted(ps, xs, side="right")
    values = np.zeros(len(xs), dtype=complex)
    rounding = np.zeros(len(xs))
    cells_by_row = [np.zeros(0, dtype=complex)] * len(xs)
    order = np.argsort(-xs, kind="stable")
    i = 0
    while i < len(order) and counts[order[i]]:
        width = counts[order[i]]
        rows = order[i : i + max(1, (1 << 11) // width)]
        i += len(rows)
        s = exps[rows, None]
        r = np.where(np.arange(width) < counts[rows, None], np.exp(-s.real * logp[:width]), 0.0)
        theta = -s.imag * logp[:width]
        re, im = r * np.cos(theta), r * np.sin(theta)
        cells = 0.5 * np.log1p(r * r - 2 * re) + 1j * np.arctan2(-im, 1 - re)
        partial = cells[:, ::-1].cumsum(axis=1)
        values[rows] = partial[:, -1]
        rounding[rows] = (
            20 * np.abs(exps[rows]) * (r @ logp[:width])
            + 48 * r.sum(axis=1)
            + (np.abs(partial.real) + np.abs(partial.imag)).sum(axis=1)
        )
        for j, row_cells in zip(rows.tolist(), cells):
            cells_by_row[j] = row_cells[: counts[j]]
    sigma = exps.real
    tails = 2 * sigma / (sigma - 1) * np.exp((1 - sigma) * np.log(xs + 1.0))
    return values, tails + engine._U * rounding + (counts + 1) * 2.0**-1000, cells_by_row


_DIRECT_ROWS = st.lists(
    st.tuples(
        st.floats(min_value=1.5, max_value=40.0),
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-60.0, max_value=60.0)),
        st.one_of(st.integers(0, 40), st.integers(0, 10**4)),  # X_j - P: narrow rows and up to 1,229 primes
        st.one_of(  # c_j, real or complex
            st.floats(min_value=-8.0, max_value=8.0).map(complex),
            st.builds(complex, st.floats(min_value=-8.0, max_value=8.0), st.floats(min_value=-8.0, max_value=8.0)),
        ),
    ),
    min_size=1,
    max_size=12,
)


@given(qa=st.sampled_from([(1, 1), (4, 3), (5, 2), (8, 5)]), p_min=st.sampled_from([2, 3, 7, 11]), rows=_DIRECT_ROWS)
@example(qa=(4, 3), p_min=2, rows=[(2.0, 0.0, 0, 1 + 0j)])  # no prime = 3 mod 4 in [2, 2]: a row of width 0
@example(
    qa=(1, 1), p_min=2,
    rows=[(3.0, 0.0, 9998, -2 + 0j), (2.5, -0.0, 3, 0.5j), (4.0, 1.5, 40, 1 - 3j), (6.0, 0.0, 0, 7 + 0j)],
)
@example(qa=(5, 2), p_min=3, rows=[(3.0, -0.0, 500, 1.5 - 0.5j), (2.0, 0.0, 20, -1 + 0j)])  # real rows only, one Im s = -0.0
@settings(max_examples=60, deadline=None)
def test_direct_sums_match_the_single_layout_formula(primes_1e6, qa, p_min, rows):
    # one weighted sum, rounded once: the fsum of every c_j * cell of the reference's
    # cells, within the weighted reference bounds
    q, a = qa
    exps = np.array([complex(sigma, t) for sigma, t, _, _ in rows])
    xs = np.array([p_min + dx for _, _, dx, _ in rows], dtype=np.int64)
    coeffs = np.array([c for *_, c in rows])
    value, bound = engine._direct_sums(exps, coeffs, xs, q, a, p_min, primes_1e6)
    _, ref_bounds, ref_cells = _direct_sums_single_layout(exps, xs, q, a, p_min, primes_1e6)
    # numpy's array product, as the engine forms it: it may fuse a multiply-add where Python's does not
    terms = np.repeat(coeffs, [len(cells) for cells in ref_cells]) * np.concatenate(ref_cells)
    assert value == complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
    assert bound <= float((np.abs(coeffs) * ref_bounds).sum()) * (1 + 1e-12)


def test_a_direct_row_with_no_prime_keeps_a_positive_bound(primes_1e6):
    # no prime in [100, 100] and a tail that underflows: the row's own |c| 2^-1000 remains
    value, bound = engine._direct_sums(
        np.array([1e307 + 0j]), np.array([3 - 4j]), np.array([100]), 1, 1, 100, primes_1e6
    )
    assert value == 0
    assert bound == 5 * 2.0**-1000


def test_small_prime_table_falls_back_to_y_p(ls6, monkeypatch):
    # with primes up to 100, every exponent whose cut X_j passes 100 goes to y_p
    from apeuler import LSeries, sieve

    spec = MultiTermSpec(
        terms=((0.9 + 0j, 1.0, 0.0), (0.6j, 2.0, -1.0), (-0.4 + 0j, 3.0, -1.0)),
        s=2 + 0j, q=5, a=2, p_min=7, depth=8,
    )
    calls = _count_y_p(monkeypatch)
    runs = []
    for ls in (LSeries(sieve(100)), ls6):
        calls.clear()
        multi = multi_term_product(spec, ls)
        demo = continuation_demo(2 + 0j, 60, ls, depth=10)
        runs.append((len(calls), (multi.log_value, multi.total_bound), (demo.value, demo.bound)))
    (small_calls, *small), (big_calls, *big) = runs
    assert small_calls > big_calls
    for (v_small, b_small), (v_big, b_big) in zip(small, big):
        assert abs(v_small - v_big) <= b_small + b_big


def test_y_p_count_table_built_once_per_modulus_and_depth(ls6, monkeypatch):
    from apeuler import characters

    character_group(7)._unsieve.clear()
    built = []
    real = characters.mobius
    monkeypatch.setattr(characters, "mobius", lambda n: built.append(n) or real(n))
    first = y_p(2 + 0j, 7, 3, 5, 9, ls6)
    assert built
    built.clear()
    # every residue and exponent at the same (q, L) reads the one table
    for a in range(1, 7):
        y_p(3 + 0j, 7, a, 5, 9, ls6)
    assert built == []
    assert list(character_group(7)._unsieve) == [9]
    assert y_p(2 + 0j, 7, 3, 5, 9, ls6) == first
    y_p(2 + 0j, 7, 3, 5, 8, ls6)
    assert built


@pytest.mark.parametrize(
    "ac,sigma,p_min,depth",
    [(1.0, 2.0, 7, 8), (1.0, 3.5, 2, 10), (1.0, 1.1, 2, 10), (2.5, 1.5, 7, 8)],
)
def test_kappa_tail_closed_form_covers_the_series(ac, sigma, p_min, depth):
    series = sum(
        ac**f * math.exp(_log_y_magnitude_majorant(f * sigma, p_min, depth))
        for f in range(depth + 1, depth + 400)
    )
    assert series <= _kappa_tail(ac, sigma, p_min, depth) <= 2 * series


@pytest.mark.parametrize("p_min", [2, 3, 5])
@pytest.mark.parametrize("sigma", [30.0, 60.0])
def test_y_magnitude_majorant_covers_the_prime_sum(primes_1e6, p_min, sigma):
    primes = primes_1e6.in_range(p_min, 1000)
    direct = sum(abs(math.log1p(-(float(p) ** -sigma))) for p in primes)
    assert math.exp(_log_y_magnitude_majorant(sigma, p_min, 10)) >= direct


@pytest.mark.parametrize("n_cut", [3, 4, 30, 60])
@pytest.mark.parametrize("sigma", [1.0001, 1.05, 1.5, 2.0, 3.0])
def test_demo_tail_majorant_is_the_whole_series(sigma, n_cut):
    # 4.5 sum_{m2 >= 1} x^(2 m2) x^max(1, N - 2 m2 + 1) / (1 - x), x = 2^(1-sigma),
    # summed until the terms fall below 2^-80 of the first
    t = 1 - sigma
    m2 = np.arange(1, math.ceil(80 / (2 * -t)) + n_cut)
    terms = 2.0 ** (t * (2 * m2 + np.maximum(1, n_cut - 2 * m2 + 1)))
    series = 4.5 * math.fsum(terms) / -math.expm1(t * math.log(2))
    assert _demo_tail_majorant(sigma, n_cut) == pytest.approx(series, rel=1e-13)


def test_continuation_demo_refuses_an_overflowing_bound(ls6):
    # at s = 1.05 the necklace tail majorant alone is about 1,305
    with pytest.raises(PrecisionUnreachableError):
        continuation_demo(1.05 + 0j, 30, ls6)


def test_kappa_tail_refuses_a_divergent_series():
    with pytest.raises(PrecisionUnreachableError):
        _kappa_tail(8.0, 1.5, 4, 8)


def _reference_necklace_plan(terms, s, indices, p_min, depth):
    """The per-index loop that the array compile of _necklace_plan replaced.

    Kept in scalar math: kappa once per distinct c_m, the kappa tail written
    out as (2 + L P / (f0 sigma - 1)) P^(-f0 sigma) ac^f0 / (1 - ac P^-sigma).
    """
    plan, fixed, kappas = {}, 0.0, {}
    for m in indices:
        mm = necklace_m(m)
        if mm == 0:
            continue
        c = 1 + 0j
        for (al, _, _), ml in zip(terms, m):
            c *= al**ml
        if c == 0:
            continue
        w = sum(ml * (u * s + v) for (_, u, v), ml in zip(terms, m))
        if c not in kappas:
            kappas[c] = [kappa(c, f) for f in range(1, depth + 1)]
        for f, kf in enumerate(kappas[c], 1):
            if kf != 0:
                plan[f * w] = plan.get(f * w, 0) + mm * kf / f
        ac, sigma, f0 = max(1.0, abs(c)), w.real, depth + 1
        fixed += abs(mm) * math.exp(
            math.log(2 + depth * p_min / (f0 * sigma - 1))
            - f0 * sigma * math.log(p_min)
            + f0 * math.log(ac)
            - math.log1p(-math.exp(math.log(ac) - sigma * math.log(p_min)))
        )
    return plan, fixed


def _demo_indices(n_max):
    return [(m1, m2) for m1 in range(1, n_max - 1) for m2 in range(1, (n_max - m1) // 2 + 1)]


def _demo_rows(n_max):
    # the rows of the (2, n_max) shape that continuation_demo keeps
    idx, mm = _necklace_shape(2, n_max)
    kept = (idx.min(axis=1) >= 1) & (idx @ (1, 2) <= n_max)
    return idx[kept], mm[kept]


def _multi_terms(k):
    # the phased coefficients and exponents u s + v of the benchmark's multi jobs
    coeffs = (cmath.rect(0.9, 0.7), cmath.rect(0.6, 2.9), cmath.rect(0.4, 4.4))
    return tuple(zip(coeffs, (1.0, 2.0, 3.0), (0.0, -1.0, -1.0)))[:k]


def _assert_same_plan(new, ref):
    (plan, fixed), (ref_plan, ref_fixed) = new, ref
    assert set(plan) == set(ref_plan)
    scale = max(abs(c) for c in ref_plan.values())
    assert max(abs(plan[e] - ref_plan[e]) for e in ref_plan) <= 4 * 2**-52 * scale
    assert fixed == pytest.approx(ref_fixed, rel=1e-13, abs=0)


@pytest.mark.parametrize("n_max", [30, 60])
@pytest.mark.parametrize("s", [2 + 0j, 1.5 + 2j])
def test_necklace_plan_matches_the_per_index_loop_demo(s, n_max):
    new = _necklace_plan(engine._DEMO_TERMS, s, *_demo_rows(n_max), 2, 10)
    _assert_same_plan(new, _reference_necklace_plan(engine._DEMO_TERMS, s, _demo_indices(n_max), 2, 10))


@pytest.mark.parametrize("k", [2, 3])
def test_necklace_plan_matches_the_per_index_loop_multi(ls6, k):
    new = _necklace_plan(_multi_terms(k), 2 + 0j, *_necklace_shape(k, 8), 7, 8)
    ref = _reference_necklace_plan(_multi_terms(k), 2 + 0j, list(multi_indices(k, 8)), 7, 8)
    _assert_same_plan(new, ref)
    a, b = (_execute(plan, fixed, 5, 2, 7, 8, ls6) for plan, fixed in (new, ref))
    assert abs(a.log_value - b.log_value) <= a.total_bound + b.total_bound


@pytest.mark.parametrize("s", [2 + 1e301j, 2 - 1e305j])
def test_necklace_plan_at_a_huge_im_s_merges_only_the_exponents_the_true_s_merges(s):
    # u s + v held term by term merged s + 2 with 2 s at s = 2 + 1e301 i, and their
    # coefficients cancelled; held once, s keeps the true plan's exponent partition
    terms = ((1 + 0j, 1.0, 2.0), (-1 + 0j, 2.0, 0.0))
    plan, _ = _necklace_plan(terms, s, *_necklace_shape(2, 8), 5, 8)
    ref, _ = _reference_necklace_plan(terms, s, list(multi_indices(2, 8)), 5, 8)
    assert all(cmath.isfinite(e) for e in plan)
    assert len(plan) == len(ref)
    assert sorted(map(abs, plan.values())) == pytest.approx(sorted(map(abs, ref.values())), rel=1e-15)


def test_necklace_plan_runs_kappa_once_per_f_and_m_once_per_index(monkeypatch):
    calls, exact = [], []
    monkeypatch.setattr(engine, "kappa", lambda c, f: calls.append(f) or kappa(c, f))
    monkeypatch.setattr(engine, "necklace_m", lambda m: exact.append(m) or necklace_m(m))
    monkeypatch.setattr(engine, "_NECKLACE_SHAPES", {})
    for s in (1.5 + 2j, 2 + 0j):
        calls.clear()
        _necklace_plan(engine._DEMO_TERMS, s, *_demo_rows(60), 2, 10)
        assert calls == list(range(1, 11))  # 20 per compile with kappa per distinct c_m
    # the shape is compiled once: one exact M(m) per index, none for the second plan
    assert exact == list(multi_indices(2, 60))
    idx, mm = engine._NECKLACE_SHAPES[2, 60]
    assert idx.tolist() == [list(m) for m in exact]
    assert mm.tolist() == [necklace_m(m) for m in exact]


def test_necklace_shape_cache_is_emptied_when_full(monkeypatch):
    monkeypatch.setattr(engine, "_NECKLACE_SHAPES", {})
    monkeypatch.setattr(engine, "_NECKLACE_ROWS_MAX", 10)
    _necklace_shape(2, 2)  # 5 rows
    _necklace_shape(1, 4)  # 4 rows
    assert list(engine._NECKLACE_SHAPES) == [(2, 2), (1, 4)]
    _necklace_shape(3, 1)  # 3 more would make 12
    assert list(engine._NECKLACE_SHAPES) == [(3, 1)]
    idx, mm = _necklace_shape(1, 12)  # 12 rows: compiled, not kept
    assert len(mm) == 12 and list(engine._NECKLACE_SHAPES) == [(3, 1)]
    assert not idx.flags.writeable and not mm.flags.writeable


def test_kappa_tail_takes_arrays():
    ac, sigma = np.array([1.0, 2.5, 1.0]), np.array([2.0, 1.5, 3.5])
    tails = _kappa_tail(ac, sigma, 7, 8)
    assert tails.tolist() == pytest.approx([_kappa_tail(x, y, 7, 8) for x, y in zip(ac, sigma)], rel=1e-14)
    with pytest.raises(PrecisionUnreachableError):
        _kappa_tail(np.array([1.0, 8.0]), np.array([2.0, 1.5]), 4, 8)


def test_plan_whose_rounding_floor_passes_its_bound_is_refused(ls6):
    # kappa_f(1000)/f reaches 1.7e178: the result used to be 1.01e16 +- 18.3, where
    # the product over 2000 <= p <= 10^6 has log -0.058
    spec = MultiTermSpec(terms=((1000 + 0j, 1.0, 0.0),), s=2 + 0j, p_min=2000, depth=60)
    with pytest.raises(PrecisionUnreachableError, match="rounding floor"):
        multi_term_product(spec, ls6)


def test_one_term_plan_below_the_unit_floor_still_evaluates(ls6):
    # bound 3.2e-17 < u: the one u of a plain y_p term is let through
    res = ap_product(APProductSpec(s=3 + 0j, q=4, a=3, p_min=50, depth=8), ls6)
    assert res.total_bound < engine._U
