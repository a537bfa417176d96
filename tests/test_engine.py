import cmath
import math

import numpy as np
import pytest

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
from apeuler import PrecisionUnreachableError, character_group, engine, witt
from apeuler.engine import (
    _demo_tail_majorant,
    _execute,
    _kappa_tail,
    _log_y_magnitude_majorant,
    _necklace_plan,
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
    lo, hi = res.value_interval
    assert lo <= 6 / math.pi**2 <= hi


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
    plan, fixed = _necklace_plan(((-1 + 0j, 1.0, 0.0),), s, [(1,)], 2, 10)
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


def test_y_p_weight_table_built_once_per_residue_and_depth(ls6, monkeypatch):
    from apeuler import characters

    character_group(7)._unsieve.clear()
    built = []
    real = characters.mobius
    monkeypatch.setattr(characters, "mobius", lambda n: built.append(n) or real(n))
    first = y_p(2 + 0j, 7, 3, 5, 9, ls6)
    assert built
    built.clear()
    y_p(3 + 0j, 7, 3, 5, 9, ls6)
    assert built == []
    assert y_p(2 + 0j, 7, 3, 5, 9, ls6) == first


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
    args = (engine._DEMO_TERMS, s, _demo_indices(n_max), 2, 10)
    _assert_same_plan(_necklace_plan(*args), _reference_necklace_plan(*args))


@pytest.mark.parametrize("k", [2, 3])
def test_necklace_plan_matches_the_per_index_loop_multi(ls6, k):
    args = (_multi_terms(k), 2 + 0j, list(multi_indices(k, 8)), 7, 8)
    new, ref = _necklace_plan(*args), _reference_necklace_plan(*args)
    _assert_same_plan(new, ref)
    a, b = (_execute(plan, fixed, 5, 2, 7, 8, ls6) for plan, fixed in (new, ref))
    assert abs(a.log_value - b.log_value) <= a.total_bound + b.total_bound


def test_necklace_plan_runs_kappa_once_per_f_and_m_once_per_index(monkeypatch):
    calls, exact = [], []
    monkeypatch.setattr(engine, "kappa", lambda c, f: calls.append(f) or kappa(c, f))
    body = witt._necklace_m
    monkeypatch.setattr(witt, "_necklace_m", lambda m: exact.append(m) or body(m))
    monkeypatch.setattr(witt, "_NECKLACE_MEMO", {})
    indices = _demo_indices(60)
    for _ in range(2):
        calls.clear()
        _necklace_plan(engine._DEMO_TERMS, 1.5 + 2j, iter(indices), 2, 10)
        assert calls == list(range(1, 11))  # 20 per compile with kappa per distinct c_m
    # the per-index loop ran the exact M(m) sum 2 * 870 times
    assert sorted(exact) == sorted(set(indices)) and len(exact) == 870


def test_kappa_tail_takes_arrays():
    ac, sigma = np.array([1.0, 2.5, 1.0]), np.array([2.0, 1.5, 3.5])
    tails = _kappa_tail(ac, sigma, 7, 8)
    assert tails.tolist() == pytest.approx([_kappa_tail(x, y, 7, 8) for x, y in zip(ac, sigma)], rel=1e-14)
    with pytest.raises(PrecisionUnreachableError):
        _kappa_tail(np.array([1.0, 8.0]), np.array([2.0, 1.5]), 4, 8)
