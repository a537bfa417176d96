import cmath
import math

import numpy as np
import pytest

from apeuler import (
    EvalParams,
    InvalidArgumentError,
    OutOfDomainError,
    ValueWithBound,
    character_group,
    dirichlet_l,
    hurwitz_zeta,
)
from apeuler.lseries import _choose_em, _hurwitz_em

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


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
def test_eval_params_refuse_a_target_that_is_not_positive_and_finite(eps):
    with pytest.raises(InvalidArgumentError):
        EvalParams(target_eps=eps)


def test_bound_honesty_doubled_parameters():
    for s in GRID_S:
        for x in (1.0, 0.5, 0.25):
            params = EvalParams()
            n, m = _choose_em(s, x, params)
            (base,), (base_bound,) = _hurwitz_em(s, np.array([x]), n, m)
            (refined,), _ = _hurwitz_em(s, np.array([x]), 2 * n, min(m + 4, 60))
            assert abs(base - refined) <= base_bound + 1e-13


def test_dirichlet_l_mod_one_is_zeta():
    chi = character_group(1).principal
    z = dirichlet_l(2, chi)
    assert abs(z.value - math.pi**2 / 6) <= z.bound + 1e-13


def test_dirichlet_l_catalan():
    # oracle: alternating series 1 - 1/9 + 1/25 - ..., tail below the next term
    n = np.arange(2 * 10**6)
    partial = float(np.sum((-1.0) ** n * (2 * n + 1) ** -2.0))
    tail = (2 * len(n) + 1.0) ** -2.0
    chi = next(c for c in character_group(4).characters if not c.is_principal)
    val = dirichlet_l(2, chi)
    assert abs(val.value - partial) <= val.bound + tail + 1e-12


def test_dirichlet_l_principal_mod_two():
    chi = character_group(2).principal
    val = dirichlet_l(3, chi)
    z3 = hurwitz_zeta(3, 1.0)
    assert abs(val.value - (1 - 2**-3) * z3.value) <= val.bound + z3.bound + 1e-13


def test_zeta_p_basic(ls6):
    z = ls6.zeta_p(2, 2)
    assert abs(z.value - math.pi**2 / 6) <= z.bound + 1e-13
    z3 = ls6.zeta_p(2, 3)
    assert abs(z3.value - math.pi**2 / 8) <= z3.bound + 1e-13


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
    chi = character_group(1).principal
    lt = ls6.log_truncated_l(2 + 0j, chi, 2)
    assert abs(lt.value - math.log(math.pi**2 / 6)) <= lt.bound + 1e-13


def test_log_truncated_l_far_truncation_small(ls6):
    chi = character_group(1).principal
    lt = ls6.log_truncated_l(2 + 0j, chi, 10**4)
    assert abs(lt.value) < 1e-4  # roughly sum p^{-2} beyond 10^4


@pytest.mark.parametrize("s", [1.001 + 0j, 1.001 + 5j])
def test_log_truncated_l_refuses_a_threshold_past_the_table(ls6, s):
    # the branch threshold P0 is about e^6900 here, beyond a double
    chi = character_group(4).characters[1]
    with pytest.raises(InvalidArgumentError, match="prime table limit"):
        ls6.log_truncated_l(s, chi, 2)


def test_log_truncated_l_double_sum_oracle(ls6):
    chi = next(c for c in character_group(4).characters if not c.is_principal)
    ps = ls6.primes.in_range(5, 10**6)
    direct = 0j
    residues = np.ones_like(ps)  # p^k mod 4, stepped in k
    for k in range(1, 41):
        residues = residues * (ps % 4) % 4
        direct += np.sum(chi.values[residues] * ps.astype(float) ** (-2.0 * k)) / k
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


@pytest.mark.parametrize("p_min", [2, 10, 100])
@pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
def test_zeta_p_tail_inequality(ls6, sigma, p_min):
    # log of the truncated zeta product is bounded by an integral tail estimate:
    # sum_{p >= P} -log(1 - p^-sigma) <= 2 sum_{n >= P} n^-sigma
    zp = ls6.zeta_p(sigma, p_min)
    lhs = math.log(zp.value.real - zp.bound)
    assert lhs <= 2.0 * (p_min - 1) ** (1 - sigma) / (sigma - 1) + 1e-12


def test_hurwitz_kernel_runs_once_per_exponent(primes_1e6, monkeypatch):
    from apeuler import APProductSpec, LSeries, ap_product
    from apeuler import lseries

    calls = []
    kernel = lseries._hurwitz_vector

    def counting(s, xs, params):
        calls.append(complex(s))
        return kernel(s, xs, params)

    monkeypatch.setattr(lseries, "_hurwitz_vector", counting)
    ls = LSeries(primes_1e6)
    # residue 2 generates (Z/101Z)* and leaves a nonzero weight at every
    # depth; residue 1 skips the depths whose weights all cancel
    spec = APProductSpec(s=2 + 0j, q=101, a=2, p_min=2, depth=10)
    ap_product(spec, ls)
    exponents = [ell * spec.s for ell in range(1, spec.depth + 1)]
    assert sorted(calls, key=abs) == exponents  # once per distinct exponent
    calls.clear()
    for a in (1, 3, 100):
        ap_product(APProductSpec(s=2 + 0j, q=101, a=a, p_min=2, depth=10), ls)
    assert calls == []


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
