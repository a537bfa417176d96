import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from apeuler import InvalidArgumentError, character_group, euler_phi
from apeuler import characters


def _table(grp):
    """The phi(q) x q angle table: entry [i, n] = k means chi_i(n) = exp(2 pi i k / lambda), -1 off the units."""
    return grp.angles(np.arange(len(grp)), np.arange(grp.modulus))


def _angle(chi, n):
    """chi(n) as a reduced fraction of a full turn, or None off the units."""
    k = int(chi.group.angles([chi.index], [n])[0, 0])
    return None if k < 0 else Fraction(k, chi.group.exponent)


def _trivial_on_units(chi):
    """chi is 1 at every unit: its angle is 0 wherever gcd(n, q) = 1."""
    q = chi.modulus
    units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
    return not chi.group.angles([chi.index], units).any()


def test_modulus_one():
    grp = character_group(1)
    assert len(grp) == 1
    chi = grp.characters[0]
    assert _trivial_on_units(chi)
    assert all(chi(n) == 1 for n in range(10))


def test_modulus_four():
    grp = character_group(4)
    assert len(grp) == 2
    assert _trivial_on_units(grp.characters[0])
    nonprincipal = [c for c in grp.characters if not _trivial_on_units(c)]
    assert len(nonprincipal) == 1
    assert nonprincipal[0](3) == pytest.approx(-1)
    assert nonprincipal[0](2) == 0


def test_modulus_five_order_four():
    grp = character_group(5)
    assert len(grp) == 4
    quartic = [c for c in grp.characters if c.order == 4]
    assert len(quartic) == 2
    for chi in quartic:
        assert _angle(chi, 2) in (Fraction(1, 4), Fraction(3, 4))  # chi(2) = +-i


def test_char_pow():
    grp = character_group(5)
    chi = next(c for c in grp.characters if c.order == 4)
    assert _trivial_on_units(chi**0)
    assert (chi**2).order == 2
    grp4 = character_group(4)
    chi4 = next(c for c in grp4.characters if not _trivial_on_units(c))
    assert _trivial_on_units(chi4**2)


@pytest.mark.parametrize("q", list(range(1, 31)))
def test_orthogonality_exact(q):
    grp = character_group(q)
    assert len(grp) == euler_phi(q)
    table = _table(grp)
    units = [n for n in range(q) if math.gcd(n, q) == 1] or [0]
    for a in units:
        for p in units:
            if (p - a) % q == 0:
                # every chibar(a) chi(p) must be exactly 1 (angle 0)
                assert not ((table[:, p] - table[:, a]) % grp.exponent).any()
            else:
                total = sum(chi(a).conjugate() * chi(p) for chi in grp.characters)
                assert abs(total) < 1e-9


@pytest.mark.parametrize("q", [1, 3, 4, 5, 8, 9, 12, 16, 24])
def test_complete_multiplicativity_exact(q):
    grp = character_group(q)
    table = _table(grp)
    units = [n for n in range(q) if math.gcd(n, q) == 1] or [0]
    for m in units:
        for n in units:
            want = (table[:, m] + table[:, n]) % grp.exponent
            assert np.array_equal(table[:, m * n % q], want)


@pytest.mark.parametrize("q", [1, 4, 5, 8, 15, 16])
def test_power_closure_and_order(q):
    grp = character_group(q)
    members = set(grp.characters)
    for chi in grp.characters:
        assert _trivial_on_units(chi**chi.order)
        for d in range(1, chi.order):
            if _trivial_on_units(chi**d):
                pytest.fail(f"order not minimal for a character mod {q}")
        for d in range(2 * chi.order + 1):
            assert chi**d in members


def test_zero_off_units():
    grp = character_group(12)
    for chi in grp.characters:
        for n in range(12):
            if math.gcd(n, 12) != 1:
                assert chi(n) == 0
            else:
                assert abs(abs(chi(n)) - 1) < 1e-15


def test_value_at_one():
    for q in (1, 2, 7, 8, 36):
        for chi in character_group(q).characters:
            assert chi(1) == 1


# every modulus the test suite, the benchmark and the CLI examples use
USED_MODULI = sorted(set(range(1, 37)) | {101, 210})


# the roots of unity a group holds exactly
QUARTER_TURNS = {
    Fraction(0): complex(1, 0), Fraction(1, 4): complex(0, 1),
    Fraction(1, 2): complex(-1, 0), Fraction(3, 4): complex(0, -1),
}


@pytest.mark.parametrize("q", USED_MODULI)
def test_values_match_exact_angles(q):
    grp = character_group(q)
    for k, root in enumerate(grp.roots.tolist()):
        a = Fraction(k, grp.exponent)
        expected = QUARTER_TURNS[a] if a in QUARTER_TURNS else cmath.exp(2j * cmath.pi * float(a))
        assert _bits(root) == _bits(expected)  # signed zeros too
    for chi in grp.characters:
        for n in range(q):
            a = _angle(chi, n)
            if a is None:
                expected = 0j
            elif a in QUARTER_TURNS:
                expected = QUARTER_TURNS[a]
            else:
                expected = cmath.exp(2j * cmath.pi * float(a))
            got = chi(n)
            assert got == expected
            assert _bits(got) == _bits(expected)


def _bits(z):
    return np.array([z], dtype=complex).view(np.int64).tolist()


@pytest.mark.parametrize("q", USED_MODULI)
def test_power_map_matches_integer_powers(q):
    grp = character_group(q)
    lam = grp.exponent
    table = _table(grp)
    units = table[0] >= 0
    for d in range(lam + 2):
        rows = grp.power_rows(d)
        assert np.array_equal(table[rows][:, units], d * table[:, units] % lam)
        for chi in grp.characters:
            assert (chi**d).index == rows[chi.index]
            assert chi**d is grp.characters[rows[chi.index]]


@pytest.mark.parametrize("q,orders", [(1, ()), (5, (4,)), (28, (2, 6)), (56, (2, 2, 6))])
def test_digits_number_rows_in_mixed_radix(q, orders):
    grp = character_group(q)
    assert grp.slot_orders == orders
    exps = grp.digits(np.arange(math.prod(orders)))
    assert exps.tolist() == [list(e) for e in itertools.product(*(range(o) for o in orders))]
    assert (exps @ characters._strides(orders)).tolist() == list(range(math.prod(orders)))


def test_unsieve_counts_form_one_power_row_at_a_time():
    # forming all lambda powers at once would take 8 lambda = 16 KB per row here, and
    # as much again for its temporary, and a dense phi x phi count matrix 16 KB per
    # row; built past the cache, so the group is freed
    grp = character_group.__wrapped__(2003)
    grp.roots
    tracemalloc.start()
    try:
        grp.unsieve_counts(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2048 * len(grp)


def test_a_cold_ap_product_holds_no_phi_q_by_q_array(primes_1e6, monkeypatch):
    # the group is built inside the trace, past the shared cache; a phi(q) x q
    # table and its complex values would take 96 MB here
    import functools

    from apeuler import APProductSpec, LSeries, ap_product, engine, lseries

    fresh = functools.lru_cache(maxsize=None)(character_group.__wrapped__)
    monkeypatch.setattr(engine, "character_group", fresh)
    monkeypatch.setattr(lseries, "character_group", fresh)
    q = 2003
    tracemalloc.start()
    try:
        ap_product(APProductSpec(s=2 + 0j, q=q, a=2), LSeries(primes_1e6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fresh.cache_info().currsize == 1
    assert peak < 32 << 20
    grp = fresh(q)
    held = [v for v in vars(grp).values() if isinstance(v, np.ndarray)]
    assert held and all(v.size <= q for v in held)


def test_table_cap_admits_phi_q_times_q_up_to_it(monkeypatch):
    build = character_group.__wrapped__  # past the cache, so the check runs
    monkeypatch.setattr(characters, "TABLE_MAX", 100 * 101)
    assert len(build(101)) == 100
    assert len(build(210)) == 48
    with pytest.raises(InvalidArgumentError, match="largest supported, 10100"):
        build(103)
