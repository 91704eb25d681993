import math
import random
import tracemalloc

import pytest
from oracles import series_product

from modp.charclass import (
    bmu_p_presentation,
    bo_presentation,
    bso_presentation,
    bz2_presentation,
)
from modp.groupdata import (
    _MINIMUM_RANK,
    MATRIX_FAMILIES,
    SIMPLE_FAMILIES,
    WEYL_MAX_ORDER,
    GroupSpec,
    flag_poincare,
    fundamental_degrees,
    good_primes_excluded,
    isotropic_grassmannian_poincare,
    torsion_primes,
    weyl_elements,
    weyl_length_series,
    Series,
)
from modp.quillen import quillen_presentation


def test_degree_table():
    assert fundamental_degrees(GroupSpec("B", 3)) == [2, 4, 6]
    assert fundamental_degrees(GroupSpec("E8", 8)) == [2, 8, 12, 14, 18, 20, 24, 30]
    assert fundamental_degrees(GroupSpec("A", 1)) == [2]
    assert fundamental_degrees(GroupSpec("D", 4)) == [2, 4, 4, 6]
    assert fundamental_degrees(GroupSpec("GL", 4)) == [1, 2, 3, 4]


def test_low_rank_aliases_follow_the_root_system():
    # SO(2) is a torus (D_1), SO(4) has D_2 = A_1 x A_1, SO(6) has D_3 = A_3
    assert [fundamental_degrees(GroupSpec("SO", n)) for n in (2, 4, 6)] == \
        [[1], [2, 2], [2, 3, 4]]
    assert fundamental_degrees(GroupSpec("O", 1)) == []
    assert fundamental_degrees(GroupSpec("GL", 4)) == [1, 2, 3, 4]
    assert good_primes_excluded(GroupSpec("SO", 2)) == {2}


def test_bc_degrees_agree():
    for r in range(1, 6):
        assert fundamental_degrees(GroupSpec("SO", 2 * r + 1)) == \
            fundamental_degrees(GroupSpec("Sp", 2 * r))


def test_degree_product_is_weyl_order():
    for g in (GroupSpec("A", 3), GroupSpec("B", 3), GroupSpec("C", 4), GroupSpec("D", 4)):
        assert math.prod(fundamental_degrees(g)) == len(weyl_elements(g))


def test_bad_primes():
    assert good_primes_excluded(GroupSpec("A", 5)) == frozenset()
    assert good_primes_excluded(GroupSpec("G2", 2)) == {2, 3}
    assert good_primes_excluded(GroupSpec("E8", 8)) == {2, 3, 5}
    assert good_primes_excluded(GroupSpec("Sp", 6)) == {2}


def test_torsion_primes():
    assert torsion_primes(GroupSpec("Sp", 8)) == frozenset()
    assert torsion_primes(GroupSpec("G2", 2)) == {2}
    assert torsion_primes(GroupSpec("Spin", 11)) == {2}
    assert torsion_primes(GroupSpec("Spin", 6)) == frozenset()
    assert torsion_primes(GroupSpec("B", 2)) == frozenset()
    assert torsion_primes(GroupSpec("D", 3)) == frozenset()
    # H^2(BO(n); Z) holds beta(w_1) != 0 for every n >= 1; BSO(2) = CP^infinity
    assert [torsion_primes(GroupSpec("O", n)) for n in (1, 2, 3)] == [{2}] * 3
    assert torsion_primes(GroupSpec("SO", 2)) == frozenset()


@pytest.mark.parametrize("family, rank, bad, torsion", [
    ("B", 2, {2}, set()), ("B", 3, {2}, {2}),
    ("D", 3, {2}, set()), ("D", 4, {2}, {2}),
    ("Spin", 6, {2}, set()), ("Spin", 7, {2}, {2}),
    ("SO", 2, {2}, set()), ("SO", 3, {2}, {2}),
    ("O", 1, {2}, {2}), ("Sp", 2, {2}, set()), ("GL", 1, set(), set()),
    ("G2", 2, {2, 3}, {2}), ("F4", 4, {2, 3}, {2, 3}), ("E6", 6, {2, 3}, {2, 3}),
    ("E7", 7, {2, 3}, {2, 3}), ("E8", 8, {2, 3, 5}, {2, 3, 5}),
])
def test_prime_tables_at_boundary_ranks(family, rank, bad, torsion):
    g = GroupSpec(family, rank)
    assert good_primes_excluded(g) == frozenset(bad)
    assert torsion_primes(g) == frozenset(torsion)
    assert isinstance(good_primes_excluded(g), frozenset)
    assert isinstance(torsion_primes(g), frozenset)


def test_torsion_subset_of_bad():
    catalog = [GroupSpec("A", r) for r in range(1, 6)]
    catalog += [GroupSpec(f, r) for f in "BC" for r in range(1, 6)]
    catalog += [GroupSpec("D", r) for r in range(3, 7)]
    catalog += [GroupSpec(f, r) for f, r in
                (("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8))]
    catalog += [GroupSpec("Spin", n) for n in range(3, 13)]
    catalog += [GroupSpec("SO", n) for n in range(2, 13)]
    catalog += [GroupSpec("Sp", 2 * n) for n in range(1, 6)]
    catalog += [GroupSpec("GL", n) for n in range(1, 6)]
    for g in catalog:
        assert torsion_primes(g) <= good_primes_excluded(g), str(g)


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec("D", 2)
    with pytest.raises(ValueError):
        GroupSpec("Spin", 2)
    with pytest.raises(ValueError):
        GroupSpec("X", 3)
    with pytest.raises(ValueError):
        GroupSpec("G2", 3)


def test_weyl_elements_counts():
    assert len(weyl_elements(GroupSpec("B", 2))) == 8
    assert len(weyl_elements(GroupSpec("D", 3))) == 24
    assert len(weyl_elements(GroupSpec("A", 2))) == 6
    with pytest.raises(ValueError, match="invariants"):
        weyl_elements(GroupSpec("B", 6))


def test_flag_poincare_b2():
    series = flag_poincare(GroupSpec("B", 2))
    assert series.as_polynomial() == [1, 2, 2, 2, 1]
    assert series.value_at_one() == 8


def test_flag_poincare_a1_and_g2():
    assert flag_poincare(GroupSpec("A", 1)).as_polynomial() == [1, 1]
    assert flag_poincare(GroupSpec("G2", 2)).value_at_one() == 12


def test_flag_poincare_palindromic_and_order():
    for g in (GroupSpec("A", 3), GroupSpec("B", 3), GroupSpec("C", 3),
              GroupSpec("D", 4), GroupSpec("G2", 2), GroupSpec("F4", 4)):
        series = flag_poincare(g)
        c = series.as_polynomial()
        assert c == c[::-1], str(g)
        assert series.value_at_one() == math.prod(fundamental_degrees(g))


def test_bfs_lengths_match_flag_poincare():
    for g in (GroupSpec("A", 2), GroupSpec("B", 2), GroupSpec("B", 3),
              GroupSpec("C", 3), GroupSpec("D", 4), GroupSpec("G2", 2),
              GroupSpec("F4", 4), GroupSpec("A", 4), GroupSpec("A", 5),
              GroupSpec("B", 5), GroupSpec("C", 5), GroupSpec("D", 5),
              GroupSpec("D", 6), GroupSpec("A", 6), GroupSpec("SO", 11),
              GroupSpec("Sp", 10), GroupSpec("GL", 6), GroupSpec("Spin", 10),
              # D1 (a torus) and D2 = A1 x A1
              GroupSpec("SO", 2), GroupSpec("SO", 4), GroupSpec("O", 2),
              GroupSpec("O", 4), GroupSpec("Spin", 4),
              # at the order bound (C6, 46,080) and just under it (A7, 40,320)
              GroupSpec("C", 6), GroupSpec("A", 7)):
        assert weyl_length_series(g) == flag_poincare(g).as_polynomial(), str(g)


def test_bfs_guard_trips_before_any_enumeration(monkeypatch):
    import modp.groupdata

    def never(*args):
        raise AssertionError("Cartan matrix built before the order guard")

    monkeypatch.setattr(modp.groupdata, "cartan_matrix", never)
    assert [str(GroupSpec(f, r)) for f, r in (("E6", 6), ("G2", 2), ("B", 7))] == \
        ["E6", "G2", "B7"]
    for g, order in [(GroupSpec("B", 7), 645_120), (GroupSpec("A", 8), 362_880),
                     (GroupSpec("E6", 6), 51_840), (GroupSpec("E7", 7), 2_903_040),
                     (GroupSpec("E8", 8), 696_729_600)]:
        with pytest.raises(ValueError, match=f"order of {g} <= 46080, got {order}$"):
            weyl_length_series(g)


def _classical_groups_under_the_order_bound():
    for family in "ABCD":
        rank = _MINIMUM_RANK[family]
        while math.prod(fundamental_degrees(GroupSpec(family, rank))) <= WEYL_MAX_ORDER:
            yield GroupSpec(family, rank)
            rank += 1


@pytest.mark.parametrize("g", list(_classical_groups_under_the_order_bound()), ids=str)
def test_walk_matches_flag_poincare_at_every_classical_rank_under_the_bound(g):
    assert weyl_length_series(g) == flag_poincare(g).as_polynomial()


def test_walk_holds_two_lengths_not_all_of_w():
    # B6 sits at the order bound, where a set of all 46,080 w(rho) would
    # take over 6 MB
    tracemalloc.start()
    try:
        weyl_length_series(GroupSpec("B", 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_isotropic_grassmannian():
    s7 = isotropic_grassmannian_poincare(7)
    assert s7.as_polynomial() == [1, 1, 1, 2, 1, 1, 1]
    assert isotropic_grassmannian_poincare(2).as_polynomial() == [1]
    assert isotropic_grassmannian_poincare(11).value_at_one() == 32


def test_series_arithmetic():
    s = Series([1], (2, 3))
    assert s.coefficients(6) == [1, 0, 1, 1, 1, 1, 2]
    prod = series_product(s, Series([1, -1]))
    # (1-q)/((1-q^2)(1-q^3)) = 1/((1+q)(1-q^3))
    assert prod.coefficients(6) == [1, -1, 1, 0, 0, 0, 1]
    assert Series([1, 0, -1], (1,)).as_polynomial() == [1, 1]
    with pytest.raises(ValueError):
        Series([1, 2, 1], (1,)).as_polynomial()


def test_flag_series_degeneration_consistency():
    # series(BG) * series(G/B) = series(BT) = 1/(1-q)^rank at non-torsion primes
    for g in (GroupSpec("A", 3), GroupSpec("B", 3), GroupSpec("C", 4),
              GroupSpec("D", 4), GroupSpec("G2", 2)):
        degrees = fundamental_degrees(g)
        bg = Series([1], tuple(degrees))
        bt = Series([1], (1,) * len(degrees))
        lhs = series_product(bg, flag_poincare(g)).coefficients(16)
        assert lhs == bt.coefficients(16), str(g)


def test_series_multiply_commutes_with_truncation():
    a = Series([1, 1], (2, 5))
    b = Series([1, 0, -1, 3], (3,))
    n = 12
    product = series_product(a, b).coefficients(n)
    ca, cb = a.coefficients(n), b.coefficients(n)
    direct = [sum(ca[i] * cb[k - i] for i in range(k + 1)) for k in range(n + 1)]
    assert product == direct


def _dense_product(num, factors):
    """num(q) * prod (1 + c*q^d) over the (d, c) in factors, by dense
    convolution with the full coefficient list of each factor: the oracle
    for the sparse binomial steps that build every numerator."""
    num = list(num)
    for d, c in factors:
        factor = [1] + [0] * (d - 1) + [c]
        out = [0] * (len(num) + d)
        for i, x in enumerate(num):
            for j, y in enumerate(factor):
                out[i + j] += x * y
        num = out
    return num


def test_flag_and_grassmannian_numerators_match_dense_oracle():
    for family in SIMPLE_FAMILIES + MATRIX_FAMILIES:
        for rank in range(1, 9):
            try:
                g = GroupSpec(family, rank)
                degrees = fundamental_degrees(g)
            except ValueError:
                continue  # not in the catalog, or O(1) with its empty root system
            series = flag_poincare(g)
            assert series.numerator == tuple(_dense_product([1], [(d, -1) for d in degrees]))
            assert series.denominator == (1,) * len(degrees)
    for n in range(2, 20):
        s = (n - 1) // 2
        assert isotropic_grassmannian_poincare(n).numerator == \
            tuple(_dense_product([1], [(i, 1) for i in range(1, s + 1)]))


def test_presentation_numerators_match_dense_oracle():
    presentations = [bso_presentation(n) for n in range(2, 12)]
    presentations += [bo_presentation(n) for n in range(1, 12)]
    presentations += [bmu_p_presentation(), bz2_presentation()]
    presentations += [quillen_presentation(n) for n in range(6, 18)]
    for pres in presentations:
        factors = [(rel.degree(), -1) for rel in pres.relations]
        factors += [(2 * g.degree, -1) for g in pres.generators if g.square_zero]
        series = pres.series()
        assert series.numerator == tuple(_dense_product([1], factors))
        assert series.denominator == tuple(sorted(g.degree for g in pres.generators))


def test_as_polynomial_recovers_random_exact_quotients():
    rng = random.Random(12)
    for _ in range(300):
        p = [rng.randint(-4, 4) for _ in range(rng.randint(0, 10))]
        p += [rng.choice((-3, -1, 2))]
        p[rng.randrange(len(p))] = -rng.randint(1, 4)
        dens = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
        num = _dense_product(p, [(d, -1) for d in dens])
        assert Series(num, dens).as_polynomial() == p
        assert Series(num + [0, 0], dens).as_polynomial() == p
        k = rng.randrange(len(num))
        bumped = num[:k] + [num[k] + 1] + num[k + 1:]
        with pytest.raises(ValueError):
            Series(bumped, dens).as_polynomial()
        with pytest.raises(ValueError):
            Series(num[:sum(dens)], dens).as_polynomial()


def test_o1_has_an_empty_root_system():
    g = GroupSpec("O", 1)
    assert fundamental_degrees(g) == []
    assert flag_poincare(g).as_polynomial() == [1]
    assert weyl_length_series(g) == [1]
    assert torsion_primes(g) == {2}
    assert [fundamental_degrees(GroupSpec(f, 3)) for f in ("O", "SO", "Spin")] == [[2]] * 3
