import random
import time

import pytest

from modp.exactalg import SubstHom, sum_of_products
from modp.quillen import (
    SWRing,
    binom_mod2,
    h_value,
    quillen_dim,
    quillen_presentation,
    spin11_compare,
    spin11_explicit_presentation,
    spin11_lower_bound_ring,
    theta_sequence,
)


def test_binom_mod2():
    assert binom_mod2(-1, 0) == 1
    assert binom_mod2(4, 2) == 0
    assert binom_mod2(5, 2) == 0
    assert binom_mod2(3, 1) == 1
    rows = [[binom_mod2(m, k) for k in range(m + 1)] for m in range(8)]
    # Pascal mod 2
    for m in range(1, 8):
        for k in range(1, m):
            assert rows[m][k] == (rows[m - 1][k - 1] + rows[m - 1][k]) % 2


def test_wu_formula_small_cases():
    sw = SWRing(9, so=False)
    assert sw.sq(1, sw.w(2)) == sw.w(3) + sw.w(1) * sw.w(2)
    assert sw.sq(0, sw.w(5)) == sw.w(5)
    assert sw.sq(2, sw.w(3)) == sw.w(5) + sw.w(1) * sw.w(4) + sw.w(2) * sw.w(3)


def test_unstable_axioms():
    sw = SWRing(8, so=False)
    rng = random.Random(3)
    for _ in range(25):
        d = rng.randrange(2, 9)
        terms = {}
        for mono in sw.ring.monomials_of_degree(d):
            if rng.random() < 0.4:
                terms[sw.ring.exponents(mono)] = 1
        f = sw.ring.from_terms(terms)
        if f.is_zero():
            continue
        assert sw.sq(0, f) == f
        assert sw.sq(d, f) == f * f
        assert sw.sq(d + 1, f).is_zero()
        assert sw.sq(d + 3, f).is_zero()


def test_cartan_formula_randomized():
    sw = SWRing(7, so=False)
    rng = random.Random(5)
    for _ in range(15):
        da, db = rng.randrange(1, 5), rng.randrange(1, 5)
        fa = sw.ring.from_terms({sw.ring.exponents(m): 1 for m in sw.ring.monomials_of_degree(da)
                                 if rng.random() < 0.5})
        fb = sw.ring.from_terms({sw.ring.exponents(m): 1 for m in sw.ring.monomials_of_degree(db)
                                 if rng.random() < 0.5})
        if fa.is_zero() or fb.is_zero():
            continue
        for i in range(0, da + db + 1):
            total = sw.ring.zero()
            for a in range(i + 1):
                total = total + sw.sq(a, fa) * sw.sq(i - a, fb)
            assert sw.sq(i, fa * fb) == total, (i, da, db)


def total_square_oracle(sw):
    """Sq^i by the total square: the ring endomorphism w_j -> sum_k Sq^k w_j
    (Wu's formula on each generator), then the component of degree
    deg f + i of the image."""
    ring = sw.ring
    square = SubstHom(ring, ring, {
        name: sum_of_products(ring, [(sw.sq_on_generator(k, j),) for k in range(j + 1)])
        for name, j in zip(ring.names, ring.weights)})

    def sq(i, f):
        d = f.degree() + i
        return ring.from_terms({e: c for e, c in square(f).terms.items()
                                if sum(a * w for a, w in zip(e, ring.weights)) == d})
    return sq


@pytest.mark.parametrize("n", range(6, 17))
def test_thetas_match_the_total_square_oracle(n):
    sw = SWRing(n, so=True)
    sq = total_square_oracle(sw)
    expected = [sw.w(2)]
    for i in range(h_value(n) - 1):
        expected.append(sq(1 << i, expected[-1]))
    assert theta_sequence(n) == expected


@pytest.mark.parametrize("so", [True, False])
def test_sq_matches_the_total_square_oracle(so):
    sw = SWRing(9, so=so)
    sq = total_square_oracle(sw)
    rng = random.Random(11)
    for _ in range(20):
        d = rng.randrange(13)
        f = sw.ring.from_terms({sw.ring.exponents(m): 1 for m in sw.ring.monomials_of_degree(d)
                                if rng.random() < 0.5})
        for i in range(d + 2):
            assert sw.sq(i, f) == sq(i, f), (so, d, i)


def test_sq_rejects_a_polynomial_of_another_ring():
    from modp.exactalg import RingMismatchError

    with pytest.raises(RingMismatchError):
        SWRing(9, so=True).sq(1, SWRing(9, so=False).w(2))


def test_spin17_thetas_and_dimensions():
    thetas = theta_sequence(17)
    assert [t.degree() for t in thetas] == [2, 3, 5, 9, 17, 33, 65, 129]
    assert len(thetas[-1].coeffs) == 17541
    # each degree is checked against the series inside quillen_dim
    assert [quillen_dim(17, d) for d in (0, 2, 8, 32, 66, 80)] == [1, 0, 2, 66, 2126, 6463]


@pytest.mark.parametrize("n", [18, 10**6])
def test_quillen_refuses_n_above_17_before_any_square(n, capsys, tmp_path, monkeypatch):
    import modp.quillen
    from modp.cli import main

    def never(*args, **kwargs):
        raise AssertionError("SWRing built above the bound")

    monkeypatch.setattr(modp.quillen, "SWRing", never)
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    start = time.perf_counter()
    assert main(["quillen", "--n", str(n), "--dims", "0..4"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"modp: error: need n <= 17, got {n}\n"


@pytest.mark.parametrize("n", [18, 10**6])
def test_theta_sequence_refuses_n_above_17_before_any_square(n, monkeypatch):
    import modp.quillen

    def never(*args, **kwargs):
        raise AssertionError("SWRing built above the bound")

    monkeypatch.setattr(modp.quillen, "SWRing", never)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="need n <= 17"):
        theta_sequence(n)
    assert time.perf_counter() - start < 1


def test_sq_rejects_inhomogeneous():
    sw = SWRing(5)
    with pytest.raises(ValueError, match="homogeneous"):
        sw.sq(1, sw.w(2) + sw.w(3))


def test_h_table():
    assert h_value(11) == 6
    assert h_value(10) == 5
    assert h_value(16) == 7
    assert h_value(9) == 4
    assert h_value(3) == 2


def test_theta_sequence():
    thetas = theta_sequence(11)
    assert len(thetas) == 6
    assert [t.degree() for t in thetas] == [2, 3, 5, 9, 17, 33]
    sw = SWRing(11, so=True)
    assert thetas[1] == sw.w(3)  # Sq^1 w_2 with w_1 = 0
    assert thetas[2] == sw.w(5) + sw.w(2) * sw.w(3)
    assert theta_sequence(12)[4].degree() == 17


def test_quillen_presentation_degrees():
    qp = quillen_presentation(11)
    assert qp.generator("z").degree == 64
    assert sorted(qp.series().denominator) == sorted(list(range(2, 12)) + [64])
    qp10 = quillen_presentation(10)
    assert qp10.generator("z").degree == 32


def test_quillen_dims():
    assert quillen_dim(11, 0) == 1
    assert quillen_dim(11, 2) == 0  # w_2 is killed by theta_0
    assert quillen_dim(11, 32) == 26


def test_dim_degree_over_the_guard_never_walks(monkeypatch):
    from modp.exactalg import PolyRing

    def never(self, d):
        raise AssertionError(f"basis of degree {d} walked before the monomial guard")

    monkeypatch.setattr(PolyRing, "_enumerate", never)
    with pytest.raises(ValueError, match=r"^degree 282 needs 205620 monomials \(> guard 2"):
        quillen_dim(11, 282)
    with pytest.raises(ValueError, match="degree 400 needs 763628 monomials"):
        spin11_lower_bound_ring().dim_degree(400)


def test_quillen_dim_guards_before_the_series():
    quillen_presentation(11).minimal()  # built once, whatever the degree
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^degree 10000000 needs an exponent above 127$"):
        quillen_dim(11, 10 ** 7)
    assert time.perf_counter() - start < 0.1
    assert quillen_dim(11, -1) == 0


def test_quillen_regularity_to_34():
    for n in (10, 11):
        for d in range(35):
            quillen_dim(n, d)  # raises on series / linear-algebra mismatch


def test_regularity_check_fails_on_a_non_regular_sequence(monkeypatch, capsys, tmp_path):
    import modp.quillen
    from modp.charclass import GradedPresentation
    from modp.cli import main

    good = quillen_presentation(11)
    w2, w7 = good.ring.var("w2"), good.ring.var("w7")
    # same degree as theta_3, so the series is unchanged, but a multiple of theta_0
    relations = good.relations[:3] + (w2 * w7,) + good.relations[4:]
    broken = GradedPresentation(good.generators, relations)
    monkeypatch.setattr(modp.quillen, "quillen_presentation", lambda n: broken)
    monkeypatch.setenv("MODP_CACHE_DIR", str(tmp_path))
    with pytest.raises(RuntimeError) as err:
        quillen_dim(11, 9)
    assert str(err.value) == ("regularity check failed for n=11, d=9: "
                              "series 0 != linear algebra 1")
    assert main(["quillen", "--n", "11", "--dims", "9", "--no-cache"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("modp: quillen failed: regularity check failed for "
                            "n=11, d=9: series 0 != linear algebra 1\n")


@pytest.mark.parametrize("n", [9, 10, 11, 12, 13, 14, 16])
def test_minimal_presentation_matches_the_series_to_90(n):
    pres = quillen_presentation(n)
    series = pres.series().coefficients(90)
    small = pres.minimal()
    assert small is pres.minimal()  # memoised
    for d in range(91):
        assert small.dim_degree(d) == series[d], (n, d)


def test_minimal_presentation_matches_the_explicit_spin11_to_120():
    small = quillen_presentation(11).minimal()
    explicit = spin11_explicit_presentation()
    for d in range(121):
        assert small.dim_degree(d) == explicit.dim_degree(d), d


def test_minimal_presentation_shape_for_spin11():
    small = quillen_presentation(11).minimal()
    assert " ".join(g.name for g in small.generators) == "w4 w6 w7 w8 w10 w11 z"
    assert [r.degree() for r in small.relations] == [17, 33]
    assert str(small.relations[0]) == str(spin11_explicit_presentation().relations[0])


def test_presentation_is_fixed_at_construction():
    from modp.charclass import Generator, GradedPresentation
    from modp.exactalg import PolyRing

    # k[a,b,c]/(a+b): the memoised minimal() answers for these relations,
    # so they cannot be appended to
    outside = PolyRing(["a", "b", "c"]).poly("a + b")
    pres = GradedPresentation([Generator(n, 1) for n in "abc"], [outside])
    small = pres.minimal()
    assert pres.relations[0].ring is pres.ring
    assert isinstance(pres.generators, tuple)
    with pytest.raises(AttributeError):
        pres.relations.append(pres.ring.poly("b + c"))
    assert small.dim_degree(1) == pres.dim_degree(1) == pres.series().coefficient(1) == 2


def test_minimal_presentation_keeps_square_zero_generators():
    from modp.charclass import Generator, GradedPresentation

    gens = [Generator("v", 1, square_zero=True), Generator("s", 1), Generator("c", 2)]
    pres = GradedPresentation(gens, ["v + s"])
    small = pres.minimal()
    assert [g.name for g in small.generators] == ["v", "c"]
    assert small.generator("v").square_zero
    assert small.relations == ()
    for d in range(9):
        assert small.dim_degree(d) == pres.dim_degree(d), d
    only_v = GradedPresentation(gens[:1], ["v"]).minimal()
    assert [g.name for g in only_v.generators] == ["v"]
    assert only_v.relations == (only_v.ring.var("v"),)


def test_spin11_lower_bound_ring_dimensions():
    low = spin11_lower_bound_ring()
    series = low.series()
    for d in range(0, 34):
        assert low.dim_degree(d) == series.coefficient(d)


def test_explicit_presentation_matches_quillen_to_34():
    explicit = spin11_explicit_presentation()
    for d in range(35):
        assert explicit.dim_degree(d) == quillen_dim(11, d), d


def test_spin11_compare():
    rep = spin11_compare()
    assert rep.D_top == rep.D_low == rep.D_explicit == 26
    assert rep.D_dR_lower == rep.D_low + 1
    assert rep.D_dR_lower > rep.D_top
    assert "strict inequality" in rep.verdict


def test_extra_generator_contributes_one_class_at_weight_16():
    # the weight-16 invariant generator adds exactly one dimension on top
    # of the symmetric classes, matching the +1 in the degree-32 report
    from modp.groupdata import Series
    with_top = Series([1], (2, 3, 4, 5, 16))
    without = Series([1], (2, 3, 4, 5))
    assert with_top.coefficient(16) == without.coefficient(16) + 1
