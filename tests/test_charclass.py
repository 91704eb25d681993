import itertools
import random

import pytest
from oracles import series_product

from modp.charclass import (
    Generator,
    GradedPresentation,
    JacobianReport,
    UClass,
    bmu_p_presentation,
    bo2_power_ring,
    bo_presentation,
    bockstein,
    bso_presentation,
    bz2_presentation,
    collapse_to_K,
    jacobian_certificate,
    kunneth,
    restriction_bso_to_bo2r,
    restriction_to_K,
    unit_uclass,
    whitney_sum,
)
from modp.exactalg import (
    PolyRing,
    SubstHom,
    determinant,
    elementary_symmetric,
    gradient,
    sum_of_products,
)
from modp.quillen import spin11_explicit_presentation, spin11_lower_bound_ring


def test_bso_presentation():
    p3 = bso_presentation(3)
    assert [(g.name, g.degree) for g in p3.generators] == [("u2", 2), ("u3", 3)]
    assert p3.generator("u2").bidegree == (1, 1)
    assert p3.generator("u3").bidegree == (2, 1)
    assert p3.series().coefficient(0) == 1
    assert len(bso_presentation(11).generators) == 10


def test_bidegree_totals():
    for pres in (bso_presentation(8), bo_presentation(7), bmu_p_presentation()):
        for g in pres.generators:
            if g.bidegree is not None:
                assert sum(g.bidegree) == g.degree


def test_bo_presentation():
    p2 = bo_presentation(2)
    assert [g.name for g in p2.generators] == ["u1", "u2"]
    p1 = bo_presentation(1)
    assert [g.name for g in p1.generators] == ["v1", "c1"]
    assert p1.generator("v1").square_zero
    p3 = bo_presentation(3)
    lhs = p3.series().coefficients(12)
    rhs = series_product(bso_presentation(3).series(),
                         bmu_p_presentation().series()).coefficients(12)
    assert lhs == rhs


def test_bmu_and_bz2_series():
    assert bmu_p_presentation().series().coefficients(4) == [1, 1, 1, 1, 1]
    assert bz2_presentation().series().coefficients(4) == [1, 1, 1, 1, 1]
    bmu = bmu_p_presentation()
    v = bmu.ring.var("v1")
    assert bmu.dim_degree(2) == 1  # v1^2 dies, c1 survives
    assert (v * v).degree() == 2


def test_dim_degree_examples():
    pres = GradedPresentation([Generator(f"u{i}", i) for i in (4, 6, 7, 8, 10, 11)],
                              ["u11*u6 + u10*u7"])
    n17 = len(pres.ring.monomials_of_degree(17))
    assert n17 == 3
    assert pres.dim_degree(17) == n17 - 1
    assert pres.dim_degree(0) == 1
    assert bmu_p_presentation().dim_degree(5) == 1


def test_dim_degree_matches_series_for_single_relation():
    pres = GradedPresentation([Generator(f"u{i}", i) for i in (4, 6, 7, 8, 10, 11)],
                              ["u11*u6 + u10*u7"])
    series = pres.series()
    for d in range(0, 24):
        assert pres.dim_degree(d) == series.coefficient(d), d
    with pytest.raises(ValueError, match="homogeneous"):
        GradedPresentation(pres.generators, ["u4 + u6"])


def test_kunneth_bz2_bmu2():
    prod = kunneth(bz2_presentation("s"), bmu_p_presentation("t", "v"))
    assert [(g.name, g.degree) for g in prod.generators] == [
        ("s", 1), ("v", 1), ("t", 2)]
    assert prod.generator("v").square_zero
    assert prod.dim_degree(3) == 4  # s^3, s^2 v, s t, t v
    assert prod.series().coefficients(4) == [1, 2, 3, 4, 5]


def test_kunneth_with_point_and_collisions():
    x = bso_presentation(4)
    same = kunneth(x, GradedPresentation([]))
    assert [g.name for g in same.generators] == [g.name for g in x.generators]
    doubled = kunneth(bmu_p_presentation(), bmu_p_presentation())
    assert [g.name for g in doubled.generators] == ["v1", "c1", "v1_b", "c1_b"]
    lhs = doubled.series().coefficients(10)
    rhs = series_product(bmu_p_presentation().series(),
                         bmu_p_presentation().series()).coefficients(10)
    assert lhs == rhs


def test_kunneth_moves_the_relations_of_both_factors():
    low = spin11_lower_bound_ring()
    doubled = kunneth(low, low)
    assert [g.name for g in doubled.generators] == [
        "u4", "u6", "u7", "u8", "u10", "u11",
        "u4_b", "u6_b", "u7_b", "u8_b", "u10_b", "u11_b"]
    assert doubled.relations == (doubled.ring.poly("u6*u11 + u7*u10"),
                                 doubled.ring.poly("u6_b*u11_b + u7_b*u10_b"))
    for a, b in ((low, low), (low, spin11_explicit_presentation())):
        prod = kunneth(a, b)
        dims_a = [a.dim_degree(d) for d in range(31)]
        dims_b = [b.dim_degree(d) for d in range(31)]
        for d in range(31):
            assert prod.dim_degree(d) == sum(dims_a[k] * dims_b[d - k] for k in range(d + 1)), d


def test_kunneth_series_multiplicative_random():
    rng = random.Random(23)
    for trial in range(30):
        gens_a = [Generator(f"a{i}", rng.randrange(1, 5),
                            square_zero=rng.random() < 0.3) for i in range(1, 4)]
        gens_b = [Generator(f"b{i}", rng.randrange(1, 5),
                            square_zero=rng.random() < 0.3) for i in range(1, 4)]
        a, b = GradedPresentation(gens_a), GradedPresentation(gens_b)
        assert kunneth(a, b).series().coefficients(12) == \
            series_product(a.series(), b.series()).coefficients(12)


def rand_uclass(rng, pres, trunc):
    ring = pres.ring
    comps = [ring.one()]
    for m in range(1, trunc + 1):
        terms = {}
        for mono in ring.monomials_of_degree(m):
            if rng.random() < 0.4:
                terms[ring.exponents(mono)] = 1
        comps.append(ring.from_terms(terms))
    return UClass(pres, comps)


def test_whitney_unit_and_paper_formulas():
    pres = GradedPresentation(
        [Generator(n, d) for n, d in (("e1", 1), ("e2", 2), ("e3", 3),
                                      ("f1", 1), ("f2", 2), ("f3", 3))])
    ring = pres.ring
    e = UClass(pres, [ring.one(), ring.var("e1"), ring.var("e2"), ring.var("e3")])
    f = UClass(pres, [ring.one(), ring.var("f1"), ring.var("f2"), ring.var("f3")])
    assert whitney_sum(e, unit_uclass(pres, 3)) == e
    s = whitney_sum(e, f)
    assert s[2] == ring.poly("e2 + f2")
    assert s[3] == ring.poly("e3 + e1*f2 + e2*f1 + f3")


def test_whitney_algebra_randomized():
    rng = random.Random(31)
    pres = GradedPresentation([Generator("a", 1), Generator("b", 2)])
    for _ in range(60):
        e = rand_uclass(rng, pres, 8)
        f = rand_uclass(rng, pres, 8)
        g = rand_uclass(rng, pres, 8)
        assert whitney_sum(e, f) == whitney_sum(f, e)
        assert whitney_sum(whitney_sum(e, f), g) == whitney_sum(e, whitney_sum(f, g))
        even = whitney_sum(e.even_part(), f.even_part())
        full = whitney_sum(e, f)
        assert even.even_part() == full.even_part()


def test_whitney_matches_the_full_convolution_on_sparse_classes():
    # the oracle pairs every (u_j, u_{m-j}), zeros included, through even
    # j only at even m
    rng = random.Random(41)
    pres = GradedPresentation([Generator("a", 1), Generator("b", 2), Generator("c", 3)])
    ring = pres.ring

    def sparse(trunc):
        return UClass(pres, [ring.one()] + [
            rand_uclass(rng, pres, m)[m] if rng.random() < 0.3 else ring.zero()
            for m in range(1, trunc + 1)])

    for _ in range(200):
        e, f = sparse(12), sparse(12)
        full = [ring.one()] + [
            sum((e[j] * f[m - j] for j in range(0, m + 1, 2 if m % 2 == 0 else 1)), ring.zero())
            for m in range(1, 13)]
        assert whitney_sum(e, f).components == tuple(full)


def test_whitney_pairs_only_nonzero_components(monkeypatch):
    import modp.charclass
    pres = GradedPresentation([Generator("a", 1)])
    pairs = []

    def counting(ring, products):
        products = list(products)
        pairs.extend(products)
        return sum_of_products(ring, products)
    monkeypatch.setattr(modp.charclass, "sum_of_products", counting)
    zero = unit_uclass(pres, 1000)
    assert whitney_sum(zero, zero) == zero
    assert pairs == []


def test_whitney_rejects_bad_unit():
    pres = GradedPresentation([Generator("a", 1)])
    ring = pres.ring
    with pytest.raises(ValueError, match="u_0"):
        UClass(pres, [ring.zero(), ring.var("a")])


def test_images_and_components_are_read_only():
    # x^2 is memoised from the image of x, so a new image of x would mix
    # into x^3 with the old one; a u-class longer than its construction
    # would skip the homogeneity check
    r = PolyRing(["x", "y", "z"])
    x, y, z = r.gens()
    h = SubstHom(r, r, {"x": y, "y": y, "z": z})
    assert h(x * x) == y * y
    with pytest.raises(TypeError):
        h.images["x"] = z
    assert h(x * x * x) == y * y * y
    beta = bockstein(2)
    with pytest.raises(TypeError):
        beta.images["s1"] = beta.ring.zero()
    u = unit_uclass(bso_presentation(3), 2)
    with pytest.raises(AttributeError):
        u.components.append(u[2])
    assert u.truncation == 2


def test_rebinding_is_refused():
    # the power memo of a SubstHom is built from its source, target and
    # images, and a u-class was checked against its presentation
    r = PolyRing(["x", "y", "z"])
    x, y, z = r.gens()
    h = SubstHom(r, r, {"x": y, "y": y, "z": z})
    assert h(x * x) == y * y
    for attr, value in (("source", r), ("target", r), ("images", {"x": z, "y": y, "z": z})):
        with pytest.raises(AttributeError):
            setattr(h, attr, value)
    assert h(x * x * x) == y * y * y
    u = unit_uclass(bso_presentation(3), 2)
    for attr, value in (("components", u.components + (u[1],)),
                        ("presentation", bso_presentation(5))):
        with pytest.raises(AttributeError):
            setattr(u, attr, value)
    assert u.truncation == 2 and u.presentation.ring == bso_presentation(3).ring


def test_restriction_even_source():
    rest = restriction_bso_to_bo2r(6)
    t = rest.hom.target
    assert rest.image_of("u1") == t.poly("s1 + s2 + s3")
    assert rest.image_of("u2") == t.poly("t1 + t2 + t3")
    assert rest.image_of("u3") == t.poly("s1*t2 + s1*t3 + s2*t1 + s2*t3 + s3*t1 + s3*t2")


def test_restriction_odd_source():
    rest = restriction_bso_to_bo2r(7)
    t = rest.hom.target
    assert rest.image_of("u4") == elementary_symmetric(t, 2, ["t1", "t2", "t3"])
    assert rest.image_of("u3") == t.poly("s1*t1 + s2*t2 + s3*t3")
    assert rest.image_of("u7") == t.poly("s1*t1*t2*t3 + s2*t1*t2*t3 + s3*t1*t2*t3")


def test_restriction_to_K_images():
    rest = restriction_to_K(11)
    t = rest.hom.target
    assert rest.image_of("u2").is_zero()
    assert rest.image_of("u5").is_zero()
    ts = ["t1", "t2", "t3", "t4"]
    e3_quotient = rest.image_of("u6")
    assert rest.image_of("u7") == t.var("s") * e3_quotient


def test_restriction_to_K_factors_through_bo2r():
    for n in (7, 9, 11):
        to_bo2r, collapse = restriction_bso_to_bo2r(n).hom, collapse_to_K(n // 2)
        to_K = restriction_to_K(n).hom
        assert to_bo2r.source == to_K.source and collapse.target == to_K.target
        for name in to_K.source.names:
            u = to_K.source.var(name)
            assert collapse(to_bo2r(u)) == to_K(u), (n, name)


def test_bockstein_basics():
    beta = bockstein(2)
    ring = beta.ring
    assert beta(ring.var("t1")) == ring.poly("s1*t1")
    assert beta(ring.one()).is_zero()
    assert beta(ring.var("s1")) == ring.poly("s1^2")


def test_bockstein_leibniz_and_square_zero():
    rng = random.Random(41)
    beta = bockstein(4)
    ring = beta.ring
    for _ in range(60):
        terms = {}
        for mono in ring.monomials_of_degree(rng.randrange(1, 7)):
            if rng.random() < 0.3:
                terms[ring.exponents(mono)] = 1
        f = ring.from_terms(terms)
        terms2 = {}
        for mono in ring.monomials_of_degree(rng.randrange(1, 7)):
            if rng.random() < 0.3:
                terms2[ring.exponents(mono)] = 1
        g = ring.from_terms(terms2)
        assert beta(f * g) == beta(f) * g + f * beta(g)
        assert beta(beta(f)).is_zero()


def test_bockstein_reproduces_odd_images():
    for r in range(2, 6):
        beta = bockstein(r)
        ring = beta.ring
        ts = [f"t{i}" for i in range(1, r + 1)]
        s_total = ring.zero()
        for i in range(1, r + 1):
            s_total = s_total + ring.var(f"s{i}")
        even_rest = restriction_bso_to_bo2r(2 * r)
        odd_rest = restriction_bso_to_bo2r(2 * r + 1)
        for a in range(1, r + 1):
            e_a = elementary_symmetric(ring, a, ts)
            assert odd_rest.image_of(f"u{2 * a + 1}") == beta(e_a), (r, a)
            if a < r:
                assert even_rest.image_of(f"u{2 * a + 1}") == beta(e_a) + s_total * e_a, (r, a)


def test_jacobian_o_variant():
    rep2 = jacobian_certificate(2, "O")
    ring = rep2.determinant.ring
    assert rep2.ok and rep2.determinant == ring.poly("t1 + t2")
    rep3 = jacobian_certificate(3, "O")
    assert rep3.ok
    assert rep3.difference.is_zero()


def test_jacobian_so_variant():
    rep = jacobian_certificate(3, "SO")
    assert rep.ok
    ring = rep.determinant.ring
    assert [str(f) for f in rep.row_factors] == ["t1 + t3", "t2 + t3"]
    assert rep.determinant == ring.poly("t1 + t3") * ring.poly("t2 + t3") * ring.poly("t1 + t2")


@pytest.mark.parametrize("r", range(2, 7))
def test_so_jacobian_rows_factor_through_the_smaller_vandermonde(r):
    # The lemma behind the SO certificate, checked row by row: entry (j, a)
    # of the matrix of d u_2a+1 / d x_j is (t_j + t_r) e_a-1(t_1..t_r-1
    # without t_j), and the matrix E of those cofactors has the rank-(r-1)
    # Vandermonde as its determinant.
    rest = restriction_bso_to_bo2r(2 * r)
    xs = [f"x{j}" for j in range(1, r)]
    ts = [f"t{i}" for i in range(1, r + 1)]
    ring = PolyRing(xs + ts, [1] * (r - 1) + [2] * r)
    images = {f"s{j}": ring.var(f"x{j}") for j in range(1, r)}
    images[f"s{r}"] = sum_of_products(ring, [(ring.var(x),) for x in xs])
    images.update((t, ring.var(t)) for t in ts)
    to_bh = SubstHom(rest.hom.target, ring, images)
    grads = [gradient(to_bh(rest.image_of(f"u{2 * a + 1}"))) for a in range(1, r)]
    factors = [ring.var(f"t{j}") + ring.var(f"t{r}") for j in range(1, r)]
    e_matrix = [[elementary_symmetric(ring, a - 1, [t for t in ts[:-1] if t != f"t{j}"])
                 for a in range(1, r)] for j in range(1, r)]
    for j in range(1, r):
        for a in range(1, r):
            entry = grads[a - 1][ring.var_index(f"x{j}")]
            assert entry == factors[j - 1] * e_matrix[j - 1][a - 1], (r, j, a)
    smaller = ring.one()
    for a, b in itertools.combinations(ts[:-1], 2):
        smaller = smaller * (ring.var(a) + ring.var(b))
    assert determinant(e_matrix) == smaller
    assert [str(f) for f in jacobian_certificate(r, "SO").row_factors] == list(map(str, factors))


def test_jacobian_range_guard():
    with pytest.raises(ValueError):
        jacobian_certificate(7, "O")
    with pytest.raises(ValueError):
        jacobian_certificate(3, "X")
