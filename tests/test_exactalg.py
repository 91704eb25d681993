import itertools
import random
import re
import string
import sys
import threading

import pytest
from oracles import (
    brute_invariant_dimension_stacked,
    elementary_symmetric_by_definition,
    expand,
    kernel_dimension_exhaustive,
    pack,
    substitute,
)

from modp.exactalg import (
    F2Matrix,
    FpMatrix,
    GradedComponent,
    PackedField,
    Poly,
    PolyRing,
    RingMismatchError,
    SubstHom,
    determinant,
    elementary_symmetric,
    elementary_symmetric_of,
    gradient,
    sum_of_products,
)


def rand_poly(rng, ring, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = tuple(rng.randrange(max_exp) for _ in ring.names)
        terms[mono] = rng.randrange(1, max(ring.modulus, 7))
    return ring.from_terms(terms)


def test_freshmans_dream_char2():
    r = PolyRing(["x", "y"])
    x, y = r.gens()
    assert (x + y) * (x + y) == x * x + y * y


def test_mul_identity():
    r = PolyRing(["x", "y"], modulus=5)
    f = r.poly("2*x^2 + 3*y")
    assert f * r.one() == f


def test_consecutive_signs_multiply():
    r = PolyRing(["x", "y"], modulus=3)
    x, y = r.gens()
    assert r.poly("x - -y") == r.poly("x - - y") == x + y
    assert r.poly("--x") == r.poly("- - x") == x
    assert r.poly("x - +y") == x - y
    assert r.poly("x -\t- y") == x + y
    assert r.poly("+ - x") == -x


@pytest.mark.parametrize("text", ["x -", "x + ", "-", "+", "x - -", "x*y - ", "x - - "])
def test_a_dangling_sign_is_refused(text):
    # as "x*" is refused for its empty factor, a sign needs a term after it
    r = PolyRing(["x", "y"], modulus=3)
    with pytest.raises(ValueError, match="dangling sign"):
        r.poly(text)


@pytest.mark.parametrize("text, message", [
    ("x*", "empty factor"), ("x**y", "empty factor"),
    ("x*z", "unknown variable 'z' in ring F3[x,y]"),
])
def test_an_empty_factor_or_an_unknown_variable_is_refused(text, message):
    # a name the ring lacks is refused as every other malformed factor is
    r = PolyRing(["x", "y"], modulus=3)
    with pytest.raises(ValueError, match=re.escape(message)):
        r.poly(text)


@pytest.mark.parametrize("name", ["2", "1x", "a+b", "x^2", "a*b", "a-b", "a b", "", "é", "x٣"])
def test_a_name_outside_the_grammar_is_refused(name):
    # "2" would read back as a coefficient, the others not at all
    from modp.charclass import Generator
    with pytest.raises(ValueError, match="does not match"):
        PolyRing(["x", name])
    with pytest.raises(ValueError, match="does not match"):
        Generator(name, 1)


def test_the_names_in_use_are_in_the_grammar():
    ring = PolyRing(["u2_b", "w64", "A", "z", "a", "b", "_", "eta3", "e4", "x1"])
    assert ring.poly("u2_b*w64^2 + _") == ring.var("u2_b") * ring.var("w64") ** 2 + ring.var("_")


@pytest.mark.parametrize("text", ["a^1_0", "a^\u0663", "\u0662*a", "a^\u00b2", "2a", "a^"])
def test_coefficients_and_exponents_are_ascii_digits(text):
    # a^1_0 read as a^10, a^<Arabic-Indic 3> as a^3 and <Arabic-Indic 2>*a as 2a
    ring = PolyRing(["a"], modulus=5)
    with pytest.raises(ValueError, match="bad factor"):
        ring.poly(text)
    assert ring.poly("2*a^10 + 3") == 2 * ring.var("a") ** 10 + ring.const(3)


def test_eta1_product():
    r = PolyRing(["A", "x1"])
    A, x1 = r.gens()
    assert A * (A + x1) == r.poly("A^2 + A*x1")


def test_ring_mismatch_names_both_rings():
    a = PolyRing(["x"])
    b = PolyRing(["y"])
    with pytest.raises(RingMismatchError, match=r"F2\[x\].*F2\[y\]"):
        a.var("x") + b.var("y")


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for p in (2, 3, 7):
        ring = PolyRing(["x", "y", "z"], modulus=p)
        for _ in range(40):
            f, g, h = (rand_poly(rng, ring) for _ in range(3))
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h


def rand_homogeneous(rng, ring, d):
    """A random sum of monomials of weighted degree d."""
    return ring.from_terms({ring.exponents(m): 1 for m in ring.monomials_of_degree(d)
                            if rng.random() < 0.5})


def test_homogeneous_product_degree():
    rng = random.Random(1)
    ring = PolyRing(["a", "b", "c"], weights=(1, 2, 3))
    for _ in range(30):
        f = rand_homogeneous(rng, ring, 4)
        g = rand_homogeneous(rng, ring, 5)
        if f and g:
            fg = f * g
            assert fg.is_homogeneous()
            assert fg.degree() == 9


def test_substitution_lemma_inv2_invariance():
    # x -> x + a fixes x*(x+a) over F_2
    r = PolyRing(["a", "x"])
    a, x = r.gens()
    h = SubstHom(r, r, {"a": a, "x": x + a})
    u = x * (x + a)
    assert h(u) == u


def test_identity_hom_and_missing_image():
    r = PolyRing(["x", "y"])
    f = r.poly("x*y + y")
    assert SubstHom(r, r, {n: r.var(n) for n in r.names})(f) == f
    # refused when built, before any polynomial is given
    with pytest.raises(ValueError, match=r"^no image for y in F2\[x,y\]$"):
        SubstHom(r, r, {"x": r.var("x")})


def test_relabeling_of_a_permutation_is_the_hom_on_monomials():
    ring = PolyRing(["x", "y", "z", "w"], [1, 2, 1, 2], modulus=3)
    x, y, z, w = ring.gens()
    hom = SubstHom(ring, ring, {"x": z, "y": w, "z": x, "w": y})
    move = hom.relabeling()
    for d in range(6):
        for m in ring.monomials_of_degree(d):
            assert Poly(ring, {move(m): 1}) == hom(Poly(ring, {m: 1}))


def test_relabeling_is_none_unless_the_hom_permutes_the_variables():
    from modp.invariants import symmetric_quotient_action
    ring = PolyRing(["x", "y"], modulus=3)
    x, y = ring.gens()
    for images in ({"x": y, "y": y},  # not one to one
                   {"x": x * x, "y": y},  # not a variable
                   {"x": ring.zero(), "y": y}):
        assert SubstHom(ring, ring, images).relabeling() is None, images
    with pytest.raises(ValueError, match="no image for y"):  # a missing image
        SubstHom(ring, ring, {"x": y})
    # a coefficient other than 1 and p - 1
    for p in (5, 7):
        r = PolyRing(["x", "y"], modulus=p)
        u, v = r.gens()
        assert SubstHom(r, r, {"x": 2 * v, "y": u}).relabeling() is None, p
    # s(2,3) sends x2 to x3 = -(x1 + x2), an image of two terms
    s23 = dict(symmetric_quotient_action(3).generators)["s(2,3)"]
    assert s23.relabeling() is None
    # x -> -y, y -> x: the coefficient p - 1 gives a move whose parity
    # mask holds the low bit of x's byte
    hom = SubstHom(ring, ring, {"x": -y, "y": x})
    move = hom.relabeling()
    assert move.mask == 1 << ring._offsets[0]
    for d in range(6):
        for m in ring.monomials_of_degree(d):
            sign = (m & move.mask).bit_count() & 1
            assert Poly(ring, {move(m): (1, 2)[sign]}) == hom(Poly(ring, {m: 1})), m
    plain = SubstHom(ring, ring, {"x": y, "y": x}).relabeling()
    assert plain.mask == 0


def test_relabeling_refuses_variables_of_different_weights():
    ring = PolyRing(["x", "y"], [1, 2])
    x, y = ring.gens()
    with pytest.raises(ValueError, match="differ in weight"):
        SubstHom(ring, ring, {"x": y, "y": x}).relabeling()


def test_substitution_is_multiplicative():
    rng = random.Random(11)
    src = PolyRing(["x", "y"], modulus=3)
    tgt = PolyRing(["u", "v"], modulus=3)
    for _ in range(25):
        h = SubstHom(src, tgt, {"x": rand_poly(rng, tgt), "y": rand_poly(rng, tgt)})
        f, g = rand_poly(rng, src), rand_poly(rng, src)
        assert h(f * g) == h(f) * h(g)
        assert h(f + g) == h(f) + h(g)


def test_substitution_memo_is_thread_safe():
    # four threads share one fresh hom per round; a lost update in the
    # power memo would hand one of them a wrong power of x + y + z
    ring = PolyRing(["x", "y", "z"], modulus=3)
    x, y, z = ring.gens()
    f, expected = x ** 24, (x + y + z) ** 24
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            h = SubstHom(ring, ring, {"x": x + y + z, "y": y, "z": z})
            threads = [threading.Thread(target=lambda h=h: results.append(h(f) == expected))
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * 40


def test_modulus_must_be_prime():
    for p in (0, 1, 4, 9, -3):
        with pytest.raises(ValueError, match="prime"):
            PolyRing(["x"], modulus=p)
    for p in (2, 3, 5, 7):
        assert PolyRing(["x"], modulus=p).modulus == p


def test_elementary_symmetric():
    r = PolyRing(["t1", "t2", "t3"])
    assert elementary_symmetric(r, 2) == r.poly("t1*t2 + t1*t3 + t2*t3")
    assert elementary_symmetric(r, 0) == r.one()
    assert elementary_symmetric(r, 3) == r.poly("t1*t2*t3")
    assert elementary_symmetric(r, 4).is_zero()
    for top in range(5):
        assert elementary_symmetric_of(r, top, r.gens()) == [
            elementary_symmetric(r, a) for a in range(top + 1)]


@pytest.mark.parametrize("p", [2, 3])
def test_elementary_symmetric_takes_distinct_names_only(p):
    ring = PolyRing(["x", "y", "z"], modulus=p)
    # e_1(x, x) = 2x, which a sum over the distinct monomials would miss
    for names in (["x", "x"], ["x", "y", "x"]):
        with pytest.raises(ValueError) as info:
            elementary_symmetric(ring, 1, names)
        assert info.value.args == (f"duplicate variable names in {tuple(names)}",)
    for names in (["x"], ["z", "x"], ["y", "z", "x"]):
        values = [ring.var(n) for n in names]
        assert [elementary_symmetric(ring, a, names) for a in range(len(names) + 2)] == \
            elementary_symmetric_of(ring, len(names) + 1, values)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_elementary_symmetric_recurrence_matches_the_definition(p):
    ring = PolyRing(["x", "y", "z"], modulus=p)
    x, y, z = ring.gens()
    lists = [
        [],
        [x, y, z],  # one-term values
        [x + y, y * z + x * x, x - z],  # multi-term values
        [x, ring.zero(), y + z],  # a zero value
        [x + y, x + y, x + y],  # repeated values
        [x + z, -(x + z), y, -y],  # negated values
        [ring.const(2) * x, ring.one(), x * y + z * z, ring.const(-1)],
    ]
    for values in lists:
        for top in range(len(values) + 3):  # top above len(values) too
            es = elementary_symmetric_of(ring, top, values)
            assert es == [elementary_symmetric_by_definition(ring, a, values)
                          for a in range(top + 1)], (values, top)
    with pytest.raises(ValueError, match="top"):
        elementary_symmetric_of(ring, -1, [x])


def test_sum_of_products_edge_cases():
    ring = PolyRing(["x", "y"], modulus=3)
    other = PolyRing(["x", "y"], modulus=5)
    x, y = ring.gens()
    assert sum_of_products(ring, []) == ring.zero()
    assert sum_of_products(ring, [()]) == ring.one()  # an empty product is 1
    assert sum_of_products(ring, [(), (x + y, x - y)]) == 1 + x * x - y * y
    # a zero factor, first, in the middle or last, zeroes its product alone
    for zero_at in range(3):
        factors = [x + y, y, x * y + 1]
        factors[zero_at] = ring.zero()
        assert sum_of_products(ring, [factors, (x, x)]) == x * x
    assert sum_of_products(ring, [(x + 1, y + 2, x - y)]) == (x + 1) * (y + 2) * (x - y)
    # a factor of another ring raises in any place, also after a zero
    # factor, with the products given as a generator of generators
    for bad_at in range(3):
        def products():
            for k in range(2):
                factors = [x + y, ring.zero(), y]
                if k:
                    factors[bad_at] = other.var("x")
                yield (f for f in factors)
        with pytest.raises(RingMismatchError):
            sum_of_products(ring, products())


def test_partial_derivative():
    r = PolyRing(["s1", "s2", "t1", "t2"])
    f = r.poly("s1*t2 + s2*t1")
    assert gradient(f)[r.var_index("s1")] == r.var("t2")
    x = PolyRing(["x"])
    assert gradient(x.poly("x^2"))[0].is_zero()


def test_leibniz_rule_randomized():
    rng = random.Random(5)
    for p in (2, 5):
        ring = PolyRing(["x", "y"], modulus=p)
        for _ in range(30):
            f, g = rand_poly(rng, ring), rand_poly(rng, ring)
            lhs = gradient(f * g)[0]
            rhs = gradient(f)[0] * g + f * gradient(g)[0]
            assert lhs == rhs


def test_determinant_r2_derivative_matrix():
    r = PolyRing(["t1", "t2"])
    t1, t2 = r.gens()
    det = determinant([[r.one(), t2], [r.one(), t1]])
    assert det == t1 + t2


def test_determinant_identity_and_alternating():
    r = PolyRing(["t1", "t2", "t3"], modulus=7)  # odd, so -d != d
    one, zero = r.one(), r.zero()
    assert determinant([[one, zero], [zero, one]]) == one
    rng = random.Random(9)
    for _ in range(15):
        rows = [[rand_poly(rng, r, 3, 2) for _ in range(3)] for _ in range(3)]
        d = determinant(rows)
        swapped = [rows[1], rows[0], rows[2]]
        assert determinant(swapped) == -d
        repeated = [rows[0], rows[0], rows[2]]
        assert determinant(repeated).is_zero()


def test_determinant_r3_vandermonde():
    r = PolyRing(["t1", "t2", "t3"])
    t1, t2, t3 = r.gens()
    m = [
        [r.one(), t2 + t3, t2 * t3],
        [r.one(), t1 + t3, t1 * t3],
        [r.one(), t1 + t2, t1 * t2],
    ]
    assert determinant(m) == (t1 + t2) * (t1 + t3) * (t2 + t3)


def leibniz_determinant(rows, ring):
    """The reference: the sum over permutations of the signed products."""
    n = len(rows)
    total = ring.zero()
    for perm in itertools.permutations(range(n)):
        factors = [rows[i][j] for i, j in enumerate(perm)]
        if not all(factors):
            continue
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = ring.const(-1 if inversions % 2 else 1)
        for f in factors:
            term = term * f
        total = total + term
    return total


@pytest.mark.parametrize("modulus", [2, 3, 7])
def test_determinant_matches_the_leibniz_sum(modulus):
    rng = random.Random(13 + modulus)
    ring = PolyRing(["x", "y"], modulus=modulus)

    def entry(terms):
        return ring.from_terms({(rng.randrange(2), rng.randrange(2)): rng.choice((1, -1))
                                for _ in range(terms)})

    for n in range(1, 8):
        dense = [[entry(1) for _ in range(n)] for _ in range(n)]
        # mostly zero entries, but nonzero on one random permutation
        perm = rng.sample(range(n), n)
        sparse = [[entry(rng.randrange(1, 4)) if j == perm[i] or rng.random() < 0.25
                   else ring.zero() for j in range(n)] for i in range(n)]
        for rows in (dense, sparse):
            assert determinant(rows) == leibniz_determinant(rows, ring), (n, rows)


def test_graded_component_basis():
    r = PolyRing(["x1", "x2"])
    basis = r.monomials_of_degree(2)
    assert [r.from_terms({r.exponents(m): 1}) for m in basis] == [
        r.poly("x1^2"), r.poly("x1*x2"), r.poly("x2^2")]
    w = PolyRing(["c2", "c3", "eta2"], weights=(2, 3, 4))
    basis_w = w.monomials_of_degree(4)
    assert len(basis_w) == 2


def test_poly_text_roundtrip():
    # random rings of one to four names in the grammar, weights 1-3 and
    # p in {2, 3, 5, 7}, and exponents of one and two digits
    rng = random.Random(21)
    first = string.ascii_letters + "_"
    for _ in range(60):
        names: list[str] = []
        for _ in range(rng.randrange(1, 5)):
            name = rng.choice(first) + "".join(rng.choices(first + string.digits,
                                                           k=rng.randrange(4)))
            if name not in names:
                names.append(name)
        ring = PolyRing(names, [rng.randrange(1, 4) for _ in names], rng.choice((2, 3, 5, 7)))
        for _ in range(10):
            f = rand_poly(rng, ring, max_exp=13)
            assert ring.poly(str(f)) == f, (ring, f)
    r = PolyRing(["t1", "t2", "t3"])
    assert str(elementary_symmetric(r, 2)) == "t1*t2 + t1*t3 + t2*t3"


def dense(field, v, n):
    """The n coordinates of a packed vector, as a list."""
    mask = (1 << field.bits) - 1
    return [(v >> (j * field.bits)) & mask for j in range(n)]


def unit_tags(field, n):
    """Tag i is the unit vector at position i, so that a kernel vector
    holds the coefficients of the rows."""
    return [pack(field, [(i, 1)]) for i in range(n)]


def rank_by_columns(m) -> int:
    """The transpose-rank oracle for an F2Matrix or FpMatrix: the rank of
    its columns, packed as rows, which must agree with m.rank()."""
    field = PackedField(getattr(m, "p", 2))
    columns = [0] * m.cols
    for i, row in enumerate(m.rows):
        for j, c in field.unpack(row):
            columns[j] |= c << (i * field.bits)
    return field.matrix(columns, len(m.rows)).rank()


def test_f2_ranks_and_kernels():
    zero = F2Matrix([0, 0, 0], 5)
    assert zero.kernel_dimension() == 3
    ident = F2Matrix([1 << i for i in range(4)], 4)
    assert ident.kernel_dimension() == 0
    rng = random.Random(17)
    for _ in range(60):
        cols = rng.choice((9, 12))
        rows = [rng.randrange(1 << cols) for _ in range(rng.randrange(1, 10))]
        m = F2Matrix(rows, cols)
        assert m.rank() == rank_by_columns(m)
        assert m.kernel_dimension() == kernel_dimension_exhaustive(rows, 2)
        for v in m.kernel_basis(unit_tags(PackedField(2), len(rows))):
            total = 0
            for i, row in enumerate(rows):
                if (v >> i) & 1:
                    total ^= row
            assert total == 0


def test_fp_matrix_rank_kernel():
    rng = random.Random(19)
    p = 3
    field = PackedField(p)
    for _ in range(40):
        rows = [pack(field, ((j, rng.randrange(p)) for j in range(5)))
                for _ in range(rng.randrange(1, 7))]
        m = FpMatrix(rows, 5, p)
        assert m.rank() == rank_by_columns(m)
        assert m.rank() + m.kernel_dimension() == len(rows)
        for v in m.kernel_basis(unit_tags(field, len(rows))):
            combo = dense(field, v, len(rows))
            for column in zip(*(dense(field, row, 5) for row in rows)):
                assert sum(a * b for a, b in zip(column, combo)) % p == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_packed_matrices_match_exhaustive_enumeration(p):
    rng = random.Random(43 + p)
    field = PackedField(p)
    most = max(k for k in range(1, 12) if p ** k <= 3000)
    for _ in range(25):
        cols, n = rng.randrange(1, 7), rng.randrange(1, most + 1)
        rows = [pack(field, ((j, rng.randrange(p)) for j in range(cols))) for _ in range(n)]
        m = field.matrix(rows, cols)
        assert m.rank() == rank_by_columns(m) == n - m.kernel_dimension()
        assert m.kernel_dimension() == kernel_dimension_exhaustive(rows, p)
        kernel = m.kernel_basis(unit_tags(field, n))
        assert field.matrix(kernel, n).rank() == len(kernel) == m.kernel_dimension()
        for v in kernel:
            combo = dense(field, v, n)
            for column in zip(*(dense(field, row, cols) for row in rows)):
                assert sum(a * b for a, b in zip(column, combo)) % p == 0


@pytest.mark.parametrize("p", [2, 3, 5, 101])
def test_graded_component_coordinates(p):
    rng = random.Random(29 + p)
    ring = PolyRing(["x", "y", "z", "w"], weights=(1, 1, 2, 1), modulus=p)

    def random_element(basis):
        monos = rng.sample(basis, rng.randrange(1, len(basis) + 1))
        return ring.from_terms({ring.exponents(m): rng.randrange(1, p) if p > 2 else 1
                                for m in monos})

    comp = GradedComponent(ring, 5)
    n = len(comp.basis)
    assert n == 34
    shift = ring.monomial((1, 0, 0, 0))
    for _ in range(20):
        f = random_element(comp.basis)
        assert comp.coeffs(comp.vectors([(0, 1, f.coeffs)])[0]) == f.coeffs
        g = random_element(GradedComponent(ring, 4).basis)
        # the triple (shift, 1, g) packs g times the monomial shift
        assert comp.vectors([(shift, 1, g.coeffs)]) == [
            comp.vectors([(0, 1, (g * ring.var("x")).coeffs)])[0]]
    assert Poly(ring, comp.coeffs(pack(comp.field, [(0, 1), (2, 1)]))) == ring.from_terms(
        {ring.exponents(comp.basis[0]): 1, ring.exponents(comp.basis[2]): 1})
    for _ in range(10):
        rows = [comp.vectors([(0, 1, random_element(comp.basis).coeffs)])[0]
                for _ in range(rng.randrange(1, n))]
        m = F2Matrix(rows, n) if p == 2 else FpMatrix(rows, n, p)
        assert comp.rank(rows) == rank_by_columns(m)
    assert comp.rank([]) == 0
    # x -> y -> x + y, z -> z + x*y fixes a subspace the stacked oracle measures
    x, y, z, w = ring.gens()
    hom = SubstHom(ring, ring, {"x": y, "y": x + y, "z": z + x * y, "w": w})

    def image(f):  # hom(f) by the oracle's substitution, with no plan
        return sum((c * substitute(hom, m) for m, c in f.coeffs.items()), ring.zero())
    for d in range(1, 5):
        full = GradedComponent(ring, d)
        fixed = [Poly(ring, full.coeffs(v))
                 for v in full.fixed_combinations([{m: 1} for m in full.basis], hom)]
        assert len(fixed) == brute_invariant_dimension_stacked(ring, [("g", hom)], d), (p, d)
        assert all(image(f) == f for f in fixed)
        # inputs that share monomials, so that the row of each monomial
        # enters two rows, times coefficients that take several doublings
        # at p = 101; checked against the rows hom(f) - f of `substitute`
        basis = full.basis
        fs = [Poly(ring, {a: rng.randrange(1, p), b: rng.randrange(1, p)})
              for a, b in zip(basis, basis[1:])]
        fixed = [Poly(ring, full.coeffs(v))
                 for v in full.fixed_combinations([f.coeffs for f in fs], hom)]
        moved = [full.vectors([(0, 1, (image(f) - f).coeffs)])[0] for f in fs]
        assert len(fixed) == len(fs) - full.rank(moved), (p, d)
        assert all(image(f) == f for f in fixed)
        # independent, and inside the span of the fs
        vectors = [full.vectors([(0, 1, f.coeffs)])[0] for f in fs + fixed]
        assert full.rank(vectors[len(fs):]) == len(fixed)
        assert full.rank(vectors) == len(fs)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_vectors_pack_the_expanded_images(p):
    # c * x^head * product for random heads and products, and every c in
    # 1..p-1, against the oracle's pack of the image expanded term by
    # term; a batch of c = 1 alone, and one that mixes every c; the
    # products, which monomial_images shares, are left as they were
    rng = random.Random(34 + p)
    ring = PolyRing(["x", "y", "z", "w"], weights=(1, 1, 2, 1), modulus=p)
    d = 6
    comp = GradedComponent(ring, d)
    triples = []
    for _ in range(40):
        k = rng.randrange(d + 1)
        head = rng.choice(ring.monomials_of_degree(k))
        monos = ring.monomials_of_degree(d - k)
        product = {m: rng.randrange(1, p) for m in rng.sample(monos, rng.randrange(len(monos)) + 1)}
        triples += [(head, c, product) for c in range(1, p)]
    products = [dict(product) for _, _, product in triples]
    for batch in ([t for t in triples if t[1] == 1], triples):
        assert comp.vectors(batch) == [
            pack(comp.field, [(comp.basis.index(m), c) for m, c in expand(t, p).items()])
            for t in batch]
    assert [product for _, _, product in triples] == products
