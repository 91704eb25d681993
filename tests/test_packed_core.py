"""The packed-monomial polynomial core against a schoolbook reference on
exponent-tuple dicts that lives here, plus the basis walk against a
filtered itertools.product (here and in `oracles.monomials_by_product`)
and its count table, relabelings against
exponent tuples, monomial images against the schoolbook substitution,
derivations against the schoolbook and the gradient route of
`oracles.derivation_by_gradient`, and the exponent-overflow guard."""

import itertools
import random
import time

import pytest
from oracles import derivation_by_gradient, expand, monomial_by_fields, monomials_by_product

import modp.exactalg
from modp.charclass import Derivation, bockstein, bso_presentation
from modp.exactalg import EXPONENT_LIMIT, PolyRing, SubstHom, gradient, sum_of_products
from modp.groupdata import Series
from modp.quillen import SWRing

NAMES = ("x", "y", "z", "w")
WEIGHTS = (1, 2, 1, 3)


def _reduce(terms, p):
    out = {}
    for m, c in terms.items():
        if c := c % p:
            out[m] = c
    return out


def ref_add(f, g, p, sign=1):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + sign * c
    return _reduce(out, p)


def ref_mul(f, g, p):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return _reduce(out, p)


def ref_pow(f, k, p, n):
    out = {(0,) * n: 1}
    for _ in range(k):
        out = ref_mul(out, f, p)
    return _reduce(out, p)


def ref_partial(f, i, p):
    out = {}
    for m, c in f.items():
        if m[i]:
            low = m[:i] + (m[i] - 1,) + m[i + 1:]
            out[low] = out.get(low, 0) + c * m[i]
    return _reduce(out, p)


def ref_subst(f, images, p, n):
    out = {}
    for m, c in f.items():
        term = {(0,) * n: c}
        for i, e in enumerate(m):
            term = ref_mul(term, ref_pow(images[i], e, p, n), p)
        out = ref_add(out, term, p)
    return out


def ref_derivation(f, images, p):
    """sum_i (df/dx_i) * images[i] on exponent-tuple dicts."""
    out = {}
    for i, image in enumerate(images):
        out = ref_add(out, ref_mul(ref_partial(f, i, p), image, p), p)
    return out


def rand_terms(rng, p, n=len(NAMES), max_terms=6, max_exp=3):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = tuple(rng.randrange(max_exp) for _ in range(n))
        terms[mono] = rng.randrange(1, p)
    return _reduce(terms, p)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_arithmetic_matches_schoolbook(p):
    rng = random.Random(100 + p)
    ring = PolyRing(NAMES, WEIGHTS, p)
    n = len(NAMES)
    for _ in range(60):
        tf, tg = rand_terms(rng, p), rand_terms(rng, p)
        f, g = ring.from_terms(tf), ring.from_terms(tg)
        assert dict(f.terms) == tf
        assert dict((f * g).terms) == ref_mul(tf, tg, p)
        assert dict((f + g).terms) == ref_add(tf, tg, p)
        assert dict((f - g).terms) == ref_add(tf, tg, p, sign=-1)
        k = rng.randrange(4)
        assert dict((f ** k).terms) == ref_pow(tf, k, p, n)
        for i, part in enumerate(gradient(f)):
            assert dict(part.terms) == ref_partial(tf, i, p)


@pytest.mark.parametrize("p", [2, 3, 7])
def test_substitution_and_derivation_match_schoolbook(p):
    rng = random.Random(200 + p)
    ring = PolyRing(NAMES, WEIGHTS, p)
    target = PolyRing(["u", "v"], (1, 1), p)
    n = len(NAMES)
    for _ in range(25):
        tf = rand_terms(rng, p)
        f = ring.from_terms(tf)
        # into another ring
        timgs = [rand_terms(rng, p, n=2, max_terms=3, max_exp=2) for _ in NAMES]
        hom = SubstHom(ring, target, {name: target.from_terms(t) for name, t in zip(NAMES, timgs)})
        assert dict(hom(f).terms) == ref_subst(tf, timgs, p, 2)
        # an endomorphism, and the derivation with the same images
        imgs = [rand_terms(rng, p, max_terms=3, max_exp=2) for _ in NAMES]
        polys = {name: ring.from_terms(t) for name, t in zip(NAMES, imgs)}
        assert dict(SubstHom(ring, ring, polys)(f).terms) == ref_subst(tf, imgs, p, n)
        derivation = Derivation(ring, polys)
        assert dict(derivation(f).terms) == ref_derivation(tf, imgs, p)
        assert derivation(f) == derivation_by_gradient(derivation, f)
    # one derivation on many inputs: exponents up to 2p + 1, so some are
    # multiples of p above 0, and a zero and a constant image, whose plan
    # offsets lie below 0
    imgs = [_several_terms(rng, p, n), {}, {(0,) * n: p - 1}, {(0, 1, 1, 0): 1}]
    derivation = Derivation(ring, {name: ring.from_terms(t) for name, t in zip(NAMES, imgs)})
    inputs = [{(p, 2 * p, 1, p + 1): 1, (2 * p, 0, 0, 1): p - 1}]
    inputs += [rand_terms(rng, p, max_terms=8, max_exp=2 * p + 2) for _ in range(60)]
    for tf in inputs + inputs:  # the second round finds every plan memoised
        f = ring.from_terms(tf)
        assert dict(derivation(f).terms) == ref_derivation(tf, imgs, p), tf
        assert derivation(f) == derivation_by_gradient(derivation, f)
    classes = {bytes(e % p for e in tf_m) for tf in inputs for tf_m in tf}
    assert set(derivation._plans) == classes


def _several_terms(rng, p, n):
    while True:
        terms = rand_terms(rng, p, n=n, max_terms=3, max_exp=2)
        if len(terms) > 1:
            return terms


def _image_shapes(rng, p):
    """(target ring, image term dicts in NAMES order) for each way the
    substitution plan can sort the variables: images of one term (with
    coefficient 1 or not, constants among them) and of several terms."""
    ring = PolyRing(NAMES, WEIGHTS, p)
    n = len(NAMES)
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    wide = PolyRing(["u", "v", "s", "t", "r"], modulus=p)
    narrow = PolyRing(["u"], modulus=p)
    return {
        "identity": (ring, [{unit[i]: 1} for i in range(n)]),
        "permutation": (ring, [{unit[2]: 1}, {unit[1]: 1}, {unit[3]: 1}, {unit[0]: 1}]),
        "one moving": (ring, [{unit[0]: 1}, _several_terms(rng, p, n), {unit[2]: 1},
                              {unit[3]: 1}]),
        "all moving": (ring, [_several_terms(rng, p, n) for _ in NAMES]),
        "coefficients": (ring, [_reduce({unit[0]: -1}, p), _reduce({unit[2]: 2}, p),
                                {(1, 1, 0, 0): 1}, _several_terms(rng, p, n)]),
        "constants": (ring, [{}, {(0,) * n: 1}, _reduce({(0,) * n: 3}, p), {unit[3]: 1}]),
        "wider target": (wide, [{(0, 0, 1, 0, 0): 1}, _several_terms(rng, p, 5),
                                _reduce({(0, 2, 0, 0, 1): -1}, p), {(0,) * 5: 1}]),
        "narrower target": (narrow, [{(1,): 1}, _reduce({(2,): 2}, p), {(1,): 1, (0,): 1},
                                     {}]),
        # x and z onto z: neither is renamed, so both are changed
        "two onto one": (ring, [{unit[2]: 1}, {unit[1]: 1}, _reduce({unit[2]: -1}, p),
                                _several_terms(rng, p, n)]),
        # x is renamed to z, whose byte stays until its own change, and the
        # others are sent to units of other weights
        "other weights": (ring, [{unit[2]: 1}, {unit[3]: 1}, {unit[1]: 1},
                                 _reduce({unit[0]: -1}, p)]),
    }


SHAPES = ["identity", "permutation", "one moving", "all moving", "coefficients", "constants",
          "wider target", "narrower target", "two onto one", "other weights"]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_grouped_substitution_matches_schoolbook(p, shape):
    rng = random.Random(300 + p)
    ring = PolyRing(NAMES, WEIGHTS, p)
    target, imgs = _image_shapes(rng, p)[shape]
    hom = SubstHom(ring, target, {name: target.from_terms(t) for name, t in zip(NAMES, imgs)})
    for _ in range(25):
        tf = rand_terms(rng, p, max_terms=10, max_exp=4)
        f = ring.from_terms(tf)
        assert dict(hom(f).terms) == ref_subst(tf, imgs, p, len(target.names))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_monomial_images_agree_with_apply(p, shape):
    rng = random.Random(400 + p)
    ring = PolyRing(NAMES, WEIGHTS, p)
    target, imgs = _image_shapes(rng, p)[shape]
    hom = SubstHom(ring, target, {name: target.from_terms(t) for name, t in zip(NAMES, imgs)})
    monos = [m for d in range(7) for m in ring.monomials_of_degree(d)]
    # apply sums these images, so each triple (head, c, product), expanded
    # term by term, is checked against the schoolbook, packed so that the
    # degree field is compared too
    n = len(target.names)
    assert [expand(image, p) for image in hom.monomial_images(monos)] == [
        {target.monomial(e): c for e, c in ref_subst({ring.exponents(m): 1}, imgs, p, n).items()}
        for m in monos]


def test_monomial_images_raise_the_overflow_line_of_apply():
    ring = PolyRing(["x", "y"], modulus=3)
    other = PolyRing(["u", "v"], modulus=3)
    x, y = ring.gens()
    u, v = other.gens()
    # y^50 times the y^100 of (x + y)^100, with y still in the same ring
    # and in another one; and the still head y^128 of x^64
    for hom, m in ((SubstHom(ring, ring, {"x": x + y, "y": y}), x ** 100 * y ** 50),
                   (SubstHom(ring, other, {"x": u + v, "y": v}), x ** 100 * y ** 50),
                   (SubstHom(ring, ring, {"x": y * y, "y": x}), x ** 64)):
        with pytest.raises(ValueError) as by_apply:
            hom(m)
        with pytest.raises(ValueError) as by_images:
            hom.monomial_images(list(m.coeffs))
        assert by_images.value.args == by_apply.value.args
        assert str(by_apply.value).startswith("exponent of ")


def test_a_missing_image_is_refused_when_the_hom_is_built():
    # refused before the map meets any polynomial, whether the given images
    # are moving or still, with the missing names in ring order
    ring = PolyRing(NAMES, WEIGHTS, 3)
    x, y, z, w = ring.gens()
    for images, missing in (({"x": x + y, "y": y, "z": -z}, "w"), ({"x": y}, "y, z, w")):
        for build in (lambda: SubstHom(ring, ring, images), lambda: Derivation(ring, images)):
            with pytest.raises(ValueError) as info:
                build()
            assert info.value.args == (f"no image for {missing} in F3[x,y,z,w]",)


def test_single_term_images_raise_on_exponent_overflow():
    ring = PolyRing(["x", "y"], modulus=3)
    x, y = ring.gens()
    square = SubstHom(ring, ring, {"x": y * y, "y": x})
    assert square(x ** 63 * y ** 127) == x ** 127 * y ** 126
    with pytest.raises(ValueError, match="y"):
        square(x ** 64)
    with pytest.raises(ValueError, match="y"):
        square(x ** 100 + y)
    # 90 * 3 = 270 would carry past the guard bit of y into x
    cube = SubstHom(ring, ring, {"x": y ** 3, "y": x})
    assert cube(x ** 42) == y ** 126
    for f in (x ** 90, x ** 90 * y + y ** 2):
        with pytest.raises(ValueError, match="y"):
            cube(f)


def _ref_relabel(ring, target, index_map, m):
    exps = [0] * len(target.names)
    for i, e in enumerate(ring.exponents(m)):
        exps[index_map[i]] = e
    return target.monomial(exps)


@pytest.mark.parametrize("index_map", [{0: 1, 1: 0, 2: 2, 3: 3, 4: 4},
                                       {0: 2, 1: 0, 2: 1, 3: 3, 4: 4},
                                       {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}],
                         ids=["transposition", "3-cycle", "identity"])
def test_relabeling_matches_exponent_reference(index_map):
    ring = PolyRing(["a", "b", "c", "d", "e"], (1, 1, 1, 2, 3))
    images = {name: ring.var(ring.names[index_map[i]]) for i, name in enumerate(ring.names)}
    move = SubstHom(ring, ring, images).relabeling()
    for d in range(9):
        for m in ring.monomials_of_degree(d):
            assert move(m) == _ref_relabel(ring, ring, index_map, m)


def test_transport_moves_each_variable_to_its_name():
    rng = random.Random(7)
    weight = {"a": 1, "b": 2, "c": 1, "d": 3, "e": 1}
    source = PolyRing(["a", "b", "c"], [weight[n] for n in "abc"], 3)
    fs = [source.from_terms(rand_terms(rng, 3, n=3, max_exp=5)) for _ in range(20)]
    for names in ("abcde", "deabc", "cdbea", "bac"):
        target = PolyRing(list(names), [weight[n] for n in names], 3)
        index_map = {i: target.var_index(n) for i, n in enumerate(source.names)}
        rename = SubstHom(source, target, {n: target.var(n) for n in source.names})
        move = rename.relabeling()
        for f in fs:
            want = {_ref_relabel(source, target, index_map, m): c for m, c in f.coeffs.items()}
            assert rename(f).coeffs == want
            assert {move(m): c for m, c in f.coeffs.items()} == want
    fewer = PolyRing(["a", "b"], (1, 2), 3)
    with pytest.raises(KeyError):
        SubstHom(source, fewer, {n: fewer.var(n) for n in source.names})


def test_relabeling_must_be_one_to_one():
    ring = PolyRing(["a", "b", "c"])
    a, b, c = ring.gens()
    # two variables onto one, an image that is no variable
    for images in ({"a": a, "b": a, "c": c}, {"a": a, "b": b, "c": a * b}):
        assert SubstHom(ring, ring, images).relabeling() is None, images
    with pytest.raises(ValueError, match="no image for c"):  # a variable with no image
        SubstHom(ring, ring, {"a": b, "b": c})
    fewer = PolyRing(["a", "b"])
    u, v = fewer.gens()
    assert SubstHom(ring, fewer, {"a": u, "b": v, "c": u}).relabeling() is None


# unit weights, weights with gaps and an odd prime; the ids stay stable so
# that runs of this test can be compared over time
BASIS_RINGS = [(NAMES, WEIGHTS, 2), (("a", "b"), (2, 3), 2), (("u", "v", "t"), (1, 1, 2), 3)]


@pytest.mark.parametrize("names, weights, p", BASIS_RINGS, ids=["skip0", "skip1", "skip2"])
def test_basis_walk_matches_filtered_product(names, weights, p):
    ring = PolyRing(names, weights, p)
    for d in range(-1, 13):
        ranges = [range(max(d, 0) // w + 1) for w in weights]
        want = sorted((e for e in itertools.product(*ranges)
                       if sum(a * w for a, w in zip(e, weights)) == d), reverse=True)
        basis = ring.monomials_of_degree(d)
        assert [ring.exponents(m) for m in basis] == want
        assert basis == sorted(basis, reverse=True)
        assert all(m >> (8 * len(names)) == d for m in basis)
    # weights with gaps: no degree 1 or 5 beside the multiples of 2 and 3
    gaps = PolyRing(["a", "b"], (2, 3))
    assert [len(gaps.monomials_of_degree(d)) for d in range(8)] == [1, 0, 1, 1, 1, 1, 2, 1]


def test_basis_walk_matches_the_product_oracle_on_random_rings():
    # 300 rings of 1-6 variables of weights 1-5, 8 degrees each (-1 among
    # them), small enough that the oracle's box stays a few thousand tuples
    rng = random.Random(35)
    for _ in range(300):
        n = rng.randint(1, 6)
        ring = PolyRing([f"v{i}" for i in range(n)], [rng.randint(1, 5) for _ in range(n)],
                        rng.choice((2, 3, 5)))
        for d in rng.sample(range(-1, 11), 8):
            assert ring.monomials_of_degree(d) == monomials_by_product(ring, d), (ring.weights, d)


def test_basis_walk_of_the_empty_ring_and_of_one_variable():
    # the empty ring holds only the monomial 1, in degree 0
    empty = PolyRing([], [], 2)
    assert empty.monomials_of_degree(0) == [0] == monomials_by_product(empty, 0)
    assert empty.monomials_of_degree(3) == [] == monomials_by_product(empty, 3)
    # x of weight 3 has one monomial in each multiple of 3 and none between
    ring = PolyRing(["x"], [3], 3)
    for d in range(-1, 40):
        assert ring.monomials_of_degree(d) == monomials_by_product(ring, d), d
    assert ring.monomials_of_degree(9) == [ring.monomial((3,))]


@pytest.mark.parametrize("weights", [(1, 2, 2), (2, 3, 5)])
def test_basis_walk_on_a_table_that_ends_in_a_saturated_run(monkeypatch, weights):
    # a guard of 40 saturates the first table of 64 degrees; a degree past
    # the run is refused by count, and every degree of the table is
    # either the oracle's list or refused as over the guard
    monkeypatch.setattr(modp.exactalg, "MONOMIAL_GUARD", 40)
    ring = PolyRing(["a", "b", "c"], weights)
    with pytest.raises(ValueError, match=r"^degree 500 needs more than 40 monomials$"):
        ring.monomials_of_degree(500)
    limit, counts = ring._count_cache
    assert limit == 64 and min(counts[0][-min(weights):]) > 40
    for d in range(limit + 1):
        if counts[0][d] > 40:
            with pytest.raises(ValueError, match=rf"^degree {d} needs \d+ monomials"):
                ring.monomials_of_degree(d)
        else:
            assert ring.monomials_of_degree(d) == monomials_by_product(ring, d), d
    for d in (limit + 1, limit + 2, 500):
        with pytest.raises(ValueError, match=rf"^degree {d} needs more than 40 monomials$"):
            ring.monomials_of_degree(d)


@pytest.mark.parametrize("ring", [
    PolyRing(["a", "b"], (2, 3)),
    SWRing(11).ring,
], ids=["gaps", "spin11"])
def test_count_table_counts_the_basis(ring):
    counts = ring._count_table(40)[0]
    assert [counts[d] for d in range(41)] == [
        len(ring.monomials_of_degree(d)) for d in range(41)]


def test_exponent_overflow_raises_instead_of_carrying():
    ring = PolyRing(["x", "y"], modulus=3)
    x, y = ring.gens()
    assert dict((x ** 127).terms) == {(127, 0): 1}
    assert dict((x ** 100 * y ** 127).terms) == {(100, 127): 1}
    with pytest.raises(ValueError, match="x"):
        x ** 64 * x ** 64
    with pytest.raises(ValueError, match="y"):
        (y ** 100 + x) * y ** 28
    with pytest.raises(ValueError, match="x"):
        sum_of_products(ring, [[x ** 100, x ** 28, x ** 127, x]])
    with pytest.raises(ValueError, match="y"):
        ring.from_terms({(0, 128): 1})
    with pytest.raises(ValueError, match="x"):
        ring.monomials_of_degree(128)
    with pytest.raises(ValueError):
        ring.from_terms({(1, -1): 1})
    over2 = PolyRing(["x", "y"])
    with pytest.raises(ValueError, match="x"):
        over2.var("x") ** 200


def test_the_exponent_limit_on_both_sides():
    # the largest exponent a monomial holds, and the first one refused,
    # with its whole line
    ring = PolyRing(["x"])
    top = EXPONENT_LIMIT - 1
    assert ring.exponents(ring.monomial((top,))) == (top,)
    with pytest.raises(ValueError) as info:
        ring.monomial((EXPONENT_LIMIT,))
    assert info.value.args == (f"exponent {EXPONENT_LIMIT} of x is outside 0..{top}",)


TOP, BYTE = EXPONENT_LIMIT - 1, 2 * EXPONENT_LIMIT


@pytest.mark.parametrize("exps, bad", [
    ((TOP, 0, 5), None),
    # a guard bit: 128 and 255
    ((3, TOP + 1, 7), (TOP + 1, "y")),
    ((BYTE - 1, 0, 0), (BYTE - 1, "x")),
    ((0, BYTE - 56, TOP + 3), (BYTE - 56, "y")),
    # refused by bytes(): -1 and 256, also after a guard-bit exponent
    ((3, -1, 7), (-1, "y")),
    ((0, 1, BYTE), (BYTE, "z")),
    ((1, TOP + 1, -1), (TOP + 1, "y")),
    ((BYTE, TOP + 1, 0), (BYTE, "x")),
])
def test_each_branch_of_monomial_names_the_first_bad_exponent(exps, bad):
    # 127 packs; either branch names the first exponent outside 0..127
    ring = PolyRing(["x", "y", "z"], [1, 2, 3])
    if bad is None:
        assert ring.exponents(ring.monomial(exps)) == exps
        assert ring.monomial(exps) == monomial_by_fields(ring, exps)
        return
    for route in (ring.monomial, lambda e: monomial_by_fields(ring, e)):
        with pytest.raises(ValueError) as info:
            route(exps)
        assert info.value.args == (f"exponent {bad[0]} of {bad[1]} is outside "
                                   f"0..{EXPONENT_LIMIT - 1}",)


def test_monomial_and_from_terms_at_their_edges():
    ring = PolyRing(["x", "y"], modulus=3)
    with pytest.raises(ValueError) as info:
        ring.monomial((1, 2, 3))
    assert info.value.args == ("3 exponents for the 2 variables of F3[x,y]",)
    with pytest.raises(TypeError):
        ring.monomial((1.0, 2))
    with pytest.raises(TypeError):
        ring.monomial((1, 2.5))
    # a coefficient that is 0 mod 3 drops its term, and the rest reduce
    f = ring.from_terms({(1, 0): 3, (0, 1): -6, (2, 2): 4, (0, 0): -1})
    assert f.coeffs == {ring.monomial((2, 2)): 1, ring.monomial((0, 0)): 2}
    assert ring.from_terms({(1, 1): 9}) == ring.zero()


def test_monomial_matches_the_field_by_field_oracle():
    # random tuples of random rings, a quarter of them with an exponent
    # outside 0..127: both routes pack the same int or raise the same line
    rng = random.Random(71)
    for _ in range(400):
        n = rng.randrange(0, 7)
        ring = PolyRing([f"v{i}" for i in range(n)], [rng.randrange(1, 5) for _ in range(n)])
        exps = [rng.randrange(EXPONENT_LIMIT) for _ in range(n)]
        if n and rng.random() < 0.25:
            exps[rng.randrange(n)] = rng.choice((-300, -1, EXPONENT_LIMIT, 255, 256, 1000))
        results = []
        for route in (ring.monomial, lambda e: monomial_by_fields(ring, e)):
            try:
                results.append(route(tuple(exps)))
            except ValueError as err:
                results.append(err.args)
        assert results[0] == results[1]


@pytest.mark.parametrize("p", [2, 3])
def test_a_derivation_raises_the_overflow_line_of_the_gradient_route(p):
    # over F_2 the Bockstein: beta(t1^127) = s1*t1^127 and beta(s1^125) =
    # s1^126 answer, and beta(s1^127) = s1^128 overflows; over F_3, x -> x^2
    top = EXPONENT_LIMIT - 1
    if p == 2:
        derivation = bockstein(1)
        s1, t1 = derivation.ring.gens()
        assert derivation(t1 ** top) == s1 * t1 ** top
        assert derivation(s1 ** (top - 2)) == s1 ** (top - 1)
        over = s1 ** top
    else:
        ring = PolyRing(["x", "y"], modulus=3)
        x, y = ring.gens()
        derivation = Derivation(ring, {"x": x * x, "y": x})
        assert derivation(x ** (top - 1)) == (top - 1) * x ** top
        over = y * x ** top
    with pytest.raises(ValueError) as by_plan:
        derivation(over)
    with pytest.raises(ValueError) as by_gradient:
        derivation_by_gradient(derivation, over)
    assert by_plan.value.args == by_gradient.value.args == (
        f"exponent of {derivation.ring.names[0]} exceeds {top} in {derivation.ring}",)


def test_a_degree_past_the_ceiling_is_refused_without_a_table():
    ring = PolyRing(["x", "y"])
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^degree 1000000000 needs an exponent above 127$"):
        ring.monomials_of_degree(10 ** 9)
    assert time.perf_counter() - start < 0.1
    # the weights' gcd 2 does not divide it, so the degree is empty
    assert PolyRing(["x"], [2]).monomials_of_degree(10 ** 9 + 1) == []
    # up to the ceiling, the message names the exponent and the variable
    with pytest.raises(ValueError, match=r"^degree 128 needs exponent 128 of x, above 127$"):
        PolyRing(["x"]).monomials_of_degree(128)
    # of mixed weights: 301 = 2*149 + 3 is the most of degree 301 that x can take
    with pytest.raises(ValueError, match=r"^degree 301 needs exponent 149 of x, above 127$"):
        PolyRing(["x", "y"], [2, 3]).monomials_of_degree(301)


def test_a_degree_past_a_saturated_run_is_refused_by_count():
    ring = bso_presentation(1000).ring  # weights 2..1000, ceiling 564,562,872
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^degree 3000 needs more than 200000 monomials$"):
        ring.monomials_of_degree(3000)
    assert time.perf_counter() - start < 0.05
    # degrees 63 and 64 both hold more than 200,000 monomials, and the
    # least weight is 2, so the first table already ends in a saturated run
    limit, counts = ring._count_cache
    assert limit == 64 and min(counts[0][63:]) > 200_000
    with pytest.raises(ValueError, match=r"^degree 64 needs 236131 monomials \(> guard 200000\)$"):
        ring.monomials_of_degree(64)


def test_a_grown_count_table_equals_the_hilbert_series():
    ring = PolyRing(["a", "b", "c", "d"], (1, 2, 5, 3))
    ring._count_table(10)
    counts = ring._count_table(300)  # 64 degrees, extended by doubling to 512
    assert ring._count_cache[0] == 512
    for k in range(len(ring.names) + 1):
        assert counts[k] == Series((1,), ring.weights[k:]).coefficients(512), k
