"""The packed-monomial polynomial core against a schoolbook reference on
exponent-tuple dicts that lives here, plus the basis walk against a
filtered itertools.product and its count table, and the exponent-overflow
guard."""

import itertools
import random

import pytest

from modp.charclass import Derivation
from modp.exactalg import PolyRing, SubstHom, partial_derivative
from modp.quillen import SWRing

NAMES = ("x", "y", "z", "w")
WEIGHTS = (1, 2, 1, 3)


def _reduce(terms, p):
    out = {}
    for m, c in terms.items():
        c = c % p if p else c
        if c:
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


def rand_terms(rng, p, n=len(NAMES), max_terms=6, max_exp=3):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = tuple(rng.randrange(max_exp) for _ in range(n))
        terms[mono] = rng.randrange(1, p) if p else rng.randrange(-5, 6)
    return _reduce(terms, p)


@pytest.mark.parametrize("p", [2, 3, 0])
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
        for i, name in enumerate(NAMES):
            assert dict(partial_derivative(f, name).terms) == ref_partial(tf, i, p)


@pytest.mark.parametrize("p", [2, 3, 0])
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
        want = {}
        for i in range(n):
            want = ref_add(want, ref_mul(ref_partial(tf, i, p), imgs[i], p), p)
        assert dict(Derivation(ring, polys)(f).terms) == want


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
    with pytest.raises(ValueError, match="y"):
        ring.from_terms({(0, 128): 1})
    with pytest.raises(ValueError, match="x"):
        ring.monomials_of_degree(128)
    with pytest.raises(ValueError):
        ring.from_terms({(1, -1): 1})
    over2 = PolyRing(["x", "y"])
    with pytest.raises(ValueError, match="x"):
        over2.var("x") ** 200
