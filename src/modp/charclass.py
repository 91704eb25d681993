"""Graded presentations of the characteristic-2 cohomology rings of the
classifying stacks in scope (BSO, BO, B mu_p, B Z/2 and their products),
u-class Whitney calculus, restriction homomorphisms to diagonal
subgroups, the Bockstein derivation, and Jacobian injectivity
certificates."""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from types import MappingProxyType
from typing import Sequence

from .exactalg import (
    GradedComponent,
    Poly,
    PolyRing,
    SubstHom,
    check_images,
    check_name,
    check_size,
    determinant,
    elementary_symmetric,
    elementary_symmetric_of,
    gradient,
    sum_of_products,
    _reduced,
)
from .groupdata import Series, _times_binomial


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int
    bidegree: tuple[int, int] | None = None
    square_zero: bool = False

    def __post_init__(self):
        check_name(self.name)
        if self.degree <= 0:
            raise ValueError(f"generator {self.name} needs positive degree")
        if self.bidegree is not None and sum(self.bidegree) != self.degree:
            raise ValueError(
                f"bidegree {self.bidegree} of {self.name} must add up to {self.degree}")


def generator_ring(generators: Sequence[Generator]) -> PolyRing:
    """The polynomial ring over F_2 on the generators, each weighted by its
    degree: the ring a GradedPresentation on them is built over."""
    return PolyRing([g.name for g in generators], [g.degree for g in generators])


class GradedPresentation:
    """Generators with degrees (optionally Hodge bidegrees and exterior
    square-zero flags) plus homogeneous relation polynomials, each given
    as a Poly over an equal ring or as text parsed in the presentation's
    ring, over F_2.  Generators and relations are tuples, fixed at
    construction."""

    def __init__(self, generators: Sequence[Generator], relations: Sequence[Poly | str] = ()):
        self.generators = tuple(generators)
        self.ring = generator_ring(self.generators)
        rels = []
        for rel in relations:
            if isinstance(rel, str):
                rel = self.ring.poly(rel)
            self.ring.check_same(rel.ring)
            if not rel.is_homogeneous():
                raise ValueError(f"relation {rel} is not homogeneous")
            rels.append(Poly(self.ring, rel.coeffs))
        self.relations = tuple(rels)
        self._minimal: GradedPresentation | None = None

    def generator(self, name: str) -> Generator:
        for g in self.generators:
            if g.name == name:
                return g
        raise KeyError(name)

    def minimal(self) -> "GradedPresentation":
        """The same graded ring on fewer generators, memoised: while some
        relation r has a term g, a generator that is not square-zero
        (deg g = deg r, so no other term of r holds g), drop g and send
        every relation through g -> r - g, the image of r under g -> 0,
        keeping the images that are not zero (r goes to zero).  The series
        is not consulted, so a dim_degree of the result checks series()
        independently."""
        if self._minimal is None:
            pres = self
            while True:
                units = pres.ring._unit_index
                found = [(rel, units[m]) for rel in pres.relations for m in rel.coeffs
                         if m in units and not pres.generators[units[m]].square_zero]
                if not found:
                    break
                rel, i = found[0]
                name = pres.generators[i].name
                gens = pres.generators[:i] + pres.generators[i + 1:]
                ring = generator_ring(gens)
                images = dict(zip(ring.names, ring.gens()), **{name: ring.zero()})
                images[name] = SubstHom(pres.ring, ring, images)(rel)
                hom = SubstHom(pres.ring, ring, images)
                pres = GradedPresentation(gens, [f for f in map(hom, pres.relations) if f])
            self._minimal = pres
        return self._minimal

    # -- series and exact degreewise dimensions ------------------------

    def series(self, truncation: int = 40) -> Series:
        """Hilbert series under the complete-intersection reading: each
        relation and each exterior square contributes a (1-q^e) factor.
        dim_degree is the exact cross-check."""
        num = [1]
        for rel in self.relations:
            num = _times_binomial(num, rel.degree(), -1)
        for g in self.generators:
            if g.square_zero:
                num = _times_binomial(num, 2 * g.degree, -1)
        return Series(num, tuple(g.degree for g in self.generators), truncation)

    def _all_relations(self) -> list[Poly]:
        rels = list(self.relations)
        for g in self.generators:
            if g.square_zero:
                rels.append(self.ring.var(g.name) ** 2)
        return rels

    def dim_degree(self, d: int) -> int:
        """Exact dimension of the degree-d component of the quotient:
        count of ambient monomials minus the rank of all relation
        multiples mono * rel in that degree, packed as (mono, 1, rel.coeffs)."""
        if d < 0:
            return 0
        comp = GradedComponent(self.ring, d)
        rows = comp.vectors((mono, 1, rel.coeffs) for rel in self._all_relations()
                            for mono in self.ring.monomials_of_degree(d - rel.degree()))
        return len(comp.basis) - comp.rank(rows)

    def to_json(self) -> dict:
        gens = []
        for g in self.generators:
            entry: dict = {"name": g.name, "degree": g.degree}
            if g.bidegree is not None:
                entry["bidegree"] = list(g.bidegree)
            if g.square_zero:
                entry["square_zero"] = True
            gens.append(entry)
        return {"generators": gens, "relations": [str(r) for r in self.relations]}

    def __repr__(self):
        gens = ",".join(g.name for g in self.generators)
        rels = "; ".join(str(r) for r in self.relations) or "0"
        return f"GradedPresentation(k[{gens}]/({rels}))"


# -- the cataloged rings ----------------------------------------------

def _u_generators(n: int) -> list[Generator]:
    """u_2, ..., u_n with u_2a in Hodge bidegree (a, a) and u_2a+1 in
    (a+1, a)."""
    return [Generator(f"u{m}", m, (m - m // 2, m // 2)) for m in range(2, n + 1)]


# `modp ring --name bso --n 1000 --series-to 10000` takes about 1.4 s;
# n = 1,000,000 ran past 20 s.
PRESENTATION_MAX_N = 1000


def bso_presentation(n: int) -> GradedPresentation:
    """k[u_2, ..., u_n] with u_2a in Hodge bidegree (a, a) and u_2a+1 in
    (a+1, a)."""
    check_size("n", n, 2, PRESENTATION_MAX_N)
    return GradedPresentation(_u_generators(n))


def bo_presentation(n: int) -> GradedPresentation:
    """k[u_1, ..., u_2r] for even n; k[v_1, c_1, u_2, ..., u_2r+1]/(v_1^2)
    for odd n (O(2r+1) = SO(2r+1) x mu_2)."""
    check_size("n", n, 1, PRESENTATION_MAX_N)
    if n % 2 == 0:
        return GradedPresentation([Generator("u1", 1, (1, 0))] + _u_generators(n))
    return GradedPresentation(list(bmu_p_presentation().generators) + _u_generators(n))


def bmu_p_presentation(c_name: str = "c1", v_name: str = "v1") -> GradedPresentation:
    """k[c_1]<v_1>: a polynomial class in bidegree (1,1) and an exterior
    class in bidegree (0,1)."""
    return GradedPresentation(
        [Generator(v_name, 1, (0, 1), square_zero=True), Generator(c_name, 2, (1, 1))])


def bz2_presentation(name: str = "s") -> GradedPresentation:
    """k[s] with s of degree 1 (group cohomology of Z/2)."""
    return GradedPresentation([Generator(name, 1, (1, 0))])


def kunneth(a: GradedPresentation, b: GradedPresentation) -> GradedPresentation:
    """Tensor product: disjoint union of generators and relations.  Name
    collisions in the second factor get a _b suffix; each factor's
    relations move into the product ring through a renaming SubstHom."""
    taken = {g.name for g in a.generators}
    mapping = {}
    for g in b.generators:
        new = g.name
        while new in taken:
            new = new + "_b"
        mapping[g.name] = new
        taken.add(new)
    gens = list(a.generators) + [
        Generator(mapping[g.name], g.degree, g.bidegree, g.square_zero)
        for g in b.generators]
    ring = generator_ring(gens)
    from_a = SubstHom(a.ring, ring, {name: ring.var(name) for name in a.ring.names})
    from_b = SubstHom(b.ring, ring, {name: ring.var(mapping[name]) for name in b.ring.names})
    relations = list(map(from_a, a.relations)) + list(map(from_b, b.relations))
    return GradedPresentation(gens, relations)


# -- u-class Whitney calculus ------------------------------------------

class UClass:
    """A truncated total class: components[m] is homogeneous of degree m
    and components[0] = 1.  `presentation` and `components` are read-only,
    since the constructor checked one against the other."""

    __slots__ = ("_presentation", "_components")

    def __init__(self, presentation: GradedPresentation, components: list[Poly]):
        self._presentation = presentation
        ring = presentation.ring
        if not components or components[0] != ring.one():
            raise ValueError("u_0 must equal 1")
        for m, f in enumerate(components):
            ring.check_same(f.ring)
            if f.coeffs and not m == min(f.coeffs) >> ring._shift == max(f.coeffs) >> ring._shift:
                raise ValueError(f"component {m} is not homogeneous of degree {m}")
        self._components = tuple(components)

    presentation = property(lambda self: self._presentation)
    components = property(lambda self: self._components)

    @property
    def truncation(self) -> int:
        return len(self._components) - 1

    def __getitem__(self, m: int) -> Poly:
        return self._components[m]

    def __eq__(self, other):
        return (isinstance(other, UClass)
                and self._presentation.ring == other._presentation.ring
                and self._components == other._components)

    def even_part(self) -> "UClass":
        ring = self._presentation.ring
        comps = [f if m % 2 == 0 else ring.zero()
                 for m, f in enumerate(self._components)]
        return UClass(self._presentation, comps)


def unit_uclass(presentation: GradedPresentation, truncation: int) -> UClass:
    ring = presentation.ring
    return UClass(presentation,
                  [ring.one()] + [ring.zero()] * truncation)


def whitney_sum(uE: UClass, uF: UClass) -> UClass:
    """Even part E_even F_even, odd part E_even F_odd + E_odd F_even, over the
    parity halves in degree order: each term a of the shorter half toggles, in
    one F_2 set, a + b for the prefix of the other with a + b < top, a bound on
    degree alone.  Kept sums past the safe degree are checked in the order the
    per-degree route meets them, so an overflow raises its line."""
    if uE.presentation is not uF.presentation and \
            uE.presentation.ring != uF.presentation.ring:
        raise ValueError("classes live in different presentations")
    ring = uE.presentation.ring
    shift, trunc = ring._shift, min(uE.truncation, uF.truncation)
    top = (trunc + 1) << shift
    e, f = ([c.coeffs for c in u.components[:trunc + 1]] for u in (uE, uF))
    if top > ring._safe:
        nonzero = [j for j, c in enumerate(e) if c]
        ring._check_fields(a + b for m in range(trunc + 1) for j in nonzero
                           if j <= m and not j & (m - j) & 1 for a in e[j] for b in f[m - j])
    e_even, e_odd, f_even, f_odd = ([*itertools.chain(*x[i::2])] for x in (e, f) for i in (0, 1))
    acc: set = set()
    for pair in ((e_even, f_even), (e_even, f_odd), (e_odd, f_even)):
        left, right = sorted(pair, key=len)
        for a in left:
            acc ^= {a + b for b in right[:bisect_left(right, top - a)]}
    comps: list[dict] = [{} for _ in range(trunc + 1)]
    for m in acc:
        comps[m >> shift][m] = 1
    return UClass(uE.presentation, [Poly(ring, c) for c in comps])


# -- restrictions to diagonal subgroups --------------------------------

def bo2_power_ring(r: int) -> PolyRing:
    """The Hodge cohomology of BO(2)^r mod radical: k[s_1..s_r, t_1..t_r]
    with |s_i| = 1, |t_i| = 2."""
    names = [f"s{i}" for i in range(1, r + 1)] + [f"t{i}" for i in range(1, r + 1)]
    return PolyRing(names, [1] * r + [2] * r, 2)


class RestrictionHom:
    """A degree-preserving SubstHom out of a presentation, checked to kill
    the source relations."""

    def __init__(self, source: GradedPresentation, hom: SubstHom):
        self.source = source
        self.hom = hom
        for name, img in hom.images.items():
            d = source.generator(name).degree
            if img and (not img.is_homogeneous() or img.degree() != d):
                raise ValueError(f"image of {name} is not homogeneous of degree {d}")
        for rel in source.relations:
            if hom(rel):
                raise ValueError(f"relation {rel} does not map to zero")

    def image_of(self, name: str) -> Poly:
        return self.hom.images[name]


# The symmetric functions of a restriction double in cost with each step
# of 2 in n: about 0.6 s and 48 MB at n = 28 as a whole process.
RESTRICTION_MAX_N = 28


def restriction_bso_to_bo2r(n: int) -> RestrictionHom:
    """Restriction to the diagonal BO(2)^r, r = floor(n/2).  Even classes
    go to elementary symmetric functions of the t_i.  Odd classes carry
    the Bockstein term, plus the u_1-correction when the source is the
    full orthogonal group (even n)."""
    check_size("n", n, 2, RESTRICTION_MAX_N)
    r = n // 2
    target = bo2_power_ring(r)
    ts = [f"t{i}" for i in range(1, r + 1)]
    svars = [target.var(f"s{i}") for i in range(1, r + 1)]
    tvars = [target.var(t) for t in ts]
    images = {f"u{2 * a}": elementary_symmetric(target, a, ts) for a in range(1, r + 1)}
    if n % 2 == 0:
        source = bo_presentation(n)
        images["u1"] = sum(svars, target.zero())
        for a in range(1, r):
            images[f"u{2 * a + 1}"] = sum_of_products(target, [
                (svars[m], elementary_symmetric(target, a, ts[:m] + ts[m + 1:]))
                for m in range(r)])
    else:
        source = bso_presentation(n)
        for a in range(1, r + 1):
            images[f"u{2 * a + 1}"] = sum_of_products(target, [
                (svars[m], tvars[m], elementary_symmetric(target, a - 1, ts[:m] + ts[m + 1:]))
                for m in range(r)])
    return RestrictionHom(source, SubstHom(source.ring, target, images))


def k_target_ring(r: int) -> PolyRing:
    """H*(BK)/rad for K = (mu_2)^{r-1} x Z/2: k[s, t_1..t_{r-1}] with t_r
    eliminated through t_1 + ... + t_r = 0."""
    names = ["s"] + [f"t{i}" for i in range(1, r)]
    return PolyRing(names, [1] + [2] * (r - 1), 2)


def collapse_to_K(r: int) -> SubstHom:
    """BO(2)^r -> K: every s_i goes to the one class s and t_r is
    rewritten through the linear relation."""
    source = bo2_power_ring(r)
    target = k_target_ring(r)
    t_last = sum((target.var(f"t{i}") for i in range(1, r)), target.zero())
    images = {}
    for i in range(1, r + 1):
        images[f"s{i}"] = target.var("s")
        images[f"t{i}"] = target.var(f"t{i}") if i < r else t_last
    return SubstHom(source, target, images)


def restriction_to_K(n: int) -> RestrictionHom:
    """BSO(n) -> K for odd n: u_2a goes to e_a(t) in the quotient and
    u_2a+1 to a*s*e_a(t), i.e. s*e_a for odd a and zero for even a."""
    check_size("n", n, 7, RESTRICTION_MAX_N)
    if n % 2 == 0:
        raise ValueError(f"need odd n, got {n}")
    r = n // 2
    source = bso_presentation(n)
    target = k_target_ring(r)
    ts = [target.var(f"t{i}") for i in range(1, r)]
    es = elementary_symmetric_of(target, r, ts + [sum(ts, target.zero())])
    s = target.var("s")
    images = {}
    for a in range(1, r + 1):
        images[f"u{2 * a}"] = es[a]
        images[f"u{2 * a + 1}"] = s * es[a] if a % 2 else target.zero()
    return RestrictionHom(source, SubstHom(source.ring, target, images))


# -- the Bockstein -----------------------------------------------------

class Derivation:
    """A derivation given by its value on every variable (check_images),
    extended by the Leibniz rule with exponent arithmetic in the
    coefficient field; `ring` and `images` are read-only, as the plan
    memo comes from them.

    D(x^m) = sum_i e_i x^(m - u_i) D(x_i) depends on m only through its
    exponents mod p, so each residue class met is planned once: its plan
    holds the offsets t - u_i over the terms c x^t of each D(x_i) with
    e_i != 0 mod p, each with its coefficient e_i c summed and reduced
    mod p, and the largest offset.  An offset is below zero when D(x_i)
    is a constant; m plus it is still a monomial, since e_i >= 1."""

    __slots__ = ("_ring", "_images", "_residues", "_plans")

    def __init__(self, ring: PolyRing, images: dict):
        check_images(ring, ring, images)
        self._ring = ring
        self._images = MappingProxyType({name: images[name] for name in ring.names})
        # byte e -> e mod p, so that a monomial's exponent bytes translate
        # into the key of its residue class
        self._residues = bytes(e % ring.modulus for e in range(256))
        self._plans: dict[bytes, tuple[tuple, int]] = {}

    ring = property(lambda self: self._ring)
    images = property(lambda self: self._images)

    def _plan(self, key: bytes) -> tuple[tuple, int]:
        """Build and memoise the plan of the residue class `key`: its
        offsets over F_2, where every coefficient is 1, else its (offset,
        coefficient) pairs, and the largest offset.  Each entry is written
        once with its final value, so threads sharing the derivation at
        worst build one twice."""
        ring = self._ring
        rel: dict[int, int] = {}
        for r, u, img in zip(key, ring._units, self._images.values()):
            if r:
                for t, c in img.coeffs.items():
                    rel[t - u] = rel.get(t - u, 0) + r * c
        rel = _reduced(ring, rel)
        plan = self._plans[key] = (tuple(rel) if ring.modulus == 2 else tuple(rel.items()),
                                   max(rel, default=0))
        return plan

    def __call__(self, f: Poly) -> Poly:
        """D(f): each term a x^m adds a times its class's plan, shifted by
        m, to one accumulator, reduced once: over F_2 the monomials m + t
        toggle a set, otherwise a*c is added to the sum at m + t.  A shift
        that may pass the exponent limit is checked first."""
        ring = self._ring
        ring.check_same(f.ring)
        low, n, residues, safe = ring._low, len(ring.names), self._residues, ring._safe
        plans, plan_of = self._plans, self._plan
        if ring.modulus == 2:
            acc = set()
            for m in f.coeffs:
                key = (m & low).to_bytes(n, "big").translate(residues)
                rel, top = plans.get(key) or plan_of(key)
                if m + top >= safe:
                    ring._check_fields(m + t for t in rel)
                acc.symmetric_difference_update(map(m.__add__, rel))
        else:
            acc = {}
            get = acc.get
            for m, a in f.coeffs.items():
                key = (m & low).to_bytes(n, "big").translate(residues)
                rel, top = plans.get(key) or plan_of(key)
                if m + top >= safe:
                    ring._check_fields(m + t for t, _ in rel)
                for t, c in rel:
                    t += m
                    acc[t] = get(t, 0) + a * c
        return Poly(ring, _reduced(ring, acc))


def bockstein(r: int) -> Derivation:
    """The Bockstein on k[s_1..s_r, t_1..t_r], pinned by beta(s_i) = s_i^2
    and beta(t_i) = s_i t_i."""
    ring = bo2_power_ring(r)
    images = {}
    for i in range(1, r + 1):
        s, t = ring.var(f"s{i}"), ring.var(f"t{i}")
        images[f"s{i}"] = s * s
        images[f"t{i}"] = s * t
    return Derivation(ring, images)


# -- Jacobian injectivity certificates ---------------------------------

@dataclass(frozen=True)
class JacobianReport:
    variant: str
    r: int
    determinant: Poly
    expected: Poly
    row_factors: tuple[Poly, ...] = ()

    @property
    def ok(self) -> bool:
        return self.determinant == self.expected

    @property
    def difference(self) -> Poly:
        return self.determinant - self.expected


def _vandermonde(ring: PolyRing, ts: list[str]) -> Poly:
    out = ring.one()
    for a, b in itertools.combinations(ts, 2):
        out = out * (ring.var(a) + ring.var(b))
    return out


def jacobian_certificate(r: int, variant: str = "O") -> JacobianReport:
    """Certify generic etaleness of the odd-class restriction: the matrix
    of derivatives of the odd u-classes equals the char-2 Vandermonde
    product of t_1..t_r.  The O variant takes u_1, u_3, ..., u_2r-1 on
    BO(2)^r against s_1..s_r.  The SO variant takes u_3, ..., u_2r-1,
    pushed into H*(BH)/rad, against x_1..x_r-1; row j of its matrix
    carries the factor t_j + t_r, and those factors times the rank-(r-1)
    Vandermonde make up the rank-r one."""
    check_size("r", r, 2, 6)  # desk scale
    if variant not in ("O", "SO"):
        raise ValueError("variant must be O or SO")
    rest = restriction_bso_to_bo2r(2 * r)
    ts = [f"t{i}" for i in range(1, r + 1)]
    if variant == "O":
        ring = rest.hom.target
        odd = [rest.image_of(f"u{m}") for m in range(1, 2 * r, 2)]
        xs = [f"s{j}" for j in range(1, r + 1)]
        row_factors = ()
    else:
        # into H*(BH)/rad: s_i -> x_i for i < r, s_r -> x_1+...+x_{r-1}, t_i -> t_i
        xs = [f"x{j}" for j in range(1, r)]
        ring = PolyRing(xs + ts, [1] * (r - 1) + [2] * r, 2)
        gens = ring.gens()
        to_bh = SubstHom(rest.hom.target, ring, dict(zip(
            rest.hom.target.names,
            gens[:r - 1] + (sum(gens[:r - 1], ring.zero()),) + gens[r - 1:])))
        odd = [to_bh(rest.image_of(f"u{m}")) for m in range(3, 2 * r, 2)]
        row_factors = tuple(ring.var(f"t{j}") + ring.var(f"t{r}") for j in range(1, r))
    grads = [gradient(f) for f in odd]
    matrix = [[grad[ring.var_index(x)] for grad in grads] for x in xs]
    return JacobianReport(variant, r, determinant(matrix), _vandermonde(ring, ts), row_factors)
