"""Weyl group actions on character-lattice polynomial rings in
characteristic p, the eta/mu invariant products for the spin groups, and
degree-by-degree verification of claimed invariant-ring presentations
against a brute-force kernel oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .exactalg import (
    GradedComponent,
    Poly,
    PolyRing,
    SubstHom,
    check_monomial_guard,
    check_size,
    elementary_symmetric_of,
)
from .groupdata import Series

# The claims grow as 2^size: eta/mu has degree up to 2^(r-1), and e_0..e_r
# hold 2^r terms.  `modp invariants ... --max-degree 2` takes 0.11 s (Spin),
# 0.29 s (quotient) and 0.19-0.23 s (B, C, D) at each bound as a whole
# process, and the cost at least doubles with each step above it.
SPIN_MAX_N = 13
QUOTIENT_MAX_R = 13
CLASSICAL_MAX_RANK = 14


class WeylAction:
    """A finite tuple of grading-preserving ring endomorphisms that
    generate a group.

    `xs` are the values of the torus coordinates x_1..x_r inside the ring
    (the last one may be the eliminated variable, rewritten through the
    linear relation x_1 + ... + x_r = 0), and `A` is the extra spin weight
    when present.

    `generators` is the one generating set: the incremental invariant
    oracle and the invariance check of `verify_presentation` apply exactly
    these (at most four, see `_weyl_action`).  They are sorted once, here:
    the signed monomial moves of those with a `SubstHom.relabeling`
    (variables sent to variables, with coefficient 1 or p - 1) are folded
    into orbits, and the rest are the homs the oracle eliminates.  So B, C
    and D and the rank-2 quotient keep none; the quotients of rank 3 and
    more keep s(r-1,r), which sends x_{r-1} to x_r = -(x_1 + ... +
    x_{r-1}); and Spin keeps two, s(r-1,r) and its sign generator, which
    sends A to a sum.  Every attribute is read-only, so the sorted homs
    cannot go stale."""

    __slots__ = ("_ring", "_generators", "_xs", "_A", "_label", "_moves", "_linear")

    def __init__(self, ring: PolyRing, generators: Sequence[tuple[str, SubstHom]],
                 xs: Sequence[Poly], A: Poly | None = None, label: str = ""):
        self._ring = ring
        self._generators = tuple(generators)
        self._xs = tuple(xs)
        self._A = A
        self._label = label
        moves = [hom.relabeling() for _, hom in self._generators]
        self._moves = tuple(move for move in moves if move is not None)
        self._linear = tuple(h for (_, h), move in zip(self._generators, moves) if move is None)

    ring = property(lambda self: self._ring)
    generators = property(lambda self: self._generators)
    xs = property(lambda self: self._xs)
    A = property(lambda self: self._A)
    label = property(lambda self: self._label)

    def __repr__(self):
        return f"WeylAction({self.label}, {len(self.generators)} generators)"


def _weyl_action(ring: PolyRing, xs: list[Poly], sign: tuple[str, dict] | None,
                 label: str, A: Poly | None = None) -> WeylAction:
    """The action generated by the sign generator `sign`, given by the
    images it changes, then s(1,2), the cycle c(1..k) x_i -> x_{i mod k + 1}
    of the k >= 3 coordinates that are ring variables, and s(r-1,r) when
    x_r is eliminated (k = r - 1 >= 2); a generator fixes every variable it
    does not change.  (1 2) and (1 2 ... k) generate S_k (Coxeter-Moser,
    Generators and Relations for Discrete Groups, ch. 6), (k k+1) extends
    it to S_r, and S_r conjugates eps_1 (or eps_1 eps_2) to every eps_i (or
    eps_i eps_j), so these generate the whole group (Humphreys, Reflection
    Groups and Coxeter Groups, 1 and 2.10).  Every s(i,j) and sign change
    is built only in tests/oracles.py, for the stacked oracle."""
    fixed = {name: ring.var(name) for name in ring.names}
    r = len(xs)
    k = r if f"x{r}" in fixed else r - 1
    cycles = [("s(1,2)", (1, 2))] if r >= 2 else []
    if k >= 3:
        cycles.append((f"c(1..{k})", tuple(range(1, k + 1))))
    if k == r - 1 >= 2:
        cycles.append((f"s({r - 1},{r})", (r - 1, r)))
    changes = ([sign] if sign else []) + [
        (name, {f"x{i}": xs[t - 1] for i, t in zip(c, c[1:] + c[:1]) if f"x{i}" in fixed})
        for name, c in cycles]
    return WeylAction(ring, [(name, SubstHom(ring, ring, dict(fixed, **images)))
                             for name, images in changes], xs, A, label)


def _quotient_ring_xs(r: int, p: int, extra: tuple[str, ...] = ()) -> tuple[PolyRing, list[Poly]]:
    """F_p[x_1..x_{r-1}, extra...] with x_r eliminated through
    x_1 + ... + x_r = 0."""
    names = [f"x{i}" for i in range(1, r)] + list(extra)
    ring = PolyRing(names, modulus=p)
    xs = [ring.var(f"x{i}") for i in range(1, r)]
    return ring, xs + [-sum(xs, ring.zero())]


def spin_action(n: int, p: int = 2) -> WeylAction:
    """The Weyl group of Spin(n) acting on F_2[x_1..x_r, A]/(x_1+...+x_r):
    S_r permutes the x_i and fixes A; the sign part acts through
    eps_i(A) = A - x_i (odd n) or eps_1 eps_j (even n), trivially on the
    x_i themselves mod 2."""
    if p != 2:
        raise ValueError("the x/A model of the spin character lattice is defined mod 2 only")
    check_size("n", n, 6, SPIN_MAX_N)  # smaller spin groups have symplectic factors
    r = n // 2
    ring, xs = _quotient_ring_xs(r, 2, extra=("A",))
    A = ring.var("A")
    if n % 2:
        sign = ("eps1", {"A": A + xs[0]})
    else:
        sign = ("eps1*eps2", {"A": A + xs[0] + xs[1]})
    return _weyl_action(ring, xs, sign, f"Spin({n}) mod {p}", A)


def classical_action(family: str, rank: int, p: int) -> WeylAction:
    """W(B/C/D) acting on F_p[x_1..x_r]: permutations plus sign changes
    (the sign part is trivial when p = 2)."""
    if family not in ("B", "C", "D"):
        raise ValueError(f"classical_action takes B, C or D, not {family!r}")
    check_size("rank", rank, 1, CLASSICAL_MAX_RANK)
    ring = PolyRing([f"x{i}" for i in range(1, rank + 1)], modulus=p)
    xs = list(ring.gens())
    if family in ("B", "C"):
        sign = ("eps1", {"x1": -xs[0]})
    else:  # D1 has no sign change
        sign = ("eps1*eps2", {"x1": -xs[0], "x2": -xs[1]}) if rank > 1 else None
    return _weyl_action(ring, xs, sign, f"{family}{rank} mod {p}")


def symmetric_quotient_action(r: int, p: int = 2) -> WeylAction:
    """S_r acting on F_p[x_1..x_r]/(x_1+...+x_r) (the Nakajima setting)."""
    check_size("r", r, 2, QUOTIENT_MAX_R)
    ring, xs = _quotient_ring_xs(r, p)
    return _weyl_action(ring, xs, None, f"S{r} on quotient mod {p}")


def _span_product(action: WeylAction, name: str, j: int, high: int, every: bool) -> Poly:
    """prod over the subsets I of {1..j}, of every size or of even size,
    of (A - sum_I x_i), for an index j in 1..high.  Mod 2 the sums run over
    the F_2-combinations of y = x_1..x_j, or of y = x_1 + x_i for i = 2..j,
    and their product P(T) is additive (Ore, Trans. AMS 1933), so adding y
    gives P(T) * P(T + y) = P(T) * (P(T) + P(y)): the y are taken off one
    at a time, each value v left becoming v * (v + y), in j steps."""
    if action.A is None:
        raise ValueError(f"{name} needs the spin model with the A variable")
    check_size(f"{name} index", j, 1, high)
    xs = action.xs[:j]
    values = [action.A, *(xs if every else [xs[0] + x for x in xs[1:]])]
    while len(values) > 1:
        y = values.pop()
        values = [v * (v + y) for v in values]
    return values[0]


def eta(action: WeylAction, j: int) -> Poly:
    """eta_j = prod over all subsets I of {1..j} of (A - sum_I x_i);
    degree 2^j, invariant under eps_1..eps_j."""
    return _span_product(action, "eta", j, len(action.xs) - 1, True)


def mu(action: WeylAction, j: int) -> Poly:
    """mu_j = prod over even-size subsets I of {1..j} of (A - sum_I x_i);
    degree 2^(j-1), mu_1 = A, invariant under the eps_1 eps_i."""
    return _span_product(action, "mu", j, len(action.xs), False)


# -- brute-force invariant dimensions ---------------------------------

def _orbit_classes(basis: Sequence[int], moves: Sequence[Callable[[int], int]]
                   ) -> list[tuple[list[int], dict[int, int] | None]]:
    """The orbits of the basis under the group the monomial moves
    generate, one (orbit, signs) pair per orbit.  `orbit` lists its
    monomials, closed by breadth-first search from its first basis
    monomial.  A move sends m to minus move(m) when
    (m & move.mask).bit_count() is odd, so the walk gives each monomial a
    sign bit relative to the first, and `signs` maps the orbit's
    monomials to those bits (it is the one dict of the whole walk).  It is
    None when the orbit is dead: the walk reached one of its monomials
    with both signs, so some group element sends a monomial to minus
    itself, and no invariant is supported on the orbit.  The signed sums
    of the live orbits are a basis of the invariants that the moves alone
    fix (invariants of monomial groups: Derksen-Kemper, Computational
    Invariant Theory, 2nd ed. 2015; Stanley, Bull. AMS 1979).  Signs are
    compared only when some move flips one."""
    seen: dict[int, int] = {}
    signed = any(move.mask for move in moves)
    classes = []
    for mono in basis:
        if mono in seen:
            continue
        seen[mono] = 0
        orbit, live = [mono], True
        for m in orbit:  # grows while it is walked
            for move in moves:
                t = move(m)
                if t not in seen:  # with no sign to carry, every bit is 0 (False)
                    seen[t] = signed and seen[m] ^ (m & move.mask).bit_count() & 1
                    orbit.append(t)
                elif signed and seen[t] != seen[m] ^ (m & move.mask).bit_count() & 1:
                    live = False
        classes.append((orbit, seen if live else None))
    return classes


def brute_invariant_dimension(action: WeylAction, d: int) -> int:
    """dim of the joint kernel of (g - 1) on the weighted-degree-d
    component, under the action's generators: the signed variable
    permutations among them are folded into orbits first, each live
    orbit giving one invariant, and the fixed signed orbit sums (as
    coefficient dicts) of the rest are found by F_p elimination, one hom
    at a time; the fixed vectors of the last are counted, not unpacked."""
    ring = action.ring
    live = [(orbit, signs) for orbit, signs in
            _orbit_classes(ring.monomials_of_degree(d), action._moves) if signs is not None]
    if not action._linear:
        return len(live)
    comp = GradedComponent(ring, d)
    coeffs = (1, ring.modulus - 1)
    fixed = [{m: coeffs[signs[m]] for m in orbit} for orbit, signs in live]
    *first, last = action._linear
    for hom in first:
        fixed = [comp.coeffs(v) for v in comp.fixed_combinations(fixed, hom)]
    return len(comp.fixed_combinations(fixed, last))


# -- claimed presentations and verification ---------------------------

@dataclass(frozen=True)
class ClaimedPresentation:
    """Named generators with degrees and their values inside an action's
    ring: a claimed polynomial ring, with no relations.  Both sequences
    are stored as tuples."""

    names: tuple[str, ...]
    values: tuple[Poly, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "values", tuple(self.values))
        for name, v in zip(self.names, self.values):
            if v.is_zero() or not v.is_homogeneous():
                raise ValueError(f"generator {name} must be homogeneous and nonzero")

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(v.degree() for v in self.values)


def _symmetric_claim(ring: PolyRing, values: Sequence[Poly], low: int, high: int,
                     prefix: str = "c", step: int = 1) -> tuple[list[str], list[Poly]]:
    """The names prefix{step*i} and the values e_i(values), for i from
    low to high."""
    return ([f"{prefix}{step * i}" for i in range(low, high + 1)],
            elementary_symmetric_of(ring, high, values)[low:])


def spin_claimed(action: WeylAction, n: int) -> ClaimedPresentation:
    """The claimed invariant ring for Spin(n): k[c_2..c_r, eta_{r-1}] for
    odd n, k[c_2..c_r, mu_{r-1}] (r even) or k[c_2..c_r, mu_r] (r odd)."""
    r = len(action.xs)
    names, values = _symmetric_claim(action.ring, action.xs, 2, r)
    if n % 2:
        names.append(f"eta{r - 1}")
        values.append(eta(action, r - 1))
    else:
        j = r - 1 if r % 2 == 0 else r
        names.append(f"mu{j}")
        values.append(mu(action, j))
    return ClaimedPresentation(names, values)


def nakajima_claimed(action: WeylAction) -> ClaimedPresentation:
    """S_r invariants of the quotient ring: k[c_2..c_r], except k[x_1]
    for r = 2 over F_2, where x_2 = x_1 is fixed by s(1,2)."""
    r = len(action.xs)
    if r == 2 and action.ring.modulus == 2:
        return ClaimedPresentation(["x1"], [action.ring.var("x1")])
    return ClaimedPresentation(*_symmetric_claim(action.ring, action.xs, 2, r))


def classical_claimed(action: WeylAction, family: str, rank: int, p: int) -> ClaimedPresentation:
    """Symmetric functions k[c_1..c_r] when p = 2 (sign part trivial);
    for odd p the B/C invariants are symmetric functions d_2i = e_i of
    the squares, and D keeps e_r(x) itself."""
    ring, xs = action.ring, action.xs
    if p == 2:
        return ClaimedPresentation(*_symmetric_claim(ring, xs, 1, rank))
    top = rank if family in ("B", "C") else rank - 1
    names, values = _symmetric_claim(ring, [x * x for x in xs], 1, top, "d", 2)
    if family == "D":
        names.append(f"e{rank}")
        values.append(elementary_symmetric_of(ring, rank, xs)[rank])
    return ClaimedPresentation(names, values)


@dataclass(frozen=True)
class DegreeRow:
    degree: int
    invariant_dim: int
    span_rank: int
    series_coeff: int

    @property
    def ok(self) -> bool:
        return self.invariant_dim == self.span_rank == self.series_coeff


@dataclass(frozen=True)
class VerifyReport:
    label: str
    claimed: tuple[str, ...]
    rows: tuple[DegreeRow, ...]
    failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failure is None and all(r.ok for r in self.rows)


def verify_presentation(action: WeylAction, cp: ClaimedPresentation,
                        dmax: int) -> VerifyReport:
    """Per degree d <= dmax, compare three integers: the brute-force
    invariant dimension, the rank of the span of all degree-d products of
    the claimed generators, and the claimed Hilbert series coefficient.
    Claimed generators are checked for invariance under the action's
    generators, in order.
    The top degree and the monomial guard on every degree are checked
    before any work."""
    ring = action.ring
    check_size("max degree", dmax, 1, math.inf)
    check_monomial_guard(ring, range(dmax + 1))
    label = action.label
    for gname, value in zip(cp.names, cp.values):
        for hname, hom in action.generators:
            if hom(value) != value:
                return VerifyReport(label, cp.names, (),
                                    failure=f"generator {gname} is not invariant under {hname}")
    coeffs = Series((1,), cp.degrees).coefficients(dmax)
    products = PolyRing(cp.names, cp.degrees, ring.modulus)
    span = SubstHom(products, ring, dict(zip(cp.names, cp.values)))
    rows = []
    for d in range(1, dmax + 1):
        comp = GradedComponent(ring, d)
        vectors = [comp.vector(image)
                   for image in span.monomial_images(products.monomials_of_degree(d))]
        rows.append(DegreeRow(d, brute_invariant_dimension(action, d),
                              comp.rank(vectors), coeffs[d]))
    return VerifyReport(label, cp.names, tuple(rows))


def lemma_inv2_check(ring: PolyRing, a: Poly, x: str, dmax: int) -> VerifyReport:
    """Check degreewise that the invariants of x -> x + a on R[x] are
    exactly R[u] for u = x(x + a): verify the claim k[<the variables of
    R>, u] under the one generator x -> x + a.  The lemma is about
    characteristic 2, where that generator has order 2; another modulus
    raises ValueError."""
    if ring.modulus != 2:
        raise ValueError(f"lemma inv2 is a statement in characteristic 2, not over {ring}")
    ring.check_same(a.ring)
    xi = ring.var_index(x)
    if a.is_zero():
        raise ValueError("a = 0 makes the action trivial; lemma hypothesis violated")
    if any(ring.exponents(m)[xi] for m in a.coeffs):
        raise ValueError(f"a must lie in the base ring (no {x})")
    if not a.is_homogeneous() or a.degree() != ring.weights[xi]:
        raise ValueError(f"a must be homogeneous of the weight of {x}")
    xvar = ring.var(x)
    hom = SubstHom(ring, ring, {n: (xvar + a if n == x else ring.var(n))
                                for n in ring.names})
    action = WeylAction(ring, [("sigma", hom)], [], label=f"Z/2 on {ring}")
    base = [n for n in ring.names if n != x]
    claim = ClaimedPresentation(base + ["u"], [ring.var(n) for n in base] + [xvar * (xvar + a)])
    report = verify_presentation(action, claim, dmax)
    return VerifyReport(report.label, ("u",), report.rows, report.failure)
