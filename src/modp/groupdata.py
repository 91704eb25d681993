"""Static catalog of split reductive group data: fundamental degrees, bad
and torsion primes, small-rank Weyl group enumeration, and Poincare
polynomials of flag varieties."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .exactalg import check_size

SIMPLE_FAMILIES = ("A", "B", "C", "D", "G2", "F4", "E6", "E7", "E8")
MATRIX_FAMILIES = ("GL", "SO", "O", "Sp", "Spin")

_EXCEPTIONAL_RANK = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}
_MINIMUM_RANK = dict(_EXCEPTIONAL_RANK, A=1, B=1, C=1, D=3, GL=1, SO=2, O=1, Sp=2, Spin=3)
_EXCEPTIONAL_DEGREES = {
    "G2": [2, 6],
    "F4": [2, 6, 8, 12],
    "E6": [2, 5, 6, 8, 9, 12],
    "E7": [2, 6, 8, 10, 12, 14, 18],
    "E8": [2, 8, 12, 14, 18, 20, 24, 30],
}


@dataclass(frozen=True)
class GroupSpec:
    """A cataloged group.  For the simple families the rank is the Lie
    rank; for GL/SO/O/Sp/Spin it is the matrix size n."""

    family: str
    rank: int

    def __post_init__(self):
        fam, n = self.family, self.rank
        if fam not in SIMPLE_FAMILIES + MATRIX_FAMILIES:
            raise ValueError(f"unknown family {fam!r}")
        if fam in _EXCEPTIONAL_RANK and n != _EXCEPTIONAL_RANK[fam]:
            raise ValueError(f"{fam} has rank {_EXCEPTIONAL_RANK[fam]}, got {n}")
        check_size(f"the rank of {fam}", n, _MINIMUM_RANK[fam], math.inf)
        if fam == "Sp" and n % 2:
            raise ValueError("Sp takes an even matrix size 2n")
        # flag_poincare takes about 0.3 s at Lie rank 120
        check_size(f"the Lie rank of {self}", _root_system(self)[1], 0, 120)

    def __str__(self):
        return self.family if self.family in _EXCEPTIONAL_RANK else f"{self.family}{self.rank}"


def fundamental_degrees(g: GroupSpec) -> list[int]:
    """Degrees of the generators of the characteristic-zero Weyl
    invariants, read from the root system; their product is the Weyl group
    order.  GL(n) keeps its own degrees 1..n (S_n acts on all n
    coordinates of its torus), and the low ranks follow the formulas:
    D_1 = [1], D_2 = [2, 2] and B_0 (O(1)) = []."""
    if g.family == "GL":
        return list(range(1, g.rank + 1))
    fam, n = _root_system(g)
    if fam == "A":
        return list(range(2, n + 2))
    if fam in ("B", "C"):
        return [2 * i for i in range(1, n + 1)]
    if fam == "D":
        return sorted([2 * i for i in range(1, n)] + [n])
    if fam in _EXCEPTIONAL_DEGREES:
        return list(_EXCEPTIONAL_DEGREES[fam])
    raise ValueError(f"no degree data for {g}")


_BAD_PRIMES = {"A": (), "B": (2,), "C": (2,), "D": (2,), "G2": (2, 3), "F4": (2, 3),
               "E6": (2, 3), "E7": (2, 3), "E8": (2, 3, 5)}


def good_primes_excluded(g: GroupSpec) -> frozenset[int]:
    """The bad primes, by the family of the root system: none for type A
    (and GL), {2} for B/C/D, {2,3} for the exceptional groups, {2,3,5}
    for E8."""
    return frozenset(_BAD_PRIMES[_root_system(g)[0]])


# family: (torsion primes, the least rank that has them)
_TORSION = {"A": ((), 0), "C": ((), 0), "GL": ((), 0), "Sp": ((), 0), "G2": ((2,), 0),
            "F4": ((2, 3), 0), "E6": ((2, 3), 0), "E7": ((2, 3), 0), "E8": ((2, 3, 5), 0),
            "B": ((2,), 3), "D": ((2,), 4), "Spin": ((2,), 7), "SO": ((2,), 3), "O": ((2,), 1)}


def torsion_primes(g: GroupSpec) -> frozenset[int]:
    """Torsion primes (where H*(BG_C; Z) has p-torsion).  Every torsion
    prime is bad, but not conversely: Sp(2n) at 2 and G2 at 3 are bad and
    torsion-free.  Low ranks follow the type aliases B2=C2, D3=A3, except
    that O(n) has 2-torsion for every n >= 1, from its component group
    (beta(w_1) != 0 in H^2(BO(n); Z))."""
    primes, least = _TORSION[g.family]
    return frozenset(primes if g.rank >= least else ())


# -- Hilbert/Poincare series ------------------------------------------

def _times_binomial(a: list[int], d: int, c: int) -> list[int]:
    """a(q) * (1 + c*q^d) for d >= 1, in one pass over a: every
    numerator is built from such steps."""
    out = a + [0] * d
    for k, x in enumerate(a):
        if x:
            out[k + d] += c * x
    return out


class Series:
    """numerator(q) / prod_{d in denominator} (1 - q^d), expanded exactly
    on demand."""

    def __init__(self, numerator=(1,), denominator=(), truncation: int = 32):
        self.numerator = tuple(numerator)
        self.denominator = tuple(sorted(denominator))
        self.truncation = truncation

    def coefficients(self, order: int | None = None) -> list[int]:
        order = self.truncation if order is None else order
        c = list(self.numerator[: order + 1])
        c += [0] * (order + 1 - len(c))
        for d in self.denominator:
            for k in range(d, order + 1):
                c[k] += c[k - d]
        return c

    def coefficient(self, d: int) -> int:
        return self.coefficients(d)[d] if d >= 0 else 0

    def as_polynomial(self) -> list[int]:
        """Exact quotient as a coefficient list, read off the expansion c:
        with e = deg N - sum(den) it is P = c_0..c_e when c_{e+1}..c_{deg N}
        vanish, since N - D*P then has degree <= deg N and vanishes to order
        deg N + 1.  Raises if the denominator does not divide the numerator."""
        top = max((k for k, x in enumerate(self.numerator) if x), default=0)
        e = top - sum(self.denominator)
        c = self.coefficients(top)
        if e < 0 or any(c[e + 1:]):
            raise ValueError("denominator does not divide numerator")
        return c[:e + 1]

    def value_at_one(self) -> int:
        return sum(self.as_polynomial())

    def __repr__(self):
        return f"Series(num={list(self.numerator)}, den={list(self.denominator)})"


def flag_poincare(g: GroupSpec) -> Series:
    """Poincare polynomial of the full flag variety: the length generating
    function of W, prod (1-q^{d_i}) / (1-q)^rank."""
    degrees = fundamental_degrees(g)
    num = [1]
    for d in degrees:
        num = _times_binomial(num, d, -1)
    return Series(num, (1,) * len(degrees), truncation=sum(degrees))


def isotropic_grassmannian_poincare(n: int) -> Series:
    """Poincare polynomial of the maximal isotropic Grassmannian of
    SO(n): prod_{i=1}^{s} (1+q^i) with s = floor((n-1)/2)."""
    check_size("n", n, 2, math.inf)
    s = (n - 1) // 2
    num = [1]
    for i in range(1, s + 1):
        num = _times_binomial(num, i, 1)
    return Series(num, (), truncation=s * (s + 1) // 2)


# -- explicit Weyl groups at small rank --------------------------------

def _root_system(g: GroupSpec) -> tuple[str, int]:
    """The (family, Lie rank) of the root system of g: SO/O/Spin(n) give
    B or D of rank n // 2, Sp(2n) gives C_n and GL(n) gives A_{n-1}; a
    simple family is its own."""
    fam, n = g.family, g.rank
    if fam in ("SO", "O", "Spin"):
        return ("B" if n % 2 else "D"), n // 2
    if fam == "Sp":
        return "C", n // 2
    if fam == "GL":
        return "A", n - 1
    return fam, n


def weyl_elements(g: GroupSpec) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Explicit enumeration of W as signed permutations (perm, signs),
    for the classical families at rank <= 5."""
    fam, n = _root_system(g)
    if fam not in ("A", "B", "C", "D"):
        raise ValueError(f"explicit enumeration is for classical families, not {g}")
    if n > 5:
        raise ValueError(
            "rank > 5: use the generator-based Weyl actions in modp.invariants")
    if fam == "A":
        return [(p, (1,) * (n + 1)) for p in itertools.permutations(range(n + 1))]
    out = []
    for p in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            if fam == "D" and signs.count(-1) % 2:
                continue
            out.append((p, signs))
    return out


_CHAIN_FAMILIES = ("A", "B", "C", "D")

# A bound on time only (the walk holds two lengths of W): B6 (46,080)
# takes about 0.09 s, and E6 (51,840) is the next group up it refuses.
WEYL_MAX_ORDER = 46_080


def cartan_matrix(family: str, rank: int) -> list[list[int]]:
    if family in _CHAIN_FAMILIES:
        a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        for i in range(rank - 1):
            a[i][i + 1] = a[i + 1][i] = -1
        if family == "B" and rank >= 2:
            a[rank - 1][rank - 2] = -2
        if family == "C" and rank >= 2:
            a[rank - 2][rank - 1] = -2
        if family == "D":
            if rank <= 2:  # D2 = A1 x A1, and D1 (a torus) has no roots
                return [[2, 0], [0, 2]] if rank == 2 else []
            a[rank - 1][rank - 2] = a[rank - 2][rank - 1] = 0
            a[rank - 1][rank - 3] = a[rank - 3][rank - 1] = -1
        return a
    if family == "G2":
        return [[2, -1], [-3, 2]]
    if family == "F4":
        return [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
    raise ValueError(f"no Cartan matrix for family {family!r}")


def weyl_length_series(g: GroupSpec) -> list[int]:
    """Coefficients of sum_W q^{l(w)}, by a walk of W one length at a
    time: the independent oracle for flag_poincare, reading no degree.

    Each w is stored as c = w(rho) in fundamental-weight coordinates; rho
    = (1, ..., 1) is regular, so w -> w(rho) is a bijection.  s_i w maps c
    to c - c_i * (column i of the Cartan matrix), which touches only the
    nodes joined to i in the Dynkin diagram, and l(s_i w) = l(w) + 1
    exactly when c_i > 0 (the descent lemma: Humphreys, Reflection Groups
    and Coxeter Groups, 1.6-1.7 and 5.4).  Each w != 1 has a descent, so
    length l + 1 is the set of those s_i c over the c of length l.  A walk
    past WEYL_MAX_ORDER elements is not one of W and raises RuntimeError."""
    check_size(f"the Weyl group order of {g}", math.prod(fundamental_degrees(g)),
               1, WEYL_MAX_ORDER)
    a = cartan_matrix(*_root_system(g))
    rank = len(a)
    # alpha_i in fundamental-weight coordinates, as its nonzero entries
    columns = [[(k, a[k][i]) for k in range(rank) if a[k][i]] for i in range(rank)]

    def reflect(c: tuple[int, ...], i: int) -> tuple[int, ...]:
        sc = list(c)
        for k, aki in columns[i]:
            sc[k] -= c[i] * aki
        return tuple(sc)

    counts, level, total = [], {(1,) * rank}, 0
    while level:
        counts.append(len(level))
        if (total := total + len(level)) > WEYL_MAX_ORDER:
            raise RuntimeError(f"the length walk of {g} passed {WEYL_MAX_ORDER} elements")
        level = {reflect(c, i) for c in level for i in range(rank) if c[i] > 0}
    return counts
