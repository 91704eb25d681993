"""Exact sparse multivariate polynomials over F_p, substitution
homomorphisms, determinants, packed linear algebra over prime fields,
and graded components as coordinate spaces for ranks and kernels."""

from __future__ import annotations

import functools
import itertools
import math
import re
from operator import mul, xor
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Sequence

# Each exponent lives in one byte of a packed monomial.  The top bit of
# every byte is a guard bit, so the largest exponent is 127 and a sum of
# two valid exponents never carries into the neighbouring field.
FIELD_BITS = 8
FIELD_MASK = (1 << FIELD_BITS) - 1
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)

# The largest graded component any basis walk may build.
MONOMIAL_GUARD = 200_000

# Primality is decided by trial division up to the square root: about
# 5 ms below this bound, and a billion divisions at 10^18.
MODULUS_LIMIT = 1 << 31

# The text grammar: a variable name, and a factor of a term, which is an
# ASCII coefficient or a name with an optional ASCII exponent.  A name
# that could read as a number or hold +, -, * or ^ could not be read back.
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_FACTOR = re.compile(rf"([0-9]+)|({_NAME.pattern})\s*(?:\^\s*([0-9]+))?")
# A run of signs and blanks, then the term up to the next sign.
_TERMS = re.compile(r"([\s+-]*)([^+-]*)")


def check_name(name: str) -> None:
    """Refuse a variable name outside the text grammar, with one line."""
    if not _NAME.fullmatch(name):
        raise ValueError(f"variable name {name!r} does not match {_NAME.pattern}")


def check_size(what: str, value: int, low: int, high: int | float) -> None:
    """Refuse a size argument outside low..high (high may be math.inf),
    with one line that names the side it broke."""
    if value < low:
        raise ValueError(f"need {what} >= {low}, got {value}")
    if value > high:
        raise ValueError(f"need {what} <= {high}, got {value}")


class RingMismatchError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


class PolyRing:
    """A polynomial ring with named variables, positive integer weights and
    coefficients in the prime field F_p, p the modulus.

    A monomial is one packed int: variable i owns the byte at bit offset
    8 * (n - 1 - i), so variable 0 sits in the highest byte, and the
    weighted degree sits above all of them.  Integer order is therefore
    the monomial order, graded lexicographic on (degree, exponents), a
    product of monomials is an integer sum and a degree is one shift.
    Exponents are at most 127; a larger one raises ValueError.  Exponent
    tuples appear only at the boundary: `monomial`, `exponents`,
    `from_terms`, `poly` and `Poly.terms`.
    """

    def __init__(self, names: Sequence[str], weights: Sequence[int] | None = None,
                 modulus: int = 2):
        names = tuple(names)
        for name in names:
            check_name(name)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        weights = tuple(weights) if weights is not None else (1,) * len(names)
        if len(weights) != len(names) or any(w <= 0 for w in weights):
            raise ValueError("each variable needs one positive integer weight")
        # no lower side: a negative modulus is refused below, as not a prime
        check_size("modulus", modulus, -math.inf, MODULUS_LIMIT - 1)
        if not _is_prime(modulus):
            raise ValueError(f"modulus must be a prime, not {modulus}")
        self.names = names
        self.weights = weights
        self.modulus = modulus
        self._index = {n: i for i, n in enumerate(names)}
        n = len(names)
        self._shift = FIELD_BITS * n
        self._low = (1 << self._shift) - 1
        self._offsets = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
        self._guard = sum((EXPONENT_LIMIT << off) for off in self._offsets)
        self._units = tuple((w << self._shift) | (1 << off)
                            for w, off in zip(weights, self._offsets))
        self._unit_index = {u: i for i, u in enumerate(self._units)}
        # below this packed degree no product can fill an exponent field
        self._safe = (EXPONENT_LIMIT * min(weights, default=1)) << self._shift
        # past this degree d > 127 * sum(w), so every monomial has an exponent
        # above 127, and d exceeds the Frobenius number of w (below
        # min(w) * max(w)), so d is nonempty exactly when gcd(w) divides it
        self._ceiling = (EXPONENT_LIMIT + max(weights, default=0)) * sum(weights)
        self._basis_cache: dict = {}
        self._count_cache: tuple | None = None

    # -- construction ------------------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c: int) -> "Poly":
        c %= self.modulus
        return Poly(self, {0: c} if c else {})

    def var(self, name: str) -> "Poly":
        return Poly(self, {self._units[self.var_index(name)]: 1})

    def gens(self) -> tuple["Poly", ...]:
        return tuple(self.var(n) for n in self.names)

    def var_index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown variable {name!r} in ring {self}")
        return self._index[name]

    def from_terms(self, terms: dict) -> "Poly":
        """The polynomial with the given {exponent tuple: coefficient}."""
        p = self.modulus
        return Poly(self, {self.monomial(e): r for e, c in terms.items() if (r := c % p)})

    # -- monomials ---------------------------------------------------

    def monomial(self, exps: Sequence[int]) -> int:
        """The packed monomial of an exponent tuple, its bytes checked once."""
        if len(exps) != len(self.names):
            raise ValueError(f"{len(exps)} exponents for the {len(self.names)} "
                             f"variables of {self}")
        try:
            packed = int.from_bytes(bytes(exps), "big")
        except ValueError:
            packed = self._guard
        if packed & self._guard:
            e, name = next(p for p in zip(exps, self.names) if not 0 <= p[0] < EXPONENT_LIMIT)
            raise ValueError(f"exponent {e} of {name} is outside 0..{EXPONENT_LIMIT - 1}")
        return (sum(map(mul, exps, self.weights)) << self._shift) | packed

    def exponents(self, m: int) -> tuple[int, ...]:
        """The exponent tuple of a packed monomial."""
        return tuple((m & self._low).to_bytes(len(self.names), "big"))

    def _check_fields(self, monos: Iterable[int]) -> None:
        """Raise if a packed monomial has filled an exponent field."""
        guard = self._guard
        for m in monos:
            if m & guard:
                i = next(i for i, off in enumerate(self._offsets)
                         if (m >> off) & EXPONENT_LIMIT)
                raise ValueError(f"exponent of {self.names[i]} exceeds "
                                 f"{EXPONENT_LIMIT - 1} in {self}")

    # -- grading -----------------------------------------------------

    def monomials_of_degree(self, d: int) -> list[int]:
        """All packed monomials of weighted degree d, in descending monomial
        order.  A component that check_monomial_guard refuses is refused
        before any of its monomials is built."""
        basis = self._basis_cache.get(d)
        if basis is None:
            check_monomial_guard(self, (d,))
            basis = self._basis_cache[d] = self._enumerate(d)
        return basis

    def _enumerate(self, d: int) -> list[int]:
        """Walk the variables but the last in order, each exponent
        descending, keeping only the choices whose remaining degree the
        later variables can still reach; the walk meets every monomial
        once, in order.  A partial monomial keeps the degree still to place
        in its top field, so choosing exponent e of a variable is one
        integer addition.  The count table keeps only the states whose
        remaining degree rem the last weight w divides, so each state has
        one completion, rem // w in the last field and d in the top one,
        and the walk ends in one pass over the states.  Only
        monomials_of_degree calls it, after the guard, which lets through
        no nonempty degree past the ceiling."""
        if not 0 <= d <= self._ceiling:
            return []
        counts = self._count_table(d)
        if not counts[0][d]:
            return []
        shift = self._shift
        states = [d << shift]
        if not self.weights:  # the empty ring holds the monomial 1 in degree 0
            return states
        for w, off, after in zip(self.weights[:-1], self._offsets, counts[1:-1]):
            steps: dict[int, list[int]] = {}
            nxt: list[int] = []
            for s in states:
                rem = s >> shift
                step = steps.get(rem)
                if step is None:
                    step = steps[rem] = [(e << off) - ((e * w) << shift)
                                         for e in range(rem // w, -1, -1) if after[rem - e * w]]
                nxt += [s + x for x in step]
            states = nxt
        w, low, top = self.weights[-1], self._low, d << shift
        return [(s & low) + (s >> shift) // w + top for s in states]

    def _count_table(self, d: int) -> list[list[int]]:
        """counts[k][e]: the number of monomials of degree e in the
        variables k, k+1, ..., for every e up to some limit (counts[n]
        holds only the monomial 1).  A nonzero entry is the reachability
        test of the basis walk, and counts[0][e] is the size of the
        degree-e component.  The table starts at 64 degrees and doubles,
        never past the ceiling, until it holds d or ends in a saturated
        run: min(w) degrees in a row over MONOMIAL_GUARD.  Multiplying by
        a variable of least weight w maps degree e - w into degree e one
        to one, so every degree past such a run is over the guard too.
        The table is replaced, never changed, by a copy extended past its
        old end."""
        cached = self._count_cache
        run = min(self.weights, default=0)
        while cached is None or (cached[0] < min(d, self._ceiling) and not (
                run and min(cached[1][0][-run:]) > MONOMIAL_GUARD)):
            limit = min(2 * cached[0] if cached else 64, self._ceiling)
            old = cached[1] if cached else [[]] * (len(self.weights) + 1)
            counts = [[1] + [0] * limit]
            for w, known in zip(reversed(self.weights), reversed(old[:-1])):
                row = known + counts[-1][len(known):]
                for e in range(max(w, len(known)), limit + 1):
                    row[e] += row[e - w]
                counts.append(row)
            counts.reverse()
            self._count_cache = cached = (limit, counts)
        return cached[1]

    # -- misc --------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.names == other.names
                and self.weights == other.weights and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.names, self.weights, self.modulus))

    def __repr__(self):
        return f"F{self.modulus}[{','.join(self.names)}]"

    def check_same(self, other: "PolyRing"):
        if other is not self and self != other:
            raise RingMismatchError(f"ring mismatch: {self} vs {other}")

    # -- parsing -----------------------------------------------------

    def poly(self, text: str) -> "Poly":
        """Parse the canonical text form, e.g. ``t1*t2 + t1*t3 + t2*t3``:
        terms joined by signs, each a product of factors matching
        _FACTOR.  Any other factor, or a variable the ring lacks, raises
        ValueError."""
        text = text.strip()
        if not text or text == "0":
            return self.zero()
        acc: dict = {}
        for sgn, term in _split_terms(text):
            coeff = 1
            mono = [0] * len(self.names)
            for factor in term.split("*"):
                factor = factor.strip()
                if not factor:
                    raise ValueError(f"empty factor in {text!r}")
                match = _FACTOR.fullmatch(factor)
                if match is None:
                    raise ValueError(f"bad factor {factor!r} in {text!r}")
                number, name, exp = match.groups()
                if number is not None:
                    coeff *= int(number)
                elif name in self._index:
                    mono[self._index[name]] += int(exp) if exp is not None else 1
                else:
                    raise ValueError(f"unknown variable {name!r} in ring {self}")
            m = self.monomial(mono)
            acc[m] = acc.get(m, 0) + sgn * coeff
        return Poly(self, _reduced(self, acc))


def check_monomial_guard(ring: PolyRing, degrees: Iterable[int]) -> int:
    """Raise ValueError on the first of the degrees whose component of
    `ring` has more than MONOMIAL_GUARD monomials, or a monomial with an
    exponent above the limit, both read off the count table without
    building any basis; return the number of monomials of all the degrees
    together.  Of degree d, counts[d - e*w] monomials have an exponent of
    at least e on a variable of weight w.  A degree past a saturated run
    of the table is refused by count alone.  A degree past the ring's
    ceiling is empty unless gcd(w) divides it, and refused otherwise."""
    total = 0
    for d in degrees:
        if d < 0:
            continue
        if d > ring._ceiling:
            if ring.weights and d % math.gcd(*ring.weights) == 0:
                raise ValueError(f"degree {d} needs an exponent above {EXPONENT_LIMIT - 1}")
            continue
        counts = ring._count_table(d)[0]
        if d >= len(counts):  # past a saturated run
            raise ValueError(f"degree {d} needs more than {MONOMIAL_GUARD} monomials")
        if counts[d] > MONOMIAL_GUARD:
            raise ValueError(f"degree {d} needs {counts[d]} monomials (> guard {MONOMIAL_GUARD})")
        for name, w in zip(ring.names, ring.weights):
            if d >= EXPONENT_LIMIT * w and counts[d - EXPONENT_LIMIT * w]:
                top = next(e for e in range(d // w, 0, -1) if counts[d - e * w])
                raise ValueError(f"degree {d} needs exponent {top} of {name}, "
                                 f"above {EXPONENT_LIMIT - 1}")
        total += counts[d]
    return total


def _split_terms(text: str):
    """Split the stripped, nonblank text into one (sign, term) pair per run
    of signs, the sign -1 when the run holds an odd number of -, so x - -y
    is x + y.  A run with no term after it raises ValueError."""
    terms = []
    for signs, term in _TERMS.findall(text):
        if term:
            terms.append((-1 if signs.count("-") % 2 else 1, term))
        elif signs:
            raise ValueError(f"dangling sign in {text!r}")
    return terms


def _reduced(ring: PolyRing, acc) -> dict:
    """The coefficient dict of an accumulator: over F_2 the set of
    monomials of odd count, otherwise a dict of unreduced coefficients."""
    if isinstance(acc, set):
        return dict.fromkeys(acc, 1)
    p = ring.modulus
    return {m: s for m, c in acc.items() if (s := c % p)}


def _mul_into(ring: PolyRing, acc, f: dict, g: dict) -> None:
    """Add the product of the coefficient dicts f and g to an accumulator
    (a set toggled by parity over F_2, a dict of sums otherwise)."""
    if not f or not g:
        return
    if max(f) + max(g) >= ring._safe:
        ring._check_fields(a + b for a in f for b in g)
    if ring.modulus == 2:
        if len(f) > len(g):
            f, g = g, f
        for a in f:
            acc ^= {a + b for b in g}
        return
    get = acc.get
    for a, c in f.items():
        for b, e in g.items():
            m = a + b
            acc[m] = get(m, 0) + c * e


class Poly:
    """Immutable sparse polynomial: `coeffs` maps packed monomials (see
    PolyRing) to nonzero coefficients reduced mod p (all 1 over F_2)."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: PolyRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs

    @property
    def terms(self) -> MappingProxyType:
        """Read-only {exponent tuple: coefficient} view."""
        exps = self.ring.exponents
        return MappingProxyType({exps(m): c for m, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return isinstance(other, Poly) and self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, frozenset(self.coeffs.items())))

    def __add__(self, other: "Poly") -> "Poly":
        other = self._coerce(other)
        p = self.ring.modulus
        if p == 2:
            return Poly(self.ring, dict.fromkeys(self.coeffs.keys() ^ other.coeffs.keys(), 1))
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            s = (out.get(mono, 0) + c) % p
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Poly(self.ring, out)

    def __neg__(self):
        p = self.ring.modulus
        if p == 2:
            return self
        return Poly(self.ring, {m: -c % p for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        ring = self.ring
        acc = set() if ring.modulus == 2 else {}
        _mul_into(ring, acc, self.coeffs, other.coeffs)
        return Poly(ring, _reduced(ring, acc))

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ring.const(other)
        self.ring.check_same(other.ring)
        return other

    # -- grading -----------------------------------------------------

    def degree(self) -> int:
        """Maximal weighted degree of a term (0 for the zero polynomial)."""
        return max(self.coeffs, default=0) >> self.ring._shift

    def is_homogeneous(self) -> bool:
        if not self.coeffs:
            return True
        shift = self.ring._shift
        return min(self.coeffs) >> shift == max(self.coeffs) >> shift

    # -- text / JSON forms --------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        exps = self.ring.exponents
        for mono in sorted(self.coeffs, reverse=True):
            c = self.coeffs[mono]
            factors = []
            for name, e in zip(self.ring.names, exps(mono)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            parts.append(str(c) if not body else body if c == 1 else f"{c}*{body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} in {self.ring}>"


def sum_of_products(ring: PolyRing, products: Iterable[Iterable[Poly]]) -> Poly:
    """The sum over `products` of the product of each sequence of factors
    (an empty sequence is 1), accumulated in one dict and reduced once.
    All factors but the last are multiplied by Poly.__mul__, and the last
    one straight into the accumulator."""
    acc = set() if ring.modulus == 2 else {}
    for factors in products:
        factors = tuple(factors)
        for f in factors:
            ring.check_same(f.ring)
        head = functools.reduce(mul, factors[:-1]).coeffs if len(factors) > 1 else {0: 1}
        _mul_into(ring, acc, head, factors[-1].coeffs if factors else {0: 1})
    return Poly(ring, _reduced(ring, acc))


def check_images(source: PolyRing, target: PolyRing, images: dict) -> None:
    """Refuse, with one ValueError line, images that leave out a variable
    of `source` or lie outside `target`; a name `source` lacks is a KeyError."""
    for name, img in images.items():
        source.var_index(name)
        target.check_same(img.ring)
    if missing := [name for name in source.names if name not in images]:
        raise ValueError(f"no image for {', '.join(missing)} in {source}")


class SubstHom:
    """A ring homomorphism given by one target image per source variable,
    checked by check_images and kept in source order; `source`, `target`
    and `images` are read-only, as the plan and power memo come from them.

    The plan, built once here, maps a source monomial to its head.  A
    variable whose image is one term c*t is "still", with head t, and its
    (byte offset, c) is in `scaled` when c != 1; every other one is
    "moving" (several terms, or zero), with head 1 and its byte in a mask.
    The moves shift the degree field, and the byte of each variable sent
    to a unit of its own weight that no other variable is sent to, to
    their target fields, one mask per distance.  Every other variable has
    a change, its head less its own byte and its weight in the degree
    field, and the head of m is m, plus for each distance the bytes that
    move that far less themselves, plus e * change for each other variable
    of exponent e.  That is an exact integer sum: a moved field lands only
    on 0 or on the byte of a variable that is not renamed, which its
    change subtracts, and two exponents <= 127 cannot carry.  relabeling
    reads only the moves; monomial_images gives each image as c * x^head
    times the memoised image of the moving part, and apply sums them."""

    __slots__ = ("_source", "_target", "_images", "_powers", "_plan")

    def __init__(self, source: PolyRing, target: PolyRing, images: dict):
        check_images(source, target, images)
        self._source = source
        self._target = target
        self._images = MappingProxyType({name: images[name] for name in source.names})
        heads, scaled, moving, sent = [0] * len(source.names), [], source._low, {}
        for i, (img, off) in enumerate(zip(self._images.values(), source._offsets)):
            if len(img.coeffs) == 1:
                ((h, c),) = img.coeffs.items()
                heads[i], sent[h] = h, sent.get(h, 0) + 1
                moving ^= FIELD_MASK << off
                if c != 1:
                    scaled.append((off, c))
        # the bytes that move, by distance, and the change of each other still variable
        shifts, changes = {target._shift - source._shift: ~source._low}, []
        for h, w, off in zip(heads, source.weights, source._offsets):
            j = target._unit_index.get(h)
            if j is not None and sent[h] == 1 and target.weights[j] == w:
                d = target._offsets[j] - off
                shifts[d] = shifts.get(d, 0) | FIELD_MASK << off
            elif not moving >> off & 1:
                changes.append((off, h - (1 << off) - (w << target._shift)))
        keep = ~sum(mask for d, mask in shifts.items() if d)  # the masks are disjoint
        left = [(mask, d) for d, mask in shifts.items() if d > 0]
        right = [(mask, -d) for d, mask in shifts.items() if d < 0]

        def move(m: int) -> int:
            out = m & keep
            for mask, d in left:
                out += (m & mask) << d
            for mask, d in right:
                out += (m & mask) >> d
            return out
        move.mask = sum(1 << off for off, _ in scaled)
        move.identity = not (left or right)
        self._powers: dict = {}
        self._plan = (tuple(heads), tuple(scaled), tuple(changes), moving, move, left + right)

    source = property(lambda self: self._source)
    target = property(lambda self: self._target)
    images = property(lambda self: self._images)

    def _power(self, i: int, k: int) -> Poly:
        """The image of variable i (each has one) to the power k >= 1,
        memoised per (i, k), built from the power k - 1 (at most
        EXPONENT_LIMIT calls deep).  Each entry is written once with its
        final value, so threads sharing the hom at worst compute one twice."""
        power = self._powers.get((i, k))
        if power is None:
            image = self._images[self._source.names[i]]
            power = image if k == 1 else self._power(i, k - 1) * image
            self._powers[(i, k)] = power
        return power

    def _checked_head(self, m: int) -> int:
        """The head of m built one monomial addition at a time, so that
        an exponent over the limit raises instead of carrying."""
        target, head = self._target, 0
        for e, t in zip(self._source.exponents(m), self._plan[0]):
            for _ in range(e):
                head += t
                if head & target._guard:
                    target._check_fields((head,))
        return head

    def apply(self, f: Poly) -> Poly:
        """The image of f: the monomial_images of its terms, each times
        its coefficient a, summed in one accumulator and reduced once: over
        F_2 each toggles the monomials head + t of a set, otherwise a*c*e
        is added to the sum at head + t."""
        target = self._target
        self._source.check_same(f.ring)
        images = self.monomial_images(f.coeffs)
        if target.modulus == 2:
            acc = set()
            for head, _, image in images:
                acc.symmetric_difference_update(map(head.__add__, image) if head else image)
        else:
            acc = {}
            get = acc.get
            for a, (head, c, image) in zip(f.coeffs.values(), images):
                a *= c
                for t, e in image.items():
                    t += head
                    acc[t] = get(t, 0) + a * e
        return Poly(target, _reduced(target, acc))

    def monomial_images(self, monos: Iterable[int]) -> list[tuple[int, int, dict]]:
        """The image of each packed source monomial as a triple (head, c,
        product), the image being c * x^head * product: the head by the
        plan's map, c in 1..p-1 the product of c^e over its scaled
        exponents, and product the coefficient dict of the memoised powers
        of its moving part multiplied ({0: 1} for none).  The product, and
        `drop`, minus the changes of the part, are built once per distinct
        moving part in the call and shared, never to be changed by a caller;
        the moves are called only when the plan has some.  A head that may
        pass the exponent limit is redone by _checked_head."""
        _, scaled, changes, moving, move, moves = self._plan
        source, target, power = self._source, self._target, self._power
        n, still, p, safe = len(source.names), source._low ^ moving, target.modulus, target._safe
        # moving part: (image, its top monomial, drop); none maps to 1
        products: dict[int, tuple[dict, int, int]] = {0: ({0: 1}, 0, 0)}
        out = []
        for m in monos:
            key = m & moving
            entry = products.get(key)
            if entry is None:
                exps = key.to_bytes(n, "big")
                factors = [power(i, e) for i, e in enumerate(exps) if e]
                image = functools.reduce(mul, factors).coeffs
                drop = key + (sum(map(mul, exps, source.weights)) << target._shift)
                entry = products[key] = image, max(image, default=0), drop
            image, top, drop = entry
            head, c = 0, 1
            if m & still:
                head = (move(m) if moves else m) - drop
                for off, change in changes:
                    head += (m >> off & FIELD_MASK) * change
                if head >= safe:  # an exponent may have passed the limit
                    head = self._checked_head(m)
                for off, a in scaled:
                    c = c * pow(a, m >> off & FIELD_MASK, p) % p
            if head + top >= safe:
                target._check_fields(head + t for t in image)
            out.append((head, c, image))
        return out

    __call__ = apply

    def relabeling(self) -> Callable[[int], int] | None:
        """The moves of the plan, the hom on packed monomials up to sign,
        if the plan has no moving byte, no coefficient other than 1 and
        p - 1, and heads that are distinct units of the target: a
        one-to-one signed renaming of variables, each to one of the same
        weight (else ValueError), so that no variable has a change.  Else
        None.  The parity mask `move.mask` holds the low bit of the byte
        of each variable sent to minus a variable, so the hom sends m to
        move(m) times (-1) ** ((m & move.mask).bit_count() & 1).  The mark
        `move.identity` is true when no byte moves, so that move(m) is m
        and the hom, a sign change such as eps1, only checks that parity."""
        source, target = self._source, self._target
        heads, scaled, _, moving, move, _ = self._plan
        index = [target._unit_index.get(h) for h in heads]
        if (moving or None in index or len(set(index)) < len(index)
                or any(c != target.modulus - 1 for _, c in scaled)):
            return None
        for i, j in enumerate(index):
            if source.weights[i] != target.weights[j]:
                raise ValueError(f"{source.names[i]} and {target.names[j]} differ in weight")
        return move

    def __repr__(self):
        ims = ", ".join(f"{n} -> {v}" for n, v in self._images.items())
        return f"SubstHom({ims})"


def elementary_symmetric(ring: PolyRing, a: int, names: Sequence[str] | None = None) -> Poly:
    """e_a in the given variables, which must be distinct (see
    elementary_symmetric_of); e_0 = 1 and e_a = 0 for a > #vars."""
    if a < 0:
        raise ValueError("negative index")
    names = tuple(names) if names is not None else ring.names
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {names}")
    units = [ring._units[ring.var_index(n)] for n in names]
    return Poly(ring, {sum(comb): 1 for comb in itertools.combinations(units, a)})


def elementary_symmetric_of(ring: PolyRing, top: int, values: Sequence[Poly]) -> list[Poly]:
    """[e_0, ..., e_top] of polynomial values, read off the product of
    (1 + v*t) over the values: the k-th value v sets e_a = e_a + v * e_(a-1)
    for a from min(k, top) down to 1, as e_a of fewer than a values is 0."""
    check_size("top", top, 0, math.inf)
    es = [ring.one()] + [ring.zero()] * top
    for k, v in enumerate(values, 1):
        for a in range(min(k, top), 0, -1):
            es[a] = es[a] + v * es[a - 1]
    return es


def gradient(f: Poly) -> list[Poly]:
    """The formal partial derivatives of f in variable order, with
    coefficients in the ring (so d(x^2)/dx = 0 over F_2)."""
    ring = f.ring
    p = ring.modulus
    parts: list[dict] = [{} for _ in ring.names]
    units, exps = ring._units, ring.exponents
    for mono, c in f.coeffs.items():
        for i, e in enumerate(exps(mono)):
            if e:
                # mono -> mono / x_i is injective, so no two terms collide
                s = c * e % p
                if s:
                    parts[i][mono - units[i]] = s
    return [Poly(ring, part) for part in parts]


# -- determinants ----------------------------------------------------

def determinant(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant of a square matrix of polynomials, by expansion
    along the columns with the minors memoised over row subsets.  The
    minor on the rows S and the first j+1 columns expands along column j
    through the minors of size j, the k-th row of S taking the sign
    (-1)^(j-k); zero entries and zero minors are skipped.  That is at most
    n*2^(n-1) products and no division: the entries are polynomials."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError(f"matrix is not square: {n} rows, widths {[len(r) for r in rows]}")
    if n == 0:
        raise ValueError("empty matrix")
    ring = rows[0][0].ring
    for r in rows:
        for entry in r:
            ring.check_same(entry.ring)
    minors = {0: ring.one()}  # the nonzero minors on the first j columns, by row mask
    for j in range(n):
        products: dict[int, list] = {}
        for mask, minor in minors.items():
            for i in range(n):
                entry = rows[i][j]
                if entry and not mask >> i & 1:
                    # i is row k = popcount(mask below i) of the new subset
                    odd = (j - (mask & ((1 << i) - 1)).bit_count()) % 2
                    products.setdefault(mask | 1 << i, []).append(
                        (-entry if odd else entry, minor))
        minors = {mask: m for mask, terms in products.items()
                  if (m := sum_of_products(ring, terms))}
    return minors.get((1 << n) - 1, ring.zero())


# -- packed linear algebra over F_p ----------------------------------

class PackedField:
    """The one vector format over F_p: coordinate i of a vector is the
    field of `bits` bits at bit offset `bits * i` of one Python int, and
    holds a value in 0..p-1.  Over F_2 a field is one bit and addition is
    XOR.  Over odd p a field has p.bit_length() + 1 bits, one more than a
    coordinate needs, so the sum of two coordinates never carries into
    the next field (the add of `arithmetic` reduces it).

    A matrix is a list of packed rows, and its kernel is the space of row
    combinations that vanish; `matrix(rows, cols)` is the F2Matrix or
    FpMatrix of rows over this field.  `arithmetic(fields)` gives the row
    operations that FpMatrix eliminates with and that
    GradedComponent.fixed_combinations builds its rows with."""

    def __init__(self, p: int):
        self.p = p
        self.bits = 1 if p == 2 else p.bit_length() + 1
        self.matrix = F2Matrix if p == 2 else functools.partial(FpMatrix, p=p)

    def unpack(self, v: int) -> Iterator[tuple[int, int]]:
        """The (position, coefficient) pairs of the nonzero coordinates of
        v, highest position first."""
        b = self.bits
        while v:
            i = (v.bit_length() - 1) // b
            c = v >> (i * b)
            yield i, c
            v ^= c << (i * b)

    def arithmetic(self, fields: int) -> tuple[Callable, Callable]:
        """(add, scale) on vectors of at most `fields` coordinates: the sum
        of two vectors, and a vector times a coefficient in 1..p-1.  Over
        F_2 addition is XOR.  Over odd p it is SWAR: add the two ints, then
        subtract p from every field that reached p, which adding
        2^(b-1) - p to each field marks by its spare top bit.  Scaling is
        double-and-add over the bits of the coefficient."""
        if self.p == 2:
            add = xor
        else:
            p, b = self.p, self.bits
            ones = ((1 << (b * fields)) - 1) // ((1 << b) - 1)  # 1 in every field
            top, bias = ones << (b - 1), ones * ((1 << (b - 1)) - p)

            def add(u: int, v: int) -> int:
                s = u + v
                return s - (((s + bias) & top) >> (b - 1)) * p

        def scale(v: int, c: int) -> int:
            out = v  # the leading bit of c, then one doubling per further bit
            for bit in bin(c)[3:]:
                out = add(out, out)
                if bit == "1":
                    out = add(out, v)
            return out
        return add, scale


def _tagged(rows: list[int], tags: Sequence[int], bits: int) -> tuple[list[int], int]:
    """Each row shifted above its tag and joined to it, and the number of
    fields the tags take, so the tag part of a combination of rows is the
    same combination of the tags."""
    low = -(-max((t.bit_length() for t in tags), default=0) // bits)
    return [(r << (low * bits)) | t for r, t in zip(rows, tags, strict=True)], low


class F2Matrix:
    """Packed rows over F_2: bit j of a row is column j."""

    def __init__(self, rows: Iterable[int], cols: int):
        self.rows = list(rows)
        self.cols = cols

    def rank(self) -> int:
        return len(_f2_pivot_rows(self.rows)[0])

    def kernel_dimension(self) -> int:
        return len(self.rows) - self.rank()

    def kernel_basis(self, tags: Sequence[int]) -> list[int]:
        return f2_kernel_basis(self.rows, tags=tags)


def _f2_pivot_rows(rows: Iterable[int], low: int = 0) -> tuple[dict, list[int]]:
    """Forward elimination over F_2 on the bits from `low` up: returns
    ({pivot bit: row}, [every other row, reduced until its bits from
    `low` up cancel])."""
    pivots: dict[int, int] = {}
    rest = []
    for row in rows:
        lead = row.bit_length() - 1
        while lead >= low:
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row ^= pivot
            lead = row.bit_length() - 1
        else:
            rest.append(row)
    return pivots, rest


def f2_kernel_basis(rows: Iterable[int], tags: Sequence[int]) -> list[int]:
    """A basis of the combinations of the rows that vanish over F_2, each
    returned as the same combination of `tags` (one per row), which is
    again a basis when the tags are independent."""
    rows, low = _tagged(list(rows), tags, 1)
    return _f2_pivot_rows(rows, low)[1]


class FpMatrix:
    """Packed rows over an odd prime p in the format of PackedField(p):
    field j of a row is column j.  Row operations act on whole rows at
    once, with the SWAR add and the double-and-add scale of
    PackedField.arithmetic."""

    def __init__(self, rows: Iterable[int], cols: int, p: int):
        self.rows = list(rows)
        self.cols = cols
        self.p = p
        self.field = PackedField(p)

    def rank(self) -> int:
        return len(self._eliminate(self.rows, 0)[0])

    def kernel_dimension(self) -> int:
        return len(self.rows) - self.rank()

    def kernel_basis(self, tags: Sequence[int]) -> list[int]:
        """As f2_kernel_basis: each combination is returned on the tags."""
        return self._eliminate(*_tagged(self.rows, tags, self.field.bits))[1]

    def _eliminate(self, rows: list[int], low: int) -> tuple[dict, list[int]]:
        """Forward elimination on the fields from `low` up: returns
        ({pivot field: row scaled to lead with 1}, [every other row,
        reduced until its fields from `low` up cancel])."""
        p, b = self.p, self.field.bits
        add, scale = self.field.arithmetic(max((r.bit_length() for r in rows), default=0) // b + 1)
        pivots: dict[int, int] = {}
        rest = []
        for row in rows:
            while row >> (low * b):
                lead = (row.bit_length() - 1) // b
                c = row >> (lead * b)
                pivot = pivots.get(lead)
                if pivot is None:
                    pivots[lead] = scale(row, pow(c, -1, p))
                    break
                row = add(row, scale(pivot, p - c))
            else:
                rest.append(row)
        return pivots, rest


class GradedComponent:
    """The weighted-degree-d component of a polynomial ring over F_p as a
    coordinate space on its monomial basis: a vector is packed in the
    format of PackedField(p), with coordinate i on basis[i]."""

    def __init__(self, ring: PolyRing, d: int):
        self.ring = ring
        self.field = PackedField(ring.modulus)
        self.basis = ring.monomials_of_degree(d)
        self.index = {m: i for i, m in enumerate(self.basis)}

    def vectors(self, terms: Iterable[tuple[int, int, dict]]) -> list[int]:
        """Coordinates of c * x^head * product for each triple (head, c,
        product) of terms, as SubstHom.monomial_images gives them, in one
        walk of each product, which is scaled only when c != 1."""
        index, b, p, out = self.index, self.field.bits, self.ring.modulus, []
        for head, c, coeffs in terms:
            if c != 1:
                coeffs = {m: c * e % p for m, e in coeffs.items()}
            v = 0
            for m, e in coeffs.items():
                v |= e << (index[head + m] * b)
            out.append(v)
        return out

    def coeffs(self, v: int) -> dict:
        """The coefficient dict of the polynomial with coordinates v."""
        basis = self.basis
        return {basis[i]: c for i, c in self.field.unpack(v)}

    def rank(self, vectors: Sequence[int]) -> int:
        """Dimension of the span of the vectors."""
        return self.field.matrix(vectors, len(self.basis)).rank()

    def fixed_combinations(self, fs: Sequence[dict], hom: SubstHom) -> list[int]:
        """The coordinates of a basis of the polynomials in the span of the
        independent `fs`, given as coefficient dicts, that hom fixes.  Each
        distinct monomial m of the fs is mapped once, by
        hom.monomial_images, and its triple is packed once by `vectors`, as
        is each f, as the triple (0, 1, f); the row of f, hom(f) - f, is the
        sum of the packed images of its terms, each times its coefficient,
        less f.  These rows are eliminated with the coordinates of f as
        their tags, so each combination that vanishes comes back as the
        coordinates of a fixed polynomial, unpacked only by a caller that
        needs its dict (`coeffs`)."""
        add, scale = self.field.arithmetic(len(self.basis))
        monos = list(dict.fromkeys(itertools.chain.from_iterable(fs)))
        images = dict(zip(monos, self.vectors(hom.monomial_images(monos))))
        tags = self.vectors([(0, 1, f) for f in fs])
        minus_one = self.ring.modulus - 1
        rows = [functools.reduce(add, [images[m] if c == 1 else scale(images[m], c)
                                       for m, c in f.items()], scale(tag, minus_one))
                for f, tag in zip(fs, tags)]
        return self.field.matrix(rows, len(self.basis)).kernel_basis(tags=tags)

