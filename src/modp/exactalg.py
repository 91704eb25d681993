"""Exact sparse multivariate polynomials over F_p or Z, substitution
homomorphisms, determinants, bit-packed linear algebra over small prime
fields, and graded components as coordinate spaces for ranks and
kernels."""

from __future__ import annotations

import itertools
import math
import re
from operator import add
from typing import Iterable, Sequence


class RingMismatchError(ValueError):
    pass


class MissingImageError(KeyError):
    pass


def _normalize(c: int, p: int) -> int:
    return c % p if p else c


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


class PolyRing:
    """A polynomial ring with named variables, positive integer weights and
    coefficient modulus p (p = 0 means integer coefficients).

    Monomials are exponent tuples.  The fixed monomial order is graded
    lexicographic: weighted degree first, then the exponent tuple, both
    descending in printed output.
    """

    def __init__(self, names: Sequence[str], weights: Sequence[int] | None = None,
                 modulus: int = 2):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        weights = tuple(weights) if weights is not None else (1,) * len(names)
        if len(weights) != len(names) or any(w <= 0 for w in weights):
            raise ValueError("each variable needs one positive integer weight")
        if modulus != 0 and not _is_prime(modulus):
            raise ValueError(f"modulus must be 0 (integers) or a prime, not {modulus}")
        self.names = names
        self.weights = weights
        self.modulus = modulus
        self._index = {n: i for i, n in enumerate(names)}
        self._basis_cache: dict = {}

    # -- construction ------------------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c: int) -> "Poly":
        c = _normalize(c, self.modulus)
        return Poly(self, {(0,) * len(self.names): c} if c else {})

    def var(self, name: str) -> "Poly":
        i = self.var_index(name)
        e = [0] * len(self.names)
        e[i] = 1
        return Poly(self, {tuple(e): 1})

    def gens(self) -> tuple["Poly", ...]:
        return tuple(self.var(n) for n in self.names)

    def var_index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"unknown variable {name!r} in ring {self}")
        return self._index[name]

    def from_terms(self, terms: dict) -> "Poly":
        out = {}
        for mono, c in terms.items():
            c = _normalize(c, self.modulus)
            if c:
                out[tuple(mono)] = c
        return Poly(self, out)

    # -- grading -----------------------------------------------------

    def degree_of_monomial(self, mono: Sequence[int]) -> int:
        return sum(e * w for e, w in zip(mono, self.weights))

    def sort_key(self, mono: tuple) -> tuple:
        return (self.degree_of_monomial(mono), mono)

    def monomials_of_degree(self, d: int, skip: frozenset = frozenset()) -> list:
        """All exponent tuples of weighted degree d, in descending monomial
        order.  Variables in `skip` are held at exponent zero."""
        key = (d, skip)
        if key not in self._basis_cache:
            monos = []
            e = [0] * len(self.names)

            def rec(i: int, rem: int):
                if i == len(self.names):
                    if rem == 0:
                        monos.append(tuple(e))
                    return
                if self.names[i] in skip:
                    rec(i + 1, rem)
                    return
                w = self.weights[i]
                for k in range(rem // w, -1, -1):
                    e[i] = k
                    rec(i + 1, rem - k * w)
                e[i] = 0

            if d >= 0:
                rec(0, d)
            monos.sort(key=self.sort_key, reverse=True)
            self._basis_cache[key] = monos
        return self._basis_cache[key]

    # -- misc --------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.names == other.names
                and self.weights == other.weights and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.names, self.weights, self.modulus))

    def __repr__(self):
        k = f"F{self.modulus}" if self.modulus else "Z"
        return f"{k}[{','.join(self.names)}]"

    def check_same(self, other: "PolyRing"):
        if self != other:
            raise RingMismatchError(f"ring mismatch: {self} vs {other}")

    # -- parsing -----------------------------------------------------

    _TOKEN = re.compile(r"\s*([+-]|\d+|[A-Za-z_][A-Za-z_0-9]*(?:\^\d+)?)")

    def poly_from_json(self, terms: list) -> "Poly":
        """Inverse of Poly.to_json."""
        return self.from_terms({tuple(t["exponents"]): t["coeff"] for t in terms})

    def poly(self, text: str) -> "Poly":
        """Parse the canonical text form, e.g. ``t1*t2 + t1*t3 + t2*t3``."""
        text = text.strip()
        if not text or text == "0":
            return self.zero()
        out = self.zero()
        for sgn, term in _split_terms(text):
            coeff = 1
            mono = [0] * len(self.names)
            for factor in term.split("*"):
                factor = factor.strip()
                if not factor:
                    raise ValueError(f"empty factor in {text!r}")
                if factor.isdigit():
                    coeff *= int(factor)
                    continue
                if "^" in factor:
                    name, _, exp = factor.partition("^")
                    k = int(exp)
                else:
                    name, k = factor, 1
                mono[self.var_index(name.strip())] += k
            out = out + self.from_terms({tuple(mono): sgn * coeff})
        return out


def _split_terms(text: str):
    """Split on top-level + and - signs, yielding (sign, term)."""
    terms = []
    sign, cur = 1, []
    for ch in text:
        if ch in "+-":
            if cur and "".join(cur).strip():
                terms.append((sign, "".join(cur).strip()))
            sign, cur = (1 if ch == "+" else -1), []
        else:
            cur.append(ch)
    if cur and "".join(cur).strip():
        terms.append((sign, "".join(cur).strip()))
    return terms


class Poly:
    """Immutable sparse polynomial: a map from exponent tuples to nonzero
    coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other: "Poly") -> "Poly":
        other = self._coerce(other)
        p = self.ring.modulus
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = _normalize(out.get(mono, 0) + c, p)
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Poly(self.ring, out)

    def __neg__(self):
        p = self.ring.modulus
        return Poly(self.ring, {m: _normalize(-c, p) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        p = self.ring.modulus
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = _normalize(out.get(m, 0) + c1 * c2, p)
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Poly(self.ring, out)

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
        if not self.terms:
            return 0
        return max(self.ring.degree_of_monomial(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {self.ring.degree_of_monomial(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_component(self, d: int) -> "Poly":
        return Poly(self.ring, {m: c for m, c in self.terms.items()
                                if self.ring.degree_of_monomial(m) == d})

    def homogeneous_components(self) -> dict:
        out: dict = {}
        for m, c in self.terms.items():
            out.setdefault(self.ring.degree_of_monomial(m), {})[m] = c
        return {d: Poly(self.ring, t) for d, t in sorted(out.items())}

    # -- text / JSON forms --------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=self.ring.sort_key, reverse=True):
            c = self.terms[mono]
            factors = []
            for name, e in zip(self.ring.names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            mag = abs(c)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"{mag}*{body}"
            parts.append(("- " if c < 0 else "+ ") + text)
        head = parts[0]
        head = "-" + head[2:] if head.startswith("- ") else head[2:]
        return " ".join([head] + parts[1:])

    def __repr__(self):
        return f"<{self} in {self.ring}>"

    def to_json(self) -> list:
        monos = sorted(self.terms, key=self.ring.sort_key, reverse=True)
        return [{"exponents": list(m), "coeff": self.terms[m]} for m in monos]


class SubstHom:
    """A ring homomorphism determined by variable images in a target ring."""

    def __init__(self, source: PolyRing, target: PolyRing, images: dict):
        self.source = source
        self.target = target
        self.images = {}
        for name, img in images.items():
            source.var_index(name)
            if isinstance(img, int):
                img = target.const(img)
            target.check_same(img.ring)
            self.images[name] = img
        self._powers: dict = {}

    def _power(self, i: int, k: int) -> Poly:
        """The image of variable i raised to the power k >= 1, memoised
        per (i, k).  Each entry is written once with its final value, so
        threads sharing the hom can at worst compute a power twice."""
        power = self._powers.get((i, k))
        if power is None:
            name = self.source.names[i]
            if name not in self.images:
                raise MissingImageError(f"no image for variable {name!r}")
            image = self.images[name]
            j = k
            while j > 1 and (i, j - 1) not in self._powers:
                j -= 1
            power = image if j == 1 else self._powers[(i, j - 1)] * image
            self._powers[(i, j)] = power
            for m in range(j + 1, k + 1):
                power = power * image
                self._powers[(i, m)] = power
        return power

    def apply(self, f: Poly) -> Poly:
        self.source.check_same(f.ring)
        out: dict = {}
        for mono, c in f.terms.items():
            term = None
            for i, e in enumerate(mono):
                if e:
                    power = self._power(i, e)
                    term = power if term is None else term * power
            for m, tc in (self.target.one() if term is None else term).terms.items():
                out[m] = out.get(m, 0) + c * tc
        p = self.target.modulus
        return Poly(self.target, {m: s for m, c in out.items() if (s := _normalize(c, p))})

    def __call__(self, f: Poly) -> Poly:
        return self.apply(f)

    def then(self, other: "SubstHom") -> "SubstHom":
        """Composition: first self, then other."""
        other.source.check_same(self.target)
        return SubstHom(self.source, other.target,
                        {n: other.apply(img) for n, img in self.images.items()})

    def is_identity_on(self, names: Iterable[str]) -> bool:
        return all(self.apply(self.source.var(n)) == self.target.var(n) for n in names)

    def __eq__(self, other):
        return (isinstance(other, SubstHom) and self.source == other.source
                and self.target == other.target and self.images == other.images)

    def __repr__(self):
        ims = ", ".join(f"{n} -> {v}" for n, v in self.images.items())
        return f"SubstHom({ims})"


def identity_hom(ring: PolyRing) -> SubstHom:
    return SubstHom(ring, ring, {n: ring.var(n) for n in ring.names})


def elementary_symmetric(ring: PolyRing, a: int, names: Sequence[str] | None = None) -> Poly:
    """e_a in the given variables; e_0 = 1 and e_a = 0 for a > #vars."""
    if a < 0:
        raise ValueError("negative index")
    names = tuple(names) if names is not None else ring.names
    idx = [ring.var_index(n) for n in names]
    if a > len(idx):
        return ring.zero()
    out = {}
    for comb in itertools.combinations(idx, a):
        e = [0] * len(ring.names)
        for i in comb:
            e[i] = 1
        out[tuple(e)] = 1
    return ring.from_terms(out)


def elementary_symmetric_of(ring: PolyRing, a: int, values: Sequence[Poly]) -> Poly:
    """e_a of polynomial values: the sum of the products of every a of
    them (e_0 = 1)."""
    out = ring.zero()
    for comb in itertools.combinations(values, a):
        term = ring.one()
        for v in comb:
            term = term * v
        out = out + term
    return out


def partial_derivative(f: Poly, name: str) -> Poly:
    """Formal partial derivative, with coefficients in the ring
    (so d(x^2)/dx = 0 over F_2)."""
    i = f.ring.var_index(name)
    out = {}
    for mono, c in f.terms.items():
        if mono[i]:
            m = list(mono)
            k = m[i]
            m[i] = k - 1
            out[tuple(m)] = out.get(tuple(m), 0) + c * k
    return f.ring.from_terms(out)


# -- determinants ----------------------------------------------------

def determinant(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant of a square matrix of polynomials: cofactor
    expansion up to size 6, fraction-free Bareiss beyond."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError(f"matrix is not square: {n} rows, widths {[len(r) for r in rows]}")
    if n == 0:
        raise ValueError("empty matrix")
    ring = rows[0][0].ring
    for r in rows:
        for entry in r:
            ring.check_same(entry.ring)
    if n <= 6:
        return _det_cofactor(rows, ring)
    return _det_bareiss([list(r) for r in rows], ring)


def _det_cofactor(rows, ring):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = ring.zero()
    for i in range(n):
        if rows[i][0].is_zero():
            continue
        minor = [rows[j][1:] for j in range(n) if j != i]
        term = rows[i][0] * _det_cofactor(minor, ring)
        out = out + (term if i % 2 == 0 else -term)
    return out


def _det_bareiss(m, ring):
    n = len(m)
    prev = ring.one()
    sign = 1
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return ring.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = exact_divide(num, prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def exact_divide(f: Poly, g: Poly) -> Poly:
    """Quotient f/g when the division is exact (raises otherwise)."""
    ring = f.ring
    ring.check_same(g.ring)
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    p = ring.modulus
    glead = max(g.terms, key=ring.sort_key)
    gc = g.terms[glead]
    gcinv = pow(gc, -1, p) if p else None
    q = ring.zero()
    r = f
    while r.terms:
        lead = max(r.terms, key=ring.sort_key)
        c = r.terms[lead]
        mono = tuple(a - b for a, b in zip(lead, glead))
        if any(e < 0 for e in mono):
            raise ValueError(f"non-exact division: {f} by {g}")
        if p:
            coeff = (c * gcinv) % p
        else:
            if c % gc:
                raise ValueError(f"non-exact division: {f} by {g}")
            coeff = c // gc
        t = ring.from_terms({mono: coeff})
        q = q + t
        r = r - t * g
    return q


# -- linear algebra over F_2 and F_p ---------------------------------

class F2Matrix:
    """Rows bit-packed into Python ints; bit j of a row is column j."""

    def __init__(self, rows: Iterable[int], cols: int):
        self.rows = list(rows)
        self.cols = cols

    def rank(self) -> int:
        return len(_f2_pivot_rows(self.rows))

    def rank_by_columns(self) -> int:
        """Rank of the transpose; must agree with rank()."""
        return self.transpose().rank()

    def transpose(self) -> "F2Matrix":
        out = [0] * self.cols
        for i, row in enumerate(self.rows):
            r = row
            while r:
                j = r.bit_length() - 1
                out[j] |= 1 << i
                r ^= 1 << j
        return F2Matrix(out, len(self.rows))

    def kernel_dimension(self) -> int:
        return self.cols - self.rank()

    def kernel_basis(self) -> list[int]:
        return f2_kernel_basis(self.rows, self.cols)


def _f2_pivot_rows(rows: Iterable[int]) -> dict:
    """Forward elimination; returns {pivot column: reduced row}."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead in pivots:
                row ^= pivots[lead]
            else:
                pivots[lead] = row
                break
    return pivots


def f2_kernel_basis(rows: Iterable[int], cols: int) -> list[int]:
    """Basis of {v : M v = 0} as bitmasks over the column index."""
    pivots = _f2_pivot_rows(rows)
    # back-substitute to reduced echelon form
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for other in pivots:
            if other != lead and (pivots[other] >> lead) & 1:
                pivots[other] ^= row
    pivot_cols = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_cols:
            continue
        v = 1 << free
        for lead, row in pivots.items():
            if (row >> free) & 1:
                v |= 1 << lead
        basis.append(v)
    return basis


class FpMatrix:
    """Dense rows with entries mod an odd prime p (p = 2 also works but
    F2Matrix is the packed fast path)."""

    def __init__(self, rows: Sequence[Sequence[int]], cols: int, p: int):
        self.rows = [list(r) for r in rows]
        self.cols = cols
        self.p = p

    def rank(self) -> int:
        return self.cols - len(self.kernel_basis())

    def rank_by_columns(self) -> int:
        t = [[self.rows[i][j] for i in range(len(self.rows))] for j in range(self.cols)]
        return FpMatrix(t, len(self.rows), self.p).rank()

    def kernel_dimension(self) -> int:
        return len(self.kernel_basis())

    def kernel_basis(self) -> list[list[int]]:
        p = self.p
        m = [row[:] for row in self.rows]
        pivots: dict[int, list[int]] = {}
        for row in m:
            for col in range(self.cols):
                if row[col] % p == 0:
                    continue
                if col in pivots:
                    piv = pivots[col]
                    f = (row[col] * pow(piv[col], -1, p)) % p
                    for j in range(col, self.cols):
                        row[j] = (row[j] - f * piv[j]) % p
                else:
                    inv = pow(row[col], -1, p)
                    row[:] = [(v * inv) % p for v in row]
                    pivots[col] = row
                    break
        for col in sorted(pivots, reverse=True):
            piv = pivots[col]
            for other, orow in pivots.items():
                if other != col and orow[col] % p:
                    f = orow[col]
                    for j in range(self.cols):
                        orow[j] = (orow[j] - f * piv[j]) % p
        basis = []
        for free in range(self.cols):
            if free in pivots:
                continue
            v = [0] * self.cols
            v[free] = 1
            for col, row in pivots.items():
                v[col] = (-row[free]) % p
            basis.append(v)
        return basis


class GradedComponent:
    """The weighted-degree-d component of a polynomial ring over F_p as a
    coordinate space on its monomial basis.

    This is the one place that knows how component vectors are stored:
    over F_2 a vector is a bitmask (bit i is basis[i]), over odd p a dense
    coefficient list.  A component with more than `guard` monomials is
    refused before its index is built."""

    def __init__(self, ring: PolyRing, d: int, guard: int | None = None):
        if not ring.modulus:
            raise ValueError(f"graded components need a prime field, not {ring}")
        self.ring = ring
        self.modulus = ring.modulus
        self.basis = ring.monomials_of_degree(d)
        if guard is not None and len(self.basis) > guard:
            raise ValueError(f"degree {d} needs {len(self.basis)} monomials (> guard {guard})")
        self.index = {m: i for i, m in enumerate(self.basis)}

    def vector(self, f: Poly, shift: tuple | None = None):
        """Coordinates of f, or of f times the monomial `shift`."""
        monos = f.terms if shift is None else [tuple(map(add, m, shift)) for m in f.terms]
        index = self.index
        if self.modulus == 2:
            mask = 0
            for m in monos:
                mask |= 1 << index[m]
            return mask
        v = [0] * len(self.basis)
        for m, c in zip(monos, f.terms.values()):
            v[index[m]] = c
        return v

    def poly(self, v) -> Poly:
        """The polynomial with coordinates v."""
        basis = self.basis
        if self.modulus == 2:
            terms = {}
            while v:
                i = v.bit_length() - 1
                terms[basis[i]] = 1
                v ^= 1 << i
            return Poly(self.ring, terms)
        return Poly(self.ring, {basis[i]: c for i, c in enumerate(v) if c})

    def indicator(self, positions: Iterable[int]):
        """The sum of the basis monomials at the given positions."""
        if self.modulus == 2:
            mask = 0
            for i in positions:
                mask |= 1 << i
            return mask
        v = [0] * len(self.basis)
        for i in positions:
            v[i] = 1
        return v

    def rank(self, vectors: Sequence) -> int:
        """Dimension of the span of the vectors."""
        if self.modulus == 2:
            return F2Matrix(vectors, len(self.basis)).rank()
        return FpMatrix(vectors, len(self.basis), self.modulus).rank() if vectors else 0

    def fixed_combinations(self, vecs: Sequence, hom: SubstHom) -> list:
        """A basis of the vectors in the span of `vecs` that hom fixes:
        the kernel of (hom - 1) on the span, written back in coordinates."""
        n, p = len(self.basis), self.modulus
        images = [self.vector(hom(self.poly(v))) for v in vecs]
        out = []
        if p == 2:
            rows: dict[int, int] = {}
            for col, (v, w) in enumerate(zip(vecs, images)):
                w ^= v
                while w:
                    j = w.bit_length() - 1
                    rows[j] = rows.get(j, 0) | (1 << col)
                    w ^= 1 << j
            for combo in f2_kernel_basis(list(rows.values()), len(vecs)):
                m = 0
                while combo:
                    c = combo.bit_length() - 1
                    m ^= vecs[c]
                    combo ^= 1 << c
                out.append(m)
            return out
        rows = [[(w[i] - v[i]) % p for v, w in zip(vecs, images)] for i in range(n)]
        for combo in FpMatrix(rows, len(vecs), p).kernel_basis():
            v = [0] * n
            for c, vec in zip(combo, vecs):
                if c:
                    for i in range(n):
                        v[i] = (v[i] + c * vec[i]) % p
            out.append(v)
        return out


def f2_kernel_dimension_exhaustive(rows: Sequence[int], cols: int) -> int:
    """Brute-force kernel size by enumerating all 2^cols vectors (tiny
    matrices only; the independent oracle for the elimination code)."""
    if cols > 20:
        raise ValueError("exhaustive enumeration guard: cols > 20")
    count = 0
    for v in range(1 << cols):
        if all((row & v).bit_count() % 2 == 0 for row in rows):
            count += 1
    dim = count.bit_length() - 1
    assert 1 << dim == count
    return dim
