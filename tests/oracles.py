"""Reference implementations that the tests compare the library against.
The library never calls them, so each stays as slow and as plain as its
definition:

- `full_generators`: every transposition s(i,j) and every sign change
  of a Weyl action, read off their definitions, where the library builds
  only the first sign change, s(1,2), one cycle and s(r-1,r);
- `brute_invariant_dimension_stacked`: the joint kernel of (g - 1) over
  a whole generator list, by one elimination of stacked rows, where the
  library folds orbits and eliminates generator by generator;
- `substitute`: the image of a monomial under a hom as a product of
  powers of its images by `Poly` arithmetic, where the library reads the
  hom's substitution plan;
- `elementary_symmetric_by_definition`: e_a of polynomial values as the
  sum of the products of every a of them, where the library runs the
  recurrence e_a += v * e_(a-1);
- `_subset_product`: eta_j and mu_j as the product of their 2^j or
  2^(j-1) factors A - sum_I x_i, where the library takes j steps of the
  span recurrence;
- `kernel_dimension_exhaustive`: the kernel of packed rows counted over
  every combination, with no elimination at all;
- `pack`: a packed vector from its (position, coefficient) pairs;
- `expand`: a factored monomial image (head, c, product) as the
  coefficient dict of c * x^head * product, one term at a time, where
  the library packs or sums the triple without building that dict;
- `series_product`: the product of two graded series, read off the
  definition of a product of quotients, where the library builds a
  Kunneth product's series from its generators alone;
- `monomials_by_product`: the packed monomials of one degree, filtered
  out of every exponent tuple in a box, where the library walks the
  variables under its count table and finishes the last in closed form;
- `orbit_classes_by_every_move`: the signed orbits of a basis by a
  breadth-first walk of every move, where the library walks only the
  moves that change a monomial and reads each sign change as a parity
  check."""

import itertools
import operator

from modp.exactalg import PackedField, Poly, SubstHom, check_size
from modp.groupdata import Series


def pack(field: PackedField, coords) -> int:
    """The vector of `field` with the given (position, coefficient) pairs,
    each position once and each coefficient in 0..p-1."""
    b, v = field.bits, 0
    for i, c in coords:
        v |= c << (i * b)
    return v


def expand(image, p: int) -> dict:
    """The coefficient dict of c * x^head * product for a triple (head, c,
    product) of SubstHom.monomial_images, each coefficient reduced mod p."""
    head, c, product = image
    return {head + t: c * e % p for t, e in product.items()}


def monomials_by_product(ring, d: int) -> list[int]:
    """The packed monomials of weighted degree d of `ring`, highest
    first: every exponent tuple with e_i * w_i <= d for each variable,
    kept when its weighted degree is d (small boxes only)."""
    ranges = [range(max(d, 0) // w + 1) for w in ring.weights]
    return sorted((ring.monomial(e) for e in itertools.product(*ranges)
                   if sum(map(operator.mul, e, ring.weights)) == d), reverse=True)


def orbit_classes_by_every_move(basis, moves) -> list:
    """The (orbit, signs) pairs of `invariants._orbit_classes`, by a
    breadth-first walk that applies every move to every monomial of an
    orbit, sign changes included.  A move sends m to minus move(m) when
    (m & move.mask).bit_count() is odd; each monomial gets a sign bit
    relative to the orbit's first, and an orbit that reaches one of its
    monomials with both signs is dead, its signs None."""
    seen = {}
    signed = any(move.mask for move in moves)
    classes = []
    for mono in basis:
        if mono in seen:
            continue
        seen[mono] = 0
        orbit, live = [mono], True
        for m in orbit:
            for move in moves:
                t = move(m)
                if t not in seen:
                    seen[t] = signed and seen[m] ^ (m & move.mask).bit_count() & 1
                    orbit.append(t)
                elif signed and seen[t] != seen[m] ^ (m & move.mask).bit_count() & 1:
                    live = False
        classes.append((orbit, seen if live else None))
    return classes


def series_product(a: Series, b: Series) -> Series:
    """a * b: the numerators convolved over the joined denominators, kept
    to the larger truncation."""
    num = [0] * (len(a.numerator) + len(b.numerator) - 1)
    for i, x in enumerate(a.numerator):
        for j, y in enumerate(b.numerator):
            num[i + j] += x * y
    return Series(num, a.denominator + b.denominator, max(a.truncation, b.truncation))


def kernel_dimension_exhaustive(rows, p: int) -> int:
    """Brute-force dimension of the vanishing combinations of packed rows
    over F_p, counted over all p^len(rows) combinations (tiny matrices
    only; the independent oracle that needs no elimination)."""
    check_size("p^rows", p ** len(rows), 1, 1 << 20)
    field = PackedField(p)
    entries = [dict(field.unpack(r)) for r in rows]
    cols = set().union(*entries)
    count = sum(
        all(sum(c * e.get(j, 0) for c, e in zip(combo, entries)) % p == 0 for j in cols)
        for combo in itertools.product(range(p), repeat=len(rows)))
    dim = 0
    while p ** dim < count:
        dim += 1
    assert p ** dim == count
    return dim


def substitute(hom: SubstHom, mono: int) -> Poly:
    """hom(m) for the packed monomial m of hom's source: the product of
    hom.images[name] ** e over the exponents e of m, by `Poly`
    multiplication and powers alone, so no part of the hom's plan runs."""
    image = hom.target.one()
    for name, e in zip(hom.source.names, hom.source.exponents(mono)):
        image = image * hom.images[name] ** e
    return image


def elementary_symmetric_by_definition(ring, a: int, values) -> Poly:
    """e_a(values): the sum over every a of the values of their product,
    by `Poly` multiplication and addition alone (e_0 = 1)."""
    total = ring.zero()
    for combo in itertools.combinations(values, a):
        product = ring.one()
        for v in combo:
            product = product * v
        total = total + product
    return total


def _subset_product(action, j: int, step: int) -> Poly:
    """prod over the subsets I of {1..j} of a size divisible by `step` of
    (A - sum_I x_i): eta_j for step 1 and mu_j for step 2."""
    out = action.ring.one()
    for k in range(0, j + 1, step):
        for I in itertools.combinations(range(j), k):
            factor = action.A
            for i in I:
                factor = factor - action.xs[i]
            out = out * factor
    return out


def brute_invariant_dimension_stacked(ring, generators, d: int) -> int:
    """One packed row per degree-d monomial m of `ring`: the images
    (g - 1)(m) under every (name, hom) pair of `generators`, side by side,
    each by `substitute`.  The invariants are the combinations of rows
    that vanish, so their dimension is the number of monomials minus the
    rank."""
    basis = ring.monomials_of_degree(d)
    index = {m: i for i, m in enumerate(basis)}
    n = len(basis)
    field = PackedField(ring.modulus)
    rows = []
    for mono in basis:
        m = Poly(ring, {mono: 1})
        rows.append(pack(field, ((k * n + index[t], c)
                                 for k, (_, hom) in enumerate(generators)
                                 for t, c in (substitute(hom, mono) - m).coeffs.items())))
    return field.matrix(rows, n * len(generators)).kernel_dimension()


def defined_images(action, name) -> dict:
    """The image of every ring variable under the generator `name`, read
    off its definition: s(i,j) swaps x_i and x_j (x_r = -(x_1 + ... +
    x_{r-1}) when x_r is eliminated) and fixes A; c(1..k) sends x_i to
    x_{i+1} for i < k and x_k to x_1; eps_i sends A to A + x_i
    in the spin model and x_i to -x_i otherwise; eps1*eps_j does both of
    eps_1 and eps_j."""
    ring = action.ring
    r = len(action.xs)
    coords = [ring.var(f"x{k}") for k in range(1, r) if f"x{k}" in ring.names]
    coords.append(ring.var(f"x{r}") if f"x{r}" in ring.names else -sum(coords, ring.zero()))
    images = {v: ring.var(v) for v in ring.names}
    if name.startswith("s("):
        i, j = (int(k) for k in name[2:-1].split(","))
        for k, t in ((i, j), (j, i)):
            if f"x{k}" in images:
                images[f"x{k}"] = coords[t - 1]
        return images
    if name.startswith("c(1.."):
        k = int(name[5:-1])
        for i in range(1, k + 1):
            images[f"x{i}"] = coords[i % k]
        return images
    for factor in name.split("*"):
        i = int(factor[3:])
        if "A" in images:
            images["A"] = images["A"] + coords[i - 1]
        else:
            images[f"x{i}"] = -coords[i - 1]
    return images


def sign_names(action) -> list[str]:
    """The sign changes of a Weyl action built by `spin_action`,
    `classical_action` or `symmetric_quotient_action`, read off its
    label: eps1*eps_j for D and even Spin, eps_i for B, C and odd Spin,
    none for the quotients."""
    r = len(action.xs)
    if "quotient" in action.label:
        return []
    if action.label[0] == "D" or action.label.startswith(f"Spin({2 * r})"):
        return [f"eps1*eps{j}" for j in range(2, r + 1)]
    return [f"eps{i}" for i in range(1, r + 1)]


def full_generators(action) -> list[tuple[str, SubstHom]]:
    """Every s(i,j), then every sign change, of a Weyl action built by
    `spin_action`, `classical_action` or `symmetric_quotient_action`,
    each as a (name, hom) pair built from `defined_images`."""
    r = len(action.xs)
    names = [f"s({i},{j})" for i in range(1, r + 1) for j in range(i + 1, r + 1)]
    ring = action.ring
    return [(name, SubstHom(ring, ring, defined_images(action, name)))
            for name in names + sign_names(action)]
