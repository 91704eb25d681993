import pytest
from oracles import (
    _subset_product,
    brute_invariant_dimension_stacked,
    defined_images,
    full_generators,
    kernel_dimension_exhaustive,
    pack,
    sign_names,
    substitute,
)

from modp.exactalg import PackedField, Poly, PolyRing, SubstHom, elementary_symmetric
from modp.groupdata import GroupSpec, Series, fundamental_degrees
from modp.invariants import (
    CLASSICAL_MAX_RANK,
    QUOTIENT_MAX_R,
    SPIN_MAX_N,
    ClaimedPresentation,
    brute_invariant_dimension,
    classical_action,
    classical_claimed,
    eta,
    lemma_inv2_check,
    mu,
    nakajima_claimed,
    spin_action,
    spin_claimed,
    symmetric_quotient_action,
    verify_presentation,
    WeylAction,
    _orbit_classes,
)


def _stacked(action, d: int) -> int:
    """The stacked oracle over every generator of the full list."""
    return brute_invariant_dimension_stacked(action.ring, full_generators(action), d)


def _chosen(action, names) -> WeylAction:
    """The action, under the same label, of the named generators of the
    full list, or of the action's own for an action outside the three
    families."""
    homs = dict(action.generators if action.label.startswith("mixed")
                else full_generators(action))
    return WeylAction(action.ring, [(n, homs[n]) for n in names], action.xs, action.A,
                      action.label)


def test_spin7_generator_counts():
    a = spin_action(7)
    full = [n for n, _ in full_generators(a)]
    assert sum(n.startswith("s(") for n in full) == 3
    assert sum(n.startswith("eps") for n in full) == 3
    assert [n for n, _ in a.generators] == ["eps1", "s(1,2)", "s(2,3)"]


def test_spin12_eps_pair_count():
    a = spin_action(12)
    assert sum(1 for n, _ in full_generators(a) if "*" in n) == 5
    assert sum(1 for n, _ in a.generators if "*" in n) == 1


def test_spin_action_preconditions():
    with pytest.raises(ValueError):
        spin_action(11, p=3)
    with pytest.raises(ValueError):
        spin_action(5)


def test_generators_are_involutions():
    # every transposition and sign change is an involution, and the cycle
    # c(1..k) has order exactly k: x1 comes back after k steps, and no fewer
    for action in (spin_action(7), spin_action(8), spin_action(13), classical_action("B", 2, 3),
                   classical_action("D", 3, 2), classical_action("C", 5, 3),
                   symmetric_quotient_action(3), symmetric_quotient_action(6)):
        for name, h in action.generators + tuple(full_generators(action)):
            order = int(name[5:-1]) if name.startswith("c(") else 2
            for v in action.ring.names:
                x = image = action.ring.var(v)
                for step in range(1, order):
                    image = h(image)
                    assert v != "x1" or order == 2 or image != x, (action.label, name, step)
                assert h(image) == x, (action.label, name, v)


def test_eps_involution_on_A():
    a = spin_action(7)
    eps1 = dict(a.generators)["eps1"]
    A = a.ring.var("A")
    assert eps1(eps1(A)) == A


def test_eta_values_and_degrees():
    a = spin_action(7)
    ring = a.ring
    assert eta(a, 1) == ring.poly("A^2 + A*x1")
    a9 = spin_action(9)
    assert eta(a9, 3).degree() == 8
    eps1 = dict(a.generators)["eps1"]
    assert eps1(eta(a, 1)) == eta(a, 1)
    with pytest.raises(ValueError):
        eta(a, 3)  # r - 1 = 2 for Spin(7)


def test_eta_invariant_under_E_j():
    a = spin_action(11)
    gens = dict(full_generators(a))
    for j in range(1, 5):
        ej = eta(a, j)
        assert ej.degree() == 2 ** j
        for i in range(1, j + 1):
            assert gens[f"eps{i}"](ej) == ej


def test_mu_values_and_degrees():
    a = spin_action(12)
    assert mu(a, 1) == a.ring.var("A")
    assert mu(a, 4).degree() == 8
    gens = dict(full_generators(a))
    mu2 = mu(a, 2)
    assert mu2 == a.ring.var("A") * a.ring.poly("A + x1 + x2")
    assert gens["eps1*eps2"](mu2) == mu2
    for j in range(2, 7):
        mj = mu(a, j)
        assert mj.degree() == 2 ** (j - 1)
        for i in range(2, j + 1):
            assert gens[f"eps1*eps{i}"](mj) == mj
    with pytest.raises(ValueError):
        mu(a, 7)


def test_the_span_recurrence_is_the_subset_product():
    # eta_j and mu_j in j steps against the product of their 2^j or
    # 2^(j-1) factors: every index up to 4 and the claimed one, for each n
    for n in range(6, SPIN_MAX_N + 1):
        a = spin_action(n)
        r = len(a.xs)
        cp = spin_claimed(a, n)
        j = r - 1 if n % 2 or r % 2 == 0 else r
        assert cp.values[-1] == _subset_product(a, j, 2 - n % 2), n
        for j in range(1, min(r - 1, 4) + 1):
            assert eta(a, j) == _subset_product(a, j, 1), (n, j)
        for j in range(1, min(r, 4) + 1):
            assert mu(a, j) == _subset_product(a, j, 2), (n, j)


def test_classical_action_examples():
    c3 = classical_action("C", 3, 2)
    for name, h in c3.generators:
        if name.startswith("eps"):
            assert all(h(x) == x for x in c3.ring.gens()), name
    b2 = classical_action("B", 2, 3)
    eps1 = dict(b2.generators)["eps1"]
    x1 = b2.ring.var("x1")
    assert eps1(x1) == 2 * x1
    d3 = classical_action("D", 3, 2)
    assert brute_invariant_dimension(d3, 1) == 1


def test_brute_dimension_basics():
    a = spin_action(7)
    assert brute_invariant_dimension(a, 0) == 1
    assert brute_invariant_dimension(a, 2) == 1
    b3 = classical_action("B", 3, 2)
    assert brute_invariant_dimension(b3, 3) == 3


def test_brute_dimension_guard(monkeypatch):
    import modp.exactalg
    monkeypatch.setattr(modp.exactalg, "MONOMIAL_GUARD", 10)
    a = spin_action(7)
    with pytest.raises(ValueError, match="guard"):
        brute_invariant_dimension(a, 8)


def test_incremental_matches_stacked():
    # the incremental path applies the minimal generators, the stacked
    # oracle the full list
    cases = [(spin_action(7), range(1, 7)),
             (spin_action(8), range(1, 6)),
             (spin_action(9), range(1, 8)),
             (spin_action(10), range(1, 7)),
             (classical_action("B", 2, 3), range(1, 6)),
             (classical_action("B", 4, 3), range(1, 7)),
             (classical_action("C", 4, 3), range(1, 7)),
             (classical_action("D", 4, 3), range(1, 7)),
             (classical_action("D", 3, 2), range(1, 5)),
             (symmetric_quotient_action(4), range(1, 6)),
             (symmetric_quotient_action(5), range(1, 8)),
             # rows summed over odd p, and a larger action
             (symmetric_quotient_action(4, 3), range(1, 7)),
             (symmetric_quotient_action(5, 5), range(1, 7)),
             (spin_action(11), range(1, 6))]
    for action, degrees in cases:
        for d in degrees:
            assert brute_invariant_dimension(action, d) == _stacked(action, d), \
                (action.label, d)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_signed_orbits_match_the_stacked_oracle(p):
    # at odd p every generator of B, C and D is a signed move, so
    # the oracle counts live orbits and eliminates nothing
    for family in "BCD":
        for rank in (1, 2, 3):
            action = classical_action(family, rank, p)
            assert action._linear == ()
            for d in range(7):
                assert brute_invariant_dimension(action, d) == _stacked(action, d), \
                    (action.label, d)


def test_an_orbit_that_holds_both_signs_of_a_monomial_is_dead():
    # at p = 3, B1 = {1, -1} fixes the even powers of x1, and D2 fixes
    # k[x1^2 + x2^2, x1*x2]
    b1, d2 = classical_action("B", 1, 3), classical_action("D", 2, 3)
    assert [brute_invariant_dimension(b1, d) for d in range(7)] == [1, 0, 1, 0, 1, 0, 1]
    assert [brute_invariant_dimension(d2, d) for d in range(7)] == [1, 0, 2, 0, 3, 0, 4]
    # in degree 1, {x1, x2} is one orbit, and eps1*eps2 sends x1 to -x1
    ((orbit, signs),) = _orbit_classes(d2.ring.monomials_of_degree(1), d2._moves)
    assert sorted(orbit) == sorted(d2.ring._units)
    assert signs is None


def _closure(action, generators) -> set:
    """Every group element, as the tuple of images of the ring variables,
    reached by words in the given generators."""
    start = action.ring.gens()
    seen, frontier = {start}, [start]
    while frontier:
        step = []
        for images in frontier:
            for _, h in generators:
                new = tuple(h(f) for f in images)
                if new not in seen:
                    seen.add(new)
                    step.append(new)
        frontier = step
    return seen


def test_minimal_generators_generate_the_same_group():
    # the action's generators against the full list of tests/oracles.py;
    # the orders are of the group the full list generates, not |W|:
    # eps_1...eps_r acts trivially on the spin model
    cases = [(spin_action(7), 24), (spin_action(8), 96), (spin_action(9), 192),
             (classical_action("B", 3, 3), 48), (classical_action("C", 4, 3), 384),
             (classical_action("D", 4, 3), 192), (classical_action("D", 3, 2), 6),
             (symmetric_quotient_action(4), 24), (symmetric_quotient_action(5), 120),
             (symmetric_quotient_action(6), 720)]
    for action, order in cases:
        full = full_generators(action)
        assert len(action.generators) < len(full), action.label
        group = _closure(action, full)
        assert len(group) == order, action.label
        assert _closure(action, action.generators) == group, action.label


def test_minimal_generators_per_action():
    assert [n for n, _ in spin_action(9).generators] == \
        ["eps1", "s(1,2)", "c(1..3)", "s(3,4)"]
    assert [n for n, _ in spin_action(10).generators] == \
        ["eps1*eps2", "s(1,2)", "c(1..4)", "s(4,5)"]
    assert [n for n, _ in spin_action(13).generators] == \
        ["eps1", "s(1,2)", "c(1..5)", "s(5,6)"]
    assert [n for n, _ in classical_action("C", 3, 3).generators] == \
        ["eps1", "s(1,2)", "c(1..3)"]
    assert [n for n, _ in classical_action("D", 3, 3).generators] == \
        ["eps1*eps2", "s(1,2)", "c(1..3)"]
    assert [n for n, _ in classical_action("B", 2, 3).generators] == ["eps1", "s(1,2)"]
    assert [n for n, _ in classical_action("B", 1, 3).generators] == ["eps1"]
    assert [n for n, _ in symmetric_quotient_action(4).generators] == \
        ["s(1,2)", "c(1..3)", "s(3,4)"]
    assert [n for n, _ in symmetric_quotient_action(3).generators] == ["s(1,2)", "s(2,3)"]
    assert [n for n, _ in symmetric_quotient_action(2).generators] == ["s(1,2)"]


def test_every_action_up_to_its_bound_has_at_most_four_generators():
    actions = ([spin_action(n) for n in range(6, SPIN_MAX_N + 1)]
               + [symmetric_quotient_action(r, p) for r in range(2, QUOTIENT_MAX_R + 1)
                  for p in (2, 3, 5)]
               + [classical_action(f, rank, p) for f in "BCD"
                  for rank in range(1, CLASSICAL_MAX_RANK + 1) for p in (2, 3)])
    for action in actions:
        assert len(action.generators) <= 4, action.label


def test_an_action_of_chosen_homs_applies_every_one():
    a = spin_action(9)
    small = _chosen(a, ["eps1", "eps2", "eps3"])
    assert [n for n, _ in small.generators] == ["eps1", "eps2", "eps3"]
    # had small applied only eps1, the one sign change of the action's
    # own generators, test_E_subgroup_saturation would pass vacuously
    only_eps1 = _chosen(a, ["eps1"])
    assert any(brute_invariant_dimension(small, d) != brute_invariant_dimension(only_eps1, d)
               for d in range(1, 5))
    for d in range(1, 5):
        assert brute_invariant_dimension(small, d) == \
            brute_invariant_dimension_stacked(small.ring, small.generators, d)


def test_eps1_degree2_kernel_cross_check():
    # (g-1) for eps_1 alone on the degree-2 component of F_2[x1,x2,A]
    a = _chosen(spin_action(7), ["eps1"])
    dim = brute_invariant_dimension(a, 2)
    assert dim == brute_invariant_dimension_stacked(a.ring, a.generators, 2)
    # exhaustive over all combinations of the 6 basis monomials, one row
    # (g-1)(m) per monomial m
    ring = a.ring
    basis = ring.monomials_of_degree(2)
    hom = a.generators[0][1]
    index = {m: i for i, m in enumerate(basis)}
    field = PackedField(2)
    rows = []
    for mono in basis:
        m = Poly(ring, {mono: 1})
        rows.append(pack(field, ((index[t], c)
                                 for t, c in (substitute(hom, mono) - m).coeffs.items())))
    assert len(rows) == 6
    assert dim == kernel_dimension_exhaustive(rows, 2)


def test_E_subgroup_saturation():
    # -1 = eps_1...eps_r acts trivially, so E_{r-1} and E_r invariants agree
    a = spin_action(9)
    small = _chosen(a, ["eps1", "eps2", "eps3"])
    full = _chosen(a, ["eps1", "eps2", "eps3", "eps4"])
    for d in range(1, 9):
        assert brute_invariant_dimension(small, d) == brute_invariant_dimension(full, d)


@pytest.mark.parametrize("n, dmax", [(7, 8), (11, 16)])
def test_series_column_counts_the_claimed_products(n, dmax):
    # the series coefficient in degree d is the number of degree-d
    # monomials of the claimed polynomial ring
    a = spin_action(n)
    cp = spin_claimed(a, n)
    products = PolyRing(cp.names, cp.degrees)
    rows = verify_presentation(a, cp, dmax).rows
    assert [r.series_coeff for r in rows] == \
        [len(products.monomials_of_degree(d)) for d in range(1, dmax + 1)]
    # the empty claim is the ring k, zero in every positive degree
    rows = verify_presentation(a, ClaimedPresentation([], []), 4).rows
    assert [r.series_coeff for r in rows] == [0] * 4


def test_verify_spin7():
    a = spin_action(7)
    report = verify_presentation(a, spin_claimed(a, 7), 10)
    assert report.passed
    assert [r.degree for r in report.rows] == list(range(1, 11))


def test_verify_rejects_non_invariant_generator():
    a = spin_action(7)
    bad = ClaimedPresentation(["x1"], [a.ring.var("x1")])
    report = verify_presentation(a, bad, 4)
    assert not report.passed
    assert "x1" in report.failure and "s(" in report.failure


def test_verify_flags_wrong_but_invariant_claim():
    a = spin_action(7)
    good = spin_claimed(a, 7)
    undersized = ClaimedPresentation(["c2"], [good.values[0]])
    report = verify_presentation(a, undersized, 4)
    assert not report.passed
    bad_rows = [r for r in report.rows if not r.ok]
    assert bad_rows and bad_rows[0].degree == 3


def test_span_rank_of_dependent_claimed_products():
    # a repeated generator adds nothing to the span, but the series counts its products twice
    a = spin_action(7)
    cp = spin_claimed(a, 7)
    c2 = cp.values[cp.names.index("c2")]
    report = verify_presentation(a, ClaimedPresentation(cp.names + ("c2b",), cp.values + (c2,)), 6)
    assert [(r.invariant_dim, r.span_rank, r.series_coeff) for r in report.rows] == [
        (0, 0, 0), (1, 1, 2), (1, 1, 1), (2, 2, 4), (1, 1, 2), (3, 3, 7)]
    b3 = classical_action("B", 3, 3)
    cp = classical_claimed(b3, "B", 3, 3)
    d2 = cp.values[cp.names.index("d2")]
    report = verify_presentation(b3, ClaimedPresentation(cp.names + ("d2b",), cp.values + (d2,)), 6)
    assert [(r.invariant_dim, r.span_rank, r.series_coeff) for r in report.rows] == [
        (0, 0, 0), (1, 1, 2), (0, 0, 0), (2, 2, 4), (0, 0, 0), (3, 3, 7)]


def test_nakajima_small_ranks():
    for r in (2, 3, 4):
        action = symmetric_quotient_action(r)
        report = verify_presentation(action, nakajima_claimed(action), 8)
        assert report.passed, r
    assert nakajima_claimed(symmetric_quotient_action(2)).names == ("x1",)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_nakajima_r2_claim_at_every_prime(p):
    # x2 = -x1 is x1 only mod 2; at odd p, s(1,2) negates x1 and fixes x1^2
    action = symmetric_quotient_action(2, p)
    assert action._linear == ()  # s(1,2) is a move, with a sign at odd p
    cp = nakajima_claimed(action)
    assert cp.names == (("x1",) if p == 2 else ("c2",))
    assert verify_presentation(action, cp, 10).passed


def test_classical_claims_match_fundamental_degrees():
    for family, rank, p in (("B", 3, 2), ("C", 3, 2), ("B", 2, 3), ("D", 3, 3)):
        action = classical_action(family, rank, p)
        cp = classical_claimed(action, family, rank, p)
        report = verify_presentation(action, cp, 7)
        assert report.passed, (family, rank, p)
        if p != 2:
            assert sorted(cp.degrees) == fundamental_degrees(GroupSpec(family, rank))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_odd_p_claims_equal_the_squaring_hom(p):
    """The oracle: d_2i is e_i(x) sent through x_i -> x_i * x_i."""
    for family in "BCD":
        for rank in range(1, 6):
            action = classical_action(family, rank, p)
            ring = action.ring
            assert tuple(action.xs) == ring.gens()
            square = SubstHom(ring, ring, {n: ring.var(n) * ring.var(n) for n in ring.names})
            top = rank if family in "BC" else rank - 1
            names = [f"d{2 * i}" for i in range(1, top + 1)]
            values = [square(elementary_symmetric(ring, i)) for i in range(1, top + 1)]
            if family == "D":
                names.append(f"e{rank}")
                values.append(elementary_symmetric(ring, rank))
            cp = classical_claimed(action, family, rank, p)
            assert (cp.names, cp.values) == (tuple(names), tuple(values)), (family, rank)


def test_symplectic_char2_exception():
    # W(C_n) invariants mod 2 are the full symmetric functions, so their
    # generator degrees 1..n differ from the fundamental degrees 2,4,..,2n:
    # the characteristic-2 symplectic groups are the genuine exception.
    action = classical_action("C", 3, 2)
    cp = classical_claimed(action, "C", 3, 2)
    assert cp.degrees == (1, 2, 3)
    assert fundamental_degrees(GroupSpec("C", 3)) == [2, 4, 6]
    assert verify_presentation(action, cp, 7).passed


def test_lemma_inv2():
    ring = PolyRing(["y", "x"])
    y = ring.var("y")
    report = lemma_inv2_check(ring, y, "x", 6)
    assert report.passed
    with pytest.raises(ValueError, match="trivial"):
        lemma_inv2_check(ring, ring.zero(), "x", 4)
    with pytest.raises(ValueError):
        lemma_inv2_check(ring, ring.var("x"), "x", 4)


def test_lemma_inv2_fails_over_F3():
    # x -> x + a has order 3 over F_3: the lemma is about characteristic 2
    ring = PolyRing(["y", "x"], modulus=3)
    with pytest.raises(ValueError, match="characteristic 2, not over F3"):
        lemma_inv2_check(ring, ring.var("y"), "x", 6)


def test_lemma_inv2_pointwise():
    # (x+a)(x+a+a) = x(x+a) and x itself moves by a
    ring = PolyRing(["a", "x"])
    a, x = ring.gens()
    from modp.exactalg import SubstHom
    h = SubstHom(ring, ring, {"a": a, "x": x + a})
    u = x * (x + a)
    assert h(u) == u
    assert h(x) - x == a


def test_verify_guard_trips_before_any_work(monkeypatch):
    import modp.exactalg
    import modp.invariants
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return brute_invariant_dimension(*args, **kwargs)

    monkeypatch.setattr(modp.invariants, "brute_invariant_dimension", counting)
    monkeypatch.setattr(modp.exactalg, "MONOMIAL_GUARD", 20)
    a = spin_action(7)
    # degree 5 of F_2[x1, x2, A] has 21 monomials
    with pytest.raises(ValueError, match="degree 5 needs 21 monomials"):
        verify_presentation(a, spin_claimed(a, 7), 10)
    assert calls == []
    assert verify_presentation(a, spin_claimed(a, 7), 4).passed
    assert len(calls) == 4
    # degree 128 of F_2[x1] is the first past the exponent limit, so it is
    # refused before the basis of any lower degree is built
    q = symmetric_quotient_action(2, 2)
    with pytest.raises(ValueError, match=r"^degree 128 needs exponent 128 of x1, above 127$"):
        verify_presentation(q, nakajima_claimed(q), 128)
    assert q.ring._basis_cache == {}


def test_the_oracle_substitutes_no_polynomial(monkeypatch):
    """The invariant oracle and the span rows map monomials by
    SubstHom.monomial_images; apply runs only in the invariance checks,
    one per claimed generator and action generator until the first
    failure."""
    calls = []
    apply = SubstHom.apply

    def counted(hom, f):
        calls.append(f)
        return apply(hom, f)
    spin10, spin9 = spin_action(10), spin_action(9)
    claim = spin_claimed(spin9, 9)
    monkeypatch.setattr(SubstHom, "apply", counted)
    monkeypatch.setattr(SubstHom, "__call__", counted)
    assert brute_invariant_dimension(spin10, 8) > 0
    assert calls == []
    assert verify_presentation(spin9, claim, 8).passed
    assert len(calls) == len(claim.names) * len(spin9.generators) == 16
    # x1 is fixed by eps1 and moved by s(1,2), the second generator
    calls.clear()
    x1 = ClaimedPresentation(["x1"], [spin9.ring.var("x1")])
    report = verify_presentation(spin9, x1, 8)
    assert report.failure == "generator x1 is not invariant under s(1,2)"
    assert len(calls) == 2


def test_the_stacked_oracle_reads_no_substitution_plan(monkeypatch):
    """The stacked oracle substitutes by Poly arithmetic alone: with the
    SubstHom methods that map polynomials made to raise, it still gives
    the answers of the incremental oracle, which maps by the plan."""
    actions = [spin_action(9), classical_action("B", 3, 3), symmetric_quotient_action(4, 5)]
    want = [[brute_invariant_dimension(a, d) for d in range(1, 7)] for a in actions]
    generators = [full_generators(a) for a in actions]

    def refuse(*args):
        raise AssertionError("the stacked oracle mapped by the substitution plan")
    for name in ("apply", "__call__", "monomial_images", "_power", "_checked_head"):
        monkeypatch.setattr(SubstHom, name, refuse)
    assert [[brute_invariant_dimension_stacked(a.ring, gens, d) for d in range(1, 7)]
            for a, gens in zip(actions, generators)] == want


def test_concurrent_use_gives_the_serial_answers():
    """Four threads share one fresh action, then the cleared memos of
    modp.quillen, and each gets the answers of a serial run."""
    from concurrent.futures import ThreadPoolExecutor

    import modp.quillen

    alone = spin_action(9)
    serial = verify_presentation(alone, spin_claimed(alone, 9), 10)
    shared = spin_action(9)
    claim = spin_claimed(shared, 9)
    with ThreadPoolExecutor(max_workers=4) as pool:
        reports = list(pool.map(lambda _: verify_presentation(shared, claim, 10), range(4)))
    assert reports == [serial] * 4

    memos = [v for v in vars(modp.quillen).values() if hasattr(v, "cache_clear")]
    want = [modp.quillen.quillen_dim(11, d) for d in range(41)]
    for memo in memos:
        memo.cache_clear()
    with ThreadPoolExecutor(max_workers=4) as pool:
        assert list(pool.map(lambda d: modp.quillen.quillen_dim(11, d), range(41))) == want


def _closure_partition(ring, homs, d):
    """The orbits of the degree-d monomials under the homs, each closed
    by applying the homs to one monomial at a time."""
    seen, orbits = set(), set()
    for m in ring.monomials_of_degree(d):
        if m in seen:
            continue
        orbit, todo = {m}, [m]
        while todo:
            f = Poly(ring, {todo.pop(): 1})
            for h in homs:
                (t,) = h(f).coeffs
                if t not in orbit:
                    orbit.add(t)
                    todo.append(t)
        seen |= orbit
        orbits.add(frozenset(orbit))
    return orbits


@pytest.mark.parametrize("action", [spin_action(n) for n in range(7, 12)]
                         + [classical_action("B", 4, 3), classical_action("D", 4, 3),
                            symmetric_quotient_action(5)],
                         ids=lambda a: a.label)
def test_orbit_classes_match_the_closure_under_the_homs(action):
    # the moves of every signed permutation of the full list, and those
    # the action sorted out of its generators, give the same orbits, live
    # and dead alike
    ring = action.ring
    homs = [h for _, h in full_generators(action) if h.relabeling() is not None]
    moves = [h.relabeling() for h in homs]
    for d in range(1, 7):
        basis = ring.monomials_of_degree(d)
        closure = _closure_partition(ring, homs, d)
        for ms in (moves, action._moves):
            classes = [orbit for orbit, _ in _orbit_classes(basis, ms)]
            assert sorted(m for orbit in classes for m in orbit) == sorted(basis)
            assert {frozenset(orbit) for orbit in classes} == closure


def test_a_variable_map_that_is_not_one_to_one_is_no_permutation():
    # x -> y, y -> y is an endomorphism, not a permutation: the oracle
    # intersects its fixed space instead of folding orbits
    ring = PolyRing(["x", "y"])
    x, y = ring.gens()
    hom = SubstHom(ring, ring, {"x": y, "y": y})
    assert hom.relabeling() is None
    action = WeylAction(ring, [("g", hom)], [x, y])
    for d in range(1, 6):
        assert brute_invariant_dimension(action, d) == \
            brute_invariant_dimension_stacked(ring, action.generators, d) == 1


def test_weyl_action_is_built_whole():
    a = spin_action(7)
    assert all(isinstance(seq, tuple) for seq in (a.generators, a.xs))
    with pytest.raises(AttributeError):
        a.generators.append(a.generators[0])
    ring = PolyRing(["y", "x"])
    assert lemma_inv2_check(ring, ring.var("y"), "x", 4).claimed == ("u",)


def test_size_bounds_trip_before_any_hom(monkeypatch):
    import modp.invariants

    def refuse(*args, **kwargs):
        raise AssertionError("a hom was built before the size bound")
    monkeypatch.setattr(modp.invariants, "SubstHom", refuse)
    for build, match in [(lambda: spin_action(14), "n <= 13"),
                         (lambda: spin_action(200), "n <= 13"),
                         (lambda: classical_action("B", 15, 3), "rank <= 14"),
                         (lambda: classical_action("D", 150, 2), "rank <= 14"),
                         (lambda: symmetric_quotient_action(14), "r <= 13")]:
        with pytest.raises(ValueError, match=match):
            build()
    monkeypatch.undo()
    # at the bounds the actions are built
    assert len(spin_action(13).xs) == 6
    assert len(classical_action("C", 14, 3).xs) == 14
    assert len(symmetric_quotient_action(13).xs) == 13


ACTIONS = ([spin_action(n) for n in range(6, 14)]
           + [classical_action(f, rank, p) for f in "BCD" for rank in range(1, 6) for p in (2, 3)]
           + [symmetric_quotient_action(r) for r in range(2, 7)])


@pytest.mark.parametrize("action", ACTIONS, ids=lambda a: a.label)
def test_each_generator_is_its_definition(action):
    # the first sign change, s(1,2), the cycle of the k coordinates that
    # are ring variables, and s(r-1,r) when x_r is eliminated
    r = len(action.xs)
    k = sum(f"x{i}" in action.ring.names for i in range(1, r + 1))
    names = (sign_names(action)[:1] + ["s(1,2)"] * (r >= 2) + [f"c(1..{k})"] * (k >= 3)
             + [f"s({r - 1},{r})"] * (k < r and r >= 3))
    assert [n for n, _ in action.generators] == names
    for name, hom in action.generators:
        images = defined_images(action, name)
        assert {v: hom(action.ring.var(v)) for v in action.ring.names} == images, name


@pytest.mark.parametrize("action", ACTIONS, ids=lambda a: a.label)
def test_minimal_generators_are_sorted_once(action, monkeypatch):
    # the moves and the linear homs are the generators that have and
    # have not a relabeling, and each move sends every variable, with its
    # sign, to the hom's own image of it
    ring = action.ring
    homs = [h for _, h in action.generators]
    assert action._linear == tuple(h for h in homs if h.relabeling() is None)
    folded = [h for h in homs if h.relabeling() is not None]
    assert len(action._moves) == len(folded)
    signs = (1, ring.modulus - 1)
    for move, hom in zip(action._moves, folded):
        assert [Poly(ring, {move(u): signs[(u & move.mask).bit_count() & 1]})
                for u in ring._units] == [hom(ring.var(name)) for name in ring.names]

    def never(hom):
        raise AssertionError("generators sorted again in a degree")
    monkeypatch.setattr(SubstHom, "relabeling", never)
    for d in range(4):
        brute_invariant_dimension(action, d)


def _mixed_action(p: int) -> WeylAction:
    """An action on F_p[x1, x2, x3] of five generators, each fixing every
    variable it does not change."""
    ring = PolyRing(["x1", "x2", "x3"], modulus=p)
    x1, x2, x3 = ring.gens()
    changes = {"eps1": {"x1": -x1}, "s(1,2)": {"x1": x2, "x2": x1}, "2x1": {"x1": 2 * x1},
               "x1+x2": {"x1": x1 + x2}, "r": {"x1": -x2, "x2": x1}}
    fixed = {"x1": x1, "x2": x2, "x3": x3}
    gens = [(name, SubstHom(ring, ring, dict(fixed, **images)))
            for name, images in changes.items()]
    return WeylAction(ring, gens, [x1, x2, x3], label=f"mixed mod {p}")


@pytest.mark.parametrize("action, names", [
    (spin_action(9), ["eps1", "eps2", "s(3,4)"]),
    (spin_action(10), ["eps1*eps2", "eps1*eps3", "s(1,2)", "s(1,5)"]),
    (symmetric_quotient_action(5), ["s(1,5)", "s(2,5)", "s(1,2)"]),
    # signed orbit sums go into the elimination
    (_mixed_action(5), ["eps1", "s(1,2)", "2x1"]),
    (_mixed_action(3), ["eps1", "x1+x2"]),
    # r gives live orbits with both signs, such as x1^3*x2 - x1*x2^3;
    # with coefficient 1 in their sums, degrees 4 to 6 would read one less
    (_mixed_action(3), ["r", "x1+x2"]),
], ids=lambda x: x.label if isinstance(x, WeylAction) else " ".join(x))
def test_several_linear_generators_match_the_stacked_oracle(action, names):
    # only here does fixed_combinations run on its own output, or on the
    # orbit sums of moves that flip signs
    small = _chosen(action, names)
    signed = any(move.mask for move in small._moves)
    assert len(small._linear) >= (1 if signed else 2)
    for d in range(1, 7):
        assert brute_invariant_dimension(small, d) == \
            brute_invariant_dimension_stacked(small.ring, small.generators, d), d


def test_linear_hom_counts():
    # the homs the oracle eliminates: Spin keeps its sign generator and
    # s(r-1,r), the quotients of rank 3 and more s(r-1,r) alone, and the
    # rest are signed relabelings, folded into orbits
    assert [len(spin_action(n)._linear) for n in range(6, 14)] == [2] * 8
    for p in (2, 3, 5):
        assert [len(symmetric_quotient_action(r, p)._linear) for r in range(2, 14)] == \
            [0] + [1] * 11, p
        for family in "BCD":
            assert not any(classical_action(family, rank, p)._linear
                           for rank in range(1, 15)), (family, p)


def test_single_hom_quotients_unpack_nothing(monkeypatch):
    # the fixed vectors of the last linear hom are counted, not unpacked,
    # and the orbit sums are coefficient dicts, not polynomials
    import modp.invariants

    def never(*args):
        raise AssertionError("a fixed vector or an orbit sum was unpacked into a Poly")

    monkeypatch.setattr(PackedField, "unpack", never)
    monkeypatch.setattr(modp.invariants, "Poly", never)
    for p in (2, 3, 5):
        for r in (3, 4, 5):
            action = symmetric_quotient_action(r, p)
            assert [brute_invariant_dimension(action, d) for d in range(1, 9)] == \
                Series((1,), range(2, r + 1)).coefficients(8)[1:], (p, r)


def test_public_values_refuse_mutation():
    # ClaimedPresentation, DegreeRow, VerifyReport, WeylAction, SubstHom,
    # Derivation, UClass, JacobianReport, Spin11Report, GroupSpec, Generator
    from modp.charclass import (Generator, JacobianReport, bockstein, bso_presentation,
                                unit_uclass)
    from modp.exactalg import SubstHom
    from modp.groupdata import GroupSpec
    from modp.quillen import Spin11Report
    a = spin_action(7)
    cp = spin_claimed(a, 7)
    report = verify_presentation(a, cp, 2)
    ring = a.ring
    hom = a.generators[0][1]
    beta = bockstein(2)
    u = unit_uclass(bso_presentation(4), 3)
    jac = JacobianReport("O", 2, ring.one(), ring.one(), (ring.one(),))
    spin11 = Spin11Report(26, 26, 26, 27, "strict")
    values = [
        (cp, ("names", "values", "degrees")),
        (report.rows[0], ("degree", "invariant_dim", "span_rank", "series_coeff")),
        (report, ("label", "claimed", "rows", "failure")),
        (a, ("ring", "generators", "xs", "A", "label", "extra")),
        (hom, ("source", "target", "images", "extra")),
        (beta, ("ring", "images", "extra")),
        (u, ("presentation", "components", "extra")),
        (jac, ("variant", "r", "determinant", "expected", "row_factors")),
        (spin11, ("D_top", "D_low", "D_explicit", "D_dR_lower", "verdict")),
        (GroupSpec("B", 3), ("family", "rank")),
        (Generator("u2", 2), ("name", "degree")),
    ]
    for value, attrs in values:
        for attr in attrs:
            with pytest.raises(AttributeError):
                setattr(value, attr, None)
    # their sequences are tuples and their maps read-only views
    for seq in (cp.names, cp.values, cp.degrees, report.claimed, report.rows, a.generators,
                a.xs, u.components, jac.row_factors):
        with pytest.raises(AttributeError):
            seq.append(None)
    for images in (hom.images, beta.images):
        with pytest.raises(TypeError):
            images["x1"] = ring.zero()
