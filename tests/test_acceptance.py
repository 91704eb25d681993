"""Acceptance suite: every criterion is exact (tolerance zero) and prints
one pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to see
the lines as they complete."""

import math
import random
import time

from oracles import series_product

from modp.charclass import (
    Generator,
    GradedPresentation,
    bmu_p_presentation,
    bockstein,
    bz2_presentation,
    jacobian_certificate,
    kunneth,
    restriction_bso_to_bo2r,
    unit_uclass,
    whitney_sum,
    UClass,
)
from modp.exactalg import PolyRing, elementary_symmetric
from modp.groupdata import (
    GroupSpec,
    flag_poincare,
    fundamental_degrees,
    good_primes_excluded,
    torsion_primes,
    weyl_length_series,
)
from modp.invariants import (
    lemma_inv2_check,
    nakajima_claimed,
    spin_action,
    spin_claimed,
    symmetric_quotient_action,
    verify_presentation,
)
from modp.quillen import quillen_dim, spin11_compare


def report(number: int, description: str, ok: bool, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {description} ({time.time() - t0:.1f}s)")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_spin_invariant_rings():
    t0 = time.time()
    cases = {7: ("eta2", 12), 9: ("eta3", 12), 11: ("eta4", 16),
             6: ("mu3", 12), 10: ("mu5", 12), 8: ("mu3", 12), 12: ("mu5", 12)}
    ok = True
    for n, (last_gen, dmax) in sorted(cases.items()):
        action = spin_action(n, 2)
        cp = spin_claimed(action, n)
        ok = ok and cp.names[-1] == last_gen
        rep = verify_presentation(action, cp, dmax)
        ok = ok and rep.passed and len(rep.rows) == dmax
    elapsed = time.time() - t0
    ok = ok and elapsed <= 60
    report(1, "spin invariant rings verified (Spin 6..12, three equal "
              "integers per degree)", ok, t0)


def test_criterion_02_spin11_headline():
    t0 = time.time()
    rep = spin11_compare()
    ok = (rep.D_top == rep.D_low == rep.D_explicit
          and rep.D_dR_lower == rep.D_low + 1
          and rep.D_dR_lower > rep.D_top
          and time.time() - t0 <= 30)
    report(2, f"degree-32 comparison (D_top = D_low = {rep.D_top}, "
              f"de Rham lower bound {rep.D_dR_lower})", ok, t0)


def test_criterion_03_quillen_regularity():
    t0 = time.time()
    ok = True
    for n in (10, 11):
        for d in range(35):
            quillen_dim(n, d)  # raises on series vs linear-algebra mismatch
    report(3, "complete-intersection series equals linear algebra for "
              "n in {10, 11}, d <= 34", ok, t0)


def test_criterion_04_jacobian_certificates():
    t0 = time.time()
    ok = all(jacobian_certificate(r, v).ok
             for r in range(2, 7) for v in ("O", "SO"))
    report(4, "Jacobian certificates r = 2..6, O and SO variants", ok, t0)


def _random_uclass(rng, pres, trunc):
    ring = pres.ring
    comps = [ring.one()]
    for m in range(1, trunc + 1):
        terms = {ring.exponents(mono): 1 for mono in ring.monomials_of_degree(m)
                 if rng.random() < 0.35}
        comps.append(ring.from_terms(terms))
    return UClass(pres, comps)


def test_criterion_05_whitney_calculus():
    t0 = time.time()
    rng = random.Random(2024)
    pres = GradedPresentation([Generator("a", 1), Generator("b", 2)])
    trunc = 12
    classes = [_random_uclass(rng, pres, trunc) for _ in range(1000)]
    unit = unit_uclass(pres, trunc)
    failures = 0
    for i, e in enumerate(classes):
        f = classes[(i + 1) % len(classes)]
        if whitney_sum(e, unit) != e:
            failures += 1
        s = whitney_sum(e, f)
        if s != whitney_sum(f, e):
            failures += 1
        if whitney_sum(e.even_part(), f.even_part()).even_part() != s.even_part():
            failures += 1
        if i % 3 == 0:
            g = classes[(i + 2) % len(classes)]
            if whitney_sum(s, g) != whitney_sum(e, whitney_sum(f, g)):
                failures += 1
    report(5, f"u-class calculus on 1000 random truncated classes "
              f"({failures} failures)", failures == 0, t0)


def test_criterion_06_bockstein_identities():
    t0 = time.time()
    rng = random.Random(4096)
    beta = bockstein(4)
    ring = beta.ring
    failures = 0
    for _ in range(1000):
        fa = ring.from_terms({ring.exponents(m): 1
                              for m in ring.monomials_of_degree(rng.randrange(1, 6))
                              if rng.random() < 0.3})
        fb = ring.from_terms({ring.exponents(m): 1
                              for m in ring.monomials_of_degree(rng.randrange(1, 6))
                              if rng.random() < 0.3})
        if beta(fa * fb) != beta(fa) * fb + fa * beta(fb):
            failures += 1
        if not beta(beta(fa)).is_zero():
            failures += 1
    identity_ok = True
    for r in range(2, 6):
        b_r = bockstein(r)
        ring_r = b_r.ring
        ts = [f"t{i}" for i in range(1, r + 1)]
        s_total = ring_r.zero()
        for i in range(1, r + 1):
            s_total = s_total + ring_r.var(f"s{i}")
        even_rest = restriction_bso_to_bo2r(2 * r)
        odd_rest = restriction_bso_to_bo2r(2 * r + 1)
        for a in range(1, r + 1):
            e_a = elementary_symmetric(ring_r, a, ts)
            if odd_rest.image_of(f"u{2 * a + 1}") != b_r(e_a):
                identity_ok = False
            if a < r and even_rest.image_of(f"u{2 * a + 1}") != b_r(e_a) + s_total * e_a:
                identity_ok = False
    ok = failures == 0 and identity_ok
    report(6, f"Bockstein Leibniz/square-zero on 1000 random polynomials and "
              f"the odd-class restriction identity, r <= 5", ok, t0)


def test_criterion_07_lemma_inv2():
    t0 = time.time()
    ring = PolyRing(["y", "x"])
    rep = lemma_inv2_check(ring, ring.var("y"), "x", 8)
    ok = rep.passed and len(rep.rows) == 8
    report(7, "invariants of x -> x+y on F_2[y][x] equal F_2[y][x(x+y)] "
              "to degree 8", ok, t0)


def test_criterion_08_nakajima_checks():
    t0 = time.time()
    ok = True
    for r in (3, 4, 5):
        action = symmetric_quotient_action(r, 2)
        cp = nakajima_claimed(action)
        ok = ok and cp.names == tuple(f"c{i}" for i in range(2, r + 1))
        ok = ok and verify_presentation(action, cp, 12).passed
    action2 = symmetric_quotient_action(2, 2)
    cp2 = nakajima_claimed(action2)
    ok = ok and cp2.names == ("x1",) and verify_presentation(action2, cp2, 12).passed
    report(8, "S_r invariants of the quotient ring match k[c_2..c_r] "
              "(r = 3,4,5) and k[x_1] (r = 2) to degree 12", ok, t0)


def test_criterion_09_weyl_flag_consistency():
    t0 = time.time()
    ok = True
    for fam, rank in (("A", 2), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G2", 2)):
        g = GroupSpec(fam, rank)
        series = flag_poincare(g)
        ok = ok and weyl_length_series(g) == series.as_polynomial()
        ok = ok and series.value_at_one() == math.prod(fundamental_degrees(g))
    report(9, "BFS length generating functions equal the flag Poincare "
              "polynomials; value at q=1 is |W|", ok, t0)


def test_criterion_10_catalog_coherence():
    t0 = time.time()
    catalog = [GroupSpec("A", r) for r in range(1, 9)]
    catalog += [GroupSpec(f, r) for f in "BC" for r in range(1, 9)]
    catalog += [GroupSpec("D", r) for r in range(3, 9)]
    catalog += [GroupSpec(f, r) for f, r in
                (("G2", 2), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8))]
    catalog += [GroupSpec("Spin", n) for n in range(3, 17)]
    catalog += [GroupSpec("SO", n) for n in range(2, 17)]
    catalog += [GroupSpec("Sp", 2 * n) for n in range(1, 9)]
    catalog += [GroupSpec("GL", n) for n in range(1, 9)]
    ok = all(torsion_primes(g) <= good_primes_excluded(g) for g in catalog)
    for n in range(1, 9):
        g = GroupSpec("Sp", 2 * n)
        ok = ok and 2 in good_primes_excluded(g) and 2 not in torsion_primes(g)
    g2 = GroupSpec("G2", 2)
    ok = ok and 3 in good_primes_excluded(g2) and 3 not in torsion_primes(g2)
    table = {
        ("A", 5): [2, 3, 4, 5, 6],
        ("B", 4): [2, 4, 6, 8],
        ("C", 4): [2, 4, 6, 8],
        ("D", 5): [2, 4, 5, 6, 8],
        ("G2", 2): [2, 6],
        ("F4", 4): [2, 6, 8, 12],
        ("E6", 6): [2, 5, 6, 8, 9, 12],
        ("E7", 7): [2, 6, 8, 10, 12, 14, 18],
        ("E8", 8): [2, 8, 12, 14, 18, 20, 24, 30],
    }
    for (fam, rank), degrees in table.items():
        ok = ok and fundamental_degrees(GroupSpec(fam, rank)) == degrees
    report(10, "torsion primes are bad everywhere; Sp(2n)@2 and G2@3 are "
               "bad-but-torsion-free; degree table verbatim", ok, t0)


def test_criterion_11_kunneth_and_bmu():
    t0 = time.time()
    ok = bmu_p_presentation().series().coefficients(24) == [1] * 25
    prod = kunneth(bz2_presentation("s"), bmu_p_presentation("t", "v"))
    ok = ok and [(g.name, g.degree, g.square_zero) for g in prod.generators] == \
        [("s", 1, False), ("v", 1, True), ("t", 2, False)]
    series = prod.series()
    ok = ok and all(prod.dim_degree(d) == series.coefficient(d) for d in range(10))
    rng = random.Random(99)
    for _ in range(100):
        a = GradedPresentation([Generator(f"a{i}", rng.randrange(1, 6),
                                          square_zero=rng.random() < 0.25)
                                for i in range(1, rng.randrange(2, 5))])
        b = GradedPresentation([Generator(f"b{i}", rng.randrange(1, 6),
                                          square_zero=rng.random() < 0.25)
                                for i in range(1, rng.randrange(2, 5))])
        if kunneth(a, b).series().coefficients(14) != \
                series_product(a.series(), b.series()).coefficients(14):
            ok = False
    report(11, "B mu_2 series constant 1; Kunneth reproduces k[s,t,v]/(v^2); "
               "series multiplicative on 100 random pairs", ok, t0)
