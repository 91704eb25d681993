"""Refusals of the library that no CLI call reaches: each call raises the
given exception with the given message."""

import pytest

from modp import charclass, exactalg, invariants, quillen
from modp.charclass import Generator, GradedPresentation, RestrictionHom, UClass
from modp.exactalg import PolyRing, SubstHom

F2AB = PolyRing(["a", "b"])


def bad_image():
    # u2 must go to a class of degree 2, not of degree 1
    source = charclass.bso_presentation(3)
    target = charclass.bo2_power_ring(1)
    return RestrictionHom(source, SubstHom(source.ring, target,
                                           {"u2": target.var("s1"), "u3": target.zero()}))


def relation_kept():
    # the identity on k[a]/(a^2) does not kill a^2
    source = GradedPresentation([Generator("a", 1)], ["a^2"])
    return RestrictionHom(source, SubstHom(source.ring, source.ring, {"a": source.ring.var("a")}))


def classes_of_two_rings():
    e = UClass(GradedPresentation([Generator("a", 1)]), [PolyRing(["a"]).one()])
    f = UClass(GradedPresentation([Generator("b", 1)]), [PolyRing(["b"]).one()])
    return charclass.whitney_sum(e, f)


REFUSALS = [
    # charclass
    ("generator of degree 0", lambda: Generator("a", 0),
     ValueError, "generator a needs positive degree"),
    ("bidegree off its degree", lambda: Generator("a", 2, (1, 0)),
     ValueError, "bidegree (1, 0) of a must add up to 2"),
    ("generator the presentation lacks", lambda: charclass.bso_presentation(3).generator("u9"),
     KeyError, "u9"),
    ("component of the wrong degree",
     lambda: UClass(GradedPresentation([Generator("a", 1)]),
                    [PolyRing(["a"]).one(), PolyRing(["a"]).poly("a^2")]),
     ValueError, "component 1 is not homogeneous of degree 1"),
    ("whitney sum across rings", classes_of_two_rings,
     ValueError, "classes live in different presentations"),
    ("restriction image of the wrong degree", bad_image,
     ValueError, "image of u2 is not homogeneous of degree 2"),
    ("restriction that keeps a relation", relation_kept,
     ValueError, "relation a^2 does not map to zero"),
    ("jacobian variant", lambda: charclass.jacobian_certificate(3, "X"),
     ValueError, "variant must be O or SO"),
    # exactalg
    ("duplicate variable", lambda: PolyRing(["a", "a"]),
     ValueError, "duplicate variable names in ('a', 'a')"),
    ("weight 0", lambda: PolyRing(["a"], [0]),
     ValueError, "each variable needs one positive integer weight"),
    ("weights for the wrong number of variables", lambda: PolyRing(["a", "b"], [1]),
     ValueError, "each variable needs one positive integer weight"),
    ("exponents for the wrong number of variables", lambda: F2AB.monomial((1,)),
     ValueError, "1 exponents for the 2 variables of F2[a,b]"),
    ("negative power", lambda: F2AB.var("a") ** -1, ValueError, "negative power"),
    ("negative symmetric index", lambda: exactalg.elementary_symmetric(F2AB, -1),
     ValueError, "negative index"),
    ("non-square matrix", lambda: exactalg.determinant([[F2AB.one(), F2AB.one()]]),
     ValueError, "matrix is not square: 1 rows, widths [2]"),
    ("empty matrix", lambda: exactalg.determinant([]), ValueError, "empty matrix"),
    ("ring map missing one image", lambda: SubstHom(F2AB, F2AB, {"a": F2AB.var("b")}),
     ValueError, "no image for b in F2[a,b]"),
    ("ring map missing two images, in ring order",
     lambda: SubstHom(PolyRing(["c", "a", "b"]), F2AB, {"a": F2AB.var("b")}),
     ValueError, "no image for c, b in F2[c,a,b]"),
    ("derivation missing one image",
     lambda: charclass.Derivation(F2AB, {"b": F2AB.var("a") * F2AB.var("b")}),
     ValueError, "no image for a in F2[a,b]"),
    # invariants
    ("eta without the spin model",
     lambda: invariants.eta(invariants.symmetric_quotient_action(3), 1),
     ValueError, "eta needs the spin model with the A variable"),
    ("zero claimed generator",
     lambda: invariants.ClaimedPresentation(("c",), (F2AB.zero(),)),
     ValueError, "generator c must be homogeneous and nonzero"),
    ("inv2 shift of the wrong weight",
     lambda: invariants.lemma_inv2_check(F2AB, F2AB.poly("a^2"), "b", 4),
     ValueError, "a must be homogeneous of the weight of b"),
    # quillen
    ("negative Steenrod index",
     lambda: quillen.SWRing(5).sq(-1, quillen.SWRing(5).ring.one()),
     ValueError, "negative Steenrod index"),
]


@pytest.mark.parametrize("call, error, message", [entry[1:] for entry in REFUSALS],
                         ids=[entry[0] for entry in REFUSALS])
def test_library_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.value.args == (message,)
