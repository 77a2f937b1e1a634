"""The API's input checks that no other test reaches, one case each: the
call, the exception it raises and the words of its message.

Internal invariants (the determinant reduction's precondition and descent,
the cyclotomic division's remainder, the monic divisor) are not inputs and
are left out.
"""

import pytest

from qcoord.coeff import CycloElem, CycloRing, LaurentPoly, LaurentRing, cyclotomic
from qcoord.detloc import sl_gl_iso
from qcoord.frobext import FrobeniusContext
from qcoord.monomial import GenOrder, row_major_order
from qcoord.rewrite import AlgebraConfig, Element, make_config, normal_form_of_word
from qcoord.rootspec import ClassicalMonomial, frobenius_image, module_expand, specialize


def _over_eps5():
    return Element.one(make_config(2, ell=5))


CASES = {
    "config dimension": (
        lambda: AlgebraConfig(0, "m", row_major_order(1), LaurentRing()),
        ValueError,
        "dimension must be at least 1",
    ),
    "config variant": (
        lambda: AlgebraConfig(2, "u", row_major_order(2), LaurentRing()),
        ValueError,
        "unknown variant",
    ),
    "config order dimension": (
        lambda: AlgebraConfig(2, "m", row_major_order(3), LaurentRing()),
        ValueError,
        "generator order has the wrong dimension",
    ),
    "straightening strategy": (
        lambda: normal_form_of_word(make_config(2), ((2, 2), (1, 1)), "middle"),
        ValueError,
        "unknown strategy",
    ),
    "word letter": (
        lambda: normal_form_of_word(make_config(2), ((1, 1), (3, 1))),
        ValueError,
        r"generator index \(3, 1\) out of range for n=2",
    ),
    "word letter in an entry": (
        lambda: Element.from_words(make_config(2), [(((1, 1), (0, 2)), 1)]),
        ValueError,
        r"generator index \(0, 2\) out of range for n=2",
    ),
    "negative element power": (
        lambda: Element.one(make_config(2)) ** -1,
        ValueError,
        "negative element powers are not defined",
    ),
    "Z_q coerce": (lambda: LaurentRing().coerce(1.5), TypeError, "cannot coerce"),
    "Z_eps coerce": (lambda: CycloRing(3).coerce("x"), TypeError, "cannot coerce"),
    "mixed moduli": (
        lambda: CycloRing(3).coerce(CycloRing(5).one()),
        ValueError,
        "mixed cyclotomic moduli",
    ),
    "residue too long": (
        lambda: CycloElem((1, 2, 3), cyclotomic(3)),
        ValueError,
        "residue degree must be below",
    ),
    "Z_q non-unit": (
        lambda: LaurentRing().invert_unit(LaurentPoly({0: 2})),
        ArithmeticError,
        "is not a unit",
    ),
    "order kind": (
        lambda: GenOrder(2, row_major_order(2).seq, "diagonal"),
        ValueError,
        "unknown order kind",
    ),
    "specialize twice": (
        lambda: specialize(Element.one(make_config(2, ell=3)), 3),
        ValueError,
        "already specialized",
    ),
    "module expansion over Z_q": (
        lambda: module_expand(Element.one(make_config(2))),
        ValueError,
        "needs a root-of-unity configuration",
    ),
    "classical determinant on m": (
        lambda: frobenius_image(ClassicalMonomial((0, 0, 0, 0), 1), make_config(2, ell=3)),
        ValueError,
        "classical determinant powers need the localized variant",
    ),
    "iso domain": (
        lambda: sl_gl_iso(make_config(2, "gl"), []),
        ValueError,
        "must use the sl variant",
    ),
    "phi context": (
        lambda: FrobeniusContext(2, 3).phi(_over_eps5()),
        ValueError,
        "outside this pairing context",
    ),
    "bform context": (
        lambda: FrobeniusContext(2, 3).bform(_over_eps5(), _over_eps5()),
        ValueError,
        "outside this pairing context",
    ),
    "nakayama context": (
        lambda: FrobeniusContext(2, 3).nakayama(_over_eps5()),
        ValueError,
        "outside this pairing context",
    ),
    "mixed combinations": (
        lambda: LaurentPoly(1) + CycloRing(3).one(),
        TypeError,
        "cannot combine",
    ),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_bad_input_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()
