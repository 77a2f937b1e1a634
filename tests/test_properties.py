"""Property tests for the sparse-combination arithmetic and the textual form.

The additive laws are checked on all three kinds of combination: Laurent
polynomials, algebra elements at n=2 in every variant and flavor over
``Z_q`` and ``Z_eps(3)``, and classical coefficients.  The print, parse,
print round trip runs at n=2 and n=3 over ``Z_q``, ``Z_eps(3)`` and
``Z_eps(5)``.  Examples are drawn from a fixed seed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoord.cli import evaluate
from qcoord.coeff import CycloRing, LaurentPoly
from qcoord.monomial import NormalMonomial
from qcoord.rewrite import FLAVORS, VARIANTS, Element, make_config
from qcoord.rootspec import ClassicalMonomial, ClassicalPoly

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=12)

laurent = st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4).map(LaurentPoly)


def _configs(dims, ells):
    return [
        make_config(n, variant, ell=ell, flavor=flavor)
        for n in dims
        for variant in VARIANTS
        for flavor in FLAVORS
        for ell in ells
    ]


def _config_id(cfg):
    return f"n{cfg.n}-{cfg.variant}-{cfg.flavor}-{cfg.ring.name}"


def elements(cfg, max_exp=2, max_terms=3):
    size = cfg.n * cfg.n
    dpower = st.integers(-1, 1) if cfg.variant == "gl" else st.just(0)
    monomial = st.builds(
        NormalMonomial, st.tuples(*[st.integers(0, max_exp)] * size), dpower
    )
    pairs = st.lists(st.tuples(monomial, laurent), max_size=max_terms)
    return pairs.map(lambda p: Element.from_monomials(cfg, p))


ELL3 = CycloRing(3)
classical = st.dictionaries(
    st.builds(ClassicalMonomial, st.tuples(*[st.integers(0, 2)] * 4), st.integers(0, 1)),
    laurent.map(ELL3.coerce),
    max_size=3,
).map(lambda terms: ClassicalPoly(ELL3, 2, terms))


def check_additive_laws(a, b, c, s):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a - a == 0
    assert -(-a) == a
    assert (a + b).scale(s) == a.scale(s) + b.scale(s)
    assert hash(a + b) == hash(b + a)
    assert (a + b) - b == a
    assert hash((a + b) - b) == hash(a)
    for e in (a, a - a, a + b):
        assert (e == 0) == e.is_zero()


@SETTINGS
@given(laurent, laurent, laurent, st.integers(-3, 3))
def test_laurent_additive_laws(a, b, c, s):
    check_additive_laws(a, b, c, s)


@pytest.mark.parametrize("cfg", _configs((2,), (None, 3)), ids=_config_id)
@SETTINGS
@given(data=st.data())
def test_element_additive_laws(cfg, data):
    a, b, c = (data.draw(elements(cfg)) for _ in range(3))
    check_additive_laws(a, b, c, data.draw(laurent))


@SETTINGS
@given(classical, classical, classical, laurent.map(ELL3.coerce))
def test_classical_additive_laws(a, b, c, s):
    check_additive_laws(a, b, c, s)


@pytest.mark.parametrize("cfg", _configs((2, 3), (None, 3, 5)), ids=_config_id)
@settings(SETTINGS, max_examples=6)
@given(data=st.data())
def test_print_parse_print_round_trip(cfg, data):
    e = data.draw(elements(cfg, max_exp=1 if cfg.n == 3 else 2))
    printed = str(e)
    again = evaluate(printed, cfg)
    assert again == e
    assert str(again) == printed
