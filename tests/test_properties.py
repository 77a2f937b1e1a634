"""Property tests for the sparse-combination arithmetic, the textual form,
the multiplication and the bigrading behind the pairing.

The additive laws are checked on all four kinds of combination: Laurent
polynomials, ``Z_eps(3)`` and ``Z_eps(5)`` residues, algebra elements at n=2
in every variant and flavor over ``Z_q`` and ``Z_eps(3)``, and classical
coefficients.  The two normalizing constructors of an element, from
monomials and from words, must agree on unreduced input, and an element
they return must be fixed by ``normalize`` and by the trusted constructor.
The residue product is checked against the Laurent product
reduced mod ``phi_l``, and for commutativity, associativity and
distributivity.  The print, parse,
print round trip runs at n=2 and n=3 over ``Z_q``, ``Z_eps(3)`` and
``Z_eps(5)``, and at n=3 under shuffled generator orders, whose factor
order the printed monomials must follow.  Multiplication is checked against
straightening the concatenated words of every pair of terms, for
associativity, and for keeping the bidegree (row sums and column sums plus
the determinant power).  The
determinant inserted into an ordered word at any split must give the product
with it appended.  Straightening a word of up to 8 letters, in either
strategy, must give the independent reference straightener's result.  The
pairing, which skips the component pairs that grading proves null, is
checked against ``phi`` of the full product, and ``phi``, which multiplies
out the determinant once per ``divmod(z, l)`` group of determinant powers
``z``, against the same computation done one key at a time.  Examples are
drawn from a fixed seed.
"""

import random
import re
from dataclasses import replace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qcoord.cli import evaluate
from qcoord.coeff import CycloRing, LaurentPoly, LaurentRing
from qcoord.detloc import quantum_determinant
from qcoord.frobext import FrobeniusContext
from qcoord.monomial import GenOrder, NormalMonomial, bidegree, row_major_order
from qcoord.render import monomial_to_str
from qcoord.rewrite import (
    FLAVORS,
    VARIANTS,
    AlgebraConfig,
    Element,
    _det_words,
    make_config,
    multiply,
    normal_form_of_word,
    normalize,
    times_determinant,
)
from qcoord.rootspec import ClassicalMonomial, ClassicalPoly, module_expand
from test_oracle import reference_normal_form

# Shrinking is left out: a failing example at n=3 is reported as drawn in
# seconds rather than minimized for minutes, and derandomized draws keep
# pass/fail the same.
SETTINGS = settings(
    derandomize=True,
    deadline=None,
    database=None,
    max_examples=12,
    phases=[Phase.explicit, Phase.generate],
)

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
    return f"n{cfg.n}-{cfg.variant}-{cfg.order.kind}-{cfg.ring.name}"


def monomials(cfg, max_exp=2):
    size = cfg.n * cfg.n
    dpower = st.integers(-1, 1) if cfg.variant == "gl" else st.just(0)
    return st.builds(NormalMonomial, st.tuples(*[st.integers(0, max_exp)] * size), dpower)


def elements(cfg, max_exp=2, max_terms=3, min_terms=0):
    pairs = st.lists(
        st.tuples(monomials(cfg, max_exp), laurent), min_size=min_terms, max_size=max_terms
    )
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


@pytest.mark.parametrize("cfg", _configs((2, 3), (None, 3)), ids=_config_id)
@SETTINGS
@given(data=st.data())
def test_monomials_and_words_normalize_alike(cfg, data):
    pairs = data.draw(st.lists(st.tuples(monomials(cfg), laurent), max_size=3))
    e = Element.from_monomials(cfg, pairs)
    words = [(m.word(cfg.order), c, m.dpower) for m, c in pairs]
    assert Element.from_words(cfg, words) == e
    assert normalize(e) == e == Element(cfg, dict(e.terms))


@SETTINGS
@given(classical, classical, classical, laurent.map(ELL3.coerce))
def test_classical_additive_laws(a, b, c, s):
    check_additive_laws(a, b, c, s)


@pytest.mark.parametrize("ring", [ELL3, CycloRing(5)], ids=lambda r: r.name)
@SETTINGS
@given(data=st.data())
def test_cyclotomic_additive_laws(ring, data):
    a, b, c = (data.draw(laurent.map(ring.coerce)) for _ in range(3))
    check_additive_laws(a, b, c, data.draw(st.integers(-3, 3)))


@pytest.mark.parametrize("ring", [ELL3, CycloRing(5)], ids=lambda r: r.name)
@SETTINGS
@given(laurent, laurent, laurent)
def test_cyclotomic_product_laws(ring, p, r, s):
    """``reduce_mod`` is a ring homomorphism, so the product of Laurent
    polynomials, reduced, is an independent oracle for the residue product."""
    a, b, c = map(ring.coerce, (p, r, s))
    assert a * b == ring.coerce(p * r)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("cfg", _configs((2, 3), (None, 3, 5)), ids=_config_id)
@settings(SETTINGS, max_examples=6)
@given(data=st.data())
def test_print_parse_print_round_trip(cfg, data):
    e = data.draw(elements(cfg, max_exp=1 if cfg.n == 3 else 2))
    printed = str(e)
    again = evaluate(printed, cfg)
    assert again == e
    assert str(again) == printed


def _shuffled_order(n: int, seed: int) -> GenOrder:
    seq = list(row_major_order(n).seq)
    random.Random(seed).shuffle(seq)
    return GenOrder(n, tuple(seq))


@pytest.mark.parametrize(
    "cfg",
    [
        AlgebraConfig(3, variant, _shuffled_order(3, seed), LaurentRing())
        for variant, seed in (("m", 1), ("gl", 2))
    ],
    ids=lambda cfg: f"n3-{cfg.variant}-shuffled",
)
@settings(SETTINGS, max_examples=6)
@given(data=st.data())
def test_rendering_follows_a_custom_order(cfg, data):
    """Factors print in the order of ``cfg``, not in that of another
    configuration of the same dimension rendered before it."""
    row_major = make_config(3, cfg.variant)
    everything = NormalMonomial((1,) * 9)
    assert monomial_to_str(everything, row_major.order) == " ".join(
        f"t[{i},{j}]" for i, j in row_major.order.seq
    )
    assert monomial_to_str(everything, cfg.order) == " ".join(
        f"t[{i},{j}]" for i, j in cfg.order.seq
    )
    e = data.draw(elements(cfg, max_exp=1, min_terms=1))
    # Rendered under the row-major order first: names kept per dimension
    # rather than per order would then print in row-major order below.
    str(Element(row_major, dict(e.terms)))
    printed = str(e)
    again = evaluate(printed, cfg)
    assert again == e
    assert str(again) == printed
    rank = cfg.order.rank_map
    for m in e.terms:
        factors = [
            rank[int(i), int(j)] for i, j in re.findall(r"t\[(\d),(\d)\]", monomial_to_str(m, cfg.order))
        ]
        assert factors == sorted(factors) and len(factors) == sum(map(bool, m.exps))


@pytest.mark.parametrize("cfg", _configs((2,), (None, 3)), ids=_config_id)
@settings(SETTINGS, max_examples=8)
@given(data=st.data())
def test_multiplication_is_associative(cfg, data):
    a, b, c = (data.draw(elements(cfg, max_exp=1, max_terms=2)) for _ in range(3))
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@pytest.mark.parametrize(
    "cfg",
    [make_config(3, v, flavor=f) for v in ("gl", "sl") for f in FLAVORS]
    + [make_config(2, v, ell=3, flavor=f) for v in ("m", "gl") for f in FLAVORS],
    ids=_config_id,
)
@settings(SETTINGS, max_examples=8)
@given(data=st.data())
def test_products_match_the_word_path(cfg, data):
    """``multiply`` builds no word of generator letters; straightening the
    concatenated ordered words of every pair of terms, rightmost inversion
    first, is an independent oracle for it (the benchmark's check)."""
    max_exp = 1 if cfg.n == 3 else 2
    a, b = (data.draw(elements(cfg, max_exp, max_terms=3, min_terms=2)) for _ in range(2))
    order = cfg.order
    entries = [
        (ma.word(order) + mb.word(order), ca * cb, ma.dpower + mb.dpower)
        for ma, ca in a.terms.items()
        for mb, cb in b.terms.items()
    ]
    assert multiply(a, b) == Element.from_words(cfg, entries, strategy="rightmost")


@pytest.mark.parametrize("cfg", _configs((2, 3), (None, 3)), ids=_config_id)
@SETTINGS
@given(data=st.data())
def test_products_keep_the_bidegree(cfg, data):
    """Every term of ``x y`` has ``bidegree(x) + bidegree(y)``; under ``sl``,
    where ``D = 1``, only up to a multiple of the all-ones vector."""
    max_exp = 2 if cfg.n == 2 else 1
    m1, m2 = (data.draw(monomials(cfg, max_exp)) for _ in range(2))
    expected = [a + b for a, b in zip(bidegree(m1), bidegree(m2))]
    product = multiply(Element.monomial(cfg, m1), Element.monomial(cfg, m2))
    for key in product.terms:
        shifts = {g - e for g, e in zip(bidegree(key), expected)}
        assert shifts == {0} or (cfg.variant == "sl" and len(shifts) == 1)


@pytest.mark.parametrize(
    "cfg",
    [make_config(n, ell=ell, flavor=f) for n in (2, 3) for f in FLAVORS for ell in (None, 3)],
    ids=_config_id,
)
@settings(SETTINGS, max_examples=24)
@given(data=st.data())
def test_determinant_inserted_mid_word_equals_appended(cfg, data):
    """``D`` is central, so ``w[:p] D w[p:]`` straightens to ``w D`` for
    every split ``p`` of an ordered word ``w``, and so does
    ``times_determinant``, whose one split is chosen for all of ``D``'s words."""
    m = data.draw(monomials(cfg))
    w = m.word(cfg.order)
    det = [(NormalMonomial(e).word(cfg.order), c) for e, _d, c in _det_words(cfg.order)[0]]
    appended = Element.from_words(cfg, [(w + d, c) for d, c in det])
    for p in range(len(w) + 1):
        assert Element.from_words(cfg, [(w[:p] + d + w[p:], c) for d, c in det]) == appended
    assert times_determinant(cfg, {NormalMonomial(m.exps, 1): cfg.ring.one()}) == appended


@pytest.mark.parametrize(
    "cfg",
    [make_config(n, ell=ell, flavor=f) for n in (2, 3) for f in FLAVORS for ell in (None, 3)],
    ids=_config_id,
)
@SETTINGS
@given(data=st.data())
def test_straightening_matches_the_reference(cfg, data):
    """Both strategies of the packed straightener give the coefficients of
    the independent reference straightener, word for word."""
    gens = [(i, j) for i in range(1, cfg.n + 1) for j in range(1, cfg.n + 1)]
    word = tuple(data.draw(st.lists(st.sampled_from(gens), max_size=8)))
    expected = reference_normal_form(cfg, word)
    for strategy in ("leftmost", "rightmost"):
        assert normal_form_of_word(cfg, word, strategy) == expected, strategy


def pairing_operands(ctx):
    """Two elements with terms of several bidegrees.  ``y`` carries the dual
    witness of a residue monomial that ``x`` carries, so ``phi(x y)`` is often
    nonzero."""
    cfg = ctx.config
    max_exp = 2 if ctx.n == 2 else 1
    dpower = st.integers(0, ctx.ell - 1) if ctx.variant == "gl" else st.just(0)
    residue = st.builds(
        NormalMonomial, st.tuples(*[st.integers(0, ctx.ell - 1)] * (ctx.n * ctx.n)), dpower
    )

    def build(parts):
        x, y, r, c = parts
        return x + Element.monomial(cfg, r), y + Element.monomial(cfg, ctx.dual_witness(r), c)

    return st.tuples(
        elements(cfg, max_exp, max_terms=2), elements(cfg, max_exp, max_terms=2), residue, laurent
    ).map(build)


def check_bform_against_phi(ctx):
    """Assert ``bform(x, y) == phi(multiply(x, y))`` on drawn operands and
    return the pairings."""
    values = []

    @SETTINGS
    @given(pairing_operands(ctx))
    def check(operands):
        x, y = operands
        value = ctx.bform(x, y)
        assert value == ctx.phi(multiply(x, y))
        values.append(value)

    check()
    return values


@pytest.mark.parametrize("n, ell, variant", [(2, 3, "m"), (2, 3, "gl"), (3, 3, "m")])
def test_bform_equals_phi_of_the_product(n, ell, variant):
    values = check_bform_against_phi(FrobeniusContext(n, ell, variant))
    assert any(not v.is_zero() for v in values)


def test_bform_differential_catches_a_mutated_target():
    """A target off by one in one row pairs the wrong components."""
    ctx = FrobeniusContext(2, 3)
    grade = ctx._top_grade
    ctx.__dict__["_top_grade"] = ((grade[0] + 1) % ctx.ell,) + grade[1:]
    with pytest.raises(AssertionError):
        check_bform_against_phi(ctx)


def phi_operands(ctx):
    """Elements whose keys fall into several ``divmod(z, l)`` groups of their
    determinant power ``z``, negative ``z`` included.  One drawn key is the
    top with ``z mod l`` taken off each diagonal exponent, so that
    ``D**(z mod l)`` brings it back to the top and ``phi`` is often nonzero;
    its ``l``-th powers become classical scalars."""
    ell, n = ctx.ell, ctx.n
    diagonal = {k * (n + 1) for k in range(n)}

    def reaching(z, lift):
        shaved = [ell - 1 - (z % ell if k in diagonal else 0) for k in range(n * n)]
        return NormalMonomial(tuple(v + ell * a for v, a in zip(shaved, lift)), z)

    dpower = st.integers(-2 * ell, 2 * ell) if ctx.variant == "gl" else st.just(0)
    reach = st.builds(reaching, dpower, st.tuples(*[st.integers(0, 1)] * (n * n)))
    key = st.one_of(reach, monomials(ctx.config))
    pairs = st.lists(st.tuples(key, laurent), min_size=1, max_size=4)
    return pairs.map(lambda p: Element.from_monomials(ctx.config, p))


def phi_per_key(ctx, e):
    """``phi`` on ``gl`` computed one key at a time: a key ``(m, z)`` with
    ``z = l*a + r`` gives the top entry of ``m D**r`` multiplied out on the
    plain variant, times ``Dbar**a``."""
    flat = replace(ctx.config, variant="m")
    det = quantum_determinant(flat)
    zero_exps = (0,) * (ctx.n * ctx.n)
    total = ClassicalPoly.zero(ctx.ring, ctx.n)
    for key, coeff in e.terms.items():
        d_quot, d_res = divmod(key.dpower, ctx.ell)
        part = Element.monomial(flat, NormalMonomial(key.exps), coeff)
        for _ in range(d_res):
            part = multiply(part, det)
        found = module_expand(part).entries.get(ctx.top)
        if found is not None:
            total = total + found * ClassicalPoly.monomial(
                ctx.ring, ctx.n, ClassicalMonomial(zero_exps, d_quot)
            )
    return total


def test_grouped_phi_equals_the_per_key_oracle():
    ctx = FrobeniusContext(2, 3, "gl")
    values, groups = [], set()

    @settings(SETTINGS, max_examples=24)
    @given(phi_operands(ctx))
    def check(e):
        value = ctx.phi(e)
        assert value == phi_per_key(ctx, e)
        values.append(value)
        groups.update(divmod(key.dpower, ctx.ell) for key in e.terms)

    check()
    assert any(not v.is_zero() for v in values)
    assert any(a < 0 for a, _ in groups) and len({r for _, r in groups}) == ctx.ell


def test_plain_phi_is_the_top_expansion_entry():
    ctx = FrobeniusContext(2, 3)
    values = []

    @SETTINGS
    @given(phi_operands(ctx))
    def check(e):
        value = ctx.phi(e)
        assert value == module_expand(e).entries.get(ctx.top, 0)
        values.append(value)

    check()
    assert any(not v.is_zero() for v in values)
