"""An independent straightener as an oracle for the engine.

The reference rewrites words with the public pairwise relation
``swap_adjacent``, letter by letter with generator indices, and does every
sum and product in the configuration's ring (``CycloRing`` or
``LaurentRing``); none of the engine's rank encoding, relation table,
straightening, lifting or projection code runs in it.  Both of the engine's
strategies are checked against it.
"""

import random

import pytest

from qcoord import NormalMonomial, swap_adjacent
from qcoord.coeff import LaurentPoly, reduce_mod
from qcoord.rewrite import FLAVORS, Element, make_config, multiply, normal_form_of_word


def reference_normal_form(cfg, word):
    """Exponent tables of ``word`` straightened against ``cfg.order``, with
    coefficients in ``cfg.ring``."""
    ring, n, rank = cfg.ring, cfg.n, cfg.order.rank_map
    pending, result = {tuple(word): ring.one()}, {}
    while pending:
        word, coeff = pending.popitem()
        pos = next((p for p in range(len(word) - 1) if rank[word[p]] > rank[word[p + 1]]), None)
        if pos is None:
            exps = [0] * (n * n)
            for i, j in word:
                exps[(i - 1) * n + (j - 1)] += 1
            key = tuple(exps)
            result[key] = result.get(key, ring.zero()) + coeff
            continue
        for pair, c in swap_adjacent(word[pos], word[pos + 1]):
            new = word[:pos] + pair + word[pos + 2:]
            pending[new] = pending.get(new, ring.zero()) + coeff * ring.coerce(c)
    return {exps: c for exps, c in result.items() if c}


def check_against_reference(n, flavor, ell):
    cfg = make_config(n, "m", ell=ell, flavor=flavor)
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    rng = random.Random(f"oracle/{n}/{flavor}/{ell}")
    for _ in range(40):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 7)))
        expected = reference_normal_form(cfg, word)
        for strategy in ("leftmost", "rightmost"):
            assert normal_form_of_word(cfg, word, strategy) == expected, (word, strategy)
        cut = rng.randint(0, len(word))
        left = Element.from_words(cfg, [(word[:cut], 1)])
        right = Element.from_words(cfg, [(word[cut:], 1)])
        product = {NormalMonomial(exps): c for exps, c in expected.items()}
        assert multiply(left, right).terms == product, (word, cut)


CASES = [(n, flavor, ell) for n in (2, 3, 4) for flavor in FLAVORS for ell in (3, 5)]


@pytest.mark.parametrize("n,flavor,ell", CASES)
def test_engine_matches_reference_over_root_ring(n, flavor, ell):
    check_against_reference(n, flavor, ell)


@pytest.mark.parametrize("n,flavor", [(n, flavor) for n in (2, 3, 4) for flavor in FLAVORS])
def test_engine_matches_reference_over_laurent_ring(n, flavor):
    check_against_reference(n, flavor, None)


# ---------------------------------------------------------------------------
# The closed form of a nested pair's powers, as a second independent path.
# ---------------------------------------------------------------------------


def _poly_add(a, b, shift=0, scale=1):
    """``a + scale * q**shift * b`` for Laurent polynomials held as plain
    ``{exponent: integer}`` dicts, zeros dropped."""
    out = dict(a)
    for e, c in b.items():
        out[e + shift] = out.get(e + shift, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def nested_power_coefficients(m, k):
    """``C(m, k, j)`` for ``j = 0 .. min(m, k)``, plain integer dicts.

    For a nested pair ``y = t[a,b] < x = t[c,d]`` (``a < c``, ``b < d``) of
    the standard order, with ``u = t[a,d]`` and ``v = t[c,b]``:
    ``x^m y^k = sum_j C(m,k,j) y^(k-j) u^j v^j x^(m-j)``, where
    ``C(0,k,0) = 1`` and
    ``C(m+1,k,j) = q^(-2j) C(m,k,j) + (q^(2j-2k-1) - q) C(m,k,j-1)``.
    """
    coeffs = [{0: 1}]
    for _ in range(m):
        nxt = []
        for j in range(min(len(coeffs), k) + 1):
            c = _poly_add({}, coeffs[j], -2 * j) if j < len(coeffs) else {}
            if j:
                c = _poly_add(c, coeffs[j - 1], 2 * j - 2 * k - 1)
                c = _poly_add(c, coeffs[j - 1], 1, -1)
            nxt.append(c)
        coeffs = nxt
    return coeffs


def nested_power_normal_form(n, x, y, m, k):
    """The exponent tables and coefficient dicts of ``x^m y^k`` from the
    closed form."""
    (a, b), (c, d) = y, x
    out = {}
    for j, coeff in enumerate(nested_power_coefficients(m, k)):
        if coeff:
            exps = [0] * (n * n)
            for (row, col), e in ((y, k - j), ((a, d), j), ((c, b), j), (x, m - j)):
                exps[(row - 1) * n + (col - 1)] += e
            out[tuple(exps)] = coeff
    return out


def nested_pairs(n):
    """Every ``(x, y)`` with ``y = t[a,b]``, ``x = t[c,d]``, ``a < c``, ``b < d``."""
    rows = [(a, c) for a in range(1, n + 1) for c in range(a + 1, n + 1)]
    return [((c, d), (a, b)) for a, c in rows for b, d in rows]


def check_closed_form(n, x, y, m, k, ell=None):
    """Over Z_eps(l) the closed form's coefficients are reduced mod ``phi_l``;
    the terms whose coefficient reduces to zero are absent from the engine's."""
    cfg = make_config(n, ell=ell)
    expected = nested_power_normal_form(n, x, y, m, k)
    if ell is not None:
        reduced = {e: reduce_mod(LaurentPoly(c), cfg.ring.modulus) for e, c in expected.items()}
        expected = {exps: c.terms for exps, c in reduced.items() if c}
    for strategy in ("leftmost", "rightmost"):
        nf = normal_form_of_word(cfg, (x,) * m + (y,) * k, strategy)
        assert {exps: c.terms for exps, c in nf.items()} == expected, (x, y, m, k, ell, strategy)


@pytest.mark.parametrize("m", range(13))
def test_diagonal_powers_match_the_closed_form(m):
    for k in range(13):
        check_closed_form(2, (2, 2), (1, 1), m, k)


@pytest.mark.parametrize("x, y", nested_pairs(3))
def test_nested_pairs_at_n3_match_the_closed_form(x, y):
    for m, k in ((1, 1), (2, 3), (4, 4)):
        check_closed_form(3, x, y, m, k)


@pytest.mark.parametrize("x, y", nested_pairs(4))
def test_nested_pairs_at_n4_match_the_closed_form(x, y):
    for m, k in ((1, 1), (2, 3)):
        check_closed_form(4, x, y, m, k)


@pytest.mark.parametrize("m", range(7))
def test_diagonal_powers_over_the_root_ring_match_the_reduced_closed_form(m):
    for k in range(7):
        check_closed_form(2, (2, 2), (1, 1), m, k, ell=3)
