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
