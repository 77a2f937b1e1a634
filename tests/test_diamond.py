"""The rewriting system of the straightener, certified by Bergman's diamond
lemma (Adv. Math. 29, 1978).

The straightener has one rule per pair of distinct generators: the word
``x y`` with ``x`` ranked after ``y`` is replaced by
:func:`~qcoord.rewrite.swap_adjacent`'s expansion, ``q**e y x`` plus, for
nested corners, a multiple of a branch word ``u v``.  Words are compared by
the (weight, inversions) measure: the weight of :func:`~qcoord.monomial.weight`
(length, then the row-major letter counts, lexicographically), then the
count of letter pairs out of rank order.  It is a semigroup partial order:
multiplying two words of one weight on either side by a word adds the same
weight and the same inversions to both.  The words below a given one are
no longer than it, so finitely many: the descending chain condition holds.
:func:`test_every_rule_descends` checks, rather than assumes, that each
rule is compatible with it: the swapped word keeps its weight and loses
its one inversion, and the branch word has a smaller weight.

Every rule's leading word has two letters, so no leading word lies inside
another, and the only ambiguities are the overlaps ``z y x`` with
``z > y > x`` in rank: ``C(n**2, 3)`` of them, 4, 84, 560 and 2,300 at
n = 2 to 5.  The straightener resolves one by its first inversion
(``leftmost`` rewrites ``z y`` first, ``rightmost`` rewrites ``y x``) and
runs each to an ordered result; :func:`test_every_overlap_resolves` checks
that the two agree, in both flavors, over ``Z_q`` and ``Z_eps(3)``.  By the
lemma, the ordered monomials are then a basis of the algebra the rules
define, at every length.

What this does not certify is that the rules are the FRT relations:
``tests/test_rtt.py`` checks that.  ``check pbw-confluence`` and the
criterion-3 corpus straighten whole words both ways and so check the
engine, while this certifies the rewriting system.
"""

from itertools import combinations
from math import comb

import pytest

from qcoord.monomial import FLAVORS, weight
from qcoord.rewrite import make_config, normal_form_of_word, swap_adjacent


def measure(word, order):
    rank = order.rank_map
    inversions = sum(rank[a] > rank[b] for a, b in combinations(word, 2))
    return weight(word, order.n), inversions


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_rule_descends(n, flavor):
    order = make_config(n, flavor=flavor).order
    rules = 0
    for y, x in combinations(order.seq, 2):
        lead = (x, y)
        (swapped, _), *branch = swap_adjacent(x, y)
        assert swapped == (y, x)
        assert measure(swapped, order) == (weight(lead, n), 0)
        assert measure(lead, order) == (weight(lead, n), 1)
        for word, _ in branch:
            assert weight(word, n) < weight(lead, n)
        rules += 1
    assert rules == comb(n * n, 2)


@pytest.mark.parametrize("ell", [None, 3])
@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_overlap_resolves(n, flavor, ell):
    cfg = make_config(n, flavor=flavor, ell=ell)
    overlaps = [(z, y, x) for x, y, z in combinations(cfg.order.seq, 3)]
    assert len(overlaps) == comb(n * n, 3)
    unresolved = [
        word
        for word in overlaps
        if normal_form_of_word(cfg, word, "leftmost") != normal_form_of_word(cfg, word, "rightmost")
    ]
    assert unresolved == []
