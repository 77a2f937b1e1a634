"""The coproduct is an algebra map: a differential check of straightening.

The matrix coproduct ``Delta(t[i,j]) = sum_k t[i,k] (x) t[k,j]`` extends to
an algebra map ``A -> A (x) A`` (Faddeev, Reshetikhin and Takhtajan, 1990),
and ``Delta(D) = D (x) D``.  For a word ``w`` the two sides of
``Delta(NF(w)) = Delta(w)`` straighten different words: the left side
straightens ``w`` and then the split words of each normal monomial, the
right side the split words of ``w`` itself.  The tensor square is test code
here: a dict from pairs of normal monomials to coefficients, each factor
straightened on its own.  The counit ``eps(t[i,j]) = delta_ij`` is an
algebra map too, so ``eps(NF(w)) = eps(w)``.  The antipode is left out.
"""

import random
from itertools import product

import pytest

from qcoord.coeff import _merge
from qcoord.rewrite import Element, make_config, quantum_determinant

FLAVORS = ("standard", "opposite")


class Tensor:
    """``NF (x) NF`` of coproducts over one algebra, with each straightened
    split word kept, as many recur."""

    def __init__(self, cfg):
        self.cfg = cfg
        self._nf = {}

    def nf(self, word):
        if word not in self._nf:
            self._nf[word] = Element.from_words(self.cfg, [(word, 1)]).terms
        return self._nf[word]

    def delta_word(self, word, scale=1, total=None):
        """``NF (x) NF (Delta(w))``, times ``scale``, added into ``total``."""
        total = {} if total is None else total
        n = self.cfg.n
        for ks in product(range(1, n + 1), repeat=len(word)):
            left = self.nf(tuple((i, k) for (i, _), k in zip(word, ks)))
            right = self.nf(tuple((k, j) for (_, j), k in zip(word, ks)))
            for m1, a in left.items():
                for m2, b in right.items():
                    _merge(total, (m1, m2), a * b * scale)
        return total

    def delta(self, e):
        """``Delta`` of an element in normal form, each term through its
        normal monomial's word."""
        total = {}
        for m, c in e.terms.items():
            self.delta_word(m.word(self.cfg.order), c, total)
        return total


def words(n, lengths):
    letters = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return [w for k in lengths for w in product(letters, repeat=k)]


def assert_coproduct_commutes(cfg, ws):
    tensor = Tensor(cfg)
    for w in ws:
        assert tensor.delta_word(w) == tensor.delta(Element.from_words(cfg, [(w, 1)])), w


@pytest.mark.parametrize("flavor", FLAVORS)
def test_coproduct_commutes_with_straightening(flavor):
    """``NF (x) NF (Delta(w)) = Delta(NF(w))`` for all 80 words of length 2-3
    at n = 2, over ``Z_q``."""
    assert_coproduct_commutes(make_config(2, flavor=flavor), words(2, (2, 3)))


@pytest.mark.parametrize("flavor", FLAVORS)
def test_coproduct_commutes_with_straightening_over_z_eps3(flavor):
    """The same 80 words over ``Z_eps(3)``."""
    assert_coproduct_commutes(make_config(2, ell=3, flavor=flavor), words(2, (2, 3)))


@pytest.mark.parametrize("flavor", FLAVORS)
def test_coproduct_commutes_with_straightening_on_seeded_words_at_n3(flavor):
    """The same on 30 seeded words of length 3 at n = 3, over ``Z_q``."""
    ws = random.Random(3).sample(words(3, (3,)), 30)
    assert_coproduct_commutes(make_config(3, flavor=flavor), ws)


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("n", [2, 3])
def test_counit_commutes_with_straightening(flavor, n):
    """``eps(NF(w)) = eps(w)`` for every word of length 2-3, over ``Z_q``:
    a normal monomial counts its coefficient when all its letters are
    diagonal, and a word is 1 when all of its are, else 0."""
    cfg = make_config(n, flavor=flavor)

    def diagonal(word):
        return all(i == j for i, j in word)

    for w in words(n, (2, 3)):
        terms = Element.from_words(cfg, [(w, 1)]).terms
        counit = sum((c for m, c in terms.items() if diagonal(m.word(cfg.order))), cfg.ring.zero())
        assert counit == int(diagonal(w)), w


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_coproduct_of_the_determinant_is_its_tensor_square(flavor, n):
    """``Delta(D) = D (x) D`` over ``Z_q``, ``D`` the quantum determinant."""
    cfg = make_config(n, flavor=flavor)
    det = quantum_determinant(cfg)
    square = {(m1, m2): a * b for m1, a in det.terms.items() for m2, b in det.terms.items()}
    assert Tensor(cfg).delta(det) == square
