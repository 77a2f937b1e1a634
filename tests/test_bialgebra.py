"""The coproduct is an algebra map: a differential check of straightening.

The matrix coproduct ``Delta(t[i,j]) = sum_k t[i,k] (x) t[k,j]`` extends to
an algebra map ``A -> A (x) A`` (Faddeev, Reshetikhin and Takhtajan, 1990),
and ``Delta(D) = D (x) D``.  For a word ``w`` the two sides of
``Delta(NF(w)) = Delta(w)`` straighten different words: the left side
straightens ``w`` and then the split words of each normal monomial, the
right side the split words of ``w`` itself.  The tensor square is test code
here: a dict from pairs of normal monomials to coefficients, each factor
straightened on its own.  The antipode is left out.
"""

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


@pytest.mark.parametrize("flavor", FLAVORS)
def test_coproduct_commutes_with_straightening(flavor):
    """``NF (x) NF (Delta(w)) = Delta(NF(w))`` for all 80 words of length 2-3
    at n = 2, over ``Z_q``."""
    cfg = make_config(2, flavor=flavor)
    tensor = Tensor(cfg)
    for w in words(2, (2, 3)):
        assert tensor.delta_word(w) == tensor.delta(Element.from_words(cfg, [(w, 1)])), w


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_coproduct_of_the_determinant_is_its_tensor_square(flavor, n):
    """``Delta(D) = D (x) D`` over ``Z_q``, ``D`` the quantum determinant."""
    cfg = make_config(n, flavor=flavor)
    det = quantum_determinant(cfg)
    square = {(m1, m2): a * b for m1, a in det.terms.items() for m2, b in det.terms.items()}
    assert Tensor(cfg).delta(det) == square
