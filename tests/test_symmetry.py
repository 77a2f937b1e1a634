"""Symmetries of the relations and the change of generator order, as
differential paths for the straightener and the determinant enforcement.

Two maps preserve the four relation families of ``rewrite``'s docstring,
each over ``Z[q, q^-1]`` with ``q`` fixed:

* the transpose ``tau(t[i,j]) = t[j,i]``, an algebra automorphism: it swaps
  the same-row and same-column families, keeps opposite corners, and sends
  the nested-corner relation of ``t[a,b] t[c,d]`` to that of
  ``t[b,a] t[d,c]``, whose branch ``t[b,c] t[d,a]`` is a commuting pair of
  opposite corners, so it equals ``tau`` of the branch ``t[a,d] t[c,b]``;
* the flip ``rho(t[i,j]) = t[n+1-i, n+1-j]`` with products reversed, an
  anti-automorphism: it maps each family to itself, reversed.

Both fix ``D = sum_s (-q)**len(s) t[1,s(1)] .. t[n,s(n)]``.  ``rho`` sends
the term of ``s`` to that of ``w0 s w0``, with ``w0`` the reversal, and
``len(w0 s w0) = len(s)``, so ``rho(D) = D`` term by term.  ``tau`` sends it
to the column expansion ``sum_s (-q)**len(s) t[s(1),1] .. t[s(n),n]``, equal
to ``D`` in the algebra; ``test_the_determinant_is_fixed`` checks both on
the engine.  So each map sends ``w D**z`` to ``sigma(w) D**z`` (``D`` is
central), and normal forms are unique: straightening ``sigma(w)`` must give
what straightening ``sigma`` of each term of the normal form of ``w`` gives,
the term's ``D`` power carried unchanged.

Normal forms are unique under every generator order too, so the normal form
under one flavor, re-straightened term by term under the other, is the
normal form under the other.
"""

import random
from itertools import permutations, product

import pytest

from qcoord.coeff import LaurentPoly
from qcoord.monomial import Permutation
from qcoord.rewrite import Element, make_config, quantum_determinant

CONFIGS = [(variant, ell) for variant in ("m", "gl", "sl") for ell in (None, 3)]


def config_id(config):
    variant, ell = config
    return f"{variant}-{'Zq' if ell is None else f'Zeps{ell}'}"


def transpose(word, n):
    return tuple((j, i) for i, j in word)


def flip(word, n):
    return tuple((n + 1 - i, n + 1 - j) for i, j in reversed(word))


def words(n, seed):
    """Every word of length at most 3 at n = 2; a seeded sample of 30 words
    of length 2-4 at n = 3."""
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    if n == 2:
        return [w for k in range(4) for w in product(gens, repeat=k)]
    rng = random.Random(seed)
    return [tuple(rng.choice(gens) for _ in range(rng.randint(2, 4))) for _ in range(30)]


def powers(cfg, count, seed):
    """A ``D`` power per word: -1, 0 or 1 under ``gl``, 0 otherwise."""
    rng = random.Random(seed)
    return [rng.randint(-1, 1) if cfg.variant == "gl" else 0 for _ in range(count)]


def mapped(cfg, sigma, e):
    """``sigma`` of each term of ``e``, straightened in ``cfg``."""
    n = cfg.n
    return Element.from_words(
        cfg, [(sigma(m.word(e.config.order), n), c, m.dpower) for m, c in e.terms.items()]
    )


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("sigma", [transpose, flip])
@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_symmetries_commute_with_the_normal_form(n, sigma, config):
    variant, ell = config
    cfg = make_config(n, variant, ell=ell)
    sample = words(n, f"symmetry-{n}")
    for word, z in zip(sample, powers(cfg, len(sample), n)):
        image = Element.from_words(cfg, [(sigma(word, n), 1, z)])
        assert mapped(cfg, sigma, Element.from_words(cfg, [(word, 1, z)])) == image, word


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_a_change_of_order_keeps_the_normal_form(n, config):
    variant, ell = config
    standard, opposite = (make_config(n, variant, ell=ell, flavor=f) for f in ("standard", "opposite"))
    sample = words(n, f"order-{n}")
    for word, z in zip(sample, powers(standard, len(sample), n)):
        for source, target in ((standard, opposite), (opposite, standard)):
            nf = Element.from_words(source, [(word, 1, z)])
            moved = mapped(target, lambda w, _n: w, nf)
            assert moved == Element.from_words(target, [(word, 1, z)]), (word, source.order.kind)


@pytest.mark.parametrize("n", [2, 3])
def test_the_determinant_is_fixed(n):
    cfg = make_config(n)
    rows = range(1, n + 1)
    columns = []
    for images in permutations(rows):
        length = Permutation(images).length
        columns.append((tuple(zip(images, rows)), LaurentPoly({length: (-1) ** length})))
    det = quantum_determinant(cfg)
    assert Element.from_words(cfg, columns) == det
    assert mapped(cfg, flip, det) == det == mapped(cfg, transpose, det)
