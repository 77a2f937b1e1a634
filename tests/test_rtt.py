"""The engine's relations are the FRT relations of Jimbo's R-matrix.

The quantum matrix algebra is defined by ``R T1 T2 = T2 T1 R``
(Faddeev, Reshetikhin and Takhtajan, 1990) with Jimbo's R-matrix
(Lett. Math. Phys. 11, 1986)::

    R = q sum_i E_ii (x) E_ii + sum_{i != j} E_ii (x) E_jj
        + (q - q^-1) sum_{i > j} E_ij (x) E_ji,

written here in plain dicts, independent of the engine.  Entry
``(ij, kl)`` of ``R T1 T2 - T2 T1 R`` is the quadratic element::

    sum_{a,b} R_{ij,ab} t[a,k] t[b,l] - sum_{c,d} t[j,d] t[i,c] R_{cd,kl}.

Three checks certify that the engine's algebra is the FRT algebra:

1. Every one of the ``n**4`` entries straightens to zero, for n <= 4, in
   both flavors, over ``Z_q`` and ``Z_eps(3)``.  A straightening step on a
   two-letter word subtracts a multiple of one rule, so an entry that
   straightens to zero lies in the span of the engine's rules.
2. Specialized at ``q = 2`` and reduced over the rationals, the entries
   span a space of rank ``C(n**2, 2)``: 6, 36 and 120 at n = 2, 3 and 4.
   That is the number of the engine's rules, one per pair of distinct
   generators, each with its own leading word, so linearly independent.
   Specializing can only lower a rank, so over ``Q(q)`` the span of the
   entries, which lies inside the span of the rules by 1, has the same
   dimension and equals it.  The two quadratic relation spaces are the
   same, and so are the algebras.
3. A control: the same R with its branch term at ``i < j`` leaves 10, 54
   and 168 entries nonzero at n = 2, 3 and 4, so the vanishing in 1 says
   something about the engine.
"""

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from qcoord.coeff import LaurentPoly
from qcoord.rewrite import Element, make_config


def jimbo(n: int, branch_below: bool = True) -> dict:
    """Entry ``R_{ij,kl}`` under ``(i, j, k, l)``, as ``{q exponent: coefficient}``.

    ``E_ab (x) E_cd`` has its one entry at row ``(a, c)``, column ``(b, d)``.
    ``branch_below`` puts the ``q - q^-1`` term at ``i > j`` (Jimbo's R),
    otherwise at ``i < j``.
    """
    r = {}
    for i, j in product(range(1, n + 1), repeat=2):
        if i == j:
            r[i, i, i, i] = {1: 1}
        else:
            r[i, j, i, j] = {0: 1}
            if (i > j) == branch_below:
                r[i, j, j, i] = {1: 1, -1: -1}
    return r


def rtt_entries(n: int, r: dict) -> dict:
    """Entry ``(i, j, k, l)`` of ``R T1 T2 - T2 T1 R`` as ``{word: {q exponent:
    coefficient}}``, a word being a pair of generators ``(row, column)``."""
    out = {}
    for i, j, k, l in product(range(1, n + 1), repeat=4):
        terms = defaultdict(Counter)
        for (r1, r2, c1, c2), coeff in r.items():
            if (r1, r2) == (i, j):
                terms[(c1, k), (c2, l)].update(coeff)
            if (c1, c2) == (k, l):
                terms[(j, r2), (i, r1)].subtract(coeff)
        out[i, j, k, l] = terms
    return out


def straightened(cfg, terms) -> Element:
    return Element.from_words(cfg, [(word, LaurentPoly(dict(c))) for word, c in terms.items()])


def rank(rows: list) -> int:
    """Rank over the rationals of sparse rows ``{column: Fraction}``."""
    pivots = {}
    for row in rows:
        row = {col: v for col, v in row.items() if v}
        while row:
            col = min(row)
            if col not in pivots:
                pivots[col] = row
                break
            pivot = pivots[col]
            factor = row[col] / pivot[col]
            for c, v in pivot.items():
                row[c] = row.get(c, 0) - factor * v
            row = {c: v for c, v in row.items() if v}
    return len(pivots)


@pytest.mark.parametrize("ell", [None, 3], ids=["Z_q", "Z_eps3"])
@pytest.mark.parametrize("flavor", ["standard", "opposite"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_entry_of_the_rtt_relation_straightens_to_zero(n, flavor, ell):
    cfg = make_config(n, flavor=flavor, ell=ell)
    for key, terms in rtt_entries(n, jimbo(n)).items():
        assert straightened(cfg, terms).is_zero(), key


@pytest.mark.parametrize("ell", [None, 3], ids=["Z_q", "Z_eps3"])
@pytest.mark.parametrize("flavor", ["standard", "opposite"])
@pytest.mark.parametrize("n,nonzero", [(2, 10), (3, 54), (4, 168)])
def test_the_branch_term_above_the_diagonal_breaks_the_relation(n, nonzero, flavor, ell):
    cfg = make_config(n, flavor=flavor, ell=ell)
    entries = rtt_entries(n, jimbo(n, branch_below=False))
    assert sum(not straightened(cfg, terms).is_zero() for terms in entries.values()) == nonzero


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_entries_span_one_relation_per_pair_of_generators(n):
    two = Fraction(2)
    rows = [
        {word: sum(c * two**e for e, c in coeff.items()) for word, coeff in terms.items()}
        for terms in rtt_entries(n, jimbo(n)).values()
    ]
    assert rank(rows) == comb(n * n, 2)
