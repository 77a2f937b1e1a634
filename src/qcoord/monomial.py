"""Words, ordered monomials, generator orders, permutations and the weight
filtration.

The generators of the quantum matrix algebra are indexed by pairs
``(i, j)`` with ``1 <= i, j <= n``.  A *word* is a finite product of
generators written as a tuple of index pairs.  A *normal monomial* is an
ordered product ``prod t[i,j]**N[i,j] * D**z`` whose factors follow a fixed
total order on the index pairs; the exponent table is stored row-major.

The *weight* of a word is the vector ``(degree, d[1,1], d[1,2], ...,
d[n,n])`` of its length followed by the occurrence counts of each
generator in row-major order.  Compared lexicographically, weights never
increase under the rewriting relations, which is what makes the reduction
to normal form terminate.  The *bidegree* of a monomial (its row sums, then
its column sums, each plus the determinant power) never changes under them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, starmap
from math import isqrt
from operator import gt
from typing import NamedTuple

GenIndex = tuple[int, int]
Word = tuple[GenIndex, ...]
Weight = tuple[int, ...]

# The two flavors of normal form, each with its kind of generator order.
FLAVORS = ("standard", "opposite")


def check_gen(g: GenIndex, n: int) -> None:
    i, j = g
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"generator index {g} out of range for n={n}")


def word_exponents(word: Word, n: int) -> tuple[int, ...]:
    """Row-major occurrence counts of the letters of a word.

    The letters are not range-checked; callers validate outside input first.
    """
    counts = [0] * (n * n)
    for i, j in word:
        counts[(i - 1) * n + (j - 1)] += 1
    return tuple(counts)


def weight(word: Word, n: int) -> Weight:
    """Weight of a word: total degree, then row-major occurrence counts."""
    for g in word:
        check_gen(g, n)
    return (len(word), *word_exponents(word, n))


def canonical_key(m) -> tuple:
    """Sort key of a monomial with ``exps`` and ``dpower``: weight, then the
    determinant power.  Every rendered listing sorts by it, largest first.
    Tables of one dimension share their length, so ``(sum(exps), exps)``
    orders as the weight does."""
    exps = m.exps
    return (sum(exps), exps, m.dpower)


def bidegree(m) -> tuple[int, ...]:
    """Bidegree of a monomial with ``exps`` and ``dpower``: the row sums of
    ``exps``, then the column sums, each plus ``dpower``.

    Every relation keeps the rows and the columns of its letters, the
    nested-corner branch ``t[a,d] t[c,b]`` included, and ``D`` has bidegree
    ``(1, ..., 1; 1, ..., 1)``, so straightening and determinant enforcement
    keep this grading on ``m`` and ``gl``; on ``sl`` (``D = 1``) it holds
    modulo the all-ones vector.
    """
    exps = m.exps
    n = isqrt(len(exps))
    z = m.dpower
    return tuple(
        [sum(exps[r:r + n]) + z for r in range(0, n * n, n)]
        + [sum(exps[c::n]) + z for c in range(n)]
    )


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``{1..n}`` together with its inversion count."""

    images: tuple[int, ...]
    length: int = field(init=False, compare=False)

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")
        object.__setattr__(self, "length", sum(starmap(gt, combinations(self.images, 2))))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]


def antidiag_region(n: int, g: GenIndex) -> int:
    """Position of a generator relative to the antidiagonal.

    Returns -1 for the region above it (``j > n+1-i``), 0 on it, +1 below
    (``j < n+1-i``).  The opposite-order constraint ranks the three regions
    in this sequence.
    """
    i, j = g
    d = i + j - (n + 1)
    return -1 if d > 0 else (0 if d == 0 else 1)


def antidiag_degree(n: int, exps: tuple[int, ...]) -> int:
    """Total exponent carried by the antidiagonal generators, at the
    row-major positions ``i * (n - 1)`` for ``i = 1 .. n``."""
    return sum(exps[n - 1 : n * n - 1 : n - 1]) if n > 1 else exps[0]


@dataclass(frozen=True)
class GenOrder:
    """A total order on the generator indices.

    ``seq`` lists all ``n*n`` index pairs from smallest to largest rank.
    ``kind`` is the flavor of normal form the order serves:
    ``"standard"`` for a free choice of order, or ``"opposite"`` when the
    order must list every generator above the antidiagonal before every
    antidiagonal one, which in turn precede all those below it.

    The other fields derive from the order alone, take no part in equality
    or hashing, and are shared by all configurations of the order.  Three
    are set here: ``rank_map`` (each index pair's rank), ``slots`` (each
    rank's row-major position) and ``targets`` (the positions a localized
    normal form keeps from being all positive: the diagonal's, or the
    antidiagonal's under ``"opposite"``).  The module that owns each other
    field fills it on first use: ``relations`` (``rewrite._rewrite``), the
    relation of each pair of ranks met, at most ``n**4``; ``det``
    (``rewrite._det_words``), ``D``'s normal form, at most ``n!`` terms for
    ``n <= rewrite.MAX_DET_N``; ``cuts`` (``rewrite._cuts``), the letters a
    reduction step's core cuts down, at most ``n**2``; ``names``
    (``render.monomial_to_str``), the ranks' ``(slot, "t[i,j]")`` names for
    ``t`` and ``tbar``.
    """

    n: int
    seq: tuple[GenIndex, ...]
    kind: str = "standard"
    rank_map: dict = field(init=False, repr=False, compare=False, default=None)
    slots: tuple = field(init=False, repr=False, compare=False, default=None)
    targets: tuple = field(init=False, repr=False, compare=False, default=None)
    relations: dict = field(init=False, repr=False, compare=False, default=None)
    det: tuple = field(init=False, repr=False, compare=False, default=None)
    cuts: tuple = field(init=False, repr=False, compare=False, default=None)
    names: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        n = self.n
        if sorted(self.seq) != [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]:
            raise ValueError("order must list every generator index exactly once")
        if self.kind not in FLAVORS:
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "opposite":
            regions = [antidiag_region(n, g) for g in self.seq]
            if regions != sorted(regions):
                raise ValueError(
                    "opposite-constrained order must rank the upper antidiagonal "
                    "block first, then the antidiagonal, then the lower block"
                )
        targets = [i * n + (n - 1 - i if self.kind == "opposite" else i) for i in range(n)]
        object.__setattr__(self, "rank_map", {g: r for r, g in enumerate(self.seq)})
        object.__setattr__(self, "slots", tuple((i - 1) * n + (j - 1) for i, j in self.seq))
        object.__setattr__(self, "targets", tuple(targets))
        object.__setattr__(self, "relations", {})
        object.__setattr__(self, "names", {})


@lru_cache(maxsize=16)
def row_major_order(n: int) -> GenOrder:
    """The default order: ``(1,1) < (1,2) < ... < (n,n)``."""
    seq = tuple((i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    return GenOrder(n, seq)


@lru_cache(maxsize=16)
def make_opposite_order(n: int) -> GenOrder:
    """Build an order satisfying the antidiagonal block constraint: the
    three regions in turn, row-major within each."""
    gens = sorted(row_major_order(n).seq, key=lambda g: antidiag_region(n, g))
    return GenOrder(n, tuple(gens), "opposite")


class NormalMonomial(NamedTuple):
    """An ordered monomial ``prod t[i,j]**exps[i,j] * D**dpower``.

    ``exps`` is row-major of length ``n*n``; ``dpower`` is the exponent of
    the (central) quantum determinant and stays 0 outside the localized
    variant.
    """

    exps: tuple[int, ...]
    dpower: int = 0

    @property
    def n(self) -> int:
        return isqrt(len(self.exps))

    def word(self, order: GenOrder) -> Word:
        """Expand into a word with factors listed in rank order."""
        n = order.n
        letters: list[GenIndex] = []
        for g in order.seq:
            e = self.exps[(g[0] - 1) * n + (g[1] - 1)]
            letters.extend([g] * e)
        return tuple(letters)

    def min_antidiag(self) -> int:
        n = self.n
        return min(self.exps[(i - 1) * n + (n - i)] for i in range(1, n + 1))
