"""Reduction of algebra elements to linear combinations of ordered monomials.

The quantum matrix algebra on generators ``t[i,j]`` carries four families
of commutation relations.  Writing ``x = t[a,b]`` and ``y = t[c,d]``:

* same row (``b < d``):        ``x y = q y x``
* same column (``a < c``):     ``x y = q y x``
* opposite corners (``(a-c)*(b-d) < 0``):  ``x y = y x``
* nested corners (``a < c`` and ``b < d``):
  ``x y = y x + (q - q^-1) t[a,d] t[c,b]``

Any word can be straightened against a fixed generator order by repeatedly
swapping adjacent out-of-order letters.  A swap either keeps the letter
multiset (multiplying by a power of ``q``) or, in the nested-corner case,
also spawns a two-letter replacement of strictly smaller weight; the
measure (weight, inversion count) therefore strictly decreases and the
process terminates.

The straightener (:func:`_rewrite`) works on words of generator ranks: a
word is the tuple of its letters' ranks in the generator order, so an
inversion is a plain integer comparison.  The relation of each pair of ranks
is derived from :func:`_relation`, the one definition of the relations, the
first time the pair is met, and kept in the order's ``relations`` table.
Words are grouped in classes keyed by ``(length, *exponent table)``, then
the term's ``D`` power where it has one, so one pass takes every power; a
branch ``x y -> u v`` moves one count from each of the slots of ``x`` and
``y`` to those of ``u`` and ``v``, so a branched word's class key follows
from its parent's without recounting, and an ordered word's exponent table
(and power) is the tail of its class key.  A swap within a class makes the
rank word
lexicographically smaller, so the straightener takes a class's words
largest first: every word that can reach a given one has been taken before
it, its coefficient is whole when its turn comes, and no word is
straightened twice, however many paths reach it.

An operation -- a product, a constructor, a determinant multiple -- hands
the straightener rank words already grouped by class key, built from
exponent tables where the operands are ordered monomials, and each
coefficient packed into one integer: its value at ``q = 2**64`` (Kronecker
substitution), next to its lowest exponent and a bound on its l1 norm.  A
q-shift then changes only the exponent, the factor ``q - q^-1`` of a branch
is a shift and a subtraction, a sum is one integer addition and a product
one integer multiplication.  The coefficients stay packed through the
determinant enforcement below and are read back once, in signed
base-``2**64`` digits, as the operation's result.

A packed value is always exact: ``v`` is the value at ``q = 2**64``, so a
nonzero ``v`` is a nonzero coefficient and the integer arithmetic needs no
check.  Only the two acts that read a value's digits are certified, where
they happen: dropping a sum whose ``v`` is 0, and decoding.  Each needs the
value's l1 bound below ``2**63`` (:func:`_trust`); an operation that reaches
one it cannot certify is abandoned there and redone whole with wider digits
(:func:`_certified`).

For the localized and special variants, a second reduction phase enforces
the normal-form constraint that the minimal diagonal (antidiagonal, under
the opposite flavor) exponent be zero.  If ``m`` has every such target
exponent positive, let ``t0`` be ``m`` with one factor taken off at each
target.  The quantum determinant ``D`` is central, and ``t0 D`` straightens
to ``c m + rest`` with ``c`` a unit and ``rest`` strictly smaller, so
``m = c**-1 (t0 D - rest)`` trades one target factor per position for a
determinant factor.  Most products hold no such monomial, and enforcement
returns them at once.  The step is computed on ``m``'s core
(:func:`_core`).  Only nested-corner pairs branch, so a letter ``g`` with
no nested partner ranked below it q-commutes with every letter below it:
``g**a`` times an ordered word is the ordered word with ``a`` more factors
of ``g``, times a power of ``q`` read off the exponents ``g`` crosses.  So
is an ordered word times ``g**a`` when ``g`` has no nested partner ranked
above it.  The core cuts every such letter (:func:`_cuts`, derived from
:func:`_relation` once per order) down to what keeps ``m`` violating, one
factor at a target and none elsewhere; with ``D`` central, the normal form
of ``t0 D`` is that of the core's ``t0' D`` with the cuts added back to
every term and each coefficient times a power of ``q`` that is linear in
the cut exponents (:func:`_cored_step`).  So one cached step serves every
monomial of a core.  At n = 3 only ``t[2,2]``
stays in a core, in both flavors; at n = 2 every violating monomial has the
one core ``t[1,1] t[2,2]``, or its antidiagonal, and a diagonal power at
n = 1 costs one step of one letter, not a word of its length.

The product by ``D`` (:func:`_times_det`) multiplies each packed
coefficient by each of ``D``'s, packed: one integer product.  It is the
engine's one product by ``D``: the reduction step and
:func:`times_determinant`, which multiplies out each key's own ``D`` power
in the plain variant, share it.

Both phases compute over ``Z_q`` only, in packed form.  A root-of-unity
configuration is the base change of the ``Z_q`` form along ``reduce_mod``,
a ring homomorphism, so its coefficients are lifted into ``Z_q`` as they
are packed (a residue read as a polynomial in ``q``), straightened and
reduced there, and decoded into the configuration's ring once at the end
(:func:`_decode`).  A bounded table decodes each distinct packed value once,
so equal coefficients of results are one shared object, never mutated.

Straightening, ``D``, its targets and the reduction step depend on the
:class:`GenOrder` alone, so every configuration of one order shares them,
whatever its variant and ring.  The order carries the relation table, ``D``
(``order.det``, from :func:`_det_words`), the targets and the cut letters
(``order.cuts``), each bounded by ``n``; the reduction steps sit in one
bounded table keyed by the order and the core (:func:`_reduction_step`).
The variant is read only by :func:`_enforce` (and :func:`_dpower`), the
ring by :func:`_decode` and :class:`Element`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations
from math import factorial
from operator import add, attrgetter, mul, sub

from .coeff import Combination, CycloElem, CycloRing, LaurentPoly, LaurentRing
from .monomial import (
    FLAVORS,
    GenIndex,
    GenOrder,
    NormalMonomial,
    Permutation,
    Word,
    antidiag_degree,
    canonical_key,
    check_gen,
    make_opposite_order,
    row_major_order,
    word_exponents,
)

VARIANTS = ("m", "gl", "sl")

# The ring every straightening and reduction step computes in.
_ZQ = LaurentRing()
_ONE = _ZQ.one()
# Wraps terms that hold no zero as a Laurent polynomial, unfiltered.
_laurent = _ONE._like
# ``_new(NormalMonomial, (exps, dpower))`` builds the monomial without the
# Python-level ``__new__`` of a named tuple, for the engine's inner loops.
_new = tuple.__new__
# The exponent table of a normal monomial, for ``map``.
_exps = attrgetter("exps")

# Cache bounds: a process meets a handful of dimensions and generator orders,
# and 8 distinct reduction steps, one per core, in a seed-1 4,608-op round of
# the mixed gl/sl ``localized`` benchmark (797 with only the order's first
# and last letters cut, 1,348 when keyed by the whole monomial).
_SMALL_CACHE = 64
_REDUCTION_CACHE = 1 << 14
# Decoded coefficients: a 26,000-op round of the ``straighten`` benchmark
# decodes 103,574 terms holding 161 distinct values.  A 4,608-op round of
# ``localized`` (seed 1) holds 2,082 distinct values, one key each, and
# 3,842 of its 24,326 lookups miss; a bound of 4,096 raised its peak memory
# by about 1.4 MB.
_DECODE_CACHE = 256

# Largest dimension whose quantum determinant is expanded: the sum has n!
# terms, and straightening it at n = 8 takes about 2 s (Python 3.11, 2 cores)
# while each further dimension multiplies the term count by n.
MAX_DET_N = 8

# Longest word the engine builds, checked before the word exists.  A word of
# 10**6 letters with no swap to make (``nf 't[1,1]^999999 t[1,1]'``) takes
# 0.08 s and 39 MB (Python 3.11, 2 cores), while one of 10**8 runs out of
# memory.
MAX_WORD_LEN = 10**6

# Longest word whose inversion searches are tabulated (:func:`_spans`): a
# table for the 10**6 letters of ``nf 't[1,1]^999999 t[1,1]'`` held 189 MB.
_SPAN_TABLE_LEN = 256

# Digit width, in bits, that an operation packs its coefficients at first
# (:func:`_certified`).  An operation that must read a value whose l1 bound
# reaches 2**63 is redone wider; among the documented probes only
# t[2,2]^16 t[1,1]^16 at n = 2 needs it.
_PACK_WIDTH = 64

# Most digits :func:`_unpack` reads, and most terms :func:`_pack` sums, one
# by one; longer values are split in halves.  Splitting is as fast at 64
# digits of 64 bits (Python 3.11, 2 cores) and faster above, while the
# ``localized`` benchmark packs and decodes values of a few digits.
_DIGIT_RUN = 32


def _check_word_len(length: int) -> None:
    if length > MAX_WORD_LEN:
        raise ValueError(
            f"a word of {length} letters is too long; words are limited to {MAX_WORD_LEN} letters"
        )


@dataclass(frozen=True)
class AlgebraConfig:
    """Fixes the algebra a computation lives in.

    ``variant`` selects the plain matrix algebra (``"m"``), its localization
    at the quantum determinant (``"gl"``) or the quotient by ``D - 1``
    (``"sl"``).  The order's ``kind``, the flavor, selects the normal-form
    constraint of the localized variants: ``"standard"`` keys on the
    diagonal exponents, ``"opposite"`` on the antidiagonal ones.
    """

    n: int
    variant: str
    order: GenOrder
    ring: LaurentRing | CycloRing

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.order.n != self.n:
            raise ValueError("generator order has the wrong dimension")


def make_config(
    n: int, variant: str = "m", *, ell: int | None = None, flavor: str = "standard"
) -> AlgebraConfig:
    """The algebra of ``n``, ``variant`` and ``ell``, in the generator order
    of ``flavor`` (row-major for ``"standard"``).  Any other order goes
    straight to :class:`AlgebraConfig`."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown basis flavor {flavor!r}")
    order = make_opposite_order(n) if flavor == "opposite" else row_major_order(n)
    ring = LaurentRing() if ell is None else CycloRing(ell)
    return AlgebraConfig(n, variant, order, ring)


def _relation(x: GenIndex, y: GenIndex):
    """The commutation relation for ``x y`` with ``x != y``, as
    ``(qexp, branch)``: ``x y = q**qexp y x``, plus ``sign (q - q^-1) u v``
    when ``branch`` is ``(u, v, sign)`` (the nested-corner case)."""
    a, b = x
    c, d = y
    if a == c:
        return (1 if b < d else -1), None
    if b == d:
        return (1 if a < c else -1), None
    if (a - c) * (b - d) < 0:
        return 0, None
    if a < c:
        return 0, ((a, d), (c, b), 1)
    return 0, ((c, b), (a, d), -1)


def swap_adjacent(x: GenIndex, y: GenIndex) -> list[tuple[Word, LaurentPoly]] | None:
    """Expand the two-letter word ``x y`` over words with ``y`` first.

    Returns ``None`` for identical letters (nothing to swap).  The result
    expresses ``x*y`` exactly, so it is valid for either orientation; the
    rewriting engine invokes it when ``x`` ranks after ``y``.
    """
    if x == y:
        return None
    qexp, branch = _relation(x, y)
    out = [((y, x), LaurentPoly.q_power(qexp))]
    if branch is not None:
        u, v, sign = branch
        out.append(((u, v), LaurentPoly.q_diff() * sign))
    return out


def _rank_relation(order: GenOrder, x: int, y: int):
    """:func:`_relation` for the letters of ranks ``x`` and ``y``, stored in
    ``order.relations`` under ``x * n**2 + y``, with a branch recast as
    ``(u, v, sign, sx, sy, su, sv)``: the ranks of the branch letters, and
    the slots of ``x``, ``y``, ``u``, ``v`` in a class key."""
    n = order.n
    gx = order.seq[x]
    gy = order.seq[y]
    qexp, branch = _relation(gx, gy)
    if branch is not None:
        u, v, sign = branch
        rank = order.rank_map
        slots = [1 + (i - 1) * n + (j - 1) for i, j in (gx, gy, u, v)]
        branch = (rank[u], rank[v], sign, *slots)
    entry = order.relations[x * n * n + y] = (qexp, branch)
    return entry


class _Spans:
    """The inversion searches of a word of length ``k`` by start position
    ``s``, built when asked: up to ``k - 2`` (leftmost) or down to 0 (rightmost)."""

    __slots__ = ("stop", "step")

    def __init__(self, k: int, rightmost: bool):
        self.stop, self.step = (-1, -1) if rightmost else (k - 1, 1)

    def __getitem__(self, s: int) -> range:
        return range(s, self.stop, self.step)


@lru_cache(maxsize=_SMALL_CACHE)
def _spans(k: int, rightmost: bool) -> tuple[range, ...] | _Spans:
    """:class:`_Spans`, tabulated for a word of at most ``_SPAN_TABLE_LEN``
    letters."""
    spans = _Spans(k, rightmost)
    if k > _SPAN_TABLE_LEN:
        return spans
    return tuple([spans[s] for s in range(k - 1)]) or (range(0),)


def _pack(c, width: int) -> tuple[int, int, int]:
    """A nonzero coefficient, of ``Z_q`` or a residue read as a polynomial in
    ``q``, as a packed triple ``(v, lo, bound)``: ``v`` is
    ``sum c_e * 2**(width * (e - lo))`` and ``bound`` is the l1 norm of ``c``."""
    terms = c.terms
    if len(terms) == 1:
        ((lo, v),) = terms.items()
        return v, lo, abs(v)
    lo = min(terms)
    if len(terms) > _DIGIT_RUN:
        v = _joined(sorted(terms.items()), width)
    else:
        v = sum([c_e << width * (e - lo) for e, c_e in terms.items()])
    return v, lo, sum(map(abs, terms.values()))


def _joined(items: list, width: int) -> int:
    """``sum c_e * 2**(width * (e - lo))`` over ascending ``(e, c_e)`` items
    from ``lo``, the first exponent.  Each term added to a running sum copies
    it, so summing ``d`` digits one by one costs ``d**2`` words: the items
    are joined in halves, the upper half shifted once."""
    if len(items) <= _DIGIT_RUN:
        lo = items[0][0]
        return sum([c_e << width * (e - lo) for e, c_e in items])
    h = len(items) // 2
    shift = width * (items[h][0] - items[0][0])
    return _joined(items[:h], width) + (_joined(items[h:], width) << shift)


def _unpack(v: int, lo: int, width: int) -> LaurentPoly:
    """The Laurent polynomial of a packed ``(v, lo)``, read in signed digits
    of base ``2**width``: exact when every coefficient has |c| < 2**(width - 1).

    Each digit read shifts the whole rest of ``v``, so reading ``d`` digits
    one by one costs ``d**2`` words of copying.  A value of more than
    ``_DIGIT_RUN`` digits is split first, on a whole digit ``k``: the low
    digits, read as a signed value, are the value of ``v``'s low ``k`` digits
    between ``-2**(k w - 1)`` and ``2**(k w - 1)``, since every coefficient
    is below half a digit; the high digits are ``v`` minus that, shifted.
    """
    half = 1 << (width - 1)
    if -half <= v < half:
        return _laurent({lo: v})
    if v.bit_length() > _DIGIT_RUN * width:
        k = v.bit_length() // (2 * width)
        bits = k * width
        low = v & ((1 << bits) - 1)
        if low >> (bits - 1):
            low -= 1 << bits
        high = _unpack((v - low) >> bits, lo + k, width).terms
        return _laurent({**_unpack(low, lo, width).terms, **high} if low else high)
    mask = (1 << width) - 1
    terms = {}
    while v:
        d = v & mask
        v >>= width
        if d >= half:
            # The digit is d - 2**width: carry one into the rest.
            terms[lo] = d - mask - 1
            v += 1
        elif d:
            terms[lo] = d
        lo += 1
    return _laurent(terms)


class _Untrusted(Exception):
    """Raised by :func:`_trust` with the l1 bound of a packed value whose
    digits must be read and are too narrow for it."""


def _trust(bound: int, width: int) -> None:
    """Certify a packed value before its digits are read, at a dropped zero
    or a decoding: its signed digits are its coefficients exactly when its
    l1 ``bound`` is below ``2**(width - 1)``; otherwise raise
    :class:`_Untrusted`."""
    if bound >= 1 << (width - 1):
        raise _Untrusted(bound)


def _put(
    bucket: dict, key, c: tuple[int, int, int], width: int, waiting: list | None = None
) -> None:
    """Add the packed ``c`` to ``bucket[key]``, one integer addition aligned
    at the lower ``lo`` with the bounds added, and drop the key when the sum
    vanishes, once that zero is certified.  ``waiting``, if given, is the
    bucket's keys in ascending order, kept in step."""
    cur = bucket.get(key)
    if cur is None:
        bucket[key] = c
        if waiting is not None:
            insort(waiting, key)
        return
    v, lo, bound = c
    cv, clo, cbound = cur
    if clo <= lo:
        v = cv + (v << width * (lo - clo))
        lo = clo
    else:
        v += cv << width * (clo - lo)
    bound += cbound
    if v:
        bucket[key] = v, lo, bound
    else:
        _trust(bound, width)
        del bucket[key]
        if waiting is not None:
            del waiting[bisect_left(waiting, key)]


def _rewrite(order: GenOrder, pending: tuple, strategy: str = "leftmost", trace=None):
    """Straighten packed words: the one straightening pass of the engine.

    ``pending`` is ``(width, classes)``: ``classes`` maps each class key
    ``(length, *exps)``, or ``(length, *exps, dpower)``, to the rank words
    of that class, each with its coefficient packed at ``width`` bits a
    digit (:func:`_pack`), and is consumed.  Returns the key tails
    ``(*exps)`` or ``(*exps, dpower)`` of the ordered monomials reached,
    with their coefficients still packed.  Classes are processed largest
    key first; within a class the chosen adjacent inversion is the leftmost
    (or rightmost) one.

    Within a class, words are taken largest first, as rank tuples.  Swapping
    an inversion makes a word lexicographically smaller, so every word that
    can reach a given one is larger than it: once a word is taken, nothing
    still pending can reach it, its coefficient is whole, and each word is
    straightened at most once per class, one swap per distinct unordered word
    (the termination order of the diamond lemma, used as a schedule).  A
    swapped word larger than every pending word of its class is carried on
    in place; any other is merged into the class and the largest pending
    word is taken next.  A class of one word needs no order.

    An inversion is ``w[p] > w[p + 1]``, and the relation of a rank pair
    comes from :func:`_rank_relation`, that is from :func:`_relation`.
    Every word of a class shares its key: an ordered word's exponent table
    (and power) is the key's tail, and a branch's key is the
    parent's with one count moved from each of the slots of ``x`` and ``y``
    to those of ``u`` and ``v``, so exponents are never recounted.
    ``trace``, if given, receives one ``(word, produced)`` entry per swap,
    with words in generator letters.

    Each coefficient is a triple ``(v, lo, bound)`` with
    ``v = sum c_e * 2**(width * (e - lo))`` and ``bound`` an upper bound on
    the l1 norm of ``c``.  A q-shift adds to ``lo``; ``sign (q - q^-1) c``
    is ``sign ((v << 2 width) - v)`` at ``lo - 1`` with the bound doubled;
    a sum is one integer addition aligned at the lower ``lo``, with the
    bounds added.  ``v`` is always the exact value of ``q**-lo c`` at
    ``q = 2**width``; a sum whose ``v`` is 0 is dropped only once its bound
    certifies it (:func:`_trust`).

    The current word is a list swapped in place; a tuple of it is built
    only to compare it with the pending words of its class, and for an
    emitted branch.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rightmost = strategy == "rightmost"
    width, packed = pending
    size = order.n * order.n
    relations = order.relations
    wide = 2 * width
    # The open class keys, ascending and kept in step with ``packed``, so
    # the last one is the largest.
    queue = sorted(packed) if len(packed) > 1 else list(packed)

    totals: dict[tuple[int, ...], tuple[int, int, int]] = {}
    k = None
    while queue:
        key = queue.pop()
        bucket = packed.pop(key)
        if key[0] != k:
            # Branches keep the length: most passes meet a single one.
            k = key[0]
            spans = _spans(k, rightmost)
            first = spans[k - 2 if rightmost and k > 1 else 0]
        # The class's pending words, ascending and kept in step with
        # ``bucket``, so the last one is the largest; a class of one word
        # needs no order.
        waiting = sorted(bucket) if len(bucket) > 1 else None
        while bucket:
            if waiting is None:
                word, (v, lo, bound) = bucket.popitem()
            else:
                word = waiting.pop()
                v, lo, bound = bucket.pop(word)
            word = list(word)
            span = first
            while True:
                for p in span:
                    if word[p] > word[p + 1]:
                        break
                else:
                    # The ordered word is its class's smallest, so it is
                    # reached once and last; its exponent table is the key's
                    # tail, which no other class reaches.
                    totals[key[1:]] = v, lo, bound
                    break
                x = word[p]
                y = word[p + 1]
                qexp, branch = relations.get(x * size + y) or _rank_relation(order, x, y)
                if trace is not None:
                    seq = order.seq
                    src = tuple([seq[r] for r in word])
                    head, tail = src[:p], src[p + 2 :]
                    produced = [(head + (seq[y], seq[x]) + tail, "swap")]
                    if branch is not None:
                        produced.append((head + (seq[branch[0]], seq[branch[1]]) + tail, "branch"))
                    trace.append((src, produced))
                if branch is not None:
                    u, w, sign, sx, sy, su, sv = branch
                    word[p] = u
                    word[p + 1] = w
                    branched = tuple(word)
                    slots = list(key)
                    slots[sx] -= 1
                    slots[sy] -= 1
                    slots[su] += 1
                    slots[sv] += 1
                    bkey = tuple(slots)
                    target = packed.get(bkey)
                    if target is None:
                        target = packed[bkey] = {}
                        insort(queue, bkey)
                    bv = (v << wide) - v
                    _put(target, branched, (bv if sign > 0 else -bv, lo - 1, 2 * bound), width)
                word[p] = y
                word[p + 1] = x
                lo += qexp
                if waiting:
                    swapped = tuple(word)
                    if swapped <= waiting[-1]:
                        # A larger pending word may still reach the swapped
                        # one: merge it in and take the largest.
                        _put(bucket, swapped, (v, lo, bound), width, waiting)
                        break
                # The swapped word is larger than every pending one, so no
                # other word reaches it and its coefficient is whole: carry
                # on with it in place.  A swap at ``p`` leaves no inversion
                # before ``p - 1`` (leftmost) or after ``p + 1`` (rightmost).
                if rightmost:
                    span = spans[p + 1 if p < k - 2 else p]
                else:
                    span = spans[p - 1 if p else 0]
    return totals


def _certified(ring: LaurentRing | CycloRing, run) -> dict:
    """The terms of one whole operation, certified and decoded into ``ring``
    (:func:`_decode`).

    ``run(width)`` computes the operation with every coefficient packed at
    ``width`` bits a digit and returns its packed terms.  The width starts
    at ``_PACK_WIDTH``.  A pass that could not certify a value it had to
    read (:func:`_trust`), or whose terms' bounds do not certify their
    decoding, is discarded, and the operation is redone at the narrowest
    width that certifies that bound.  The width grows with each pass, and
    every bound a pass meets is one of the exact computation's, so the loop
    ends.
    """
    width = _PACK_WIDTH
    while True:
        try:
            terms = run(width)
        except _Untrusted as exc:
            worst = exc.args[0]
        else:
            worst = 0
            for _v, _lo, bound in terms.values():
                if bound > worst:
                    worst = bound
            if worst < 1 << (width - 1):
                return _decode(ring, terms, width)
        width = worst.bit_length() + 1


@lru_cache(maxsize=_DECODE_CACHE)
def _decoded(v: int, lo: int, width: int, ell: int | None = None) -> LaurentPoly | CycloElem:
    """The coefficient of a certified packed ``(v, lo)`` read at ``width``:
    in ``Z_q``, or reduced into ``Z_eps(ell)`` when ``ell`` is given (and
    then possibly zero)."""
    c = _unpack(v, lo, width)
    return c if ell is None else CycloRing(ell).coerce(c)


def _trim(v: int, lo: int, width: int) -> tuple[int, int]:
    """A nonzero packed ``(v, lo)`` with its zero low digits dropped."""
    z = ((v & -v).bit_length() - 1) // width
    return v >> width * z, lo + z


def _decode(ring: LaurentRing | CycloRing, terms: dict, width: int) -> dict:
    """Certified packed terms as coefficients of ``ring``.  A value's zero
    low digits are dropped first (:func:`_trim`), so it has one key in the
    bounded table :func:`_decoded` and is decoded once while it stays there.
    A root-of-unity coefficient is reduced and dropped if it vanishes; over
    ``Z_q`` none does, as the engine never stores a zero.  Equal coefficients
    are one shared object in every result that holds them: a decoded
    coefficient must never be mutated."""
    mask = (1 << width) - 1
    if isinstance(ring, LaurentRing):
        return {key: _decoded(v, lo, width) if v & mask else _decoded(*_trim(v, lo, width), width)
                for key, (v, lo, _bound) in terms.items()}
    ell = ring.ell
    return {key: c for key, (v, lo, _bound) in terms.items()
            if (c := _decoded(*((v, lo) if v & mask else _trim(v, lo, width)), width, ell))}


def _word_item(order: GenOrder, word: Word) -> tuple[tuple, tuple]:
    """A word of generator letters, checked against ``order``, as its class
    key and its rank word."""
    _check_word_len(len(word))
    n = order.n
    rank = order.rank_map
    ranks = tuple([rank.get(g) for g in word])
    if None in ranks:
        # ``rank_map`` holds exactly the generators of ``order``: name the
        # first letter outside it.
        for g in word:
            check_gen(g, n)
    return (len(word), *word_exponents(word, n)), ranks


def _packed_classes(items, width: int) -> dict:
    """Pending classes of ``(key, rank word, c1, c2)`` items, a ``D`` power
    in the key's tail where there is one: each word with the product of
    ``c1`` and ``c2`` packed at ``width``, one integer multiplication with
    the bounds multiplied, summed per word."""
    classes: dict[tuple, dict] = {}
    for key, word, c1, c2 in items:
        bucket = classes.get(key)
        if bucket is None:
            bucket = classes[key] = {}
        v1, lo1, b1 = _pack(c1, width)
        v2, lo2, b2 = _pack(c2, width)
        _put(bucket, word, (v1 * v2, lo1 + lo2, b1 * b2), width)
    return classes


def _rank_word(order: GenOrder, exps: tuple[int, ...]) -> tuple[int, ...]:
    """The ordered word of an exponent table, in letter ranks."""
    word: tuple[int, ...] = ()
    for r, slot in enumerate(order.slots):
        e = exps[slot]
        if e:
            word += (r,) * e
    return word


def _reduced(cfg: AlgebraConfig, items, strategy: str = "leftmost") -> dict:
    """The normal form of pending items keyed ``(length, *exps, dpower)``
    (:func:`_packed_classes`), as coefficients of ``cfg.ring``: every power
    straightened in one pass, under the variant's constraint and decoded
    once, all one certified operation."""

    def run(width):
        terms = {}
        for key, c in _rewrite(cfg.order, (width, _packed_classes(items, width)), strategy).items():
            terms[_new(NormalMonomial, (key[:-1], key[-1]))] = c
        return _enforce(cfg, terms, width)

    return _certified(cfg.ring, run)


def normal_form_of_word(cfg: AlgebraConfig, word: Word, strategy: str = "leftmost") -> dict:
    """Exponent-table expansion of a single word (no determinant reduction)."""
    key, word = _word_item(cfg.order, tuple(word))

    def run(width):
        return _rewrite(cfg.order, (width, {key: {word: (1, 0, 1)}}), strategy)

    return _certified(cfg.ring, run)


# ---------------------------------------------------------------------------
# Determinant-based reduction for the localized / special variants.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=_SMALL_CACHE)
def _det_word_pairs(n: int) -> tuple[tuple[Word, LaurentPoly], ...]:
    """Words and coefficients of ``sum_s (-q)^len(s) t[1,s(1)] .. t[n,s(n)]``.

    Raises ``ValueError`` above ``MAX_DET_N`` before enumerating anything.
    """
    if n > MAX_DET_N:
        raise ValueError(
            f"the quantum determinant at n={n} has {factorial(n)} terms; "
            f"determinants are limited to n <= {MAX_DET_N}"
        )
    rows = range(1, n + 1)
    out = []
    for images in permutations(rows):
        k = Permutation(images).length
        out.append((tuple(zip(rows, images)), LaurentPoly({k: (-1) ** k})))
    return tuple(out)


def _det_words(order: GenOrder) -> tuple[tuple[tuple, tuple, LaurentPoly], int]:
    """``D``'s normal form as ``(exps, ordered rank word, c)`` terms, ``c``
    in ``Z_q``, and the median rank of their letters, where
    :func:`_times_det` splits: ``order.det``, built on first use."""
    if order.det is None:
        items = [(*_word_item(order, word), c, _ONE) for word, c in _det_word_pairs(order.n)]
        det = _certified(_ZQ, lambda w: _rewrite(order, (w, _packed_classes(items, w))))
        # A term keeps the bidegree of ``D``'s words, one letter in each row
        # and column, so its ordered word is one of theirs, sorted; the
        # words are looked up by the class keys they already hold.
        words = {key: word for key, word, _c, _one in items}
        n = order.n
        det = tuple([(e, tuple(sorted(words[(n, *e)])), c) for e, c in det.items()])
        letters = sorted(chain.from_iterable([d for _e, d, _c in det]))
        object.__setattr__(order, "det", (det, letters[len(letters) // 2]))
    return order.det


def _times_det(order: GenOrder, terms: dict, width: int) -> dict:
    """The engine's one product by ``D``: packed terms ``{exps: c}`` of
    ordered monomials times ``D``, straightened in one pass (:func:`_rewrite`).

    ``D``'s words go inside each ordered word ``w``, not after it: ``D`` is
    central and normal forms are unique, so ``w[:p] D w[p:]`` straightens to
    ``w D`` for every split ``p``, while ``D``'s letters cross few letters of
    ``w`` rather than nearly all.  One ``p`` serves all of ``D``'s words, as
    a single term of ``D`` is not central.  A letter ``g`` of ``D`` inserted
    at ``p`` meets about ``|p - c_g|`` inversions, with ``c_g`` the letters
    of ``w`` ranked below ``g``, so the best ``p`` is a median of the
    ``c_g``: that of the median letter, as ``c_g`` grows with ``g``'s rank.
    Each of ``D``'s coefficients (:func:`_det_words`) is packed once per
    call and multiplies a packed ``(v, lo, bound)`` as one integer product.
    """
    det, median = _det_words(order)
    det = [(e, d, *_pack(c, width)) for e, d, c in det]
    classes: dict[tuple, dict] = {}
    for exps, (v, lo, bound) in terms.items():
        _check_word_len(sum(exps) + order.n)
        word = _rank_word(order, exps)
        p = bisect_left(word, median)
        head, tail = word[:p], word[p:]
        length = len(word) + order.n
        for e, d, dv, dlo, db in det:
            key = (length, *map(add, exps, e))
            bucket = classes.get(key)
            if bucket is None:
                bucket = classes[key] = {}
            _put(bucket, head + d + tail, (v * dv, lo + dlo, bound * db), width)
    return _rewrite(order, (width, classes))


def _violates(exps: tuple[int, ...], targets: tuple[int, ...]) -> bool:
    """Whether every target exponent is positive: the monomial breaks the
    minimal-exponent-zero constraint and a determinant factor comes out."""
    return 0 not in [exps[t] for t in targets]


def _reduction_measure(order: GenOrder):
    """The reduction measure of ``order``'s flavor, as a function of an
    exponent table: its weight ``(sum, exps)``, led by its antidiagonal
    degree under the opposite flavor.  Exponent tables of one dimension
    have one length, so ``(sum, exps)`` orders as the flat weight does."""
    if order.kind == "standard":
        return lambda exps: (sum(exps), exps)
    n = order.n
    return lambda exps: (antidiag_degree(n, exps), sum(exps), exps)


def _cuts(order: GenOrder) -> tuple:
    """The letters a reduction step's core cuts down (:func:`_core`), as
    ``(slot, keep, crossed)`` triples: ``order.cuts``, derived from
    :func:`_relation` on first use.

    A letter ``g`` that branches with none of the letters ranked below it
    q-commutes with each of them (``_relation(g, h)`` is ``(qexp, None)``),
    so for an ordered ``E``, ``g**a E`` is the ordered ``E + a[g]`` times
    ``q**(a c_g(E))``, with ``c_g(E) = sum_h qexp(g, h) E[h]`` over the
    letters ``h`` below ``g``: it is cut toward the left end.  Failing that,
    a letter that branches with none of the letters ranked above it is cut
    toward the right end: ``E g**a`` is ``E + a[g]`` times
    ``q**(a c_g(E))``, now summed over the letters above ``g`` with
    ``qexp(h, g) = -qexp(g, h)``.  ``crossed`` holds the ``(slot of h,
    q-exponent)`` pairs of that sum with a nonzero exponent; ``keep`` is what
    the core keeps of ``g``, 1 at a target and 0 elsewhere.
    """
    if order.cuts is None:
        seq, slots = order.seq, order.slots
        cuts = []
        for r, g in enumerate(seq):
            for side, sign in ((range(r), 1), (range(r + 1, len(seq)), -1)):
                relations = [(slots[h], _relation(g, seq[h])) for h in side]
                if all(branch is None for _slot, (_qexp, branch) in relations):
                    crossed = tuple([(h, sign * qexp) for h, (qexp, _b) in relations if qexp])
                    cuts.append((slots[r], int(slots[r] in order.targets), crossed))
                    break
        object.__setattr__(order, "cuts", tuple(cuts))
    return order.cuts


def _core(order: GenOrder, exps: tuple[int, ...]) -> tuple[int, ...]:
    """The core of a violating monomial: ``exps`` with each letter of
    :func:`_cuts` cut down to what keeps it violating, one factor at a
    target and none elsewhere.  Every other letter keeps its exponent."""
    core = list(exps)
    for slot, keep, _crossed in _cuts(order):
        core[slot] = keep
    return tuple(core)


@lru_cache(maxsize=_REDUCTION_CACHE)
def _reduction_step(order: GenOrder, exps: tuple[int, ...], width: int):
    """Trade one determinant factor out of a monomial ``m`` with every
    target exponent positive, with coefficients packed at ``width``.

    ``t0`` is ``m`` with one factor taken off at each target.  A single
    straightening of ``t0 D`` (:func:`_times_det`) gives ``c m + rest`` with
    ``c`` a unit, so ``m = c**-1 (t0 D - rest)``.  Returns the entries
    ``(exps', dshift, coeff, corr)``, ``coeff`` packed.  ``(t0, 1, c**-1)``
    carries the freed determinant factor, and each term ``c2 e2`` of
    ``rest`` gives ``(e2, 0, -c**-1 c2)``.  ``c = sign q**k`` is the only
    value decoded, once certified (:func:`_trust`), and its inverse is
    applied to ``rest`` as a sign and a shift of ``lo``.

    ``corr`` is the q-power an entry gains per factor added back at each
    slot (:func:`_cored_step`): ``c_g(exps') - c_g(m)`` at the slot of each
    letter ``g`` of :func:`_cuts`, 0 elsewhere.  Callers pass a core, so
    the table holds one step per core, whatever the exponents of the cut
    letters; any violating ``exps`` gives its own step exactly.

    All emitted monomials are strictly smaller than the input in the
    flavor's reduction measure; that descent is what makes iterated
    enforcement terminate, so it is checked here, for every entry, rather
    than assumed.  Both measures keep their order when one vector is added
    to both sides, so the check on a core covers its shifted entries too.
    """
    if not _violates(exps, order.targets):
        raise ValueError("reduction requires every target exponent to be positive")

    t0 = list(exps)
    for t in order.targets:
        t0[t] -= 1
    t0 = tuple(t0)
    product = _times_det(order, {t0: (1, 0, 1)}, width)
    total = product.pop(exps, None)
    if total is None:
        c = _ZQ.zero()
    else:
        _trust(total[2], width)
        c = _unpack(total[0], total[1], width)
    ((k, sign),) = _ZQ.invert_unit(c).terms.items()

    measure = _reduction_measure(order)
    if max(map(measure, [t0, *product])) >= measure(exps):
        raise ArithmeticError("determinant reduction emitted a monomial that does not descend")
    cuts = _cuts(order)

    def corr(e2):
        out = [0] * len(exps)
        for slot, _keep, crossed in cuts:
            out[slot] = sum([qexp * (e2[h] - exps[h]) for h, qexp in crossed])
        return tuple(out)

    out = [(t0, 1, (sign, k, 1), corr(t0))]
    out += [(e2, 0, (-sign * v2, lo2 + k, b2), corr(e2)) for e2, (v2, lo2, b2) in product.items()]
    return tuple(out)


def _cored_step(order: GenOrder, exps: tuple[int, ...], width: int):
    """The reduction step of a violating ``exps``, as ``(exps', dshift,
    coeff)`` entries: its core's step (:func:`_core`,
    :func:`_reduction_step`), with what was cut added back to every entry.

    Take a left cut of ``g`` by ``a``, from ``m`` down to ``m'``.  Then
    ``t0(m) = q**(-a c_g(t0(m'))) g**a t0(m')`` (:func:`_cuts`), and as ``D``
    is central, ``t0(m) D`` is ``g**a`` times the core's ``t0(m') D = sum
    s_E E``: each term ``E`` becomes ``E + a[g]`` with ``q**(a c_g(E))``.
    The coefficient of ``m`` gains ``q**(a (c_g(m') - c_g(t0(m'))))``, so
    once it is divided out every entry gains ``q**(a (c_g(E) - c_g(m')))``,
    its ``t0`` included; a right cut, ``t0(m') D g**a``, is the same with
    its own ``c_g``.  Cuts of several letters compose one at a time, and
    ``c_g`` is linear, so their powers add: ``sum_g a_g corr_g``, one short
    dot product with the entry's cached ``corr``.
    """
    core = _core(order, exps)
    step = _reduction_step(order, core, width)
    cut = tuple(map(sub, exps, core))
    return [
        (tuple(map(add, e, cut)), d, (v, lo + sum(map(mul, cut, corr)), b))
        for e, d, (v, lo, b), corr in step
    ]


def _dpower(cfg: AlgebraConfig, z: int) -> int:
    """The determinant power a key of ``cfg`` carries for ``D**z``: ``z``
    under ``gl``, 0 under ``sl`` (where ``D = 1``); ``m`` has no ``D``."""
    if cfg.variant == "m" and z != 0:
        raise ValueError("the plain matrix variant has no determinant inverse")
    return z if cfg.variant == "gl" else 0


def _enforce(cfg: AlgebraConfig, terms: dict, width: int) -> dict:
    """Apply the variant's minimal-exponent-zero constraint to packed terms.

    ``terms`` maps normal monomials to coefficients packed at ``width``.
    It is returned as it is under ``m``, and when no monomial breaks the
    constraint, which holds for most products.  Otherwise each monomial
    that breaks it is replaced by its reduction step, largest in the
    reduction measure first (:func:`_cored_step`), with a packed product
    per entry, ``(v * v2, lo + lo2, bound * b2)``, the bounds multiplied.
    Returns the packed result.
    """
    if cfg.variant == "m":
        return terms
    order = cfg.order
    targets = order.targets
    for key in terms:
        if _violates(key.exps, targets):
            break
    else:
        return terms
    measure = _reduction_measure(order)
    result: dict[NormalMonomial, tuple[int, int, int]] = {}
    classes: dict[tuple, dict] = {}
    queue: list[tuple] = []

    def bucket_of(exps: tuple[int, ...]) -> dict:
        if 0 not in [exps[t] for t in targets]:  # _violates(exps, targets), inline
            m = measure(exps)
            bucket = classes.get(m)
            if bucket is None:
                bucket = classes[m] = {}
                insort(queue, m)
            return bucket
        return result

    # The keys of ``terms`` are distinct, so nothing merges yet.
    for key, c in terms.items():
        bucket_of(key.exps)[key] = c
    # ``queue`` holds the open measures, ascending: the last is the largest.
    while queue:
        for key, (v, lo, bound) in classes.pop(queue.pop()).items():
            dpowers = (key.dpower, _dpower(cfg, key.dpower + 1))
            for e2, dshift, (v2, lo2, b2) in _cored_step(order, key.exps, width):
                key2 = _new(NormalMonomial, (e2, dpowers[dshift]))
                _put(bucket_of(e2), key2, (v * v2, lo + lo2, bound * b2), width)
    return result


def times_determinant(cfg: AlgebraConfig, terms: dict) -> Element:
    """``sum c m D**z`` over ``terms`` ``{m: c}``, each key's own power
    ``z >= 0`` multiplied out in the plain algebra ``cfg``: Horner's way,
    from the top power down, the running sum times ``D`` (:func:`_times_det`)
    plus the terms of the next power.  That is ``max z`` products by ``D`` in
    one certified operation; with no power, the terms as they are.
    """
    if cfg.variant != "m":
        raise ValueError("determinant powers multiply out only in the plain variant")
    if not any(m.dpower for m in terms):
        return Element(cfg, terms)
    levels: dict[int, list] = {}
    for m, c in terms.items():
        levels.setdefault(m.dpower, []).append((m.exps, c))
    if min(levels) < 0:
        raise ValueError("only nonnegative determinant powers multiply out")
    top = max(levels)

    def run(width):
        acc: dict[tuple[int, ...], tuple[int, int, int]] = {}
        for z in range(top, -1, -1):
            if acc:
                acc = _times_det(cfg.order, acc, width)
            for exps, c in levels.get(z, ()):
                _put(acc, exps, _pack(c, width), width)
        return {_new(NormalMonomial, (exps, 0)): c for exps, c in acc.items()}

    return Element(cfg, _certified(cfg.ring, run))


def diagonal_reduction(cfg: AlgebraConfig, m: NormalMonomial) -> Element | None:
    """One determinant-extraction step on a fully-positive monomial.

    For the standard flavor the monomial must have every diagonal exponent
    positive (antidiagonal for the opposite flavor); one full diagonal is
    then traded for a determinant factor, leaving the freed monomial times
    ``D`` plus terms that are strictly smaller in the flavor's reduction
    measure.  Returns ``None`` when the precondition fails.  The result is
    a single step: its terms may admit further reduction.  It is the step
    enforcement takes (:func:`_cored_step`).
    """
    if cfg.variant not in ("gl", "sl"):
        raise ValueError("determinant reduction applies to the gl and sl variants")
    order = cfg.order
    if not _violates(m.exps, order.targets):
        return None

    def run(width):
        return {
            NormalMonomial(e, _dpower(cfg, m.dpower + d)): c
            for e, d, c in _cored_step(order, m.exps, width)
        }

    return Element(cfg, _certified(cfg.ring, run))


def quantum_determinant(cfg: AlgebraConfig) -> Element:
    """``sum_s (-q)**len(s) t[1,s(1)] .. t[n,s(n)]`` in normal form, from
    ``D``'s terms (:func:`_det_words`).

    Under the localized (resp. special) variant the normal form collapses
    to the pure determinant key ``D`` (resp. to ``1``).
    """
    det, _median = _det_words(cfg.order)
    return Element.from_monomials(cfg, [(NormalMonomial(e), c) for e, _d, c in det])


# ---------------------------------------------------------------------------
# Elements.
# ---------------------------------------------------------------------------


class Element(Combination):
    """A finite linear combination of normal monomials.

    ``Element(config, terms)`` trusts its input: ``terms`` must already be
    in normal form, mapping normal monomials to nonzero coefficients of
    ``config.ring``.  The normalizing constructors are :meth:`from_monomials`
    and :meth:`from_words`, which straighten, apply the basis constraint and
    decode into the ring; arithmetic keeps the result in normal form.
    Operands must share ``config``.
    """

    __slots__ = ("config",)

    def __init__(self, config: AlgebraConfig, terms: dict | None = None):
        self.config = config
        self.terms = {} if terms is None else terms

    @property
    def space(self) -> AlgebraConfig:
        return self.config

    def _like(self, terms: dict) -> Element:
        return Element(self.config, terms)

    def _scalar(self, k: int) -> Element:
        return Element.scalar(self.config, k)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, cfg: AlgebraConfig) -> Element:
        return cls(cfg)

    @classmethod
    def one(cls, cfg: AlgebraConfig) -> Element:
        return cls.scalar(cfg, 1)

    @classmethod
    def scalar(cls, cfg: AlgebraConfig, value) -> Element:
        c = cfg.ring.coerce(value)
        return cls(cfg, {NormalMonomial((0,) * (cfg.n * cfg.n)): c} if c else {})

    @classmethod
    def generator(cls, cfg: AlgebraConfig, i: int, j: int, power: int = 1) -> Element:
        """``t[i,j]**power``, reduced: at n = 1 it is ``D**power`` under ``gl``."""
        check_gen((i, j), cfg.n)
        exps = [0] * (cfg.n * cfg.n)
        exps[(i - 1) * cfg.n + (j - 1)] = power
        return cls.monomial(cfg, NormalMonomial(tuple(exps)))

    @classmethod
    def d_power(cls, cfg: AlgebraConfig, z: int) -> Element:
        """The central determinant power ``D**z``: one under ``sl``, and
        under ``m`` only ``z = 0`` is defined."""
        key = NormalMonomial((0,) * (cfg.n * cfg.n), _dpower(cfg, z))
        return cls(cfg, {key: cfg.ring.one()})

    @classmethod
    def monomial(cls, cfg: AlgebraConfig, m: NormalMonomial, coeff=1) -> Element:
        return cls.from_monomials(cfg, [(m, coeff)])

    @classmethod
    def from_monomials(cls, cfg: AlgebraConfig, pairs) -> Element:
        """Build from ``(monomial, coeff)`` pairs, each checked and coerced
        once; no word is built unless a determinant reduction needs one."""
        size = cfg.n * cfg.n
        coerce = cfg.ring.coerce
        items = []
        for m, coeff in pairs:
            exps = m.exps
            if len(exps) != size or min(exps) < 0:
                raise ValueError(f"bad exponent table {exps}")
            key = NormalMonomial(tuple(exps), _dpower(cfg, m.dpower))
            if c := coerce(coeff):
                items.append((key, c))

        def run(width):
            terms: dict[NormalMonomial, tuple[int, int, int]] = {}
            for key, c in items:
                _put(terms, key, _pack(c, width), width)
            return _enforce(cfg, terms, width)

        return cls(cfg, _certified(cfg.ring, run))

    @classmethod
    def from_words(cls, cfg: AlgebraConfig, entries, strategy: str = "leftmost") -> Element:
        """Build from ``(word, coeff)`` or ``(word, coeff, dpower)`` entries,
        each checked and converted to a rank word once."""
        coerce = cfg.ring.coerce
        items = []
        for entry in entries:
            dpower = _dpower(cfg, entry[2] if len(entry) > 2 else 0)
            key, word = _word_item(cfg.order, tuple(entry[0]))
            if c := coerce(entry[1]):
                items.append(((*key, dpower), word, c, _ONE))
        return cls(cfg, _reduced(cfg, items, strategy))

    # -- queries -----------------------------------------------------------

    def sorted_terms(self) -> list:
        """Terms sorted by :func:`canonical_key`, largest first."""
        return sorted(self.terms.items(), key=lambda kv: canonical_key(kv[0]), reverse=True)

    # -- arithmetic ----------------------------------------------------------

    def scale(self, value) -> Element:
        return super().scale(self.config.ring.coerce(value))

    def __pow__(self, k: int) -> Element:
        if k < 0:
            raise ValueError("negative element powers are not defined")
        out = Element.one(self.config)
        for _ in range(k):
            out = multiply(out, self)
        return out

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        from .render import element_to_str

        return element_to_str(self)

    def __repr__(self) -> str:
        return f"<Element {self}>"


def multiply(a: Element, b: Element) -> Element:
    """Product of two elements, returned in normal form.

    No word of generator letters is built: each term's ordered rank word
    comes from its exponent table, and a product of two terms is the
    concatenation of their rank words, in the class whose key adds their
    exponent tables and their ``D`` powers; its coefficient is the product
    of the two, packed.
    """
    b = a._operand(b)
    cfg = a.config
    if not (a.terms and b.terms):
        return Element(cfg)
    _check_word_len(max(map(sum, map(_exps, a.terms))) + max(map(sum, map(_exps, b.terms))))
    order = cfg.order
    left = [(m, _rank_word(order, m.exps), c) for m, c in a.terms.items()]
    right = [(m, _rank_word(order, m.exps), c) for m, c in b.terms.items()]
    items = [
        ((len(w1) + len(w2), *map(add, m1.exps, m2.exps), m1.dpower + m2.dpower), w1 + w2, c1, c2)
        for m1, w1, c1 in left
        for m2, w2, c2 in right
    ]
    return Element(cfg, _reduced(cfg, items))
