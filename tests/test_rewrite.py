"""Tests for the straightening engine and element arithmetic."""

import ast
import pickle
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest

from qcoord import rewrite
from qcoord.coeff import (
    CycloRing,
    LaurentPoly,
    LaurentRing,
    cyclotomic,
    reduce_mod,
    specialize_at_one,
)
from qcoord.detloc import quantum_determinant
from qcoord.monomial import (
    FLAVORS,
    GenOrder,
    NormalMonomial,
    make_opposite_order,
    row_major_order,
    weight,
)
from qcoord.rewrite import (
    AlgebraConfig,
    Element,
    _relation,
    make_config,
    multiply,
    normal_form_of_word,
    normalize,
    swap_adjacent,
    times_determinant,
)

ONE = LaurentPoly(1)


def fresh_start():
    """Drop every per-order table: the cached generator orders, so new ones
    carry empty relation tables and no ``D``, and the reduction steps, which
    equal orders share."""
    row_major_order.cache_clear()
    make_opposite_order.cache_clear()
    rewrite._reduction_step.cache_clear()


def record_rewrites(monkeypatch, strategy=None):
    """Wrap ``rewrite._rewrite`` so that each call appends ``(width, trace)``
    to the returned list: its digit width and its own ``trace=`` entries, one
    per swap.  Every call runs under ``strategy`` when one is given."""
    calls = []
    straighten = rewrite._rewrite

    def recorded(order, pending, call_strategy="leftmost", trace=None):
        calls.append((pending[0], []))
        return straighten(order, pending, strategy or call_strategy, calls[-1][1])

    monkeypatch.setattr(rewrite, "_rewrite", recorded)
    return calls


def random_word(rng, n, max_len=5):
    return tuple(
        (rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, max_len))
    )


class TestSwapAdjacent:
    def test_same_row(self):
        assert swap_adjacent((1, 2), (1, 1)) == [((((1, 1), (1, 2))), LaurentPoly.q_power(-1))]

    def test_opposite_corners_commute(self):
        assert swap_adjacent((2, 1), (1, 2)) == [((((1, 2), (2, 1))), ONE)]

    def test_nested_corners_branch(self):
        result = swap_adjacent((2, 2), (1, 1))
        assert result == [
            (((1, 1), (2, 2)), ONE),
            (((1, 2), (2, 1)), -LaurentPoly.q_diff()),
        ]

    def test_identical_letters_noop(self):
        assert swap_adjacent((1, 1), (1, 1)) is None

    def test_both_orientations_consistent(self):
        # substituting the expansion of y*x back into the expansion of x*y
        # must return x*y: the relations are invertible swaps
        cfg = make_config(3)
        gens = [(i, j) for i in range(1, 4) for j in range(1, 4)]
        for x in gens:
            for y in gens:
                if x == y:
                    continue
                direct = normal_form_of_word(cfg, (x, y))
                via_swap = {}
                for word, coeff in swap_adjacent(x, y):
                    for exps, c in normal_form_of_word(cfg, word).items():
                        cur = via_swap.get(exps, cfg.ring.zero()) + coeff * c
                        if cur:
                            via_swap[exps] = cur
                        else:
                            via_swap.pop(exps, None)
                assert direct == via_swap


class TestNormalize:
    def test_identity_on_ordered_word(self):
        cfg = make_config(2)
        nf = normal_form_of_word(cfg, ((1, 1), (1, 2)))
        assert nf == {(1, 1, 0, 0): ONE}

    def test_nested_corner_rewrite(self):
        cfg = make_config(2)
        nf = normal_form_of_word(cfg, ((2, 2), (1, 1)))
        assert nf == {(1, 0, 0, 1): ONE, (0, 1, 1, 0): -LaurentPoly.q_diff()}

    def test_three_letter_example(self):
        # oracle: the rightmost-first strategy
        cfg = make_config(2)
        word = ((2, 1), (1, 2), (1, 1))
        left = normal_form_of_word(cfg, word, "leftmost")
        right = normal_form_of_word(cfg, word, "rightmost")
        assert left == right == {(1, 1, 1, 0): LaurentPoly.q_power(-2)}

    def test_normalize_is_identity_on_elements(self):
        rng = random.Random(11)
        cfg = make_config(2)
        for _ in range(20):
            e = Element.from_words(cfg, [(random_word(rng, 2), 1)])
            assert normalize(e) == e

    def test_distinct_monomials_never_merge(self):
        cfg = make_config(2)
        monomials = [NormalMonomial(exps) for exps in product(range(3), repeat=4)]
        e = Element.from_monomials(cfg, [(m, 1) for m in monomials])
        assert len(e.terms) == len(monomials)


class TestMultiply:
    def test_one_is_neutral(self):
        cfg = make_config(2)
        x = Element.from_words(cfg, [(((2, 2), (1, 1)), 1)])
        assert multiply(Element.one(cfg), x) == x
        assert multiply(x, Element.one(cfg)) == x

    def test_ordered_product(self):
        cfg = make_config(2)
        t11 = Element.generator(cfg, 1, 1)
        t12 = Element.generator(cfg, 1, 2)
        assert multiply(t11, t12).terms == {NormalMonomial((1, 1, 0, 0)): ONE}

    def test_against_concatenation_oracle(self):
        # oracle: concatenate key words term by term, then straighten
        cfg = make_config(2)
        a = Element.from_words(
            cfg, [(((1, 1), (2, 2)), 1), (((1, 2), (2, 1)), -LaurentPoly.q_power(1))]
        )
        b = Element.generator(cfg, 1, 1)
        entries = []
        for k1, c1 in a.terms.items():
            for k2, c2 in b.terms.items():
                entries.append((k1.word(cfg.order) + k2.word(cfg.order), c1 * c2))
        assert multiply(a, b) == Element.from_words(cfg, entries)

    def test_associative(self):
        rng = random.Random(13)
        cfg = make_config(2)
        for _ in range(15):
            x, y, z = (
                Element.from_words(cfg, [(random_word(rng, 2, 3), 1)]) for _ in range(3)
            )
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))

    def test_config_mismatch_rejected(self):
        a = Element.one(make_config(2))
        b = Element.one(make_config(3))
        with pytest.raises(ValueError):
            multiply(a, b)


class TestFlavor:
    def test_the_order_kind_is_the_flavor(self):
        assert make_config(2, "gl", flavor="opposite").order == make_opposite_order(2)
        assert make_config(2, "gl").order.kind == "standard"

    def test_make_config_refuses_an_unknown_flavor(self):
        with pytest.raises(ValueError, match="unknown basis flavor"):
            make_config(2, "gl", flavor="diagonal")


class TestTerminationMeasure:
    def test_measure_decreases_along_every_step(self, monkeypatch):
        # a swap keeps the weight and removes one inversion; a branch drops
        # the weight outright
        cfg = make_config(2)
        rank = cfg.order.rank_map

        def inversions(word):
            return sum(
                1
                for a in range(len(word))
                for b in range(a + 1, len(word))
                if rank[word[a]] > rank[word[b]]
            )

        gens = [(i, j) for i in range(1, 3) for j in range(1, 3)]
        calls = record_rewrites(monkeypatch)
        for length in range(5):
            for word in product(gens, repeat=length):
                normal_form_of_word(cfg, word)
        assert len(calls) == sum(4**length for length in range(5))
        for _width, trace in calls:
            for src, produced in trace:
                m_src = (weight(src, 2), inversions(src))
                for out, kind in produced:
                    m_out = (weight(out, 2), inversions(out))
                    assert m_out < m_src
                    if kind == "swap":
                        assert m_out[0] == m_src[0]
                        assert m_out[1] == m_src[1] - 1
                    else:
                        assert m_out[0] < m_src[0]


class TestFiltration:
    def test_weights_never_increase(self):
        rng = random.Random(23)
        for n in (2, 3):
            cfg = make_config(n)
            for _ in range(60):
                word = random_word(rng, n, 6)
                bound = weight(word, n)
                for exps in normal_form_of_word(cfg, word):
                    assert (sum(exps), *exps) <= bound


class TestCommutativeLimit:
    def test_q_one_specialization_is_multinomial(self):
        # at q = 1 a word collapses to the plain commutative monomial of its
        # letter multiset, with coefficient exactly 1
        for n in (2, 3):
            cfg = make_config(n)
            gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
            rng = random.Random(29)
            words = [random_word(rng, n, 5) for _ in range(120)]
            for word in words:
                expected = tuple(weight(word, n)[1:])
                for exps, coeff in normal_form_of_word(cfg, word).items():
                    assert specialize_at_one(coeff) == (1 if exps == expected else 0)


class TestConfluenceSmall:
    @pytest.mark.parametrize("n,max_len", [(2, 4), (3, 3)])
    def test_strategies_agree_exhaustively(self, n, max_len):
        cfg = make_config(n)
        gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for length in range(max_len + 1):
            for word in product(gens, repeat=length):
                assert normal_form_of_word(cfg, word, "leftmost") == normal_form_of_word(
                    cfg, word, "rightmost"
                )


class TestIndependentOracle:
    def test_engine_matches_recursive_expansion(self):
        # independent route: recursively expand the first inversion through
        # the public swap relation, merging plain dicts
        cfg = make_config(3)
        rank = cfg.order.rank_map

        def naive(word):
            for p in range(len(word) - 1):
                if rank[word[p]] > rank[word[p + 1]]:
                    total = {}
                    for two, coeff in swap_adjacent(word[p], word[p + 1]):
                        for exps, c in naive(word[:p] + two + word[p + 2:]).items():
                            cur = total.get(exps, LaurentPoly()) + coeff * c
                            if cur:
                                total[exps] = cur
                            else:
                                total.pop(exps, None)
                    return total
            counts = [0] * 9
            for i, j in word:
                counts[(i - 1) * 3 + (j - 1)] += 1
            return {tuple(counts): ONE}

        rng = random.Random(999)
        for _ in range(120):
            word = tuple((rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 6)))
            assert naive(word) == normal_form_of_word(cfg, word)


class TestSpecializedEngine:
    def test_engine_commutes_with_reduction(self):
        # straightening over the root ring equals straightening over the
        # Laurent ring followed by coefficient reduction
        rng = random.Random(31)
        ring = CycloRing(5)
        cfg_q = make_config(2)
        cfg_e = make_config(2, ell=5)
        for _ in range(40):
            word = random_word(rng, 2, 6)
            over_q = normal_form_of_word(cfg_q, word)
            over_e = normal_form_of_word(cfg_e, word)
            reduced = {
                exps: ring.coerce(c)
                for exps, c in over_q.items()
                if ring.coerce(c)
            }
            assert over_e == reduced

    def test_branch_vanishes_at_order_one(self):
        cfg = make_config(2, ell=1)
        nf = normal_form_of_word(cfg, ((2, 2), (1, 1)))
        assert nf == {(1, 0, 0, 1): CycloRing(1).one()}


class TestElementBasics:
    def test_zero_and_scalars(self):
        cfg = make_config(2)
        assert Element.zero(cfg).is_zero()
        assert (Element.scalar(cfg, 3) - Element.scalar(cfg, 3)).is_zero()

    def test_subtraction_cancels_exactly(self):
        cfg = make_config(2)
        x = Element.from_words(cfg, [(((2, 2), (1, 1), (1, 2)), 1)])
        assert (x - x).is_zero()

    def test_negative_exponent_rejected(self):
        cfg = make_config(2)
        with pytest.raises(ValueError):
            Element.from_monomials(cfg, [(NormalMonomial((-1, 0, 0, 0)), 1)])

    def test_dpower_needs_localized_variant(self):
        cfg = make_config(2)
        with pytest.raises(ValueError):
            Element.from_monomials(cfg, [(NormalMonomial((0, 0, 0, 0), 1), 1)])

    def test_rendering_is_canonical(self):
        cfg = make_config(2)
        e = Element.from_words(cfg, [(((2, 2), (1, 1)), 1)])
        assert str(e) == "t[1,1] t[2,2] + (q^-1 - q) t[1,2] t[2,1]"


class TestOperationCounts:
    """The counts the benchmark's layer probes report: ``_rewrite``'s
    ``trace=`` entries (one per swap, a ``"branch"`` product per nested-corner
    swap), the swaps among them whose relation shifts by a power of ``q``,
    and misses of the ``_reduction_step`` cache."""

    @staticmethod
    def counts(calls) -> tuple[int, int, int]:
        """Swaps, q-shifts and branches of the traces of recorded calls
        (:func:`record_rewrites`).  A swap's position is where its source
        and swapped words first differ."""
        swaps = qshifts = branches = 0
        for _width, trace in calls:
            swaps += len(trace)
            for src, produced in trace:
                swapped = produced[0][0]
                p = next(i for i, (a, b) in enumerate(zip(src, swapped)) if a != b)
                qshifts += _relation(src[p], src[p + 1])[0] != 0
                branches += len(produced) > 1
        return swaps, qshifts, branches

    def test_diagonal_word_k8(self, monkeypatch):
        calls = record_rewrites(monkeypatch)
        nf = normal_form_of_word(make_config(2), ((2, 2),) * 8 + ((1, 1),) * 8)
        assert len(calls) == 1 and self.counts(calls) == (1422, 882, 204)
        assert len(nf) == 9

    def test_gl_enforcement(self, monkeypatch):
        calls = record_rewrites(monkeypatch)
        fresh_start()
        heavy = NormalMonomial((3, 1, 0, 0, 3, 1, 1, 0, 3))
        e = Element.from_monomials(make_config(3, "gl"), [(heavy, 1)])
        assert self.counts(calls) == (894, 573, 32)
        assert rewrite._reduction_step.cache_info().misses == 28
        assert len(e.terms) == 55


class TestEachWordOnce:
    """Within one ``_rewrite`` call each word is straightened at most once
    per class: a class's words are taken largest first, and a swap only
    makes a word smaller, so no word is reached after it was taken.  Then a
    call makes one swap per distinct unordered word it meets in a class.
    One call holds every ``D`` power, one class each; no case here meets a
    word in two classes of one call, so no source word repeats among a
    call's ``trace=`` entries."""

    @staticmethod
    def traced_calls(monkeypatch, strategy):
        """Record every ``_rewrite`` call (:func:`record_rewrites`) under
        ``strategy``, from fresh orders."""
        calls = record_rewrites(monkeypatch, strategy)
        fresh_start()
        return calls

    @staticmethod
    def top_square(n, ell):
        cfg = make_config(n, "m", ell=ell)
        top = Element.monomial(cfg, NormalMonomial((ell - 1,) * (n * n)))
        return multiply(top, top)

    @staticmethod
    def products():
        rng = random.Random("each-word-once")
        for variant, flavor in product(("gl", "sl"), ("standard", "opposite")):
            cfg = make_config(3, variant, flavor=flavor)
            for _ in range(6):
                a, b = (random_word(rng, 3, 4) for _ in range(2))
                yield multiply(Element.from_words(cfg, [(a, 1)]), Element.from_words(cfg, [(b, 1)]))

    CASES = {
        "k8": (lambda: normal_form_of_word(make_config(2), ((2, 2),) * 8 + ((1, 1),) * 8), 1422),
        "k12": (lambda: normal_form_of_word(make_config(2), ((2, 2),) * 12 + ((1, 1),) * 12), 6227),
        "top2x7": (lambda: TestEachWordOnce.top_square(2, 7), 1939),
        "heavy_gl": (
            lambda: Element.from_monomials(make_config(3, "gl"), [(TestPackWidth.HEAVY, 1)]),
            None,
        ),
        "products": (lambda: list(TestEachWordOnce.products()), None),
    }

    @pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_no_call_straightens_a_word_twice(self, monkeypatch, case, strategy):
        build, swaps = self.CASES[case]
        calls = self.traced_calls(monkeypatch, strategy)
        build()
        traces = [trace for _width, trace in calls]
        assert traces and any(traces)
        for trace in traces:
            sources = [src for src, _produced in trace]
            assert len(set(sources)) == len(sources)
        if swaps is not None:
            assert sum(map(len, traces)) == swaps

    def test_top3x3_swaps_each_word_once(self, monkeypatch):
        calls = self.traced_calls(monkeypatch, "leftmost")
        self.top_square(3, 3)
        assert sum(len(trace) for _width, trace in calls) == 12002


class TestDecodeTable:
    """``_decode`` reads each distinct certified packed value once, through
    the bounded table ``_decoded``: equal coefficients of any results are
    one shared object, which arithmetic never mutates."""

    WORDS = [((2, 2),) * 6 + ((1, 1),) * 6, ((2, 1), (1, 2), (2, 2), (1, 1))]

    @staticmethod
    def served(monkeypatch):
        """Record each ``_decode`` call as ``(ring, packed terms, width,
        result)``."""
        calls = []
        decode = rewrite._decode

        def recorded(ring, terms, width):
            out = decode(ring, terms, width)
            calls.append((ring, dict(terms), width, out))
            return out

        monkeypatch.setattr(rewrite, "_decode", recorded)
        return calls

    @classmethod
    def results(cls):
        out = []
        for ell in (None, 3, 5):
            cfg = make_config(2, ell=ell)
            out += [normal_form_of_word(cfg, word, strategy) for word in cls.WORDS
                    for strategy in ("leftmost", "rightmost")]
            gl = make_config(3, "gl", ell=ell)
            heavy = Element.from_monomials(gl, [(TestPackWidth.HEAVY, 1)])
            out.append(multiply(heavy, Element.generator(gl, 3, 1)).terms)
        return out

    def test_size_stays_within_the_bound(self):
        rewrite._decoded.cache_clear()
        bound = rewrite._DECODE_CACHE
        assert rewrite._decoded.cache_parameters()["maxsize"] == bound
        width = rewrite._PACK_WIDTH
        for v in range(1, 3 * bound):
            for ring in (LaurentRing(), CycloRing(3)):
                rewrite._decode(ring, {0: ((v << width) + v, -v, 2 * v)}, width)
                assert rewrite._decoded.cache_info().currsize <= bound
        assert rewrite._decoded.cache_info().currsize == bound

    def test_every_entry_equals_a_fresh_decoding(self, monkeypatch):
        rewrite._decoded.cache_clear()
        calls = self.served(monkeypatch)
        self.results()
        self.results()
        assert rewrite._decoded.cache_info().hits > 0
        for ring, terms, width, out in calls:
            for key, (v, lo, _bound) in terms.items():
                fresh = rewrite._unpack(v, lo, width)
                if isinstance(ring, CycloRing):
                    fresh = reduce_mod(fresh, cyclotomic(ring.ell))
                    if not fresh:
                        assert key not in out
                        continue
                assert out[key] == fresh

    def test_outputs_are_the_same_after_the_table_is_cleared(self):
        warm = self.results()
        rewrite._decoded.cache_clear()
        cold = self.results()
        assert cold == warm

    @pytest.mark.parametrize("ring", [LaurentRing(), CycloRing(5)], ids=["Z_q", "Z_eps(5)"])
    def test_one_value_has_one_key_whatever_its_zero_low_digits(self, ring):
        # 1 packed at ``lo`` 0, -2 and -4, and -q^3 at ``lo`` 3 and 2.
        terms = {0: (1, 0, 1), 1: (2**128, -2, 1), 2: (2**256, -4, 1),
                 3: (-1, 3, 1), 4: (-(2**64), 2, 1)}
        rewrite._decoded.cache_clear()
        out = rewrite._decode(ring, terms, 64)
        assert out[0] == ring.one() and out[0] is out[1] is out[2]
        assert out[3] == -ring.q_power(3) and out[3] is out[4]
        assert rewrite._decoded.cache_info().currsize == 2

    def test_arithmetic_on_a_shared_coefficient_leaves_it_unchanged(self):
        cfg = make_config(2)
        word = self.WORDS[0]
        left = normal_form_of_word(cfg, word, "leftmost")
        right = normal_form_of_word(cfg, word, "rightmost")
        exps = max(left, key=lambda e: len(left[e].terms))
        shared = left[exps]
        assert right[exps] is shared and len(shared.terms) > 1
        before = dict(shared.terms)
        results = [shared + shared, shared - 1, -shared, shared * shared, shared.scale(3)]
        assert all(r is not shared and r.terms is not shared.terms for r in results)
        assert shared.terms == before
        assert normal_form_of_word(cfg, word)[exps] is shared


class TestSpans:
    """A word above ``_SPAN_TABLE_LEN`` letters has its inversion searches
    built as the scan reaches them, not tabulated: one range per position
    would hold about 48 bytes a letter."""

    # t[1,2] is above t[1,1] and in its row: each swap is one q-shift.
    WORDS = [((2, 2),) * 8 + ((1, 1),) * 8, ((1, 2),) + ((1, 1),) * 300, ((1, 1),) * 400]

    @pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
    def test_untabulated_spans_straighten_as_tabulated_ones(self, monkeypatch, strategy):
        cfg = make_config(2)
        rewrite._spans.cache_clear()
        runs = []
        calls = record_rewrites(monkeypatch)
        for bound in (rewrite._SPAN_TABLE_LEN, 0):
            monkeypatch.setattr(rewrite, "_SPAN_TABLE_LEN", bound)
            calls.clear()
            runs.append([normal_form_of_word(cfg, w, strategy) for w in self.WORDS])
            runs[-1].append(list(calls))
            rewrite._spans.cache_clear()
        assert runs[0] == runs[1]
        assert runs[0][1] == {(300, 1, 0, 0): LaurentPoly.q_power(-300)}

    @pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
    def test_a_long_word_leaves_no_span_table_sized_by_its_length(self, strategy):
        cfg = make_config(2)
        for word in (((1, 1),) * 100_000, ((1, 2),) + ((1, 1),) * 2000):
            rewrite._spans.cache_clear()
            tracemalloc.start()
            try:
                nf = normal_form_of_word(cfg, word, strategy)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(nf) == 1
            assert peak < 48 * len(word)


@pytest.mark.parametrize("exps", [(1, -1, 0, 0), (0, 0, 0, -2), (1, 0, 0), (0,) * 5])
def test_from_monomials_refuses_a_bad_exponent_table(exps):
    with pytest.raises(ValueError, match="bad exponent table"):
        Element.from_monomials(make_config(2), [(NormalMonomial(exps), 1)])


def record_aborts(monkeypatch):
    """Record each pass that ``_trust`` abandons as ``(site, width, bound)``:
    ``site`` names the function that dropped a sum as zero (the caller of
    ``_put``, when ``_put`` dropped it) or decoded a reduction step's unit."""
    aborts = []
    trust = rewrite._trust

    def recorded(bound, width):
        try:
            trust(bound, width)
        except rewrite._Untrusted:
            code = sys._getframe(1).f_code
            if code.co_name == "_put":
                code = sys._getframe(2).f_code
            aborts.append((code.co_name, width, bound))
            raise

    monkeypatch.setattr(rewrite, "_trust", recorded)
    return aborts


def refuse_one_bit_reads(monkeypatch):
    """Fail any decoding at 1-bit digits: a nonzero value's bound is at
    least ``1 = 2**0``, so none is certified there, and reading one in
    signed base-2 digits would not end."""
    unpack = rewrite._unpack

    def checked(v, lo, width):
        assert width > 1, "an uncertified value was decoded"
        return unpack(v, lo, width)

    monkeypatch.setattr(rewrite, "_unpack", checked)


class TestPackWidth:
    """An operation packs each coefficient into one integer with digits of
    ``_PACK_WIDTH`` bits, from its input through straightening and
    determinant enforcement.  A pass that drops a sum as zero or decodes a
    value whose l1 bound reaches ``2**(width - 1)`` is abandoned there, and
    one whose result's bounds reach it is not decoded; either is redone
    whole, wider.

    At the default width of 64 bits, t[2,2]^16 t[1,1]^16 at n = 2 needs one
    redo: its l1 bound passes 2**63 while its largest coefficient is 10,338.
    A start width of 3 bits makes k8 and the heavy ``gl`` monomial overflow."""

    K8 = ((2, 2),) * 8 + ((1, 1),) * 8
    HEAVY = NormalMonomial((3, 1, 0, 0, 3, 1, 1, 0, 3))

    @staticmethod
    def fresh_heavy():
        fresh_start()
        return Element.from_monomials(make_config(3, "gl"), [(TestPackWidth.HEAVY, 1)])

    def test_narrow_start_width_is_redone_to_the_same_result(self, monkeypatch):
        cfg = make_config(2)
        heavy = self.fresh_heavy()
        calls = record_rewrites(monkeypatch)
        expected = normal_form_of_word(cfg, self.K8)
        ((_width, trace),) = calls
        calls.clear()
        monkeypatch.setattr(rewrite, "_PACK_WIDTH", 3)
        assert normal_form_of_word(cfg, self.K8) == expected
        # The redone pass is the whole operation again, swap for swap.
        (narrow, _abandoned), (wide, redone) = calls
        assert narrow == 3 and wide > 3 and redone == trace
        calls.clear()
        assert self.fresh_heavy() == heavy
        widths = [width for width, _trace in calls]
        assert widths.count(3) < len(widths)

    def test_a_sum_that_vanishes_only_when_packed_is_not_trusted(self, monkeypatch):
        # t[1,2] t[1,1] = q^-1 t[1,1] t[1,2], so the two entries sum to
        # -4 + q, which is 0 at q = 2**2: a 2-bit pass drops the word.  The
        # unordered word is the larger, so in either order of the entries it
        # is taken first and its swapped word meets the ordered one in its
        # bucket.
        cfg = make_config(2)
        entries = [(((1, 1), (1, 2)), LaurentPoly(-4)), (((1, 2), (1, 1)), LaurentPoly.q_power(2))]
        expected = {NormalMonomial((1, 1, 0, 0)): LaurentPoly({0: -4, 1: 1})}
        aborts = record_aborts(monkeypatch)
        for order in (entries, entries[::-1]):
            monkeypatch.setattr(rewrite, "_PACK_WIDTH", 64)
            assert Element.from_words(cfg, order).terms == expected
            monkeypatch.setattr(rewrite, "_PACK_WIDTH", 2)
            assert Element.from_words(cfg, order).terms == expected
        assert aborts == [("_rewrite", 2, 5)] * 2

    @staticmethod
    def record_passes(monkeypatch):
        """Start from fresh orders (:func:`fresh_start`) and record each
        ``_rewrite`` and ``_enforce`` call that returns as ``(width, largest
        bound of a returned term)``."""
        fresh_start()
        passes = {"rewrite": [], "enforce": []}
        straighten, enforce = rewrite._rewrite, rewrite._enforce

        def largest(terms):
            return max((c[2] for c in terms.values()), default=0)

        def recorded_rewrite(order, pending, strategy="leftmost", trace=None):
            out = straighten(order, pending, strategy, trace)
            passes["rewrite"].append((pending[0], largest(out)))
            return out

        def recorded_enforce(cfg, terms, width):
            out = enforce(cfg, terms, width)
            passes["enforce"].append((width, largest(out)))
            return out

        monkeypatch.setattr(rewrite, "_rewrite", recorded_rewrite)
        monkeypatch.setattr(rewrite, "_enforce", recorded_enforce)
        return passes

    def test_a_product_bound_that_overflows_only_in_enforcement_is_redone(self, monkeypatch):
        # The reduction steps of t11 t22^2 t33 straighten with l1 bounds of
        # at most 3, below 2**3, but emit a coefficient of bound 3, which
        # times the input's bound of 3 passes 2**3 in ``_enforce`` (their
        # sum would not).
        cfg = make_config(3, "gl")
        m = NormalMonomial((1, 0, 0, 0, 2, 0, 0, 0, 1))
        expected = Element.from_monomials(cfg, [(m, 3)])
        passes = self.record_passes(monkeypatch)
        aborts = record_aborts(monkeypatch)
        monkeypatch.setattr(rewrite, "_PACK_WIDTH", 4)
        assert Element.from_monomials(cfg, [(m, 3)]) == expected
        assert aborts == []
        assert all(largest < 8 for width, largest in passes["rewrite"] if width == 4)
        (width, largest), redo = passes["enforce"]
        assert width == 4 and largest >= 8 and redo[0] > 4

    def test_a_sum_that_vanishes_only_when_packed_in_enforcement_is_redone(self, monkeypatch):
        # t[1,1] t[2,2] = D + q t[1,2] t[2,1], so with -4 t[1,2] t[2,1]
        # beside it the coefficient of t[1,2] t[2,1] is q - 4, which is 0 at
        # q = 2**2: a 2-bit pass drops it in ``_enforce``, not in a
        # straightening.
        cfg = make_config(2, "gl")
        pairs = [(NormalMonomial((1, 0, 0, 1)), 1), (NormalMonomial((0, 1, 1, 0)), -4)]
        expected = Element.from_monomials(cfg, pairs)
        assert expected.terms[NormalMonomial((0, 1, 1, 0))] == LaurentPoly({0: -4, 1: 1})
        passes = self.record_passes(monkeypatch)
        aborts = record_aborts(monkeypatch)
        monkeypatch.setattr(rewrite, "_PACK_WIDTH", 2)
        assert Element.from_monomials(cfg, pairs) == expected
        assert all(largest < 2 for width, largest in passes["rewrite"] if width == 2)
        # The 2-bit pass is abandoned inside ``_enforce``, which returns
        # only from the redo.
        assert aborts == [("_enforce", 2, 5)]
        assert [width for width, _largest in passes["enforce"]] == [4]

    @staticmethod
    def merged_by_the_determinant():
        # Under this order t[2,2] t[1,1] and t[1,2] t[2,1] are both ordered
        # words and D's two words.  The median split puts D's t[1,2] t[2,1]
        # after the first and D's t[2,2] t[1,1] before the second, so both
        # products by D reach one word, with coefficients q * (-q^-1) and
        # q - 3: their sum q - 4 vanishes at q = 2**2.  Under the row-major
        # and opposite orders no two ordered words reach one word there
        # (none do up to length 7 at n = 2, nor up to length 4 at n = 3).
        cfg = AlgebraConfig(2, "m", GenOrder(2, ((2, 2), (1, 1), (2, 1), (1, 2))), LaurentRing())
        terms = {
            NormalMonomial((1, 0, 0, 1), 1): LaurentPoly.q_power(1),
            NormalMonomial((0, 1, 1, 0), 1): LaurentPoly({0: -3, 1: 1}),
        }
        return times_determinant(cfg, terms)

    # Each place that reads a packed value's digits, other than the
    # straightener's swapped-word merge and ``_enforce``'s (tested above),
    # with a start width that abandons the pass there: ``(build, width,
    # abort)``.  The entries cancel at ``q = 2**width`` but not as
    # polynomials, except at the reduction step, whose unit ``c`` has
    # bound 1, not below ``2**0``.
    SITES = {
        # t[2,2] t[1,1] branches to (q^-1 - q) t[1,2] t[2,1], which meets
        # the pending t[1,2] t[2,1]: the sum q^-1 (q - 4).
        "rewrite-branch": (
            lambda: Element.from_words(make_config(2), [
                (((2, 2), (1, 1)), 1),
                (((1, 2), (2, 1)), LaurentPoly({-1: -5, 0: 1, 1: 1})),
            ]),
            2,
            ("_rewrite", 2, 9),
        ),
        "packed-classes": (
            lambda: Element.from_words(make_config(2), [
                (((1, 1),), -4), (((1, 1),), LaurentPoly.q_power(1))
            ]),
            2,
            ("_packed_classes", 2, 5),
        ),
        # ``from_monomials`` sums its entries in its ``run``.
        "from-monomials": (
            lambda: Element.from_monomials(make_config(2), [
                (NormalMonomial((1, 0, 0, 0)), -4),
                (NormalMonomial((1, 0, 0, 0)), LaurentPoly.q_power(1)),
            ]),
            2,
            ("run", 2, 5),
        ),
        "times-det": (lambda: TestPackWidth.merged_by_the_determinant(), 2, ("_times_det", 2, 5)),
        "reduction-step": (
            lambda: Element.from_monomials(make_config(2, "gl"), [(NormalMonomial((1, 0, 0, 1)), 1)]),
            1,
            ("_reduction_step", 1, 1),
        ),
    }

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_a_narrow_pass_is_abandoned_where_it_reads_digits(self, monkeypatch, site):
        build, width, abort = self.SITES[site]
        expected = build()
        rewrite._reduction_step.cache_clear()
        aborts = record_aborts(monkeypatch)
        refuse_one_bit_reads(monkeypatch)
        monkeypatch.setattr(rewrite, "_PACK_WIDTH", width)
        assert build() == expected
        assert aborts == [abort]

    def test_an_abandoned_reduction_step_is_not_cached(self, monkeypatch):
        build, width, _abort = self.SITES["reduction-step"]
        expected = build()
        rewrite._reduction_step.cache_clear()
        refuse_one_bit_reads(monkeypatch)
        monkeypatch.setattr(rewrite, "_PACK_WIDTH", width)
        assert build() == expected
        # The step missed at 1 bit and again at 2, and only the 2-bit one is kept.
        info = rewrite._reduction_step.cache_info()
        assert (info.misses, info.currsize) == (2, 1)
        order, exps = make_config(2, "gl").order, (1, 0, 0, 1)
        with pytest.raises(rewrite._Untrusted):
            rewrite._reduction_step(order, exps, width)
        assert rewrite._reduction_step(order, exps, width + 1)
        info = rewrite._reduction_step.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 1, 1)


def reduction_step_appended(cfg, exps):
    """The determinant reduction step with ``D``'s words appended after the
    whole ordered word of ``t0``, as it was first computed: the reference
    for the mid-word insertion of ``_times_det``."""
    t0 = tuple(e - (k in cfg.order.targets) for k, e in enumerate(exps))
    t0_word = NormalMonomial(t0).word(cfg.order)
    flat = replace(cfg, variant="m")
    product = Element.from_words(
        flat,
        [(t0_word + m.word(cfg.order), c) for m, c in quantum_determinant(flat).terms.items()],
    )
    product = {m.exps: c for m, c in product.terms.items()}
    inv = LaurentRing().invert_unit(product.pop(exps))
    return [(t0, 1, inv)] + [(e2, 0, -inv * c2) for e2, c2 in product.items()]


class TestReductionStep:
    """``_reduction_step`` inserts ``D`` mid-word; the result must be the
    end-appended computation's, entry for entry."""

    @pytest.mark.parametrize("flavor", ["standard", "opposite"])
    @pytest.mark.parametrize("variant", ["gl", "sl"])
    @pytest.mark.parametrize("n, cases, max_exp", [(2, 12, 3), (3, 12, 2), (4, 6, 1)])
    def test_matches_the_end_appended_reference(self, n, cases, max_exp, variant, flavor):
        cfg = make_config(n, variant, flavor=flavor)
        targets = cfg.order.targets
        width = rewrite._PACK_WIDTH
        rng = random.Random(n * 100 + len(variant) + len(flavor))
        for _ in range(cases):
            exps = tuple(
                rng.randint(1 if k in targets else 0, max_exp + (k in targets))
                for k in range(n * n)
            )
            step = rewrite._reduction_step.__wrapped__(cfg.order, exps, width)
            step = [(e, d, rewrite._unpack(v, lo, width)) for e, d, (v, lo, _bound) in step]
            expected = reduction_step_appended(cfg, exps)
            assert {(e, d): c for e, d, c in step} == {(e, d): c for e, d, c in expected}
            assert len(step) == len(expected) > 1

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_a_monomial_with_a_zero_target_is_refused(self, flavor):
        order = make_config(2, "gl", flavor=flavor).order
        # Every target of the one flavor but one, each other slot filled.
        exps = (2, 1, 1, 0) if flavor == "standard" else (1, 0, 2, 1)
        with pytest.raises(ValueError, match="every target exponent to be positive"):
            rewrite._reduction_step.__wrapped__(order, exps, rewrite._PACK_WIDTH)

    # ``m`` has every target exponent positive; ``larger`` has its degree
    # and (under the opposite flavor) its antidiagonal degree, and is above
    # it only in the last comparison of the measure, the exponent table.
    @pytest.mark.parametrize(
        "flavor, m, larger",
        [
            ("standard", (1, 0, 0, 0, 1, 0, 0, 0, 1), (1, 0, 0, 0, 1, 0, 0, 1, 0)),
            ("opposite", (0, 1, 1, 0, 1, 0, 1, 0, 0), (1, 0, 1, 0, 1, 0, 1, 0, 0)),
        ],
    )
    def test_a_step_that_does_not_descend_is_refused(self, monkeypatch, flavor, m, larger):
        order = make_config(3, "gl", flavor=flavor).order
        width = rewrite._PACK_WIDTH
        step = rewrite._reduction_step.__wrapped__
        assert step(order, m, width)
        straighten = rewrite._rewrite

        def ascending(order, pending, strategy="leftmost", trace=None):
            totals = straighten(order, pending, strategy, trace)
            totals[larger] = (1, 0, 1)
            return totals

        monkeypatch.setattr(rewrite, "_rewrite", ascending)
        with pytest.raises(ArithmeticError, match="does not descend"):
            step(order, m, width)


class TestCoreStep:
    """Enforcement keys each reduction step by its core (``rewrite._core``):
    the order's first and last letters cut down to what keeps the monomial
    violating, the cut exponents added back to every entry.  The first
    letter ranks below every letter and the last above every letter, and
    ``D`` is central, so the shifted step of the core is the step of the
    whole monomial, entry for entry."""

    @staticmethod
    def cases(order, count, rng):
        """Violating exponent tables, the end letters' exponents up to 6."""
        n = order.n
        targets = order.targets
        ends = (order.slots[0], order.slots[-1])
        for _ in range(count):
            yield tuple(
                rng.randint(k in targets, 6 if k in ends else 1 + (k in targets))
                for k in range(n * n)
            )

    @staticmethod
    def shifted_core_step(order, exps, width):
        """The core's step, uncached, with the cut exponents added back."""
        core, a, b = rewrite._core(order, exps)
        f, l = order.slots[0], order.slots[-1]
        out = []
        for e, d, c in rewrite._reduction_step.__wrapped__(order, core, width):
            e = list(e)
            e[f] += a
            e[l] += b
            out.append((tuple(e), d, c))
        return out

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("variant", ["gl", "sl"])
    @pytest.mark.parametrize("n, count", [(1, 6), (2, 12), (3, 8), (4, 4)])
    def test_the_shifted_core_step_is_the_whole_step(self, n, count, variant, flavor):
        cfg = make_config(n, variant, flavor=flavor)
        order = cfg.order
        width = rewrite._PACK_WIDTH
        measure = rewrite._reduction_measure(order)
        rng = random.Random(f"core-{n}-{variant}-{flavor}")
        for exps in self.cases(order, count, rng):
            whole = {
                (e, d): rewrite._unpack(v, lo, width)
                for e, d, (v, lo, _bound) in rewrite._reduction_step.__wrapped__(order, exps, width)
            }
            core = self.shifted_core_step(order, exps, width)
            assert {(e, d): rewrite._unpack(v, lo, width) for e, d, (v, lo, _b) in core} == whole
            assert max(measure(e) for e, _d, _c in core) < measure(exps)
            # ``diagonal_reduction`` takes the same core step for the variant.
            m = NormalMonomial(exps, 0)
            assert rewrite.diagonal_reduction(cfg, m).terms == {
                NormalMonomial(e, d if variant == "gl" else 0): c for (e, d), c in whole.items()
            }

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("variant", ["gl", "sl"])
    def test_enforcement_equals_enforcement_by_whole_steps(self, monkeypatch, variant, flavor):
        cfg = make_config(3, variant, flavor=flavor)
        rng = random.Random(f"core-enforce-{variant}-{flavor}")
        monomials = [NormalMonomial(exps) for exps in self.cases(cfg.order, 4, rng)]
        cored = [Element.from_monomials(cfg, [(m, 1)]) for m in monomials]
        monkeypatch.setattr(rewrite, "_core", lambda order, exps: (exps, 0, 0))
        monkeypatch.setattr(rewrite, "_reduction_step", rewrite._reduction_step.__wrapped__)
        assert cored == [Element.from_monomials(cfg, [(m, 1)]) for m in monomials]

    @pytest.mark.parametrize("k", [10, 1000])
    def test_a_diagonal_power_at_n1_costs_one_step(self, k):
        rewrite._reduction_step.cache_clear()
        e = Element.from_monomials(make_config(1, "gl"), [(NormalMonomial((k,)), 1)])
        assert str(e) == f"D^{k}"
        assert rewrite._reduction_step.cache_info().misses == 1

    def test_the_last_letter_exponent_costs_no_step(self):
        cfg = make_config(2, "gl")
        misses = []
        for exps in ((7, 1, 1, 9), (7, 1, 1, 30)):
            rewrite._reduction_step.cache_clear()
            Element.from_monomials(cfg, [(NormalMonomial(exps), 1)])
            misses.append(rewrite._reduction_step.cache_info().misses)
        assert misses == [7, 7]


class TestTimesDeterminant:
    """``times_determinant(cfg, terms)`` multiplies out each key's own ``D``
    power, Horner's way: ``max z`` products by ``D`` in one certified
    operation.  It must equal each term times ``D``'s normal form, ``z``
    times over."""

    POWERS = (0, 1, 3)

    @staticmethod
    def record_calls(monkeypatch):
        """Count the ``_times_det`` and ``_certified`` calls that follow."""
        calls = {"_times_det": 0, "_certified": 0}
        for name in calls:
            original = getattr(rewrite, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(rewrite, name, counted)
        return calls

    @pytest.mark.parametrize("ell", [None, 3])
    @pytest.mark.parametrize("n, flavor", [(2, "standard"), (2, "opposite"), (3, "standard")])
    def test_equals_repeated_products_by_the_determinant(self, monkeypatch, n, flavor, ell):
        cfg = make_config(n, ell=ell, flavor=flavor)
        det = quantum_determinant(cfg)
        rng = random.Random(f"times-det/{n}/{flavor}/{ell}")
        for _ in range(2):
            terms = {}
            expected = Element.zero(cfg)
            for z in self.POWERS:
                exps = tuple(rng.randint(0, 4 - n) for _ in range(n * n))
                c = cfg.ring.coerce(LaurentPoly({rng.randint(-2, 2): rng.choice((-3, -1, 1, 2))}))
                terms[NormalMonomial(exps, z)] = c
                expected = expected + multiply(Element.monomial(cfg, NormalMonomial(exps), c), det**z)
            calls = self.record_calls(monkeypatch)
            assert times_determinant(cfg, terms) == expected, terms
            assert calls == {"_times_det": max(self.POWERS), "_certified": 1}
            monkeypatch.undo()

    def test_terms_without_a_power_are_returned_untouched(self, monkeypatch):
        cfg = make_config(2)
        terms = {NormalMonomial((1, 0, 0, 1)): ONE, NormalMonomial((0, 2, 1, 0)): ONE}
        calls = self.record_calls(monkeypatch)
        assert times_determinant(cfg, terms).terms is terms
        assert times_determinant(cfg, {}).terms == {}
        assert calls == {"_times_det": 0, "_certified": 0}

    @pytest.mark.parametrize("ell", [None, 3])
    def test_a_wide_coefficient_redoes_the_whole_run_wider(self, monkeypatch, ell):
        cfg = make_config(2, ell=ell)
        det = quantum_determinant(cfg)
        pairs = [(NormalMonomial((1, 0, 0, 1)), 2**62), (NormalMonomial((0, 1, 1, 0)), 1)]
        e = Element.from_monomials(cfg, pairs)
        expected = multiply(multiply(e, det), det)
        calls = record_rewrites(monkeypatch)
        terms = {NormalMonomial(m.exps, 2): c for m, c in e.terms.items()}
        assert times_determinant(cfg, terms) == expected
        widths = [width for width, _trace in calls]
        # Two passes at 64-bit digits, then the same two at the wider width.
        assert widths[:2] == [64, 64] and len(widths) == 4
        assert widths[2] == widths[3] > 64

    def test_only_the_plain_variant_and_nonnegative_powers(self):
        with pytest.raises(ValueError, match="plain variant"):
            times_determinant(make_config(2, "gl"), Element.one(make_config(2, "gl")).terms)
        terms = {NormalMonomial((0, 0, 0, 0), -1): ONE, NormalMonomial((1, 0, 0, 0), 1): ONE}
        with pytest.raises(ValueError, match="nonnegative"):
            times_determinant(make_config(2), terms)


class TestMixedDeterminantPowers:
    """A ``gl`` product straightens the terms of every ``D`` power in one
    pass, each power in classes of its own."""

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_product_equals_the_rightmost_word_oracle(self, flavor):
        cfg = make_config(2, "gl", flavor=flavor)
        rng = random.Random(f"mixed-dpowers/{flavor}")
        for _ in range(4):
            a, b = (
                Element.from_monomials(cfg, [
                    (NormalMonomial(tuple(rng.randint(0, 2) for _ in range(4)), z),
                     LaurentPoly({rng.randint(-1, 1): rng.choice((-2, 1, 3))}))
                    for z in powers
                ])
                for powers in ((0, 1, -2), (-1, 2))
            )
            assert len({m.dpower for m in a.terms}) > 1 and len({m.dpower for m in b.terms}) > 1
            oracle = Element.from_words(
                cfg,
                [
                    (m1.word(cfg.order) + m2.word(cfg.order), c1 * c2, m1.dpower + m2.dpower)
                    for m1, c1 in a.terms.items()
                    for m2, c2 in b.terms.items()
                ],
                strategy="rightmost",
            )
            assert multiply(a, b) == oracle


# ``rewrite``'s packed coefficients and its certify-and-redo protocol.
PACKED_HELPERS = {
    "_pack", "_put", "_certified", "_decode", "_reduced", "_packed_classes", "_rewrite",
    "_reduction_step", "_det_words", "_times_det", "_trust", "_Untrusted",
}


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(Path(rewrite.__file__).parent.glob("*.py")) if p.stem != "rewrite"],
    ids=lambda p: p.stem,
)
def test_only_rewrite_names_its_packed_helpers(path):
    """Every other module reads decoded results through ``rewrite``'s other
    names.  ``detloc`` imports ``_reduction_step`` without using it: the
    benchmark's tracer test checks that wrapping the step rebinds it there."""
    tree = ast.parse(path.read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    bound = {"_reduction_step"} if path.stem == "detloc" else set()
    assert (imported - bound) & PACKED_HELPERS == set()
    assert used & PACKED_HELPERS == set()


class TestConfigHash:
    """Equal configurations compare and hash equal, whatever object or
    process built them, and reach the same cache entries."""

    M = (1, 0, 0, 0, 1, 0, 0, 0, 1)

    @staticmethod
    def equal_configs():
        cfg = make_config(3, "gl")
        return cfg, [
            make_config(3, "gl"),
            replace(replace(cfg, variant="sl"), variant="gl"),
            pickle.loads(pickle.dumps(cfg)),
        ]

    def test_equal_configs_hash_equal_and_share_reduction_steps(self):
        cfg, others = self.equal_configs()
        width = rewrite._PACK_WIDTH
        rewrite._reduction_step.cache_clear()
        first = rewrite._reduction_step(cfg.order, self.M, width)
        for other in others:
            assert other == cfg and hash(other) == hash(cfg)
            assert rewrite._reduction_step(other.order, self.M, width) is first
        info = rewrite._reduction_step.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, len(others), 1)

    def test_a_config_unpickled_under_another_hash_seed_hashes_as_one_built_there(self):
        cfg, _ = self.equal_configs()
        code = (
            "import pickle, sys\n"
            "from qcoord import make_config\n"
            "cfg = pickle.loads(sys.stdin.buffer.read())\n"
            "assert cfg == make_config(3, 'gl') and hash(cfg) == hash(make_config(3, 'gl'))\n"
        )
        for seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", code],
                input=pickle.dumps(cfg),
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": ":".join(sys.path)},
                capture_output=True,
                timeout=60,
            )
            assert done.returncode == 0, done.stderr.decode()


class TestOrderKeyedCaches:
    """What the engine derives from a generator order is kept per order:
    the order carries its targets and ``D`` (``GenOrder.targets`` and
    ``det``), and the reduction steps sit in one table keyed by the order.
    Every configuration of one order shares them, whatever its variant and
    ring, and an unequal order builds its own."""

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_configs_of_one_flavor_share_one_order(self, flavor):
        assert make_config(3, "gl", flavor=flavor).order is make_config(3, "sl", flavor=flavor).order
        assert make_config(3, flavor=flavor).order is make_config(3, ell=5, flavor=flavor).order

    def test_configs_of_one_order_share_reduction_steps(self):
        gl, sl = make_config(3, "gl"), make_config(3, "sl")
        configs = [
            gl,
            sl,
            make_config(3, "gl", ell=3),
            make_config(3, "sl", ell=5),
            replace(sl, variant="gl"),
            replace(gl, ring=CycloRing(7)),
        ]
        fresh_start()
        m = NormalMonomial(TestConfigHash.M)
        for cfg in configs:
            # t11 t22 t33 = D - rest, one reduction step.
            assert Element.from_monomials(cfg, [(m, 1)]).terms
        info = rewrite._reduction_step.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, len(configs) - 1, 1)
        assert gl.order.det is not None
        assert all(cfg.order.det is gl.order.det for cfg in configs)

    def test_the_heavy_monomial_pays_its_reduction_steps_once_across_variants_and_rings(self):
        # ``TestOperationCounts.test_gl_enforcement``'s 28 misses, paid by
        # the first configuration only.
        fresh_start()
        for cfg in [
            make_config(3, "gl"),
            make_config(3, "sl"),
            make_config(3, "gl", ell=3),
            make_config(3, "sl", ell=5),
        ]:
            Element.from_monomials(cfg, [(TestPackWidth.HEAVY, 1)])
        info = rewrite._reduction_step.cache_info()
        assert (info.misses, info.currsize) == (28, 28)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_every_configuration_of_one_order_shares_one_determinant(self, flavor):
        fresh_start()
        configs = [make_config(3, variant, ell=ell, flavor=flavor)
                   for variant in ("m", "gl", "sl") for ell in (None, 3)]
        assert configs[0].order.det is None
        for cfg in configs:
            quantum_determinant(cfg)
        det = configs[0].order.det
        assert det is not None and all(cfg.order.det is det for cfg in configs)

    def test_an_unequal_order_keeps_its_own_determinant(self):
        order = row_major_order(3)
        seq = list(order.seq)
        random.Random(3).shuffle(seq)
        custom = GenOrder(3, tuple(seq))
        assert (custom.n, custom.kind) == (order.n, order.kind) and custom != order
        for other in [order, make_opposite_order(3), custom]:
            for cfg in (
                AlgebraConfig(3, "gl", other, LaurentRing()),
                AlgebraConfig(3, "sl", other, CycloRing(3)),
            ):
                assert rewrite._det_words(cfg.order) is other.det
            # An equal order built apart builds an equal ``D`` of its own.
            twin = GenOrder(other.n, other.seq, other.kind)
            assert twin == other and twin.det is None
            assert rewrite._det_words(twin) == other.det and twin.det is not other.det

        def normal_form(order):
            return {e: c for e, _d, c in order.det[0]}

        assert normal_form(custom) != normal_form(order)
        # Not every coefficient of ``D`` is a unit under this order, and the
        # product by ``D`` is still exact.
        assert any(len(c.terms) > 1 for c in normal_form(custom).values())
        cfg = AlgebraConfig(3, "m", custom, LaurentRing())
        m = NormalMonomial((1, 0, 2, 0, 1, 0, 1, 1, 0), 2)
        det = quantum_determinant(cfg)
        assert times_determinant(cfg, {m: ONE}) == multiply(
            Element.monomial(cfg, NormalMonomial(m.exps)), multiply(det, det))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_targets_are_the_diagonal_or_the_antidiagonal(self, n):
        diagonal = tuple((i - 1) * n + (i - 1) for i in range(1, n + 1))
        antidiagonal = tuple((i - 1) * n + (n - i) for i in range(1, n + 1))
        seq = list(row_major_order(n).seq)
        random.Random(n).shuffle(seq)
        assert row_major_order(n).targets == GenOrder(n, tuple(seq)).targets == diagonal
        assert make_opposite_order(n).targets == antidiagonal
        m = NormalMonomial(tuple(range(1, n * n + 1)))
        assert min(m.exps[t] for t in diagonal) == m.min_diag()
        assert min(m.exps[t] for t in antidiagonal) == m.min_antidiag()

    def test_every_cache_is_bounded_and_keyed_by_no_configuration(self):
        import importlib
        import inspect
        import pkgutil

        import qcoord

        found = {}
        for info in pkgutil.iter_modules(qcoord.__path__):
            module = importlib.import_module(f"qcoord.{info.name}")
            owners = [module] + [
                obj
                for obj in vars(module).values()
                if isinstance(obj, type) and obj.__module__ == module.__name__
            ]
            for owner in owners:
                for name, fn in vars(owner).items():
                    if callable(getattr(fn, "cache_parameters", None)):
                        if getattr(fn, "__module__", None) == module.__name__:
                            found[f"{module.__name__}.{name}"] = fn
        assert {
            "qcoord.rewrite._reduction_step",
            "qcoord.rewrite._spans",
            "qcoord.rewrite._decoded",
            "qcoord.rewrite._det_word_pairs",
        } <= set(found)
        for name, fn in found.items():
            maxsize = fn.cache_parameters()["maxsize"]
            assert isinstance(maxsize, int) and maxsize > 0, name
            for param in inspect.signature(fn).parameters.values():
                assert "AlgebraConfig" not in str(param.annotation), (name, param.name)
                # What is derived from an order alone is kept on the order.
                if name != "qcoord.rewrite._reduction_step":
                    assert "GenOrder" not in str(param.annotation), (name, param.name)


class TestRelationTable:
    def test_holds_only_the_pairs_met(self, monkeypatch):
        # a fresh order, so no other test has filled its table
        n = 30
        order = GenOrder(n, row_major_order(n).seq)
        cfg = AlgebraConfig(n, "m", order, LaurentRing())
        word = ((2, 2), (1, 1), (30, 30), (1, 30), (30, 1))
        calls = record_rewrites(monkeypatch)
        normal_form_of_word(cfg, word)
        ((_width, trace),) = calls
        rank = order.rank_map
        met = set()
        for src, produced in trace:
            # the swapped pair is where ``src`` and its swapped image differ
            swapped = produced[0][0]
            p = next(p for p in range(len(src)) if src[p] != swapped[p])
            met.add(rank[src[p]] * n * n + rank[src[p + 1]])
        # a handful of the n**4 = 810,000 pairs
        assert set(order.relations) == met
        assert 0 < len(met) < 20

    def test_each_pair_is_derived_once(self, monkeypatch):
        n = 3
        cfg = AlgebraConfig(n, "m", GenOrder(n, row_major_order(n).seq), LaurentRing())
        derived = []

        def counted(x, y):
            derived.append((x, y))
            return _relation(x, y)

        monkeypatch.setattr(rewrite, "_relation", counted)
        word = ((3, 3), (2, 2), (1, 1), (3, 1), (1, 3))
        first = normal_form_of_word(cfg, word)
        assert len(derived) == len(set(derived)) == len(cfg.order.relations) > 0
        derived.clear()
        assert normal_form_of_word(cfg, word) == first
        assert derived == []
