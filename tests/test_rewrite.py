"""Tests for the straightening engine and element arithmetic."""

import pickle
import random
import subprocess
import sys
from dataclasses import replace
from itertools import product

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
from qcoord.monomial import (
    FLAVORS,
    GenOrder,
    NormalMonomial,
    make_opposite_order,
    row_major_order,
    weight,
)
from qcoord.rewrite import (
    Element,
    _relation,
    make_config,
    multiply,
    normal_form_of_word,
    normalize,
    swap_adjacent,
)

ONE = LaurentPoly(1)


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
        assert make_config(2, "gl", flavor="opposite").flavor == "opposite"
        assert make_config(2, "gl", order=make_opposite_order(2)) == make_config(
            2, "gl", flavor="opposite"
        )
        assert make_config(2, "gl").order.kind == "standard"

    @pytest.mark.parametrize(
        "flavor,order",
        [("standard", make_opposite_order(2)), ("opposite", row_major_order(2)), ("diagonal", None)],
    )
    def test_make_config_refuses_a_flavor_its_order_does_not_have(self, flavor, order):
        with pytest.raises(ValueError):
            make_config(2, "gl", flavor=flavor, order=order)


class TestTerminationMeasure:
    def test_measure_decreases_along_every_step(self):
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
        for length in range(5):
            for word in product(gens, repeat=length):
                trace = []
                normal_form_of_word(cfg, word, trace=trace)
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
    """The counts the benchmark's layer probes report: ``trace=`` entries
    (one per swap, a ``"branch"`` product per nested-corner swap), the swaps
    among them whose relation shifts by a power of ``q``, and misses of the
    ``_reduction_step`` cache."""

    @staticmethod
    def counts(trace) -> tuple[int, int, int]:
        """Swaps, q-shifts and branches of a trace.  A swap's position is
        where its source and swapped words first differ."""
        qshifts = branches = 0
        for src, produced in trace:
            swapped = produced[0][0]
            p = next(i for i, (a, b) in enumerate(zip(src, swapped)) if a != b)
            qshifts += _relation(src[p], src[p + 1])[0] != 0
            branches += len(produced) > 1
        return len(trace), qshifts, branches

    def test_diagonal_word_k8(self):
        trace = []
        nf = normal_form_of_word(make_config(2), ((2, 2),) * 8 + ((1, 1),) * 8, trace=trace)
        assert self.counts(trace) == (1422, 882, 204)
        assert len(nf) == 9

    def test_gl_enforcement(self, monkeypatch):
        trace = []
        straighten = rewrite._rewrite

        def traced(order, pending, strategy="leftmost"):
            return straighten(order, pending, strategy, trace)

        monkeypatch.setattr(rewrite, "_rewrite", traced)
        rewrite._det_terms.cache_clear()
        rewrite._reduction_step.cache_clear()
        heavy = NormalMonomial((3, 1, 0, 0, 3, 1, 1, 0, 3))
        e = Element.from_monomials(make_config(3, "gl"), [(heavy, 1)])
        assert self.counts(trace) == (894, 573, 32)
        assert rewrite._reduction_step.cache_info().misses == 28
        assert len(e.terms) == 55


class TestEachWordOnce:
    """Within one ``_rewrite`` call each word is straightened at most once:
    a class's words are taken largest first, and a swap only makes a word
    smaller, so no word is reached after it was taken.  Then a call makes
    one swap per distinct unordered word it meets, and no source word
    repeats among its ``trace=`` entries."""

    @staticmethod
    def traced_calls(monkeypatch, strategy):
        """Run every ``_rewrite`` call under ``strategy``, each with a trace
        of its own, and return the list of those traces."""
        calls = []
        straighten = rewrite._rewrite

        def traced(order, pending, _strategy="leftmost", trace=None):
            calls.append([])
            return straighten(order, pending, strategy, calls[-1])

        monkeypatch.setattr(rewrite, "_rewrite", traced)
        for cache in (rewrite._det_terms, rewrite._det_words, rewrite._reduction_step):
            cache.cache_clear()
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
        assert calls and any(calls)
        for trace in calls:
            sources = [src for src, _produced in trace]
            assert len(set(sources)) == len(sources)
        if swaps is not None:
            assert sum(map(len, calls)) == swaps

    def test_top3x3_swaps_each_word_once(self, monkeypatch):
        calls = self.traced_calls(monkeypatch, "leftmost")
        self.top_square(3, 3)
        assert sum(map(len, calls)) == 12002


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


class TestPackWidth:
    """An operation packs each coefficient into one integer with digits of
    ``_PACK_WIDTH`` bits, from its input through straightening and
    determinant enforcement, and decodes only results whose l1 bounds, and
    those of the sums it found vanished, stay below ``2**(width - 1)``; an
    operation past that is redone whole, wider.

    At the default width of 64 bits, t[2,2]^16 t[1,1]^16 at n = 2 needs one
    redo: its l1 bound passes 2**63 while its largest coefficient is 10,338.
    A start width of 3 bits makes k8 and the heavy ``gl`` monomial overflow."""

    K8 = ((2, 2),) * 8 + ((1, 1),) * 8
    HEAVY = NormalMonomial((3, 1, 0, 0, 3, 1, 1, 0, 3))

    @staticmethod
    def fresh_heavy():
        for cache in (rewrite._det_terms, rewrite._det_words, rewrite._reduction_step):
            cache.cache_clear()
        return Element.from_monomials(make_config(3, "gl"), [(TestPackWidth.HEAVY, 1)])

    def test_narrow_start_width_is_redone_to_the_same_result(self, monkeypatch):
        cfg = make_config(2)
        trace = []
        expected = normal_form_of_word(cfg, self.K8, trace=trace)
        heavy = self.fresh_heavy()
        widths = []
        straighten = rewrite._rewrite

        def recorded(order, pending, strategy="leftmost", trace=None):
            widths.append(pending[0])
            return straighten(order, pending, strategy, trace)

        monkeypatch.setattr(rewrite, "_rewrite", recorded)
        monkeypatch.setattr(rewrite, "_PACK_WIDTH", 3)
        narrow_trace = []
        assert normal_form_of_word(cfg, self.K8, trace=narrow_trace) == expected
        assert narrow_trace == trace
        assert widths[0] == 3 and len(widths) == 2 and widths[1] > 3
        widths.clear()
        assert self.fresh_heavy() == heavy
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
        for order in (entries, entries[::-1]):
            monkeypatch.setattr(rewrite, "_PACK_WIDTH", 64)
            assert Element.from_words(cfg, order).terms == expected
            monkeypatch.setattr(rewrite, "_PACK_WIDTH", 2)
            assert Element.from_words(cfg, order).terms == expected

    @staticmethod
    def record_passes(monkeypatch):
        """Clear the determinant caches and record each ``_rewrite`` call as
        ``(width, worst)`` and each ``_enforce`` call as ``(width, worst,
        largest bound of a returned term)``."""
        for cache in (rewrite._det_terms, rewrite._det_words, rewrite._reduction_step):
            cache.cache_clear()
        passes = {"rewrite": [], "enforce": []}
        straighten, enforce = rewrite._rewrite, rewrite._enforce

        def recorded_rewrite(order, pending, strategy="leftmost", trace=None):
            out = straighten(order, pending, strategy, trace)
            passes["rewrite"].append((pending[0], out[1]))
            return out

        def recorded_enforce(cfg, terms, width):
            out = enforce(cfg, terms, width)
            passes["enforce"].append((width, out[1], max(c[2] for c in out[0].values())))
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
        monkeypatch.setattr(rewrite, "_PACK_WIDTH", 4)
        assert Element.from_monomials(cfg, [(m, 3)]) == expected
        assert all(worst < 8 for width, worst in passes["rewrite"] if width == 4)
        (width, _worst, largest), redo = passes["enforce"]
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
        monkeypatch.setattr(rewrite, "_PACK_WIDTH", 2)
        assert Element.from_monomials(cfg, pairs) == expected
        assert all(worst < 2 for width, worst in passes["rewrite"] if width == 2)
        (width, worst, _largest), redo = passes["enforce"]
        assert (width, worst) == (2, 5) and redo[0] > 2


def reduction_step_appended(cfg, exps):
    """The determinant reduction step with ``D``'s words appended after the
    whole ordered word of ``t0``, as it was first computed: the reference
    for the mid-word insertion of ``_det_inserted``."""
    targets = rewrite._target_positions(cfg.order)
    t0 = tuple(e - (k in targets) for k, e in enumerate(exps))
    t0_word = NormalMonomial(t0).word(cfg.order)
    product = Element.from_words(
        replace(cfg, variant="m"),
        [
            (t0_word + NormalMonomial(e).word(cfg.order), c)
            for e, c in rewrite._det_terms(cfg.order).items()
        ],
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
        targets = rewrite._target_positions(cfg.order)
        width = rewrite._PACK_WIDTH
        rng = random.Random(n * 100 + len(variant) + len(flavor))
        for _ in range(cases):
            exps = tuple(
                rng.randint(1 if k in targets else 0, max_exp + (k in targets))
                for k in range(n * n)
            )
            step, worst = rewrite._reduction_step.__wrapped__(cfg.order, exps, width)
            assert worst < 1 << (width - 1)
            step = [(e, d, rewrite._unpack(v, lo, width)) for e, d, (v, lo, _bound) in step]
            expected = reduction_step_appended(cfg, exps)
            assert {(e, d): c for e, d, c in step} == {(e, d): c for e, d, c in expected}
            assert len(step) == len(expected) > 1

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
        assert step(order, m, width)[0]
        straighten = rewrite._rewrite

        def ascending(order, pending, strategy="leftmost", trace=None):
            totals, worst = straighten(order, pending, strategy, trace)
            totals[larger] = (1, 0, 1)
            return totals, worst

        monkeypatch.setattr(rewrite, "_rewrite", ascending)
        with pytest.raises(ArithmeticError, match="does not descend"):
            step(order, m, width)


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
    """The straightening and determinant-reduction caches are keyed by the
    generator order: every configuration of one order shares ``D`` and every
    reduction step, whatever its variant and ring, and an unequal order
    keeps entries of its own."""

    @staticmethod
    def clear():
        for cache in (rewrite._det_terms, rewrite._det_words, rewrite._reduction_step):
            cache.cache_clear()

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
        self.clear()
        m = NormalMonomial(TestConfigHash.M)
        for cfg in configs:
            # t11 t22 t33 = D - rest, one reduction step.
            assert Element.from_monomials(cfg, [(m, 1)]).terms
        info = rewrite._reduction_step.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, len(configs) - 1, 1)
        assert rewrite._det_terms.cache_info().currsize == 1

    def test_the_heavy_monomial_pays_its_reduction_steps_once_across_variants_and_rings(self):
        # ``TestOperationCounts.test_gl_enforcement``'s 28 misses, paid by
        # the first configuration only.
        self.clear()
        for cfg in [
            make_config(3, "gl"),
            make_config(3, "sl"),
            make_config(3, "gl", ell=3),
            make_config(3, "sl", ell=5),
        ]:
            Element.from_monomials(cfg, [(TestPackWidth.HEAVY, 1)])
        info = rewrite._reduction_step.cache_info()
        assert (info.misses, info.currsize) == (28, 28)

    def test_an_unequal_order_keeps_its_own_determinant(self):
        order = row_major_order(3)
        seq = list(order.seq)
        random.Random(3).shuffle(seq)
        custom = GenOrder(3, tuple(seq))
        assert (custom.n, custom.kind) == (order.n, order.kind) and custom != order
        orders = [order, make_opposite_order(3), custom]
        rewrite._det_terms.cache_clear()
        for other in orders:
            for cfg in (make_config(3, "gl", order=other), make_config(3, "sl", ell=3, order=other)):
                assert rewrite._det_terms(cfg.order) == rewrite._det_terms.__wrapped__(other)
        assert rewrite._det_terms.cache_info().currsize == len(orders)
        assert rewrite._det_terms(custom) != rewrite._det_terms(order)

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
            "qcoord.rewrite._det_terms",
            "qcoord.rewrite._det_words",
            "qcoord.rewrite._target_positions",
        } <= set(found)
        for name, fn in found.items():
            maxsize = fn.cache_parameters()["maxsize"]
            assert isinstance(maxsize, int) and maxsize > 0, name
            for param in inspect.signature(fn).parameters.values():
                assert "AlgebraConfig" not in str(param.annotation), (name, param.name)


class TestRelationTable:
    def test_holds_only_the_pairs_met(self):
        # a fresh order, so no other test has filled its table
        n = 30
        order = GenOrder(n, row_major_order(n).seq)
        cfg = make_config(n, order=order)
        word = ((2, 2), (1, 1), (30, 30), (1, 30), (30, 1))
        trace = []
        normal_form_of_word(cfg, word, trace=trace)
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
        cfg = make_config(n, order=GenOrder(n, row_major_order(n).seq))
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
