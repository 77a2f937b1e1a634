"""Tests for the pairing functional, non-degeneracy witnesses and the twist."""

import random
from dataclasses import replace

import pytest

from qcoord import frobext
from qcoord.cli import evaluate, run
from qcoord.frobext import FrobeniusContext, check_nakayama, nakayama_exponent
from qcoord.monomial import (
    NormalMonomial,
    bidegree,
    canonical_key,
    make_opposite_order,
    row_major_order,
)
from qcoord.render import monomial_to_str
from qcoord.report import CheckReport
from qcoord.rewrite import Element, make_config, multiply, times_determinant
from qcoord.rootspec import (
    ClassicalMonomial,
    ClassicalPoly,
    enumerate_basis,
    frobenius_image_poly,
    module_expand,
)


@pytest.fixture(scope="module")
def ctx23():
    return FrobeniusContext(2, 3)


def twist_cases_only(monkeypatch):
    """Make :func:`check_nakayama` run its twist cases alone, with no
    symmetry pairs."""
    monkeypatch.setattr(frobext, "default_symmetry_pairs", lambda n, ell: [])


def classical_unit(ctx, k, dpower=0):
    return ClassicalPoly.monomial(
        ctx.ring, ctx.n, ClassicalMonomial((0,) * (ctx.n * ctx.n), dpower), ctx.ring.q_power(k)
    )


class TestPhi:
    def test_top_maps_to_one(self, ctx23):
        assert ctx23.phi(ctx23.element(ctx23.top)) == ClassicalPoly.one(ctx23.ring, 2)

    def test_unit_maps_to_zero(self, ctx23):
        assert ctx23.phi(Element.one(ctx23.config)).is_zero()

    def test_overflow_exponent_gives_classical_coefficient(self, ctx23):
        m = NormalMonomial((5, 2, 2, 2))  # 5 = 2*l - 1 splits as l + (l-1)
        expected = ClassicalPoly.monomial(ctx23.ring, 2, ClassicalMonomial((1, 0, 0, 0)))
        assert ctx23.phi(ctx23.element(m)) == expected

    def test_classical_linearity(self, ctx23):
        # phi(Fr(c) * e) == c * phi(e)
        rng = random.Random(73)
        for _ in range(15):
            c = ClassicalPoly.monomial(
                ctx23.ring,
                2,
                ClassicalMonomial(tuple(rng.randint(0, 1) for _ in range(4))),
                ctx23.ring.q_power(rng.randint(0, 2)),
            )
            exps = tuple(rng.randint(0, 4) for _ in range(4))
            e = ctx23.element(NormalMonomial(exps))
            lhs = ctx23.phi(multiply(frobenius_image_poly(c, ctx23.config), e))
            rhs = c * ctx23.phi(e)
            assert lhs == rhs

    def test_special_variant_rejected(self):
        with pytest.raises(ValueError):
            FrobeniusContext(2, 3, "sl")

    def test_an_order_of_another_dimension_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="wrong dimension"):
            FrobeniusContext(2, 3, "m", row_major_order(3))

    @staticmethod
    def phi_of_whole_expansion(ctx, e):
        """``phi`` expanding every key of each ``divmod(z, l)`` group and
        reading the top entry; ``phi`` itself expands only the top keys,
        and multiplies out all residues of one ``Dbar`` power at once."""
        groups = {}
        for key, coeff in e.terms.items():
            d_quot, d_res = divmod(key.dpower, ctx.ell)
            groups.setdefault((d_quot, d_res), {})[NormalMonomial(key.exps, d_res)] = coeff
        flat_cfg = replace(ctx.config, variant="m")
        total = ClassicalPoly.zero(ctx.ring, ctx.n)
        for (d_quot, _d_res), terms in groups.items():
            flat = times_determinant(flat_cfg, terms)
            part = module_expand(flat).entries.get(ctx.top)
            if part is not None:
                shifted = {
                    ClassicalMonomial(m.exps, m.dpower + d_quot): c for m, c in part.terms.items()
                }
                total = total + ClassicalPoly(ctx.ring, ctx.n, shifted)
        return total

    @pytest.mark.parametrize(
        "n, variant, flavor",
        [(2, "m", "standard"), (2, "m", "opposite"), (2, "gl", "standard"),
         (2, "gl", "opposite"), (3, "m", "standard")],
    )
    def test_equals_the_whole_expansion_read_at_the_top(self, n, variant, flavor):
        """Seeded elements of two to five terms: keys drawn with exponents
        up to ``2 l``, and keys that ``D**(z mod l)`` lifts to the top, so
        that the top entry is often nonzero and the other keys are many."""
        ell = 3
        order = make_opposite_order(n) if flavor == "opposite" else None
        ctx = FrobeniusContext(n, ell, variant, order)
        rng = random.Random(4242 + 10 * n + len(variant))
        diagonal = {k * (n + 1) for k in range(n)}

        def key():
            z = rng.randint(-2 * ell, 2 * ell) if variant == "gl" else 0
            if rng.random() < 0.5:
                exps = [ell - 1 - (z % ell if k in diagonal else 0) + ell * rng.randint(0, 1)
                        for k in range(n * n)]
            else:
                exps = [rng.randint(0, 2 * ell - 1) for _ in range(n * n)]
            return NormalMonomial(tuple(exps), z)

        nonzero = 0
        for _ in range(25):
            pairs = [(key(), ctx.ring.q_power(rng.randint(0, ell - 1)) * rng.randint(-3, 3))
                     for _ in range(rng.randint(2, 5))]
            e = Element.from_monomials(ctx.config, pairs)
            value = ctx.phi(e)
            assert value == self.phi_of_whole_expansion(ctx, e)
            nonzero += not value.is_zero()
        assert nonzero >= 5


class TestBform:
    def test_top_against_one(self, ctx23):
        one = Element.one(ctx23.config)
        top = ctx23.element(ctx23.top)
        assert ctx23.bform(one, top) == ClassicalPoly.one(ctx23.ring, 2)

    def test_one_against_one(self, ctx23):
        one = Element.one(ctx23.config)
        assert ctx23.bform(one, one).is_zero()

    def test_generator_pairing_is_unit(self, ctx23):
        x = Element.generator(ctx23.config, 1, 1)
        y = ctx23.element(NormalMonomial((1, 2, 2, 2)))
        value = ctx23.bform(x, y)
        ((key, coeff),) = value.terms.items()
        assert key == ClassicalMonomial((0, 0, 0, 0))
        assert ctx23.ring.unit_power(coeff) is not None

    def test_associative_over_central_scalars(self, ctx23):
        # B(Fr(c) x, y) == B(x, Fr(c) y)
        c = ClassicalPoly.monomial(ctx23.ring, 2, ClassicalMonomial((1, 0, 0, 0)))
        z = frobenius_image_poly(c, ctx23.config)
        x = ctx23.element(NormalMonomial((1, 1, 0, 0)))
        y = ctx23.element(NormalMonomial((1, 1, 2, 2)))
        assert ctx23.bform(multiply(x, z), y) == ctx23.bform(x, multiply(z, y))


class TestGradedPairing:
    """``bform`` multiplies only components whose bidegrees sum to the top's."""

    @staticmethod
    def counted_bform(monkeypatch, ctx, x, y):
        """``bform(x, y)`` and the operand pairs it multiplied in its own
        configuration (``phi`` on ``gl`` also multiplies, in the flat one)."""
        calls = []

        def counting(a, b):
            if a.config == ctx.config:
                calls.append((a, b))
            return multiply(a, b)

        monkeypatch.setattr(frobext, "multiply", counting)
        value = ctx.bform(x, y)
        monkeypatch.undo()
        return value, calls

    @pytest.mark.parametrize("variant", ["m", "gl"])
    def test_multiplies_each_compatible_pair_once(self, monkeypatch, variant):
        ctx = FrobeniusContext(2, 3, variant)
        rng = random.Random(929)

        def grade(m):
            return tuple(v % ctx.ell for v in bidegree(m))

        def draw():
            return [
                NormalMonomial(
                    (0, *(rng.randint(0, 2) for _ in range(3))),
                    rng.randint(-1, 2) if variant == "gl" else 0,
                )
                for _ in range(6)
            ]

        top = grade(ctx.top)
        for _ in range(5):
            xs = draw()
            ys = draw() + [ctx.dual_witness(NormalMonomial(xs[0].exps, xs[0].dpower % ctx.ell))]
            x = Element.from_monomials(ctx.config, [(m, 1) for m in xs])
            y = Element.from_monomials(ctx.config, [(m, 1) for m in ys])
            value, calls = self.counted_bform(monkeypatch, ctx, x, y)
            assert value == ctx.phi(multiply(x, y))
            compatible = {
                (gx, gy)
                for gx in map(grade, x.terms)
                for gy in map(grade, y.terms)
                if all((a + b - t) % ctx.ell == 0 for a, b, t in zip(gx, gy, top))
            }
            called = set()
            for a, b in calls:
                ((gx,), (gy,)) = ({grade(k) for k in a.terms}, {grade(k) for k in b.terms})
                called.add((gx, gy))
            assert compatible and len(calls) == len(called) == len(compatible)
            assert called == compatible

    def test_incompatible_pair_is_never_multiplied(self, monkeypatch, ctx23):
        t11 = Element.generator(ctx23.config, 1, 1)
        value, calls = self.counted_bform(monkeypatch, ctx23, t11, t11)
        assert value.is_zero() and calls == []


class TestDualWitness:
    def test_complement_of_unit(self, ctx23):
        assert ctx23.dual_witness(NormalMonomial((0, 0, 0, 0))) == ctx23.top

    def test_complement_of_top(self, ctx23):
        assert ctx23.dual_witness(ctx23.top) == NormalMonomial((0, 0, 0, 0))

    def test_complement_of_generator(self, ctx23):
        m = NormalMonomial((1, 0, 0, 0))
        dual = ctx23.dual_witness(m)
        assert dual == NormalMonomial((1, 2, 2, 2))
        value = ctx23.phi(multiply(ctx23.element(dual), ctx23.element(m)))
        ((key, coeff),) = value.terms.items()
        assert key == ClassicalMonomial((0, 0, 0, 0))
        assert ctx23.ring.unit_power(coeff) is not None

    def test_out_of_range_rejected(self, ctx23):
        with pytest.raises(ValueError):
            ctx23.dual_witness(NormalMonomial((3, 0, 0, 0)))


class TestComplement:
    """:func:`frobext._graded`'s closed form ``(-n - g) mod l`` against two
    paths that do not use it: the grade of the dual witness, and the top's
    grade minus the grade, each read from :func:`bidegree`."""

    @staticmethod
    def grade(m, ell):
        return tuple(v % ell for v in bidegree(m))

    @pytest.mark.parametrize("n, ell, variant", [(2, 3, "m"), (2, 5, "m"), (3, 3, "m"), (2, 3, "gl")])
    def test_complement_is_the_grade_of_the_dual_witness(self, n, ell, variant):
        ctx = FrobeniusContext(n, ell, variant)
        for m in enumerate_basis(n, ell, variant):
            grade, complement = frobext._graded(m, ell)
            assert grade == self.grade(m, ell)
            assert complement == self.grade(ctx.dual_witness(m), ell)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("ell", [1, 3, 5, 9])
    def test_complement_is_the_top_grade_minus_the_grade(self, n, ell):
        top_key = FrobeniusContext(n, ell).top
        top = self.grade(top_key, ell)
        rng = random.Random(n * 100 + ell)
        keys = [top_key, NormalMonomial((0,) * (n * n))]
        for _ in range(50):
            exps = tuple(rng.randrange(2 * ell) for _ in range(n * n))
            keys.append(NormalMonomial(exps, rng.randrange(-ell, ell)))
        for m in keys:
            g = self.grade(m, ell)
            assert frobext._graded(m, ell) == (g, tuple((t - v) % ell for t, v in zip(top, g)))


class TestGradeCache:
    """One cache holds each key's grade and complement."""

    @pytest.mark.parametrize("n, ell, variant", [(2, 3, "m"), (3, 3, "m"), (2, 5, "gl")])
    def test_a_pairing_op_grades_each_key_at_most_once(self, monkeypatch, n, ell, variant):
        """``bform(x, y)``, ``nakayama(y)`` and ``bform(nu(y), x)`` compute
        the bidegree of each distinct key at most once between them."""
        ctx = FrobeniusContext(n, ell, variant)
        rng = random.Random(37 * n + ell)
        seen = []
        monkeypatch.setattr(frobext, "bidegree", lambda m: seen.append(m) or bidegree(m))
        for _ in range(30):
            x, y = (
                Element.from_monomials(ctx.config, [
                    (NormalMonomial(tuple(rng.randrange(ell) for _ in range(n * n))), 1)
                    for _ in range(rng.randint(1, 3))
                ])
                for _ in range(2)
            )
            frobext._graded.cache_clear()
            seen.clear()
            left = ctx.bform(x, y)
            assert left == ctx.bform(ctx.nakayama(y), x)
            assert len(seen) == len(set(seen)) == len(set(x.terms) | set(y.terms))

    def test_the_cache_stays_within_its_bound(self):
        """Pairing more distinct keys than the cache holds leaves it full,
        not larger."""
        ctx = FrobeniusContext(2, 9)
        t11 = Element.generator(ctx.config, 1, 1)
        basis = list(enumerate_basis(2, 9))
        assert len(basis) > frobext._GRADE_CACHE
        frobext._graded.cache_clear()
        nonzero = 0
        for m in basis:
            nonzero += not ctx.bform(ctx.element(m), t11).is_zero()
        assert frobext._graded.cache_info().currsize == frobext._GRADE_CACHE
        # Only the dual witness of t[1,1] reaches the top.
        assert nonzero == 1

    def test_the_nakayama_suite_keeps_a_pairing_key_cached(self):
        """The suite grades its basis listing without the cache, so its
        6,561 basis keys at n=2, l=9, more than the cache holds, evict no
        pairing key.  The key carries a ``D``, so the suite never meets it."""
        key = NormalMonomial((1, 2, 0, 1), 1)
        frobext._graded.cache_clear()
        frobext._graded(key, 9)
        assert check_nakayama(2, 9).passed
        hits = frobext._graded.cache_info().hits
        frobext._graded(key, 9)
        assert frobext._graded.cache_info().hits == hits + 1


class TestNondegeneracy:
    def test_top_element(self, ctx23):
        witness = ctx23.check_nondegenerate(ctx23.element(ctx23.top))
        assert witness.x == NormalMonomial((0, 0, 0, 0))
        assert witness.value == ClassicalPoly.one(ctx23.ring, 2)

    def test_unit_element(self, ctx23):
        witness = ctx23.check_nondegenerate(Element.one(ctx23.config))
        assert witness.x == ctx23.top
        assert witness.unit * witness.coeff == witness.value

    def test_zero_rejected(self, ctx23):
        with pytest.raises(ValueError):
            ctx23.check_nondegenerate(Element.zero(ctx23.config))

    def test_three_term_element_against_exhaustive_search(self, ctx23):
        rng = random.Random(79)
        basis = list(enumerate_basis(2, 3))
        for _ in range(5):
            picks = rng.sample(range(len(basis)), 3)
            a = Element.from_monomials(
                ctx23.config,
                [(basis[p], ctx23.ring.q_power(rng.randint(0, 2))) for p in picks],
            )
            witness = ctx23.check_nondegenerate(a)
            # the selected key is the weight-maximal one among all 81 duals
            expansion = module_expand(a)
            best = max(expansion.entries, key=canonical_key)
            assert witness.key == best
            assert witness.x == ctx23.dual_witness(best)
            # independent recomputation of the unit relation
            value = ctx23.phi(multiply(ctx23.element(witness.x), a))
            assert value == witness.unit * expansion.entries[best]

    def test_gl_witness_may_need_a_negative_unit(self):
        """On ``gl`` the pairing can return minus the leading coefficient
        times a root power, so the search tries both signs."""
        ctx = FrobeniusContext(2, 3, "gl")
        a = evaluate("(-1 - q) t[1,1] t[1,2]^2 t[2,1]^2 + t[1,1] D^2", ctx.config)
        witness = ctx.check_nondegenerate(a)
        assert witness.key == NormalMonomial((1, 2, 2, 0))
        assert str(witness.coeff) == "(-1 - q)"
        assert str(witness.value) == "(1 + q)"
        assert str(witness.unit) == "-1"
        assert witness.value == witness.unit * witness.coeff

    def test_gl_witness_uses_invertible_classical_determinant(self):
        ctx = FrobeniusContext(2, 3, "gl")
        a = Element.from_monomials(ctx.config, [(NormalMonomial((0, 1, 1, 0), 1), 1)])
        witness = ctx.check_nondegenerate(a)
        assert witness.value == witness.unit * witness.coeff


class TestNakayama:
    def test_generator_scalars(self, ctx23):
        # the twist is forced by the relations: straightening the
        # complement monomials yields exactly these powers
        cfg = ctx23.config
        assert ctx23.nakayama(Element.generator(cfg, 1, 1)).terms == {
            NormalMonomial((1, 0, 0, 0)): ctx23.ring.q_power(2)
        }
        assert ctx23.nakayama(Element.generator(cfg, 1, 2)) == Element.generator(cfg, 1, 2)
        assert ctx23.nakayama(Element.generator(cfg, 2, 1)) == Element.generator(cfg, 2, 1)
        assert ctx23.nakayama(Element.generator(cfg, 2, 2)).terms == {
            NormalMonomial((0, 0, 0, 1)): ctx23.ring.q_power(-2 % 3)
        }

    @pytest.mark.parametrize("ell", [1, 3, 5, 9, 15])
    @pytest.mark.parametrize("variant", ["m", "gl"])
    @pytest.mark.parametrize("opposite", [False, True], ids=["rowmajor", "opposite"])
    def test_equals_the_product_by_the_twist_power(self, ell, variant, opposite):
        """Each twisted coefficient is ``c * eps**k`` by the ring product,
        with ``k`` summed from :func:`nakayama_exponent`: on one-term
        coefficients (``q**e`` and scaled ones) and on coefficients of
        several terms.  9 and 15 are not prime, so ``deg phi_l < l - 1`` and
        twists land on the reduced powers of ``eps``."""
        n = 2
        order = make_opposite_order(n) if opposite else row_major_order(n)
        ctx = FrobeniusContext(n, ell, variant, order)
        ring, deg = ctx.ring, ctx.ring.modulus.degree
        rng = random.Random(ell * 4 + 2 * opposite + (variant == "gl"))

        def coefficient(several):
            if not several:
                return ring.q_power(rng.randrange(deg)) * rng.choice([1, 1, -1, 2])
            return sum(rng.randint(-3, 3) * ring.q_power(e) for e in range(deg)) + ring.q_power(1)

        def key():
            exps = tuple(rng.randrange(4) for _ in range(n * n))
            return NormalMonomial(exps, rng.randint(-2, 2) if variant == "gl" else 0)

        kinds = set()
        for _ in range(8):
            terms = [(key(), coefficient(rng.random() < 0.5)) for _ in range(4)]
            e = Element.from_monomials(ctx.config, terms)
            twisted = ctx.nakayama(e)
            assert set(twisted.terms) == set(e.terms)
            for m, c in e.terms.items():
                k = sum(v * nakayama_exponent(n, s // n + 1, s % n + 1) for s, v in enumerate(m.exps))
                assert twisted.terms[m] == c * ring.q_power(k)
                kinds.add(min(len(c.terms), 2))
        assert kinds == ({1, 2} if deg > 1 else {1})

    def test_exponent_formula(self):
        assert nakayama_exponent(2, 1, 1) == 2
        assert nakayama_exponent(2, 1, 2) == 0
        assert nakayama_exponent(2, 2, 2) == -2
        assert nakayama_exponent(3, 1, 1) == 4

    def test_keys_unchanged(self, ctx23):
        rng = random.Random(83)
        for _ in range(10):
            e = ctx23.element(NormalMonomial(tuple(rng.randint(0, 3) for _ in range(4))))
            assert set(ctx23.nakayama(e).terms) == set(e.terms)

    def test_is_algebra_automorphism(self, ctx23):
        rng = random.Random(89)
        for _ in range(25):
            x = ctx23.element(NormalMonomial(tuple(rng.randint(0, 2) for _ in range(4))))
            y = ctx23.element(NormalMonomial(tuple(rng.randint(0, 2) for _ in range(4))))
            assert ctx23.nakayama(multiply(x, y)) == multiply(
                ctx23.nakayama(x), ctx23.nakayama(y)
            )

    def test_invertible(self, ctx23):
        # nu**l is the identity, so nu**(l - 1) inverts nu.
        rng = random.Random(97)
        for _ in range(10):
            e = ctx23.element(NormalMonomial(tuple(rng.randint(0, 2) for _ in range(4))))
            twisted = e
            for _ in range(ctx23.ell):
                twisted = ctx23.nakayama(twisted)
            assert twisted == e

    def test_symmetry_on_sample_pairs(self, ctx23):
        # B(x, y) == B(nu(y), x)
        rng = random.Random(101)
        basis = list(enumerate_basis(2, 3))
        for _ in range(20):
            x = ctx23.element(rng.choice(basis))
            y = ctx23.element(rng.choice(basis))
            assert ctx23.bform(x, y) == ctx23.bform(ctx23.nakayama(y), x)


class TestLeadingCoefficients:
    @pytest.mark.parametrize("ell", [3, 5])
    def test_one_sided_products_are_single_roots(self, ell):
        # with the row-major order, multiplying the complement monomial by a
        # generator on either side hits the top monomial with a single root
        # power; the two powers differ by exactly the twist exponent
        ctx = FrobeniusContext(2, ell)
        cfg = ctx.config
        n = 2
        for i in range(1, 3):
            for j in range(1, 3):
                exps = [ell - 1] * 4
                exps[(i - 1) * 2 + (j - 1)] -= 1
                word = NormalMonomial(tuple(exps)).word(cfg.order)
                right = ctx.phi(Element.from_words(cfg, [(word + ((i, j),), 1)]))
                left = ctx.phi(Element.from_words(cfg, [((((i, j),) + word), 1)]))
                ((_, rc),) = right.terms.items()
                ((_, lc),) = left.terms.items()
                assert rc == ctx.ring.q_power(2 * n - i - j)
                assert lc == ctx.ring.q_power(i + j - 2)
                # left-to-right ratio: eps^(2 (i + j - n - 1))
                assert lc == rc * ctx.ring.q_power(2 * (i + j - n - 1))
                # equivalently the twist identity at this monomial
                assert rc == ctx.ring.q_power(nakayama_exponent(n, i, j)) * lc


class TestZeroOnSmaller:
    def test_dual_kills_strictly_smaller_monomials(self, ctx23):
        basis = sorted(enumerate_basis(2, 3), key=canonical_key)
        sample = [basis[80], basis[54], basis[27]]
        for m in sample:
            dual = ctx23.element(ctx23.dual_witness(m))
            for other in basis:
                if canonical_key(other) < canonical_key(m):
                    assert ctx23.phi(multiply(dual, ctx23.element(other))).is_zero()


class TestNakayamaSuite:
    @pytest.mark.parametrize("n, ell", [(1, 3), (2, 3), (2, 5), (3, 3), (2, 7), (1, 83), (1, 85)])
    def test_symmetry_pairs_are_the_stride_sample_of_the_listed_basis(self, n, ell):
        """The pairs index the grid of pairs of the listed basis, row by row."""
        size = len(list(enumerate_basis(n, ell, "m")))
        total = size * size
        stride = 1 if total <= 7000 else total // frobext._SYMMETRY_SAMPLE
        indices = range(0, total, stride)
        if stride > 1:
            indices = indices[: frobext._SYMMETRY_SAMPLE]
        expected = [(k // size, k % size) for k in indices]
        assert frobext.default_symmetry_pairs(n, ell) == expected

    def test_trivial_dimension(self):
        report = check_nakayama(1, 3)
        assert report.passed

    def test_twist_identity_small(self, monkeypatch):
        twist_cases_only(monkeypatch)
        report = check_nakayama(2, 3)
        assert report.passed
        assert len(report.cases) == 4 * 81

    def test_twist_cases_match_straightened_words(self, monkeypatch):
        """The suite pairs through ``bform``, which skips the products the
        grading proves phi-null; here every twist case is recomputed by
        straightening the concatenated word, so the straightener checks it
        apart from ``multiply`` and the grading."""
        n, ell = 2, 3
        ctx = FrobeniusContext(n, ell)
        cfg = ctx.config
        twist_cases_only(monkeypatch)
        cases = iter(check_nakayama(n, ell).cases)
        nonzero = 0
        for i, j in [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]:
            scalar = ctx.ring.q_power(nakayama_exponent(n, i, j))
            t = Element.generator(cfg, i, j)
            for m in enumerate_basis(n, ell, "m"):
                word = m.word(cfg.order)
                lhs = ctx.phi(Element.from_words(cfg, [(word + ((i, j),), 1)]))
                rhs = ctx.phi(Element.from_words(cfg, [(((i, j),) + word, 1)]))
                assert lhs == ctx.bform(ctx.element(m), t)
                assert rhs == ctx.bform(t, ctx.element(m))
                residual = lhs - rhs * scalar
                case = next(cases)
                assert (case.residual, case.passed) == (str(residual), residual.is_zero())
                nonzero += not lhs.is_zero()
        assert next(cases, None) is None
        assert nonzero > 0


def per_case_nakayama(n, ell, symmetry_pairs):
    """The nakayama report with every case paired through ``bform``: the
    reference for the suite, which pairs only the twist cases that grading
    lets through."""
    ctx = FrobeniusContext(n, ell)
    cfg = ctx.config

    def name(m):
        return monomial_to_str(m, cfg.order) or "1"

    def residual(x, y, nu_y):
        lhs, rhs = ctx.bform(x, y), ctx.bform(nu_y, x)
        return lhs - rhs if lhs or rhs else lhs  # 0 - 0 is 0, and cheaper

    # Paired basis monomial by basis monomial, so that each one's grade is
    # looked up while it is cached, and then recorded generator by generator.
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    twists = [(t, ctx.nakayama(t)) for t in (Element.generator(cfg, i, j) for i, j in gens)]
    rows = [[] for _ in gens]
    for m in enumerate_basis(n, ell, "m"):
        e, m_name = ctx.element(m), name(m)
        for row, (t, nu_t) in zip(rows, twists):
            row.append((m_name, residual(e, t, nu_t)))
    report = CheckReport("nakayama", n, ell)
    for (i, j), row in zip(gens, rows):
        for m_name, value in row:
            report.add_residual(f"t[{i},{j}] twisted past {m_name}", value)
    for x, y in symmetry_pairs:
        ex, ey = ctx.element(x), ctx.element(y)
        report.add_residual(f"B({name(x)}, {name(y)}) symmetry", residual(ex, ey, ctx.nakayama(ey)))
    return report


class TestNakayamaBuckets:
    """``check_nakayama`` records the twist cases whose monomial's grade does
    not complement the generator's as ``0`` without pairing them; its report
    must be the one that pairs every case.  Under the true twist every
    residual is ``0`` either way, so both run under a twist off by one power
    of the root: its residuals are nonzero exactly where a pairing is, and a
    suite that paired the wrong grade would record those cases as ``0``.
    Under the true twist, the golden digests of ``check nakayama --json`` at
    (2,3) and (2,5), and CI's smoke step at (3,3), pin the suite's report."""

    @staticmethod
    def mistwist(monkeypatch):
        monkeypatch.setattr(frobext, "nakayama_exponent", lambda n, i, j: 2 * (n + 1 - i - j) + 1)

    @pytest.mark.parametrize("n, ell", [(2, 3), (2, 5)])
    def test_mistwisted_suite_equals_pairing_every_case(self, monkeypatch, n, ell):
        self.mistwist(monkeypatch)
        basis = list(enumerate_basis(n, ell, "m"))
        pairs = [(basis[a], basis[b]) for a, b in frobext.default_symmetry_pairs(n, ell)]
        bulk = check_nakayama(n, ell).cases
        assert bulk == per_case_nakayama(n, ell, pairs).cases
        assert any(not c.passed for c in bulk)

    def test_mistwisted_family_at_n3_equals_pairing_every_case(self, monkeypatch):
        self.mistwist(monkeypatch)
        twist_cases_only(monkeypatch)
        bulk = check_nakayama(3, 3).cases
        assert len(bulk) == 9 * 3**9
        assert bulk == per_case_nakayama(3, 3, []).cases
        assert any(not c.passed for c in bulk)


class TestLocalizedPairing:
    def test_symmetry_with_determinant_residues(self):
        ctx = FrobeniusContext(2, 3, "gl")
        rng = random.Random(515)
        for _ in range(30):
            x = Element.from_monomials(
                ctx.config,
                [(NormalMonomial(tuple(rng.randint(0, 2) for _ in range(4)), rng.randint(-2, 2)), 1)],
            )
            y = Element.from_monomials(
                ctx.config,
                [(NormalMonomial(tuple(rng.randint(0, 2) for _ in range(4)), rng.randint(-2, 2)), 1)],
            )
            assert ctx.bform(x, y) == ctx.bform(ctx.nakayama(y), x)

    def test_phi_linear_over_inverted_classical_determinant(self):
        ctx = FrobeniusContext(2, 3, "gl")
        rng = random.Random(616)
        d_bar = ClassicalPoly.monomial(ctx.ring, 2, ClassicalMonomial((0, 0, 0, 0), -1))
        z = frobenius_image_poly(d_bar, ctx.config)
        for _ in range(10):
            e = Element.from_monomials(
                ctx.config,
                [(NormalMonomial(tuple(rng.randint(0, 3) for _ in range(4)), rng.randint(-1, 1)), 1)],
            )
            assert ctx.phi(multiply(z, e)) == d_bar * ctx.phi(e)

    @pytest.mark.parametrize(
        "expr", ["t[1,2] t[2,1] t[1,1] t[2,2]", "t[1,1]^2 t[2,2] + q t[1,2] D^-1", "t[2,2] t[1,1] D"]
    )
    def test_opposite_order_pairs_in_the_opposite_flavor(self, capsys, expr):
        """The order's kind is the flavor: the pairing context of an opposite
        order is the opposite-flavor algebra, and its twist keeps normal forms."""
        ctx = FrobeniusContext(2, 3, "gl", make_opposite_order(2))
        cfg = make_config(2, "gl", ell=3, flavor="opposite")
        assert ctx.config == cfg
        ctx.phi(evaluate(expr, cfg))  # accepted, not "outside this pairing context"
        flags = ["--ell", "3", "--variant", "gl", "--order", "opposite"]
        assert run(["nakayama", expr, *flags]) == 0
        twisted = capsys.readouterr().out
        assert run(["nf", twisted.strip(), *flags]) == 0
        assert capsys.readouterr().out == twisted
