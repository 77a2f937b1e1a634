"""Tests for the quantum determinant, its reductions and the localization."""

import random
from itertools import permutations, product

import pytest

from qcoord.coeff import CycloRing, LaurentPoly
from qcoord.detloc import (
    check_central,
    check_identities,
    check_sl_gl_iso,
    diagonal_reduction,
    quantum_determinant,
    quantum_determinant_reversed,
    sl_gl_iso,
    times_determinant,
)
from qcoord.monomial import NormalMonomial, Permutation
from qcoord.rewrite import AlgebraConfig, Element, make_config, multiply

ONE = LaurentPoly(1)


def min_diag(n: int, exps) -> int:
    """The least diagonal exponent, read at the written-out positions ``i*n + i``."""
    return min(exps[i * n + i] for i in range(n))


class TestPermutation:
    def test_identity_has_length_zero(self):
        assert Permutation((1, 2, 3, 4)).length == 0

    def test_reversal_has_maximal_length(self):
        for n in (1, 2, 3, 4):
            assert Permutation(tuple(range(n, 0, -1))).length == n * (n - 1) // 2

    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))


class TestQuantumDeterminant:
    def test_n1(self):
        cfg = make_config(1)
        assert quantum_determinant(cfg).terms == {NormalMonomial((1,)): ONE}

    def test_n2(self):
        cfg = make_config(2)
        assert quantum_determinant(cfg).terms == {
            NormalMonomial((1, 0, 0, 1)): ONE,
            NormalMonomial((0, 1, 1, 0)): LaurentPoly({1: -1}),
        }

    def test_n3_against_permutation_oracle(self):
        # the permutation words are already ordered row-major, so the normal
        # form is read off from an independent inversion count
        cfg = make_config(3)
        expected = {}
        for images in permutations((1, 2, 3)):
            inv = sum(
                1 for a in range(3) for b in range(a + 1, 3) if images[a] > images[b]
            )
            exps = [0] * 9
            for row, col in enumerate(images, start=1):
                exps[(row - 1) * 3 + (col - 1)] = 1
            expected[NormalMonomial(tuple(exps))] = LaurentPoly({inv: (-1) ** inv})
        assert quantum_determinant(cfg).terms == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reversed_expansion_agrees(self, n):
        cfg = make_config(n)
        assert quantum_determinant_reversed(cfg) == quantum_determinant(cfg)

    def test_reversed_expansion_agrees_opposite_order(self):
        cfg = make_config(2, flavor="opposite")
        assert quantum_determinant_reversed(cfg) == quantum_determinant(cfg)

    def test_collapses_under_localization_and_quotient(self):
        assert quantum_determinant(make_config(2, "gl")).terms == {
            NormalMonomial((0, 0, 0, 0), 1): ONE
        }
        assert quantum_determinant(make_config(2, "sl")) == Element.one(make_config(2, "sl"))


class TestCentrality:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_commutators_vanish(self, n):
        report = check_central(n)
        assert report.passed
        assert len(report.cases) == n * n

    def test_specialized_centrality(self):
        assert check_central(2, ell=3).passed


class TestDiagonalReduction:
    def test_standard_example(self):
        cfg = make_config(2, "gl")
        out = diagonal_reduction(cfg, NormalMonomial((1, 0, 0, 1)))
        assert out.terms == {
            NormalMonomial((0, 0, 0, 0), 1): ONE,
            NormalMonomial((0, 1, 1, 0), 0): LaurentPoly.q_power(1),
        }

    def test_special_variant_substitutes_one(self):
        cfg = make_config(2, "sl")
        out = diagonal_reduction(cfg, NormalMonomial((1, 0, 0, 1)))
        assert out.terms == {
            NormalMonomial((0, 0, 0, 0), 0): ONE,
            NormalMonomial((0, 1, 1, 0), 0): LaurentPoly.q_power(1),
        }

    def test_opposite_example(self):
        # the antidiagonal pair trades for the determinant with unit -q
        cfg = make_config(2, "gl", flavor="opposite")
        out = diagonal_reduction(cfg, NormalMonomial((0, 1, 1, 0)))
        assert out.terms == {
            NormalMonomial((0, 0, 0, 0), 1): LaurentPoly({1: -1}),
            NormalMonomial((1, 0, 0, 1), 0): LaurentPoly.q_power(1),
        }

    def test_noop_signal(self):
        cfg = make_config(2, "gl")
        assert diagonal_reduction(cfg, NormalMonomial((0, 1, 1, 0))) is None

    def test_requires_localized_or_special_variant(self):
        with pytest.raises(ValueError):
            diagonal_reduction(make_config(2), NormalMonomial((1, 0, 0, 1)))

    @pytest.mark.parametrize("flavor", ["standard", "opposite"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_reconstruction_identity(self, n, flavor):
        # oracle: expand the freed determinant powers back into actual
        # determinant products inside the plain algebra
        cfg_gl = make_config(n, "gl", flavor=flavor)
        cfg_m = AlgebraConfig(n, "m", cfg_gl.order, cfg_gl.ring)
        rng = random.Random(37)
        monomials = [NormalMonomial((1,) * (n * n))]
        for _ in range(4):
            exps = [rng.randint(0, 1) for _ in range(n * n)]
            if flavor == "standard":
                for i in range(1, n + 1):
                    exps[(i - 1) * n + (i - 1)] = rng.randint(1, 2)
            else:
                for i in range(1, n + 1):
                    exps[(i - 1) * n + (n - i)] = rng.randint(1, 2)
            monomials.append(NormalMonomial(tuple(exps)))
        for mon in monomials:
            step = diagonal_reduction(cfg_gl, mon)
            recombined = times_determinant(cfg_m, step.terms)
            assert recombined == Element.monomial(cfg_m, mon)

    def test_emitted_terms_descend(self):
        from qcoord.monomial import antidiag_degree

        cfg = make_config(2, "gl", flavor="opposite")
        mon = NormalMonomial((1, 2, 2, 1))
        step = diagonal_reduction(cfg, mon)
        before = antidiag_degree(2, mon.exps)
        for key in step.terms:
            assert antidiag_degree(2, key.exps) < before


class TestCanonicalForms:
    def test_gl_keys_have_zero_diagonal_minimum(self):
        rng = random.Random(41)
        cfg = make_config(2, "gl")
        for _ in range(25):
            exps = tuple(rng.randint(0, 3) for _ in range(4))
            dp = rng.randint(-2, 2)
            e = Element.from_monomials(cfg, [(NormalMonomial(exps, dp), 1)])
            for key in e.terms:
                assert min_diag(2, key.exps) == 0

    def test_sl_keys_have_zero_diagonal_minimum_and_no_dpower(self):
        rng = random.Random(43)
        cfg = make_config(2, "sl")
        for _ in range(25):
            exps = tuple(rng.randint(0, 3) for _ in range(4))
            e = Element.from_monomials(cfg, [(NormalMonomial(exps), 1)])
            for key in e.terms:
                assert min_diag(2, key.exps) == 0
                assert key.dpower == 0

    def test_opposite_keys_have_zero_antidiagonal_minimum(self):
        rng = random.Random(47)
        cfg = make_config(3, "gl", flavor="opposite")
        for _ in range(10):
            exps = tuple(rng.randint(0, 2) for _ in range(9))
            e = Element.from_monomials(cfg, [(NormalMonomial(exps), 1)])
            for key in e.terms:
                assert key.min_antidiag() == 0

    def test_products_stay_reduced(self):
        cfg = make_config(2, "gl")
        t11 = Element.generator(cfg, 1, 1)
        t22 = Element.generator(cfg, 2, 2)
        prod = multiply(t11, t22)
        for key in prod.terms:
            assert min_diag(2, key.exps) == 0
        back = times_determinant(AlgebraConfig(2, "m", cfg.order, cfg.ring), prod.terms)
        assert back == multiply(
            Element.generator(make_config(2), 1, 1), Element.generator(make_config(2), 2, 2)
        )


class TestIso:
    def test_generator_images(self):
        cfg_sl = make_config(2, "sl")
        t22 = sl_gl_iso(cfg_sl, [(NormalMonomial((0, 0, 0, 1)), 0, 1)])
        t11 = sl_gl_iso(cfg_sl, [(NormalMonomial((1, 0, 0, 0)), 0, 1)])
        assert t22 == Element.generator(make_config(2, "gl"), 2, 2)
        assert t11.terms == {
            NormalMonomial((1, 0, 0, 0), -1): ONE
        }

    def test_x_maps_to_determinant(self):
        cfg_sl = make_config(2, "sl")
        image = sl_gl_iso(cfg_sl, [(NormalMonomial((0, 0, 0, 0)), 1, 1)])
        assert image.terms == {NormalMonomial((0, 0, 0, 0), 1): ONE}

    @pytest.mark.parametrize("n", [2, 3])
    def test_defining_relations_map_to_zero(self, n):
        assert check_sl_gl_iso(n).passed

    def test_injective_on_small_monomials(self):
        # pairwise distinct images on reduced monomials of degree <= 3
        cfg_sl = make_config(2, "sl")
        seen = {}
        for exps in product(range(4), repeat=4):
            if sum(exps) > 3 or min(exps[0], exps[3]) != 0:
                continue
            for xpow in (-1, 0, 1):
                image = sl_gl_iso(cfg_sl, [(NormalMonomial(exps), xpow, 1)])
                key = tuple(sorted((m, str(c)) for m, c in image.terms.items()))
                assert key not in seen, (exps, xpow, seen[key])
                seen[key] = (exps, xpow)


class TestIdentitySuite:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_identities_pass(self, n):
        report = check_identities(n)
        assert report.passed, report.failures()


def _random_element(rng, cfg, dp_range, max_exp=2, terms=2):
    pairs = []
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_exp) for _ in range(cfg.n * cfg.n))
        coeff = cfg.ring.q_power(rng.randint(0, 2)) * rng.choice((1, -1, 2))
        pairs.append((NormalMonomial(exps, rng.randint(*dp_range)), coeff))
    return Element.from_monomials(cfg, pairs)


class TestEnforcementStress:
    @pytest.mark.parametrize(
        "variant,flavor,ell,dp_range",
        [
            ("gl", "standard", None, (-1, 1)),
            ("sl", "standard", None, (0, 0)),
            ("gl", "opposite", None, (-1, 1)),
            ("gl", "standard", 3, (-1, 1)),
            ("gl", "opposite", 5, (0, 1)),
        ],
    )
    def test_multiplication_stays_associative(self, variant, flavor, ell, dp_range):
        rng = random.Random(4242)
        cfg = make_config(2, variant, ell=ell, flavor=flavor)
        for _ in range(12):
            x = _random_element(rng, cfg, dp_range)
            y = _random_element(rng, cfg, dp_range)
            z = _random_element(rng, cfg, dp_range)
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))

    @pytest.mark.parametrize(
        "flavor,n,ell,max_exp",
        [
            ("standard", 2, None, 3),
            ("opposite", 2, None, 3),
            ("standard", 3, None, 2),
            ("opposite", 3, None, 2),
            ("standard", 3, 3, 1),
            ("opposite", 3, 3, 1),
        ],
        ids=["standard", "opposite", "standard-n3", "opposite-n3", "standard-n3-ell3",
             "opposite-n3-ell3"],
    )
    def test_enforced_form_equals_determinant_clearing_oracle(self, flavor, n, ell, max_exp):
        # shift both routes by enough determinant powers to stay polynomial,
        # then expand every power into actual determinant products
        rng = random.Random(8888)
        cfg = make_config(n, "gl", ell=ell, flavor=flavor)
        cfg_m = AlgebraConfig(n, "m", cfg.order, cfg.ring)
        for _ in range(25):
            exps = tuple(rng.randint(0, max_exp) for _ in range(n * n))
            dp = rng.randint(-2, 2)
            lift = max(0, -dp)
            enforced = Element.from_monomials(cfg, [(NormalMonomial(exps, dp), 1)])
            shifted = multiply(enforced, Element.d_power(cfg, lift))
            raw = Element(cfg, {NormalMonomial(exps, dp + lift): cfg.ring.one()})
            assert times_determinant(cfg_m, shifted.terms) == times_determinant(cfg_m, raw.terms)

    def test_determinant_inverse_round_trips(self):
        rng = random.Random(1717)
        cfg = make_config(2, "gl")
        d = Element.d_power(cfg, 1)
        d_inv = Element.d_power(cfg, -1)
        for _ in range(10):
            e = _random_element(rng, cfg, (-2, 2))
            assert multiply(multiply(e, d), d_inv) == e

    def test_iso_is_multiplicative(self):
        rng = random.Random(5151)
        cfg_sl = make_config(2, "sl")
        for _ in range(20):
            mx = NormalMonomial(tuple(rng.randint(0, 2) for _ in range(4)))
            my = NormalMonomial(tuple(rng.randint(0, 2) for _ in range(4)))
            zx, zy = rng.randint(-2, 2), rng.randint(-2, 2)
            ix = sl_gl_iso(cfg_sl, [(mx, zx, 1)])
            iy = sl_gl_iso(cfg_sl, [(my, zy, 1)])
            product = Element.from_words(
                cfg_sl, [(mx.word(cfg_sl.order) + my.word(cfg_sl.order), 1)]
            )
            image = sl_gl_iso(cfg_sl, [(k, zx + zy, c) for k, c in product.terms.items()])
            assert image == multiply(ix, iy)
