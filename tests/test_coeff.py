"""Tests for the exact coefficient rings."""

import random

import pytest

from qcoord.coeff import (
    CycloElem,
    CycloRing,
    LaurentPoly,
    LaurentRing,
    cyclotomic,
    reduce_mod,
    specialize_at_one,
)


def random_laurent(rng, max_terms=4, span=4, bound=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rng.randint(-span, span)] = rng.randint(-bound, bound)
    return LaurentPoly(terms)


def totient(n):
    count = 0
    for k in range(1, n + 1):
        a, b = k, n
        while b:
            a, b = b, a % b
        if a == 1:
            count += 1
    return count


class TestCyclotomic:
    def test_order_one_is_base_case(self):
        assert cyclotomic(1).phi == (-1, 1)  # q - 1

    def test_order_three(self):
        # oracle: (q^3 - 1) / (q - 1)
        from qcoord.coeff import _dense_divmod

        quo, rem = _dense_divmod((-1, 0, 0, 1), (-1, 1))
        assert rem == ()
        assert cyclotomic(3).phi == quo == (1, 1, 1)

    def test_order_nine(self):
        # oracle: (q^9 - 1) / ((q - 1)(q^2 + q + 1))
        from qcoord.coeff import _dense_divmod

        denom = (-1, 0, 0, 1)  # q^3 - 1 = (q - 1)(q^2 + q + 1)
        quo, rem = _dense_divmod((-1,) + (0,) * 8 + (1,), denom)
        assert rem == ()
        assert cyclotomic(9).phi == quo == (1, 0, 0, 1, 0, 0, 1)

    @pytest.mark.parametrize("bad", [0, -3, 2, 6, 10])
    def test_rejects_even_and_nonpositive_orders(self, bad):
        with pytest.raises(ValueError):
            cyclotomic(bad)

    @pytest.mark.parametrize("ell", [1, 3, 5, 7, 9, 11, 13, 15])
    def test_divisor_product(self, ell):
        product = LaurentPoly(1)
        for d in range(1, ell + 1):
            if ell % d == 0:
                product = product * cyclotomic(d).poly()
        assert product == LaurentPoly({ell: 1, 0: -1})

    @pytest.mark.parametrize("ell", [1, 3, 5, 9, 15])
    def test_degree_is_totient(self, ell):
        assert cyclotomic(ell).degree == totient(ell)


class TestReduceMod:
    def test_q_cubed_mod_three(self):
        m = cyclotomic(3)
        assert reduce_mod(LaurentPoly.q_power(3), m) == CycloElem((1,), m)

    def test_negative_exponent_is_inverse_power(self):
        m = cyclotomic(3)
        assert reduce_mod(LaurentPoly.q_power(-1), m) == reduce_mod(LaurentPoly.q_power(2), m)

    def test_q_diff_reduces_per_monomial(self):
        # oracle: reduce each monomial independently and add
        m = cyclotomic(3)
        whole = reduce_mod(LaurentPoly.q_diff(), m)
        split = reduce_mod(LaurentPoly.q_power(1), m) - reduce_mod(LaurentPoly.q_power(-1), m)
        assert whole == split
        assert whole == reduce_mod(LaurentPoly.q_power(1) - LaurentPoly.q_power(2), m)

    def test_power_of_order_is_one(self):
        for ell in (1, 3, 5, 9):
            m = cyclotomic(ell)
            assert reduce_mod(LaurentPoly.q_power(ell), m) == CycloElem((1,), m)

    def test_is_ring_homomorphism(self):
        rng = random.Random(71)
        m = cyclotomic(5)
        for _ in range(60):
            a = random_laurent(rng)
            b = random_laurent(rng)
            assert reduce_mod(a * b, m) == reduce_mod(a, m) * reduce_mod(b, m)
            assert reduce_mod(a + b, m) == reduce_mod(a, m) + reduce_mod(b, m)

    def test_residues_are_canonical(self):
        m = cyclotomic(3)
        for p in (LaurentPoly.q_power(2), LaurentPoly({2: 1, 1: 1, 0: 1})):
            res = reduce_mod(p, m)
            assert all(0 <= e < m.degree for e in res.terms)


def dense_product(a, b, m):
    """The product of two residues the long way: the dense product, then the
    remainder by ``phi_l``."""
    from qcoord.coeff import _dense_divmod

    prod = [0] * (2 * m.degree - 1)
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            prod[e1 + e2] += c1 * c2
    _, rem = _dense_divmod(prod, m.phi)
    return CycloElem(rem, m)


def random_residue(rng, m, bound=6):
    return CycloElem(tuple(rng.randint(-bound, bound) for _ in range(m.degree)), m)


ODD_ORDERS = [1, 3, 5, 7, 9, 11, 13, 15]


class TestResidueTable:
    """Products and reductions read the residues of powers of ``q`` from a
    table kept with the modulus; each is checked here against division."""

    @pytest.mark.parametrize("ell", ODD_ORDERS)
    def test_rows_are_the_remainders_of_powers(self, ell):
        from qcoord.coeff import _dense_divmod

        m = cyclotomic(ell)
        assert len(m.residues) == max(2 * m.degree - 1, ell)
        for e, row in enumerate(m.residues):
            _, rem = _dense_divmod((0,) * e + (1,), m.phi)
            assert row == tuple((k, c) for k, c in enumerate(rem) if c)

    @pytest.mark.parametrize("ell", ODD_ORDERS)
    def test_product_equals_dense_product_and_division(self, ell):
        rng = random.Random(1000 + ell)
        m = cyclotomic(ell)
        for _ in range(40):
            a, b = random_residue(rng, m), random_residue(rng, m)
            assert a * b == dense_product(a, b, m)

    @pytest.mark.parametrize("ell", ODD_ORDERS)
    def test_root_powers_multiply_by_adding_exponents(self, ell):
        ring = CycloRing(ell)
        for a in range(ell):
            for b in range(ell):
                assert ring.q_power(a) * ring.q_power(b) == ring.q_power(a + b)

    @pytest.mark.parametrize("ell", ODD_ORDERS)
    def test_associative_and_distributive(self, ell):
        rng = random.Random(2000 + ell)
        m = cyclotomic(ell)
        for _ in range(5):
            a, b, c = (random_residue(rng, m) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    @pytest.mark.parametrize("ell", ODD_ORDERS)
    def test_reduction_equals_division(self, ell):
        from qcoord.coeff import _dense_divmod

        rng = random.Random(3000 + ell)
        m = cyclotomic(ell)
        for _ in range(20):
            p = random_laurent(rng, span=3 * ell)
            dense = [0] * (4 * ell)
            for e, c in p.terms.items():
                dense[e % ell] += c
            _, rem = _dense_divmod(dense, m.phi)
            assert reduce_mod(p, m) == CycloElem(rem, m)


class TestSpecializeAtOne:
    @pytest.mark.parametrize(
        "poly,value",
        [
            (LaurentPoly.q_diff(), 0),
            (LaurentPoly({2: 1, 1: 1, 0: 1}), 3),
            (LaurentPoly({3: -1}), -1),  # (-q)^3
        ],
    )
    def test_examples(self, poly, value):
        assert specialize_at_one(poly) == value

    def test_commutes_with_arithmetic(self):
        rng = random.Random(17)
        for _ in range(50):
            a = random_laurent(rng)
            b = random_laurent(rng)
            assert specialize_at_one(a + b) == specialize_at_one(a) + specialize_at_one(b)
            assert specialize_at_one(a * b) == specialize_at_one(a) * specialize_at_one(b)


class TestRingAxioms:
    def test_laurent_axioms(self):
        rng = random.Random(5)
        for _ in range(40):
            a, b, c = (random_laurent(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_q_times_q_inverse(self):
        assert LaurentPoly.q_power(1) * LaurentPoly.q_power(-1) == LaurentPoly(1)

    def test_cyclo_axioms(self):
        rng = random.Random(6)
        ring = CycloRing(9)
        elems = [ring.coerce(random_laurent(rng)) for _ in range(12)]
        for a, b, c in zip(elems, elems[1:], elems[2:]):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_mixed_moduli_rejected(self):
        a = CycloRing(3).one()
        b = CycloRing(5).one()
        with pytest.raises(ValueError):
            a + b


class TestUnits:
    def test_laurent_unit_power(self):
        ring = LaurentRing()
        assert ring.unit_power(LaurentPoly({3: -1})) == (-1, 3)
        assert ring.unit_power(LaurentPoly({0: 2})) is None
        assert ring.unit_power(LaurentPoly.q_diff()) is None
        assert ring.invert_unit(LaurentPoly.q_power(2)) == LaurentPoly.q_power(-2)

    def test_cyclo_unit_power(self):
        ring = CycloRing(3)
        eps2 = ring.q_power(2)
        assert ring.unit_power(eps2) == (1, 2)
        assert ring.unit_power(-eps2) == (-1, 2)
        assert ring.unit_power(ring.coerce(2)) is None

    @pytest.mark.parametrize("ell", [1, 3, 9, 15])
    def test_root_powers_are_the_reduced_q_powers(self, ell):
        ring = CycloRing(ell)
        for k in range(-2 * ell, 2 * ell):
            assert ring.q_power(k) == reduce_mod(LaurentPoly.q_power(k), ring.modulus)

    def test_a_root_power_reduces_only_itself(self, monkeypatch):
        from qcoord import coeff

        reduced = []

        def counted(p, m):
            reduced.append(p)
            return reduce_mod(p, m)

        monkeypatch.setattr(coeff, "reduce_mod", counted)
        ring = CycloRing(997)  # prime: phi has degree 996
        assert ring.q_power(5) == CycloElem((0,) * 5 + (1,), ring.modulus)
        assert reduced == []
        assert ring.q_power(996 + 997) == ring.q_power(-1)
        assert reduced == [LaurentPoly.q_power(996)]

    def test_minus_one_is_not_a_root_power(self):
        # for odd order, -1 never equals a power of the root
        ring = CycloRing(5)
        assert ring.unit_power(ring.coerce(-1)) == (-1, 0)
        for k in range(1, 5):
            assert ring.q_power(k) != ring.coerce(-1)


class TestRendering:
    @pytest.mark.parametrize(
        "poly,text",
        [
            (LaurentPoly({-1: 1, 0: 2, 3: -1}), "q^-1 + 2 - q^3"),
            (LaurentPoly(), "0"),
            (LaurentPoly({1: -3}), "-3 q"),
            (LaurentPoly({0: 1}), "1"),
        ],
    )
    def test_laurent_str(self, poly, text):
        assert str(poly) == text

    def test_cyclo_str(self):
        ring = CycloRing(3)
        assert str(ring.q_power(2)) == "-1 - q"
