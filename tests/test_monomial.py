"""Tests for words, weights and generator orders."""

import random

import pytest

from qcoord.monomial import (
    GenOrder,
    NormalMonomial,
    antidiag_degree,
    antidiag_region,
    canonical_key,
    make_opposite_order,
    row_major_order,
    weight,
)


class TestWeight:
    def test_two_letter_word(self):
        assert weight(((1, 2), (1, 1)), 2) == (2, 1, 1, 0, 0)

    def test_empty_word(self):
        assert weight((), 2) == (0, 0, 0, 0, 0)

    def test_occurrences_counted(self):
        assert weight(((2, 1), (2, 1), (1, 2)), 2) == (3, 0, 1, 2, 0)

    def test_degree_equals_count_sum(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.choice((2, 3))
            word = tuple(
                (rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 6))
            )
            w = weight(word, n)
            assert w[0] == sum(w[1:]) == len(word)

    def test_additive_under_concatenation(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.choice((2, 3))
            u = tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 5)))
            v = tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 5)))
            combined = weight(u + v, n)
            expected = tuple(a + b for a, b in zip(weight(u, n), weight(v, n)))
            assert combined == expected

    def test_out_of_range_letter(self):
        with pytest.raises(ValueError):
            weight(((3, 1),), 2)


class TestOrders:
    def test_row_major(self):
        order = row_major_order(2)
        assert order.seq == ((1, 1), (1, 2), (2, 1), (2, 2))
        assert order.rank_map[(2, 1)] == 2

    def test_row_major_is_built_once(self):
        assert row_major_order(3) is row_major_order(3)

    def test_opposite_n2(self):
        order = make_opposite_order(2)
        assert order.seq[0] == (2, 2)
        assert set(order.seq[1:3]) == {(1, 2), (2, 1)}
        assert order.seq[3] == (1, 1)

    def test_opposite_n1_trivial(self):
        assert make_opposite_order(1).seq == ((1, 1),)

    def test_region_membership_n3(self):
        # region by the sign of i + j - (n + 1)
        assert antidiag_region(3, (2, 3)) == -1
        assert antidiag_region(3, (2, 2)) == 0
        assert antidiag_region(3, (2, 1)) == 1
        for i in range(1, 4):
            for j in range(1, 4):
                expected = -1 if j > 4 - i else (0 if j == 4 - i else 1)
                assert antidiag_region(3, (i, j)) == expected

    def test_block_condition_enforced(self):
        good = make_opposite_order(3)
        regions = [antidiag_region(3, g) for g in good.seq]
        assert regions == sorted(regions)
        for a in (g for g in good.seq if antidiag_region(3, g) == -1):
            for b in (g for g in good.seq if antidiag_region(3, g) == 0):
                for c in (g for g in good.seq if antidiag_region(3, g) == 1):
                    assert good.rank_map[a] < good.rank_map[b] < good.rank_map[c]

    def test_violating_order_rejected(self):
        seq = list(row_major_order(2).seq)  # (1,1) first: upper block is not
        with pytest.raises(ValueError):
            GenOrder(2, tuple(seq), "opposite")

    def test_incomplete_order_rejected(self):
        with pytest.raises(ValueError):
            GenOrder(2, ((1, 1), (1, 2), (2, 1), (1, 1)))


class TestNormalMonomial:
    def test_word_follows_order(self):
        m = NormalMonomial((2, 1, 0, 1))
        assert m.word(row_major_order(2)) == ((1, 1), (1, 1), (1, 2), (2, 2))
        opposite = make_opposite_order(2)
        assert m.word(opposite) == ((2, 2), (1, 2), (1, 1), (1, 1))

    def test_weight_and_degree(self):
        m = NormalMonomial((2, 1, 0, 1))
        assert canonical_key(m) == (4, (2, 1, 0, 1), 0)  # the degree, the exponents, the D power

    def test_diag_and_antidiag(self):
        m = NormalMonomial((2, 1, 0, 1))
        assert min(m.exps[i * 2 + i] for i in range(2)) == 1
        assert m.min_antidiag() == 0
        assert antidiag_degree(2, m.exps) == 1
