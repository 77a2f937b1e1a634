"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines.
"""

import random
from dataclasses import dataclass, field
from itertools import product

import pytest

from qcoord import frobext
from qcoord.coeff import specialize_at_one
from qcoord.detloc import (
    check_central,
    check_sl_gl_iso,
    diagonal_reduction,
    quantum_determinant,
    quantum_determinant_reversed,
)
from qcoord.frobext import FrobeniusContext, check_nakayama
from qcoord.monomial import NormalMonomial, antidiag_degree, canonical_key, weight
from qcoord.rewrite import Element, make_config, multiply, normal_form_of_word
from qcoord.rootspec import check_frobenius_central, enumerate_basis, module_expand


def _verdict(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{name}]: {'PASS' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# Criteria 3 and 4 share the word corpus; straighten it once.
# ---------------------------------------------------------------------------


@dataclass
class CorpusReport:
    words: int = 0
    strategy_mismatches: list = field(default_factory=list)
    commutative_failures: list = field(default_factory=list)


@pytest.fixture(scope="module")
def corpus_report():
    report = CorpusReport()
    for n in (1, 2, 3):
        cfg = make_config(n, "m")
        gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for length in range(6):
            for word in product(gens, repeat=length):
                left = normal_form_of_word(cfg, word, "leftmost")
                right = normal_form_of_word(cfg, word, "rightmost")
                report.words += 1
                if left != right:
                    report.strategy_mismatches.append((n, word))
                expected = tuple(weight(word, n)[1:])
                for exps, coeff in left.items():
                    value = specialize_at_one(coeff)
                    if value != (1 if exps == expected else 0):
                        report.commutative_failures.append((n, word, exps))
    return report


def test_criterion_01_determinant_centrality():
    ok = all(check_central(n).passed for n in (1, 2, 3))
    _verdict(1, "centrality of the quantum determinant", ok)
    assert ok


def test_criterion_02_reversed_determinant():
    ok = True
    for n in (1, 2, 3):
        cfg = make_config(n, "m")
        ok = ok and quantum_determinant_reversed(cfg) == quantum_determinant(cfg)
    _verdict(2, "reversed determinant expansion", ok)
    assert ok


def test_criterion_03_pbw_confluence(corpus_report):
    ok = corpus_report.words >= 4**5 + 9**5 and not corpus_report.strategy_mismatches
    _verdict(3, f"reduction-strategy confluence on {corpus_report.words} words", ok)
    assert corpus_report.words == 6 + 1365 + 66430
    assert corpus_report.strategy_mismatches == []


def test_criterion_04_commutative_degeneration(corpus_report):
    ok = not corpus_report.commutative_failures
    _verdict(4, "normal forms match commutative expansion at q=1", ok)
    assert corpus_report.commutative_failures == []


def test_criterion_05_opposite_basis_reduction():
    # every monomial with all antidiagonal exponents positive reduces until
    # the minimal antidiagonal exponent is zero, and each reduction step
    # strictly decreases the antidiagonal degree (the measure the reduction
    # argument descends on; the row-major weight is not monotone here)
    failures = []
    for n in (2, 3):
        cfg = make_config(n, "gl", flavor="opposite")
        anti = [(i - 1) * n + (n - i) for i in range(1, n + 1)]
        others = [k for k in range(n * n) if k not in anti]
        monomials = []
        for anti_exps in product((1, 2), repeat=n):
            for other_exps in product((0, 1), repeat=len(others)):
                exps = [0] * (n * n)
                for pos, v in zip(anti, anti_exps):
                    exps[pos] = v
                for pos, v in zip(others, other_exps):
                    exps[pos] = v
                monomials.append(NormalMonomial(tuple(exps)))
        for start in monomials:
            stack = [start]
            seen = set()
            while stack:
                cur = stack.pop()
                if cur.min_antidiag() == 0 or cur.exps in seen:
                    continue
                seen.add(cur.exps)
                step = diagonal_reduction(cfg, NormalMonomial(cur.exps))
                before = antidiag_degree(n, cur.exps)
                for key in step.terms:
                    if antidiag_degree(n, key.exps) >= before:
                        failures.append((n, start, cur, key))
                    stack.append(NormalMonomial(key.exps))
            reduced = Element.monomial(cfg, start)
            for key in reduced.terms:
                if key.min_antidiag() != 0:
                    failures.append((n, start, "unreduced", key))
    ok = not failures
    _verdict(5, "opposite-antidiagonal reduction descends", ok)
    assert failures == []


def test_criterion_06_frobenius_centrality():
    ok = all(check_frobenius_central(n, ell).passed for n, ell in ((2, 3), (2, 5), (3, 3)))
    _verdict(6, "generator powers are central after specialization", ok)
    assert ok


def test_criterion_07_free_module_rank_and_round_trip():
    basis = list(enumerate_basis(2, 3, "m"))
    ok = len(basis) == 81 == 3 ** 4
    cfg = make_config(2, "m", ell=3)
    rng = random.Random(20070)
    elements = []
    for _ in range(200):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 5) for _ in range(4))
            coeff = cfg.ring.q_power(rng.randint(0, 2)) * rng.choice((1, -1, 2))
            pairs.append((NormalMonomial(exps), coeff))
        elements.append(Element.from_monomials(cfg, pairs))
    signatures = set()
    for e in elements:
        expansion = module_expand(e)
        ok = ok and expansion.recombine() == e
        signatures.add(
            tuple(
                sorted(
                    (k, frozenset(v.terms.items())) for k, v in expansion.entries.items()
                )
            )
        )
    distinct = len({frozenset(e.terms.items()) for e in elements})
    ok = ok and len(signatures) == distinct
    _verdict(7, "rank 81 residue basis with exact unique round trips", ok)
    assert ok


def test_criterion_08_nondegeneracy_witnesses():
    ctx = FrobeniusContext(2, 3)
    basis = list(enumerate_basis(2, 3, "m"))
    elements = {m: ctx.element(m) for m in basis}
    failures = []
    for m in basis:
        dual = ctx.element(ctx.dual_witness(m))
        value = ctx.phi(multiply(dual, elements[m]))
        pairs = list(value.terms.items())
        unit_ok = (
            len(pairs) == 1
            and pairs[0][0].exps == (0, 0, 0, 0)
            and pairs[0][0].dpower == 0
            and ctx.ring.unit_power(pairs[0][1]) is not None
        )
        if not unit_ok:
            failures.append((m, "pairing not a unit", value))
        for other in basis:
            if canonical_key(other) < canonical_key(m):
                if not ctx.phi(multiply(dual, elements[other])).is_zero():
                    failures.append((m, "dual fails to kill", other))
    ok = not failures
    _verdict(8, "dual witnesses pair to units and kill smaller monomials", ok)
    assert failures == []


def test_criterion_09_nakayama_identity(monkeypatch):
    report23 = check_nakayama(2, 3)  # exhaustive 81x81 symmetry grid included
    # the twist cases alone at l = 5
    monkeypatch.setattr(frobext, "default_symmetry_pairs", lambda n, ell: [])
    report25 = check_nakayama(2, 5)
    ok = (
        report23.passed
        and report25.passed
        and len(report23.cases) == 4 * 81 + 81 * 81
        and len(report25.cases) == 4 * 625
    )
    _verdict(9, "twist identity and pairing symmetry", ok)
    assert ok, (report23.failures()[:3], report25.failures()[:3])


def test_criterion_10_special_to_localized_iso():
    ok = all(check_sl_gl_iso(n).passed for n in (2, 3))
    _verdict(10, "tensor-with-Laurent generator map kills all relations", ok)
    assert ok


def test_criterion_11_twist_is_an_automorphism():
    ctx = FrobeniusContext(2, 3)
    rng = random.Random(3307)
    ok = True
    for _ in range(100):
        x = ctx.element(NormalMonomial(tuple(rng.randint(0, 2) for _ in range(4))))
        y = ctx.element(NormalMonomial(tuple(rng.randint(0, 2) for _ in range(4))))
        x = x.scale(ctx.ring.q_power(rng.randint(0, 2)))
        ok = ok and ctx.nakayama(multiply(x, y)) == multiply(ctx.nakayama(x), ctx.nakayama(y))
    _verdict(11, "twist respects products on 100 random pairs", ok)
    assert ok
