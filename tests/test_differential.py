"""Straightening over Z_q, then reducing mod phi_l, equals straightening over
Z_eps(l) directly; the package's public names stay fixed and its caches are
bounded."""

import importlib
import pkgutil
import random

import pytest

import qcoord
from qcoord.coeff import LaurentPoly
from qcoord.rewrite import FLAVORS, VARIANTS, Element, make_config
from qcoord.rootspec import specialize


def _entries(rng, n):
    """One or two random words of length at most 6 with small Laurent
    coefficients."""
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return [
        (
            tuple(rng.choice(gens) for _ in range(rng.randint(0, 6))),
            LaurentPoly({rng.randint(-2, 2): rng.choice((1, -1, 2))}),
        )
        for _ in range(rng.randint(1, 2))
    ]


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n", (2, 3))
def test_specialize_commutes_with_straightening(n, variant, flavor):
    rng = random.Random(f"{n}/{variant}/{flavor}")
    generic = make_config(n, variant, flavor=flavor)
    rooted = {ell: make_config(n, variant, ell=ell, flavor=flavor) for ell in (3, 5)}
    for _ in range(10):
        entries = _entries(rng, n)
        over_zq = Element.from_words(generic, entries)
        for ell, cfg in rooted.items():
            assert specialize(over_zq, ell) == Element.from_words(cfg, entries), (entries, ell)


EXPORTS = [
    "AlgebraConfig", "ClassicalMonomial", "ClassicalPoly", "CycloElem", "CycloRing",
    "CyclotomicModulus", "Element", "FrobeniusContext", "GenOrder", "LaurentPoly",
    "LaurentRing", "ModuleExpansion", "NormalMonomial", "Permutation", "Weight", "Witness",
    "Word", "antidiag_region", "check_central", "check_frobenius_central", "check_identities",
    "check_nakayama", "check_sl_gl_iso", "cyclotomic", "diagonal_reduction", "enumerate_basis",
    "frobenius_image", "make_config", "make_opposite_order", "module_expand", "multiply",
    "nakayama_exponent", "normal_form_of_word", "quantum_determinant",
    "quantum_determinant_reversed", "reduce_mod", "row_major_order", "sl_gl_iso", "specialize",
    "specialize_at_one", "swap_adjacent", "weight",
]


def test_public_names_are_unchanged_and_resolve():
    assert qcoord.__all__ == EXPORTS
    for name in EXPORTS:
        assert getattr(qcoord, name) is not None, name


def test_every_cache_has_a_bound():
    caches = {}
    for info in pkgutil.iter_modules(qcoord.__path__):
        module = importlib.import_module(f"qcoord.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = value.cache_parameters()["maxsize"]
    assert len(caches) >= 7, caches
    assert all(size is not None for size in caches.values()), caches
