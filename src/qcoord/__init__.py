"""Exact symbolic computation in quantized coordinate rings of matrices.

The package provides the quantum matrix algebra and its localized and
special variants over ``Z[q, q^-1]`` and over the cyclotomic quotients
``Z[q]/(phi_l)``, with normal forms on ordered monomials, the quantum
determinant, root-of-unity specialization, the central embedding of the
classical coordinate ring with its free-module expansion, and the
Frobenius pairing together with its Nakayama twist.
"""

from .coeff import (
    CycloElem,
    CycloRing,
    CyclotomicModulus,
    LaurentPoly,
    LaurentRing,
    cyclotomic,
    reduce_mod,
    specialize_at_one,
)
from .detloc import (
    check_central,
    check_identities,
    check_sl_gl_iso,
    diagonal_reduction,
    quantum_determinant,
    quantum_determinant_reversed,
    sl_gl_iso,
)
from .frobext import FrobeniusContext, Witness, check_nakayama, nakayama_exponent
from .monomial import (
    GenOrder,
    NormalMonomial,
    Permutation,
    Weight,
    Word,
    antidiag_region,
    make_opposite_order,
    row_major_order,
    weight,
)
from .rewrite import (
    AlgebraConfig,
    Element,
    make_config,
    multiply,
    normal_form_of_word,
    swap_adjacent,
)
from .rootspec import (
    ClassicalMonomial,
    ClassicalPoly,
    ModuleExpansion,
    check_frobenius_central,
    enumerate_basis,
    frobenius_image,
    module_expand,
    specialize,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraConfig",
    "ClassicalMonomial",
    "ClassicalPoly",
    "CycloElem",
    "CycloRing",
    "CyclotomicModulus",
    "Element",
    "FrobeniusContext",
    "GenOrder",
    "LaurentPoly",
    "LaurentRing",
    "ModuleExpansion",
    "NormalMonomial",
    "Permutation",
    "Weight",
    "Witness",
    "Word",
    "antidiag_region",
    "check_central",
    "check_frobenius_central",
    "check_identities",
    "check_nakayama",
    "check_sl_gl_iso",
    "cyclotomic",
    "diagonal_reduction",
    "enumerate_basis",
    "frobenius_image",
    "make_config",
    "make_opposite_order",
    "module_expand",
    "multiply",
    "nakayama_exponent",
    "normal_form_of_word",
    "quantum_determinant",
    "quantum_determinant_reversed",
    "reduce_mod",
    "row_major_order",
    "sl_gl_iso",
    "specialize",
    "specialize_at_one",
    "swap_adjacent",
    "weight",
]
