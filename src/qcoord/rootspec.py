"""Root-of-unity specialization and the free-module structure over the
embedded classical coordinate ring.

At a primitive ``l``-th root of unity the ``l``-th powers of the generators
are central, and the assignment ``tbar[i,j] -> t[i,j]**l`` embeds the
commutative coordinate ring as central scalars.  Splitting every exponent
``N = l*a + r`` with ``0 <= r < l`` expands an element over the residue
monomials with classical coefficients; the expansion is unique and
recombines exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator, NamedTuple

from .coeff import Combination, CycloElem, CycloRing, _merge
from .monomial import NormalMonomial, canonical_key, row_major_order
from .render import join_terms, monomial_to_str, term_to_str
from .report import CheckReport
from .rewrite import AlgebraConfig, Element, make_config, multiply


# Bounds on ``check frobenius``, which straightens ``t^l h`` and ``h t^l`` for
# all n^4 pairs of generators: at most ``MAX_FROBENIUS_PAIRS`` pairs, and n^4
# times l^2 at most ``MAX_FROBENIUS_WORK``.  The heaviest run admitted,
# ``--n 2 --ell 723``, took 10.2 s; ``--n 16 --ell 11`` 8.7 s at 46 MB.
# Refused: ``--n 20 --ell 3`` took 13.0 s at 88 MB, ``--n 2 --ell 999``
# 27 s, ``--n 30 --ell 3`` over 90 s (whole processes, Python 3.11, 2 cores).
MAX_FROBENIUS_PAIRS = 2**16
MAX_FROBENIUS_WORK = 2**23


class ClassicalMonomial(NamedTuple):
    """A commutative monomial ``prod tbar[i,j]**exps[i,j] * Dbar**dpower``."""

    exps: tuple[int, ...]
    dpower: int = 0


class ClassicalPoly(Combination):
    """A finite combination of classical monomials with cyclotomic scalars.

    Operands must share the ring and the dimension ``n``.
    """

    __slots__ = ("ring", "n")

    def __init__(self, ring: CycloRing, n: int, terms: dict):
        self.ring = ring
        self.n = n
        self.terms: dict[ClassicalMonomial, CycloElem] = (
            {m: c for m, c in terms.items() if c} if terms else {}
        )

    @classmethod
    def zero(cls, ring: CycloRing, n: int) -> ClassicalPoly:
        return cls(ring, n, {})

    @classmethod
    def monomial(cls, ring: CycloRing, n: int, m: ClassicalMonomial, coeff=1) -> ClassicalPoly:
        return cls(ring, n, {m: ring.coerce(coeff)})

    @classmethod
    def one(cls, ring: CycloRing, n: int) -> ClassicalPoly:
        return cls.monomial(ring, n, ClassicalMonomial((0,) * (n * n), 0))

    @property
    def space(self) -> tuple[CycloRing, int]:
        return (self.ring, self.n)

    def _like(self, terms: dict) -> ClassicalPoly:
        return ClassicalPoly(self.ring, self.n, terms)

    def _scalar(self, k: int) -> ClassicalPoly:
        return ClassicalPoly.one(self.ring, self.n) * k

    def __mul__(self, other) -> ClassicalPoly:
        if isinstance(other, (int, CycloElem)):
            return self.scale(self.ring.coerce(other))
        other = self._operand(other)
        out: dict[ClassicalMonomial, CycloElem] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = ClassicalMonomial(
                    tuple(a + b for a, b in zip(m1.exps, m2.exps)), m1.dpower + m2.dpower
                )
                _merge(out, key, c1 * c2)
        return self._like(out)

    __rmul__ = __mul__

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: canonical_key(kv[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        order = row_major_order(self.n)
        return join_terms(
            term_to_str(coeff, monomial_to_str(m, order, symbol="tbar", dsymbol="Dbar"))
            for m, coeff in self.sorted_terms()
        )

    def __repr__(self) -> str:
        return f"<ClassicalPoly {self}>"


def specialize(e: Element, ell: int) -> Element:
    """Base-change an element with Laurent coefficients to the root ring."""
    cfg = e.config
    if isinstance(cfg.ring, CycloRing):
        raise ValueError("element is already specialized")
    ring = CycloRing(ell)
    terms = {key: c for key, coeff in e.terms.items() if (c := ring.coerce(coeff))}
    return Element(replace(cfg, ring=ring), terms)


def _require_cyclo(cfg: AlgebraConfig) -> CycloRing:
    if not isinstance(cfg.ring, CycloRing):
        raise ValueError("this operation needs a root-of-unity configuration")
    return cfg.ring


def _require_module_variant(variant: str) -> None:
    if variant not in ("m", "gl"):
        raise ValueError(
            "the free-module expansion covers the plain and localized variants only"
        )


def frobenius_image(c: ClassicalMonomial, cfg: AlgebraConfig) -> Element:
    """Embed a classical monomial: ``tbar**a -> t**(l*a)``, ``Dbar**z -> D**(l*z)``."""
    return frobenius_image_poly(ClassicalPoly.monomial(cfg.ring, cfg.n, c), cfg)


def frobenius_image_poly(p: ClassicalPoly, cfg: AlgebraConfig) -> Element:
    """Embed a classical polynomial, each monomial as :func:`frobenius_image` does."""
    ring = _require_cyclo(cfg)
    _require_module_variant(cfg.variant)
    ell = ring.ell
    if cfg.variant != "gl" and any(m.dpower for m in p.terms):
        raise ValueError("classical determinant powers need the localized variant")
    pairs = [
        (NormalMonomial(tuple(ell * a for a in m.exps), ell * m.dpower), coeff)
        for m, coeff in p.terms.items()
    ]
    return Element.from_monomials(cfg, pairs)


def check_frobenius_central(n: int, ell: int) -> CheckReport:
    """``t[i,j]**l`` commutes with every generator after specialization."""
    CycloRing(ell)  # validates odd positive ell before the size is checked
    # Refused before any algebra is built; a dimension below 1 is make_config's error.
    pairs = n**4 if n > 0 else 0
    if pairs > MAX_FROBENIUS_PAIRS:
        raise ValueError(
            f"check frobenius at n={n} would straighten {pairs} pairs, "
            f"more than {MAX_FROBENIUS_PAIRS}"
        )
    if pairs * ell * ell > MAX_FROBENIUS_WORK:
        raise ValueError(
            f"check frobenius at n={n}, l={ell} would cost n^4*l^2 = {pairs * ell * ell}, "
            f"more than {MAX_FROBENIUS_WORK}"
        )
    cfg = make_config(n, "m", ell=ell)
    report = CheckReport("frobenius", n, ell)
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]

    for g in gens:
        power = (g,) * ell
        for h in gens:
            residual = Element.from_words(cfg, [(power + (h,), 1), ((h,) + power, -1)])
            report.add_residual(f"t[{g[0]},{g[1]}]^{ell} against t[{h[0]},{h[1]}]", residual)
    return report


@dataclass
class ModuleExpansion:
    """Expansion over residue monomials with classical coefficients.

    ``entries`` maps residue keys (all exponents in ``[0, l)``, determinant
    residue in ``[0, l)`` for the localized variant) to classical
    coefficients.  ``recombine`` reproduces the expanded element exactly.
    """

    config: AlgebraConfig
    entries: dict[NormalMonomial, ClassicalPoly]

    def sorted_entries(self) -> list:
        return sorted(self.entries.items(), key=lambda kv: canonical_key(kv[0]), reverse=True)

    def recombine(self) -> Element:
        cfg = self.config
        out = Element.zero(cfg)
        for key, cpoly in self.entries.items():
            out = out + multiply(frobenius_image_poly(cpoly, cfg), Element.monomial(cfg, key))
        return out


def module_expand(e: Element) -> ModuleExpansion:
    """Split every exponent by Euclidean division by ``l``.

    The quotient parts form a classical monomial acting as a scalar, the
    remainders form the residue key; the determinant power of the localized
    variant splits the same way.  Distinct reduced elements have distinct
    expansions because the split is injective.
    """
    cfg = e.config
    ring = _require_cyclo(cfg)
    _require_module_variant(cfg.variant)
    ell = ring.ell
    n = cfg.n
    parts: dict[NormalMonomial, dict] = {}
    for key, coeff in e.terms.items():
        d_quot, d_res = divmod(key.dpower, ell)
        rkey = NormalMonomial(tuple(v % ell for v in key.exps), d_res)
        quotient = ClassicalMonomial(tuple(v // ell for v in key.exps), d_quot)
        parts.setdefault(rkey, {})[quotient] = coeff
    entries = {rkey: ClassicalPoly(ring, n, terms) for rkey, terms in parts.items()}
    return ModuleExpansion(cfg, entries)


def enumerate_basis(n: int, ell: int, variant: str = "m") -> Iterator[NormalMonomial]:
    """Stream the residue monomials: ``l**(n*n)`` of them, every exponent in
    ``[0, l)``; the localized variant appends a determinant residue in the
    same range."""
    CycloRing(ell)  # validates odd positive ell
    _require_module_variant(variant)
    d_residues = range(ell) if variant == "gl" else (0,)
    for exps in product(range(ell), repeat=n * n):
        for d in d_residues:
            yield NormalMonomial(exps, d)
