"""The Frobenius-extension pairing at a root of unity.

Over the embedded classical coordinate ring, the specialized algebra is a
free module on the residue monomials.  The functional ``phi`` projects onto
the top residue monomial (every exponent equal to ``l - 1``); the pairing
``B(x, y) = phi(x y)`` is then associative and non-degenerate, with an
explicit dual witness for every basis monomial.  Its twist -- the
automorphism ``nu`` with ``B(x, y) = B(nu(y), x)`` -- rescales each
generator by a fixed power of the root of unity.

Bigrading lemma.  Give ``t[i,j]`` the bidegree ``(e_i; e_j)`` in
``Z^n x Z^n`` and ``D`` the bidegree ``(1, ..., 1; 1, ..., 1)``
(:func:`~qcoord.monomial.bidegree`).  Every commutation relation keeps the
rows and the columns of its letters, the nested-corner branch
``t[a,d] t[c,b]`` of ``t[a,b] t[c,d]`` included, and a determinant reduction
trades one factor from each row and each column for one ``D``.  So the
normal form of a product of homogeneous elements is homogeneous, of the sum
of their bidegrees.  ``phi`` reads the top residue key, whose exponents are
all ``l - 1``; it clears a key ``(m, z)`` by ``D**(z mod l)`` first, so the key
reaches the top only when every row sum and every column sum of ``m``, plus
``z``, is ``-n`` mod ``l``.  Hence ``phi(x y) = 0`` whenever
``bidegree(x) + bidegree(y)`` differs from ``bidegree(top)`` mod ``l``, and
:meth:`FrobeniusContext.bform` multiplies only the graded components of
``x`` and ``y`` whose bidegrees sum to that of the top; skipping the others
is exact, not an approximation.  :func:`check_nakayama` applies the same
lemma in bulk: it grades the residue basis once and pairs a generator only
with the monomials whose grade complements its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from operator import mul

from .coeff import CycloElem, CycloRing, _merge
from .monomial import GenOrder, NormalMonomial, bidegree, canonical_key, row_major_order
from .render import monomial_to_str
from .report import CheckReport
from .rewrite import AlgebraConfig, Element, multiply, times_determinant
from .rootspec import (
    ClassicalMonomial,
    ClassicalPoly,
    enumerate_basis,
    module_expand,
)

# Entries in each of the two caches below: grades of recently paired
# monomials, and the complements of recently met grades.  A grade lookup that
# hits costs under a tenth of computing the bidegree.  Hits come from a
# pairing and its mirror B(nu(y), x), which grade the same keys twice each
# (nu keeps keys), and at n=2 from the residue basis (81 keys at l=3, 625 at
# l=5) fitting whole.  Without the grade cache, the pairing benchmark's median
# op took about twice as long; without the complement cache, about 14% longer.
_GRADE_CACHE = 1 << 12

# Pairs in the symmetry check's sample of a grid too large to run whole.
_SYMMETRY_SAMPLE = 500

# Most cases :func:`check_nakayama` records, holding each: the heaviest
# documented run, n=3 l=3, has 177,647.  n=2 l=19 (521,784) took 2.4 s at
# 236 MB, 4.5 s at 607 MB with ``--json`` (Python 3.11, 2 cores).
MAX_NAKAYAMA_CASES = 2**19


def nakayama_exponent(n: int, i: int, j: int) -> int:
    """Exponent of the root of unity in ``nu(t[i,j])``.

    ``nu(t[i,j]) = eps**(2*(n+1-i-j)) * t[i,j]``.  The sign of the exponent
    is pinned by the commutation relations: straightening ``m * t[i,j]``
    against ``t[i,j] * m`` for the top-complement monomials produces
    exactly this ratio of unit coefficients, and only this choice satisfies
    ``B(x, y) = B(nu(y), x)`` (see the nakayama suite).
    """
    return 2 * (n + 1 - i - j)


@lru_cache(maxsize=_GRADE_CACHE)
def _grade(m: NormalMonomial, ell: int) -> tuple[int, ...]:
    """Bidegree of ``m`` mod ``l``."""
    return tuple([v % ell for v in bidegree(m)])


@lru_cache(maxsize=_GRADE_CACHE)
def _complement(grade: tuple[int, ...], ell: int) -> tuple[int, ...]:
    """The grade that sums with ``grade`` to the top's mod ``l``.  Every row
    sum and column sum of the top is ``n*(l - 1)``, which is ``-n`` mod ``l``."""
    n = len(grade) // 2
    return tuple([(-n - g) % ell for g in grade])


@dataclass(frozen=True)
class Witness:
    """Non-degeneracy data: ``phi(x * a) == unit * coeff`` exactly."""

    key: NormalMonomial
    x: NormalMonomial
    unit: ClassicalPoly
    coeff: ClassicalPoly
    value: ClassicalPoly


@dataclass(frozen=True)
class FrobeniusContext:
    """Parameters of the pairing: dimension, odd root order, and variant.
    Its algebra, ``config``, is built and checked at construction."""

    n: int
    ell: int
    variant: str = "m"
    order: GenOrder | None = None

    def __post_init__(self):
        if self.variant not in ("m", "gl"):
            raise ValueError("the pairing is defined for the plain and localized variants")
        ring = CycloRing(self.ell)  # validates odd positive order
        if self.order is None:
            object.__setattr__(self, "order", row_major_order(self.n))
        # Checks the dimension, and the generator order's against it.
        object.__setattr__(self, "config", AlgebraConfig(self.n, self.variant, self.order, ring))

    @property
    def ring(self) -> CycloRing:
        return self.config.ring

    @cached_property
    def top(self) -> NormalMonomial:
        """The distinguished monomial with every exponent ``l - 1``."""
        return NormalMonomial((self.ell - 1,) * (self.n * self.n), 0)

    @cached_property
    def _flat_config(self) -> AlgebraConfig:
        return replace(self.config, variant="m")

    # -- the functional and the pairing --------------------------------------

    def phi(self, e: Element) -> ClassicalPoly:
        """Classical coefficient of the top residue monomial in ``e``.

        By classical linearity over the determinant-free basis of the plain
        variant: a key's determinant power ``z`` splits as ``l*a + r`` with
        ``r`` in ``[0, l)``.  The keys of each ``Dbar`` power ``a``, each
        with ``D**r``, are multiplied out in the plain variant in one call;
        of those, only the keys whose residue is the top (every exponent
        ``l - 1`` mod ``l``) are expanded, and the top entry is scaled by
        ``Dbar**a``.  On the plain variant every key has ``z = 0``, so this
        is the expansion entry at the top key.  (Projecting the raw localized
        expansion instead would vanish identically, since localized normal
        forms always have a zero diagonal entry.)
        """
        if e.config is not self.config and e.config != self.config:
            raise ValueError("element lives outside this pairing context")
        ell = self.ell
        last = ell - 1
        groups: dict[int, dict] = {}
        for key, coeff in e.terms.items():
            d_quot, d_res = divmod(key.dpower, ell)
            groups.setdefault(d_quot, {})[NormalMonomial(key.exps, d_res)] = coeff
        total: dict[ClassicalMonomial, CycloElem] = {}
        for d_quot, terms in groups.items():
            flat = times_determinant(self._flat_config, terms)
            at_top = {
                key: coeff
                for key, coeff in flat.terms.items()
                if all(v % ell == last for v in key.exps)
            }
            part = module_expand(Element(self._flat_config, at_top)).entries.get(self.top)
            if part is not None:
                for cm, coeff in part.terms.items():  # part * Dbar**d_quot
                    _merge(total, ClassicalMonomial(cm.exps, cm.dpower + d_quot), coeff)
        return ClassicalPoly(self.ring, self.n, total)

    @cached_property
    def _zero(self) -> ClassicalPoly:
        """The pairing's zero, shared: a classical polynomial is immutable."""
        return ClassicalPoly.zero(self.ring, self.n)

    def _component(self, e: Element, grade: tuple[int, ...]) -> Element:
        """The terms of ``e`` whose bidegree is ``grade`` mod ``l``; a
        monomial, the only operand of the pairing workload and the nakayama
        suite, is its own component."""
        if len(e.terms) == 1:
            return e
        ell = self.ell
        return Element(
            self.config, {key: c for key, c in e.terms.items() if _grade(key, ell) == grade}
        )

    def bform(self, x: Element, y: Element) -> ClassicalPoly:
        """The pairing ``B(x, y) = phi(x y)``.

        By the bigrading lemma (module docstring) the product of components
        of bidegrees ``a`` and ``b`` has ``phi`` zero unless ``a + b`` is the
        bidegree of the top mod ``l``.  The grades of both operands are read
        first, and only the components of pairs that reach the top are built
        and multiplied; the others contribute exactly zero and never reach
        :func:`multiply`.
        """
        cfg = self.config
        for e in (x, y):
            if e.config is not cfg and e.config != cfg:
                raise ValueError("operands live outside this pairing context")
        ell = self.ell
        right = {_grade(key, ell) for key in y.terms}
        total = self._zero
        for grade in {_grade(key, ell) for key in x.terms}:
            want = _complement(grade, ell)
            if want in right:
                product = multiply(self._component(x, grade), self._component(y, want))
                total = total + self.phi(product)
        return total

    def element(self, m: NormalMonomial) -> Element:
        return Element.monomial(self.config, m)

    # -- witnesses ------------------------------------------------------------

    def dual_witness(self, m: NormalMonomial) -> NormalMonomial:
        """The complementary monomial with exponents ``l - 1 - N[i,j]``."""
        ell = self.ell
        if any(not 0 <= v < ell for v in m.exps) or not 0 <= m.dpower < ell:
            raise ValueError(f"exponents of {m} fall outside [0, {ell})")
        return NormalMonomial(
            tuple(ell - 1 - v for v in m.exps), (-m.dpower) % ell
        )

    def _unit_candidates(self):
        zero_exps = (0,) * (self.n * self.n)
        dpowers = (0, 1) if self.variant == "gl" else (0,)
        for d in dpowers:
            for k in range(self.ell):
                for sign in (1, -1):
                    scalar = self.ring.q_power(k)
                    yield ClassicalPoly.monomial(
                        self.ring, self.n, ClassicalMonomial(zero_exps, d), sign * scalar
                    )

    def check_nondegenerate(self, a: Element) -> Witness:
        """Produce ``x`` with ``phi(x a)`` a unit times a leading coefficient.

        Picks the expansion key of maximal weight (ties broken by the
        determinant residue), pairs with its dual witness, and verifies the
        unit relation exactly.
        """
        if a.is_zero():
            raise ValueError("the zero element has no non-degeneracy witness")
        expansion = module_expand(a)
        key = max(expansion.entries, key=canonical_key)
        coeff = expansion.entries[key]
        x = self.dual_witness(key)
        value = self.bform(self.element(x), a)
        for unit in self._unit_candidates():
            if value == unit * coeff:
                return Witness(key, x, unit, coeff, value)
        raise ArithmeticError(
            f"phi(x a) = {value} is not a unit multiple of the leading coefficient {coeff}"
        )

    # -- the twist -------------------------------------------------------------

    def nakayama(self, e: Element) -> Element:
        """Rescale every monomial by the root-of-unity twist; keys unchanged.
        The twist has order dividing ``l``, so its inverse is its ``l - 1``-th
        power."""
        if e.config is not self.config and e.config != self.config:
            raise ValueError("element lives outside this pairing context")
        weights = self._twist_weights
        q_power = self.ring.q_power
        out = {}
        for key, coeff in e.terms.items():  # a unit times nonzero is nonzero
            out[key] = coeff * q_power(sum(map(mul, key.exps, weights)))
        return Element(self.config, out)

    @cached_property
    def _twist_weights(self) -> tuple[int, ...]:
        """The exponent of ``nu(t[i,j])`` (:func:`nakayama_exponent`) at each
        row-major slot: ``nu`` rescales a monomial by ``eps`` to the power
        ``sum(exps * weights)``."""
        n = self.n
        return tuple([nakayama_exponent(n, k // n + 1, k % n + 1) for k in range(n * n)])


def default_symmetry_pairs(n: int, ell: int):
    """Deterministic pair sample for the pairing-symmetry check.

    The whole grid of pairs of :func:`enumerate_basis` when it has at most
    7,000; otherwise a fixed stride sample of ``_SYMMETRY_SAMPLE`` pairs of
    it.  Each monomial is decoded from its index there without listing the
    basis.
    """
    CycloRing(ell)  # validates odd positive ell
    size = ell ** (n * n)
    total = size * size
    count = total if total <= 7000 else _SYMMETRY_SAMPLE

    def monomial(index: int) -> NormalMonomial:
        # The base-l digits of ``index``, most significant first, are the
        # exponents, as ``enumerate_basis`` lists them.
        exps = [0] * (n * n)
        for slot in reversed(range(n * n)):
            index, exps[slot] = divmod(index, ell)
        return NormalMonomial(tuple(exps))

    return [(monomial(idx // size), monomial(idx % size))
            for idx in range(0, total, total // count)[:count]]


def check_nakayama(n: int, ell: int) -> CheckReport:
    """Verify the Nakayama identity ``B(x, y) == B(nu(y), x)`` exactly.

    Two families of cases, each with residual ``B(x, y) - B(nu(y), x)``:
    the twist cases ``B(m, t) == B(nu(t), m)`` for every generator
    ``t = t[i,j]``, where ``nu(t) = eps**(2*(n+1-i-j)) * t``, and every
    residue basis monomial ``m``; and the symmetry cases on the sample of
    monomial pairs :func:`default_symmetry_pairs`.

    Each basis monomial is named and graded, by bidegree mod ``l``, once.
    By the bigrading lemma (module docstring) both sides of a twist case
    vanish unless the grade of ``m`` complements that of ``t`` (``nu`` keeps
    keys, so ``nu(t)`` has the grade of ``t``); only those cases build the
    element of ``m`` and pair it through :meth:`FrobeniusContext.bform`, and
    every other one is recorded with residual ``0`` without building
    anything.  At n=3, l=3 that pairs 729 of the 177,147 twist cases.  The
    symmetry cases all go through ``bform``.  Labels, order and case count
    are those of pairing every case.
    """
    CycloRing(ell)  # validates odd positive ell before anything is counted or built
    # l > 1 to the cap's bit length already exceeds it: no huge power is formed.
    twists = n * n * ell ** min(n * n, MAX_NAKAYAMA_CASES.bit_length())
    pairs = default_symmetry_pairs(n, ell) if twists <= MAX_NAKAYAMA_CASES else ()
    # A dimension below 1 is left to the context's error.
    if n > 0 and twists + len(pairs) > MAX_NAKAYAMA_CASES:
        cases = f"{n * n}*{ell}^{n * n}" + (f" + {len(pairs)}" if pairs else " twist")
        raise ValueError(f"check nakayama would run {cases} cases, more than {MAX_NAKAYAMA_CASES}")
    ctx = FrobeniusContext(n, ell)
    cfg = ctx.config
    one = ctx.ring.one()
    report = CheckReport("nakayama", n, ell)
    basis = {
        m: (monomial_to_str(m, cfg.order) or "1", _grade(m, ell))
        for m in enumerate_basis(n, ell, "m")
    }

    def case(label: str, x: NormalMonomial, y: NormalMonomial) -> None:
        # Plain residue monomials and generators are normal forms, so their
        # elements are built trusted.
        ex, ey = Element(cfg, {x: one}), Element(cfg, {y: one})
        report.add_residual(label, ctx.bform(ex, ey) - ctx.bform(ctx.nakayama(ey), ex))

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            (t,) = Element.generator(cfg, i, j).terms
            want = _complement(_grade(t, ell), ell)
            for m, (m_name, grade) in basis.items():
                label = f"t[{i},{j}] twisted past {m_name}"
                if grade == want:
                    case(label, m, t)
                else:
                    report.add(label, "0", True)

    for x, y in pairs:
        case(f"B({basis[x][0]}, {basis[y][0]}) symmetry", x, y)
    return report
