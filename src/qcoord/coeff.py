"""Exact coefficient arithmetic for the quantum-matrix engine.

Two ground rings are supported:

* ``Z_q`` -- Laurent polynomials in ``q`` with arbitrary-precision integer
  coefficients, represented sparsely (exponent -> nonzero coefficient).
* ``Z_eps(l)`` -- the quotient ``Z[q] / (phi_l(q))`` for odd ``l >= 1``,
  where ``phi_l`` is the ``l``-th cyclotomic polynomial.  The class ``eps``
  of ``q`` is a primitive ``l``-th root of unity, so ``eps**l == 1``.

Laurent polynomials, algebra elements (``rewrite.Element``) and classical
coefficients (``rootspec.ClassicalPoly``) are all finite sparse
combinations, and so are the ``Z_eps(l)`` residues (:class:`CycloElem`);
:class:`Combination` holds the additive arithmetic of all four once.

A ``Z_eps(l)`` residue is a polynomial in ``q`` of degree below
``deg phi_l``.  Each modulus keeps the residue of every power of ``q`` that
a product of two residues, or a reduced Laurent polynomial, can reach
(:attr:`CyclotomicModulus.residues`, built with the modulus on its first
use), so multiplying and reducing add table rows instead of dividing by
``phi_l``.

Everything here is exact integer arithmetic; there is no floating point.

>>> LaurentPoly.q_power(1) * LaurentPoly.q_power(-1)
LaurentPoly('1')
>>> str(cyclotomic(3).poly())
'1 + q + q^2'
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

# Bound on the per-root-order caches; a process uses a handful of orders.
_ORDER_CACHE = 64
# Bound on the cached powers of the root of unity: every power of a few
# orders up to ``l = 999``.
_POWER_CACHE = 1 << 12


def _merge(bucket: dict, key, coeff) -> None:
    """Add ``coeff`` to ``bucket[key]`` in a sparse combination, dropping
    the key when the sum vanishes and never storing a zero."""
    cur = bucket.get(key)
    if cur is None:
        if coeff:
            bucket[key] = coeff
    else:
        cur = cur + coeff
        if cur:
            bucket[key] = cur
        else:
            del bucket[key]


class Combination:
    """A finite sparse linear combination: ``terms`` maps keys to nonzero
    coefficients, and an empty ``terms`` is zero.

    The additive arithmetic is written once here.  A subclass supplies
    ``space``, which operands of ``+`` and ``==`` must share, and two hooks:
    ``_like(terms)`` wraps already-merged terms as an instance in the same
    space, and ``_scalar(k)`` is the integer ``k`` as an instance.  Instances
    are immutable in practice: every operation returns a fresh object and
    ``terms`` must not be mutated by callers.
    """

    __slots__ = ("terms",)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _operand(self, other):
        """``other`` as an instance in this space: an ``int`` is read as a
        scalar, any other type is a ``TypeError`` and another space a
        ``ValueError``."""
        if isinstance(other, int):
            return self._scalar(other)
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if other.space is not self.space and other.space != self.space:
            raise ValueError(f"{type(self).__name__} operands live in different spaces")
        return other

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self._scalar(other)
        elif type(other) is not type(self):
            return NotImplemented
        space = self.space
        return (other.space is space or other.space == space) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.terms.items())))

    def __add__(self, other):
        if type(other) is not type(self) or (
            other.space is not self.space and other.space != self.space
        ):
            other = self._operand(other)
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            _merge(merged, key, coeff)
        return self._like(merged)

    __radd__ = __add__

    def __neg__(self):
        return self._like({key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return self._operand(other) + (-self)

    def scale(self, c):
        """Multiply every coefficient by the scalar ``c``."""
        return self._like({key: v for key, coeff in self.terms.items() if (v := coeff * c)})


class LaurentPoly(Combination):
    """A Laurent polynomial in ``q`` over the integers.

    ``terms`` maps integer exponents to nonzero integer coefficients; the
    zero polynomial has no terms.
    """

    __slots__ = ()
    space = None

    def __init__(self, terms: dict[int, int] | int = 0):
        if isinstance(terms, int):
            terms = {0: terms} if terms else {}
        else:
            terms = {e: c for e, c in terms.items() if c}
        self.terms = terms

    def _like(self, terms: dict[int, int]) -> LaurentPoly:
        out = LaurentPoly.__new__(LaurentPoly)
        out.terms = terms
        return out

    def _scalar(self, k: int) -> LaurentPoly:
        return LaurentPoly(k)

    @classmethod
    def q_power(cls, k: int) -> LaurentPoly:
        """The monomial ``q**k`` (``k`` may be negative)."""
        return cls({k: 1})

    @classmethod
    def q_diff(cls) -> LaurentPoly:
        """The scalar ``q - q**-1`` appearing in the commutation relations."""
        return cls({1: 1, -1: -1})

    def __mul__(self, other) -> LaurentPoly:
        if type(other) is not LaurentPoly:
            if isinstance(other, int):
                return self.scale(other)
            other = self._operand(other)
        prod: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _merge(prod, e1 + e2, c1 * c2)
        return self._like(prod)

    __rmul__ = __mul__

    def __str__(self) -> str:
        from .render import coeff_pairs, format_qpoly

        return format_qpoly(coeff_pairs(self))

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


def specialize_at_one(p: LaurentPoly) -> int:
    """Evaluate at ``q = 1``: the sum of all coefficients."""
    return sum(p.terms.values())


# ---------------------------------------------------------------------------
# Dense integer polynomials (ascending coefficients), used for the quotient
# ring.  Kept private; degrees here are tiny.
# ---------------------------------------------------------------------------


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def _dense_divmod(num, den) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exact division by a monic divisor; integer arithmetic throughout."""
    if not den or den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    quo = [0] * max(len(rem) - len(den) + 1, 0)
    for i in range(len(rem) - len(den), -1, -1):
        c = rem[i + len(den) - 1]
        if c:
            quo[i] = c
            for j, d in enumerate(den):
                rem[i + j] -= c * d
    return _trim(quo), _trim(rem)


@dataclass(frozen=True)
class CyclotomicModulus:
    """The ``l``-th cyclotomic polynomial ``phi_l`` for odd ``l``.

    ``phi`` holds dense ascending integer coefficients; ``phi_l`` is monic
    of degree ``totient(l)``.  ``residues[e]`` is the canonical residue of
    ``q**e`` as ``(exponent, coefficient)`` pairs, for every ``e`` below
    ``2 deg phi_l - 1`` (the exponents of a product of two residues) and
    below ``l`` (the exponents :func:`reduce_mod` folds into).  Residue
    products and reductions read it instead of dividing by ``phi_l``.
    """

    ell: int
    phi: tuple[int, ...]
    residues: tuple[tuple[tuple[int, int], ...], ...] = field(repr=False, compare=False)

    @property
    def degree(self) -> int:
        return len(self.phi) - 1

    def poly(self) -> LaurentPoly:
        return LaurentPoly({e: c for e, c in enumerate(self.phi)})


def _power_residues(ell: int, phi: tuple[int, ...]) -> tuple:
    """The ``residues`` table of :class:`CyclotomicModulus`.  Below
    ``deg phi_l`` a power is its own residue; each further one is the last
    times ``q``, with ``q**deg`` traded for ``q**deg - phi_l`` (``phi_l`` is
    monic); from ``l`` on they repeat, as ``q**l == 1``."""
    deg = len(phi) - 1
    table = [((e, 1),) for e in range(deg)]
    dense = [0] * (deg - 1) + [1]  # q**(deg - 1)
    for _ in range(deg, ell):
        top = dense[-1]
        dense = [0] + dense[:-1]
        if top:
            dense = [c - top * p for c, p in zip(dense, phi)]
        table.append(tuple([(k, c) for k, c in enumerate(dense) if c]))
    for e in range(ell, 2 * deg - 1):
        table.append(table[e - ell])
    return tuple(table)


@lru_cache(maxsize=_ORDER_CACHE)
def cyclotomic(ell: int) -> CyclotomicModulus:
    """Compute ``phi_l`` by exact division of ``q**l - 1`` by all ``phi_d``
    with ``d`` a proper divisor of ``l``.

    Only odd ``l >= 1`` is accepted: the root-of-unity theory implemented
    here requires odd order.
    """
    if ell < 1 or ell % 2 == 0:
        raise ValueError(f"root order must be an odd positive integer, got {ell}")
    poly: tuple[int, ...] = tuple([-1] + [0] * (ell - 1) + [1])
    for d in range(1, ell):
        if ell % d == 0:
            poly, rem = _dense_divmod(poly, cyclotomic(d).phi)
            if rem:
                raise ArithmeticError("cyclotomic division left a remainder")
    return CyclotomicModulus(ell, poly, _power_residues(ell, poly))


class CycloElem(Combination):
    """An element of ``Z[q] / (phi_l(q))``, stored as the canonical residue:
    ``terms`` maps each exponent below ``deg phi_l`` to a nonzero integer,
    and ``space`` is ``l``.
    """

    __slots__ = ("space",)

    def __init__(self, residue, modulus: CyclotomicModulus):
        if len(residue) > modulus.degree:
            raise ValueError("residue degree must be below the modulus degree")
        self.terms = {e: c for e, c in enumerate(residue) if c}
        self.space = modulus.ell

    def _like(self, terms: dict[int, int]) -> CycloElem:
        out = CycloElem.__new__(CycloElem)
        out.terms = terms
        out.space = self.space
        return out

    def _scalar(self, k: int) -> CycloElem:
        return self._like({0: k} if k else {})

    def __mul__(self, other) -> CycloElem:
        if type(other) is not CycloElem or other.space != self.space:
            if isinstance(other, int):
                return self.scale(other)
            other = self._operand(other)
        m = cyclotomic(self.space)
        residues = m.residues
        prod = [0] * (len(m.phi) - 1)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                c = c1 * c2
                for e, r in residues[e1 + e2]:
                    prod[e] += c * r
        return self._like({e: c for e, c in enumerate(prod) if c})

    __rmul__ = __mul__

    def rotated(self, k: int) -> CycloElem:
        """``self * eps**k`` without a ring product.  As ``eps**l == 1``, each
        term ``c q**e`` becomes ``c eps**((e + k) mod l)``: a one-term
        residue is that power, shared, scaled by ``c``, and a longer one the
        sum of its terms' rows in the residue table.

        >>> ring = CycloRing(9)
        >>> ring.q_power(5).rotated(3) is ring.q_power(8)
        True
        >>> c = ring.one() + ring.q_power(2)
        >>> str(c.rotated(-1)), c.rotated(-1) == c * ring.q_power(-1)
        ('q - q^2 - q^5', True)
        """
        ell = self.space
        if len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            power = _eps_power(ell, (e + k) % ell)
            return power if c == 1 else power.scale(c)
        m = cyclotomic(ell)
        residues = m.residues
        dense = [0] * m.degree
        for e, c in self.terms.items():
            for i, r in residues[(e + k) % ell]:
                dense[i] += c * r
        return self._like({i: c for i, c in enumerate(dense) if c})

    __str__ = LaurentPoly.__str__

    def __repr__(self) -> str:
        return f"CycloElem('{self}' mod phi_{self.space})"


def reduce_mod(p: LaurentPoly, m: CyclotomicModulus) -> CycloElem:
    """Canonical residue of a Laurent polynomial in ``Z[q]/(phi_l)``.

    Negative exponents are cleared through ``eps**-1 == eps**(l-1)`` (each
    exponent is reduced modulo ``l``), after which every power is read from
    the residue table of ``m``.  The map is a ring homomorphism.
    """
    ell, residues = m.ell, m.residues
    dense = [0] * m.degree
    for e, c in p.terms.items():
        for k, r in residues[e % ell]:
            dense[k] += c * r
    return CycloElem(dense, m)


# ---------------------------------------------------------------------------
# Ring adapters: constructors, coercion and unit tests for the two rings.
# The rewriting engine computes in Z_q only; root-of-unity coefficients are
# lifted into it and projected back with ``coerce`` once, which is sound
# because ``reduce_mod`` is a ring homomorphism.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentRing:
    """The ground ring ``Z_q = Z[q, q^-1]``."""

    @property
    def name(self) -> str:
        return "Z_q"

    def zero(self) -> LaurentPoly:
        return LaurentPoly()

    def one(self) -> LaurentPoly:
        return LaurentPoly(1)

    def q_power(self, k: int) -> LaurentPoly:
        return LaurentPoly.q_power(k)

    def coerce(self, value) -> LaurentPoly:
        if isinstance(value, LaurentPoly):
            return value
        if isinstance(value, int):
            return LaurentPoly(value)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def unit_power(self, c: LaurentPoly) -> tuple[int, int] | None:
        """Return ``(sign, k)`` when ``c == sign * q**k``, else ``None``."""
        if len(c.terms) != 1:
            return None
        (e, v), = c.terms.items()
        if v in (1, -1):
            return v, e
        return None

    def invert_unit(self, c: LaurentPoly) -> LaurentPoly:
        up = self.unit_power(c)
        if up is None:
            raise ArithmeticError(f"{c!r} is not a unit of {self.name}")
        sign, e = up
        return LaurentPoly({-e: sign})


@lru_cache(maxsize=_POWER_CACHE)
def _eps_power(ell: int, k: int) -> CycloElem:
    """``eps**k`` for ``0 <= k < l``, reduced on demand: below ``deg phi_l``
    the power ``q**k`` is already its own residue."""
    m = cyclotomic(ell)
    if k < m.degree:
        return CycloElem((0,) * k + (1,), m)
    return reduce_mod(LaurentPoly.q_power(k), m)


@dataclass(frozen=True)
class CycloRing:
    """The specialized ring ``Z_eps(l) = Z[q]/(phi_l)`` for odd ``l``."""

    ell: int

    def __post_init__(self):
        cyclotomic(self.ell)  # validates odd positive ell

    @property
    def name(self) -> str:
        return f"Z_eps({self.ell})"

    @property
    def modulus(self) -> CyclotomicModulus:
        return cyclotomic(self.ell)

    def zero(self) -> CycloElem:
        return CycloElem((), self.modulus)

    def one(self) -> CycloElem:
        return CycloElem((1,), self.modulus)

    def q_power(self, k: int) -> CycloElem:
        return _eps_power(self.ell, k % self.ell)

    def coerce(self, value) -> CycloElem:
        if isinstance(value, CycloElem):
            if value.space != self.ell:
                raise ValueError("mixed cyclotomic moduli")
            return value
        if isinstance(value, int):
            return CycloElem((value,), self.modulus)
        if isinstance(value, LaurentPoly):
            return reduce_mod(value, self.modulus)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def unit_power(self, c: CycloElem) -> tuple[int, int] | None:
        """Return ``(sign, k)`` when ``c == sign * eps**k``, else ``None``."""
        for k in range(self.ell):
            p = self.q_power(k)
            if c == p:
                return 1, k
            if c == -p:
                return -1, k
        return None
