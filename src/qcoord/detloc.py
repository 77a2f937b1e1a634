"""Quantum determinant, centrality, determinant-power reduction and the
localization/quotient structure.

The quantum determinant is ``D = sum_s (-q)**len(s) t[1,s(1)] ... t[n,s(n)]``
over the symmetric group, with ``len`` the inversion count.  It is central,
which lets the localized variant carry its powers as a separate key and
lets the special variant substitute ``D = 1``.
"""

from __future__ import annotations

from dataclasses import replace

from .coeff import LaurentPoly
from .monomial import GenOrder, NormalMonomial
from .monomial import Permutation  # noqa: F401  (re-exported)
from .render import monomial_to_str
from .report import CheckReport
from .rewrite import (
    AlgebraConfig,
    Element,
    _certified,
    _decode,
    _det_inserted,
    _det_terms,
    _det_word_pairs,
    _dpower,
    _reduced,
    _reduction_step,
    _target_positions,
    _violates,
    make_config,
    multiply,
    swap_adjacent,
)


def quantum_determinant(cfg: AlgebraConfig) -> Element:
    """``sum_s (-q)**len(s) t[1,s(1)] .. t[n,s(n)]`` in normal form.

    Under the localized (resp. special) variant the normal form collapses
    to the pure determinant key ``D`` (resp. to ``1``).
    """
    det = _det_terms(cfg.order)
    return Element.from_monomials(cfg, [(NormalMonomial(e), c) for e, c in det.items()])


def _times_determinant(e: Element, k: int) -> Element:
    """``e * D**k`` with the ``k >= 0`` determinant factors multiplied out in
    ``e``'s plain algebra, whose keys carry no ``D`` power; ``e`` itself for
    ``k = 0``, with no determinant built.

    Each factor is one straightening of every term's ordered word with
    ``D``'s words inserted mid-word at one split (:func:`_det_inserted`),
    which is exact because ``D`` is central and normal forms are unique.
    """
    cfg = e.config
    for _ in range(k):
        items = [
            (0, key, word, coeff, LaurentPoly({shift: sign}))
            for m, coeff in e.terms.items()
            for key, word, (sign, shift, _bound) in _det_inserted(cfg.order, m.exps)
        ]
        e = Element(cfg, _reduced(cfg, items))
    return e


def quantum_determinant_reversed(cfg: AlgebraConfig) -> Element:
    """The reversed-row expansion ``sum_s (-q)**(-len(s)) t[n,s(n)] .. t[1,s(1)]``.

    The inverse power on ``-q`` is forced: with the factors written by
    decreasing row, that exponent is the one for which the expansion agrees
    with :func:`quantum_determinant`, as the n=2 relations already show.
    The agreement for n <= 3 is part of the acceptance suite.
    """
    entries = [
        (word[::-1], LaurentPoly({-e: c for e, c in coeff.terms.items()}))
        for word, coeff in _det_word_pairs(cfg.n)
    ]
    return Element.from_words(cfg, entries)


def check_central(n: int, ell: int | None = None) -> CheckReport:
    """Verify that every generator commutes with the quantum determinant."""
    cfg = make_config(n, "m", ell=ell)
    det = quantum_determinant(cfg)
    report = CheckReport("central", n, ell)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            t = Element.generator(cfg, i, j)
            residual = multiply(det, t) - multiply(t, det)
            report.add_residual(f"D t[{i},{j}] - t[{i},{j}] D", residual)
    return report


def diagonal_reduction(cfg: AlgebraConfig, m: NormalMonomial) -> Element | None:
    """One determinant-extraction step on a fully-positive monomial.

    For the standard flavor the monomial must have every diagonal exponent
    positive (antidiagonal for the opposite flavor); one full diagonal is
    then traded for a determinant factor, leaving the freed monomial times
    ``D`` plus terms that are strictly smaller in the flavor's reduction
    measure.  Returns ``None`` when the precondition fails.  The result is
    a single step: its terms may admit further reduction.
    """
    if cfg.variant not in ("gl", "sl"):
        raise ValueError("determinant reduction applies to the gl and sl variants")
    if not _violates(m.exps, _target_positions(cfg.order)):
        return None

    def run(width):
        entries, worst = _reduction_step(cfg.order, m.exps, width)
        return {NormalMonomial(e, _dpower(cfg, m.dpower + d)): c for e, d, c in entries}, worst

    return Element(cfg, _decode(cfg.ring, *_certified(run)))


# ---------------------------------------------------------------------------
# Re-keying between the two presentations of localized normal monomials:
# nonpositive determinant powers with min(diagonal + {power}) zero, versus
# arbitrary powers with min(diagonal) zero.
# ---------------------------------------------------------------------------


def is_vee_key(m: NormalMonomial) -> bool:
    return m.min_diag() == 0


def is_wedge_key(m: NormalMonomial) -> bool:
    return m.dpower <= 0 and min(m.min_diag(), -m.dpower) == 0


def to_wedge_key(m: NormalMonomial) -> NormalMonomial:
    """Bijection from arbitrary-power keys to nonpositive-power keys.

    A nonnegative determinant power is absorbed into the diagonal
    exponents; a negative one is kept.  Inverse of :func:`from_wedge_key`.
    """
    if not is_vee_key(m):
        raise ValueError(f"{m} does not satisfy the min-diagonal-zero constraint")
    if m.dpower <= 0:
        return m
    n = m.n
    exps = list(m.exps)
    for i in range(1, n + 1):
        exps[(i - 1) * n + (i - 1)] += m.dpower
    return NormalMonomial(tuple(exps), 0)


def from_wedge_key(m: NormalMonomial) -> NormalMonomial:
    if not is_wedge_key(m):
        raise ValueError(f"{m} is not a nonpositive-power key")
    if m.dpower < 0:
        return m
    shift = m.min_diag()
    if shift == 0:
        return m
    n = m.n
    exps = list(m.exps)
    for i in range(1, n + 1):
        exps[(i - 1) * n + (i - 1)] -= shift
    return NormalMonomial(tuple(exps), shift)


# ---------------------------------------------------------------------------
# The isomorphism between the special variant tensored with Laurent
# polynomials in a central unknown and the localized variant:
# t[i,j] (x) x**z  ->  D**(-1 if i == 1 else 0) t[i,j] D**z.
# ---------------------------------------------------------------------------


def _iso_entry(word, xpow: int, coeff) -> tuple:
    """The ``from_words`` entry of the image of ``word (x) x**xpow``: one
    ``D**-1`` per letter in row 1."""
    return word, coeff, xpow - sum(1 for i, _ in word if i == 1)


def sl_gl_iso(cfg_sl: AlgebraConfig, terms) -> Element:
    """Map an element of the special variant tensored with ``x`` powers.

    ``terms`` is an iterable of ``(monomial, xpow, coeff)``.  Each generator
    goes to ``D**(-1 if row == 1 else 0) t[i,j]``, each ``x`` power to a
    determinant power, extended multiplicatively and linearly.
    """
    if cfg_sl.variant != "sl":
        raise ValueError("domain elements must use the sl variant")
    order = cfg_sl.order
    entries = [_iso_entry(m.word(order), xpow, c) for m, xpow, c in terms]
    return Element.from_words(replace(cfg_sl, variant="gl"), entries)


def check_sl_gl_iso(n: int) -> CheckReport:
    """Verify every defining relation of the domain maps to zero.

    Covers all four commutation families (through the pairwise swap
    expansions), the determinant-equals-one relation, and centrality of the
    image of ``x``.
    """
    det_words = _det_word_pairs(n)  # fails fast above MAX_DET_N
    cfg_sl = make_config(n, "sl")
    cfg_gl = replace(cfg_sl, variant="gl")
    report = CheckReport("iso", n)
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]

    for x in gens:
        for y in gens:
            if x == y:
                continue
            entries = [_iso_entry((x, y), 0, 1)]
            entries += [_iso_entry(word, 0, -coeff) for word, coeff in swap_adjacent(x, y)]
            residual = Element.from_words(cfg_gl, entries)
            report.add_residual(f"t[{x[0]},{x[1]}] t[{y[0]},{y[1]}] relation", residual)

    det_image = Element.from_words(cfg_gl, [_iso_entry(word, 0, c) for word, c in det_words])
    report.add_residual("determinant maps to 1", det_image - Element.one(cfg_gl))

    x_image = sl_gl_iso(cfg_sl, [(NormalMonomial((0,) * (n * n)), 1, 1)])
    for i, j in gens:
        t_image = Element.from_words(cfg_gl, [_iso_entry(((i, j),), 0, 1)])
        report.add_residual(
            f"x central against t[{i},{j}]",
            multiply(x_image, t_image) - multiply(t_image, x_image),
        )
    return report


# ---------------------------------------------------------------------------
# Identity suite: the two determinant expansions and the soundness of the
# determinant-extraction step, cross-checked without the reduction itself.
# ---------------------------------------------------------------------------


def _reduction_targets(order: GenOrder) -> list[NormalMonomial]:
    """One factor at each target of ``order``, and every generator once."""
    targets, size = _target_positions(order), order.n * order.n
    once = tuple([int(k in targets) for k in range(size)])
    return [NormalMonomial(once), NormalMonomial((1,) * size)]


def _expand_determinant_powers(cfg_m: AlgebraConfig, e: Element) -> Element:
    """Replace positive determinant keys by actual determinant products."""
    out = Element.zero(cfg_m)
    for key, coeff in e.terms.items():
        if key.dpower < 0:
            raise ValueError("only nonnegative determinant powers can be expanded")
        out = out + _times_determinant(
            Element.monomial(cfg_m, NormalMonomial(key.exps), coeff), key.dpower
        )
    return out


def check_identities(n: int) -> CheckReport:
    report = CheckReport("identities", n)
    cfg_m = make_config(n, "m")
    det = quantum_determinant(cfg_m)
    rev = quantum_determinant_reversed(cfg_m)
    report.add_residual("reversed expansion equals determinant", det - rev)

    for flavor in ("standard", "opposite"):
        cfg_gl = make_config(n, "gl", flavor=flavor)
        cfg_flat = replace(cfg_gl, variant="m")
        for mon in _reduction_targets(cfg_gl.order):
            step = diagonal_reduction(cfg_gl, mon)
            recombined = _expand_determinant_powers(cfg_flat, step)
            direct = Element.monomial(cfg_flat, mon)
            report.add_residual(
                f"{flavor} reduction of {monomial_to_str(mon, cfg_gl.order)}", recombined - direct
            )

    cfg_sl = make_config(n, "sl")
    for mon in _reduction_targets(cfg_sl.order):
        reduced = Element.monomial(cfg_sl, mon)
        lhs = sl_gl_iso(cfg_sl, [(mon, 0, cfg_sl.ring.one())])
        rhs = sl_gl_iso(cfg_sl, [(k, 0, c) for k, c in reduced.terms.items()])
        report.add_residual(
            f"sl reduction of {monomial_to_str(mon, cfg_sl.order)} respects the iso", lhs - rhs
        )
    return report
