"""Deterministic text rendering for coefficients, monomials and elements.

The grammar emitted here round-trips through the expression parser: factors
are space-separated, exponents use ``^``, and multi-term coefficients are
parenthesized.

Factors follow the active generator order.  Each order keeps the printed
name of every generator, with its row-major slot, in its ``names`` field
(one table per generator symbol, built on first use), so a monomial is
rendered by one pass over that table.
"""

from __future__ import annotations

from .monomial import GenOrder, NormalMonomial


def coeff_pairs(c) -> list[tuple[int, int]]:
    """(exponent, integer) pairs of a coefficient, ascending by exponent."""
    return sorted(c.terms.items())


def _name_table(order: GenOrder, symbol: str) -> tuple[tuple[int, str], ...]:
    """``(slot, "t[i,j]")`` for every generator of ``order``, in rank order,
    kept in ``order.names`` under ``symbol``."""
    table = order.names.get(symbol)
    if table is None:
        n = order.n
        table = order.names[symbol] = tuple(
            [((i - 1) * n + (j - 1), f"{symbol}[{i},{j}]") for i, j in order.seq]
        )
    return table


def monomial_to_str(
    m: NormalMonomial, order: GenOrder, symbol: str = "t", dsymbol: str = "D"
) -> str:
    """``t[1,1]^2 t[1,2] D^-1`` style; factors follow the active order."""
    exps = m.exps
    parts = [
        name if e == 1 else f"{name}^{e}"
        for slot, name in _name_table(order, symbol)
        if (e := exps[slot])
    ]
    dpower = m.dpower
    if dpower:
        parts.append(dsymbol if dpower == 1 else f"{dsymbol}^{dpower}")
    return " ".join(parts)


def join_terms(parts) -> str:
    """Join ``(sign, body)`` pairs as ``a + b - c``; ``0`` when there are none."""
    chunks: list[str] = []
    for sign, body in parts:
        if chunks:
            chunks.append(f"+ {body}" if sign > 0 else f"- {body}")
        else:
            chunks.append(body if sign > 0 else f"-{body}")
    return " ".join(chunks) or "0"


def _scaled_q_power(e: int, mag: int) -> str:
    """``mag * q**e`` with ``mag`` positive, e.g. ``3``, ``q``, ``2 q^-1``."""
    if e == 0:
        return str(mag)
    var = "q" if e == 1 else f"q^{e}"
    return var if mag == 1 else f"{mag} {var}"


def format_qpoly(pairs) -> str:
    """Render ``[(exponent, coeff), ...]`` as e.g. ``q^-1 + 2 - q^3``."""
    return join_terms([(1 if c > 0 else -1, _scaled_q_power(e, abs(c))) for e, c in pairs])


def term_to_str(coeff, mon: str) -> tuple[int, str]:
    """Render one term as ``(sign, body)`` with ``sign`` +1 or -1."""
    terms = coeff.terms
    if len(terms) == 1:
        ((e, v),) = terms.items()
        sign, mag = (1, v) if v > 0 else (-1, -v)
        if not mon:
            return sign, _scaled_q_power(e, mag)
        if e == 0 and mag == 1:
            return sign, mon
        return sign, f"{_scaled_q_power(e, mag)} {mon}"
    body = f"({format_qpoly(coeff_pairs(coeff))})"
    return 1, f"{body} {mon}" if mon else body


def element_to_str(e) -> str:
    order = e.config.order
    return join_terms([term_to_str(c, monomial_to_str(m, order)) for m, c in e.sorted_terms()])
