"""Deterministic text rendering for coefficients, monomials and elements.

The grammar emitted here round-trips through the expression parser: factors
are space-separated, exponents use ``^``, and multi-term coefficients are
parenthesized.
"""

from __future__ import annotations

from .monomial import GenOrder, NormalMonomial


def coeff_pairs(c) -> list[tuple[int, int]]:
    """(exponent, integer) pairs of a coefficient, ascending by exponent."""
    return sorted(c.terms.items())


def monomial_to_str(
    m: NormalMonomial, order: GenOrder, symbol: str = "t", dsymbol: str = "D"
) -> str:
    """``t[1,1]^2 t[1,2] D^-1`` style; factors follow the active order."""
    n = order.n
    parts = []
    for i, j in order.seq:
        e = m.exps[(i - 1) * n + (j - 1)]
        if e == 1:
            parts.append(f"{symbol}[{i},{j}]")
        elif e:
            parts.append(f"{symbol}[{i},{j}]^{e}")
    if m.dpower == 1:
        parts.append(dsymbol)
    elif m.dpower:
        parts.append(f"{dsymbol}^{m.dpower}")
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
    return join_terms((1 if c > 0 else -1, _scaled_q_power(e, abs(c))) for e, c in pairs)


def term_to_str(coeff, mon: str) -> tuple[int, str]:
    """Render one term as ``(sign, body)`` with ``sign`` +1 or -1."""
    pairs = coeff_pairs(coeff)
    if len(pairs) == 1:
        (e, v), = pairs
        mag = abs(v)
        cpart = "" if (e == 0 and mag == 1 and mon) else _scaled_q_power(e, mag)
        return (1 if v > 0 else -1), " ".join(p for p in (cpart, mon) if p)
    body = f"({format_qpoly(pairs)})"
    return 1, f"{body} {mon}".strip()


def element_to_str(e) -> str:
    order = e.config.order
    return join_terms(
        term_to_str(coeff, monomial_to_str(m, order)) for m, coeff in e.sorted_terms()
    )
