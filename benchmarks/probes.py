"""Fixed layer probes with known operation counts.

These are the single computations whose times and counts the project's
roadmap quotes as baselines.  They run in the traced run only, in their own
child process, each with the determinant caches cleared first.

ROADMAP figures (single runs, Python 3.11, 2 cores):

=============  ==========  =====================================
probe          time        counts
=============  ==========  =====================================
``k8``         96 ms       7,036 swaps, 3,444 q-shifts, 3,256 branches
``k12``        892 ms      47,906 swaps
``top3x3``     518 ms
``top2x7``     220 ms
``gl_enforce`` 28 ms
=============  ==========  =====================================
"""

from __future__ import annotations


def build():
    """Return ``[(name, thunk)]``; each thunk runs one probe computation."""
    from qcoord import Element, NormalMonomial, make_config, multiply, normal_form_of_word

    plain2 = make_config(2)

    def diagonal_product(k):
        # t[2,2]^k t[1,1]^k at n=2 over Z_q: the worst-ordered diagonal word.
        word = ((2, 2),) * k + ((1, 1),) * k
        return lambda: normal_form_of_word(plain2, word)

    def top_square(n, ell):
        cfg = make_config(n, "m", ell=ell)
        top = Element.monomial(cfg, NormalMonomial((ell - 1,) * (n * n)))
        return lambda: multiply(top, top).terms

    gl3 = make_config(3, "gl")
    # t11^3 t12 t22^3 t23 t31 t33^3, row-major exponent table.
    heavy = NormalMonomial((3, 1, 0, 0, 3, 1, 1, 0, 3))

    return [
        ("k8", diagonal_product(8)),
        ("k12", diagonal_product(12)),
        ("top3x3", top_square(3, 3)),
        ("top2x7", top_square(2, 7)),
        ("gl_enforce", lambda: Element.from_monomials(gl3, [(heavy, 1)]).terms),
    ]


# Exact counts reported per probe, besides ``ms`` (median untraced time) and
# ``terms`` (size of the result).
COUNTS = {
    "k8": ("swaps", "qshifts", "branches"),
    "k12": ("swaps", "qshifts", "branches"),
    "top3x3": ("swaps", "qshifts", "branches", "cyclo_mul"),
    "top2x7": ("swaps", "qshifts", "branches", "cyclo_mul"),
    "gl_enforce": ("swaps", "qshifts", "branches", "reduction_steps"),
}


def clear_caches() -> None:
    """Drop the determinant caches so each probe starts as a fresh process
    would.  A cache the engine no longer has is skipped."""
    from qcoord import rewrite

    for name in ("_reduction_step", "_det_terms"):
        cache_clear = getattr(getattr(rewrite, name, None), "cache_clear", None)
        if cache_clear is not None:
            cache_clear()
