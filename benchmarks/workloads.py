"""Seeded workloads: input generation, the timed op, and its exact checks.

Every workload draws its inputs from ``random.Random(seed)`` in blocks whose
composition is fixed and whose order and contents the seed shuffles.  Fixing
the composition of each block (configuration shares, lengths or degrees, cost
ranks) keeps the cost mix the same from seed to seed, so run-to-run spread
reflects the program rather than the draw.  NOTES.md gives the source of each
share.

Each workload provides:

* ``setup()``: imports and configuration objects (counted in ``setup_s``);
* ``generate(rng, count)``: ``count`` op inputs (outside the timed region);
* ``op(item)``: the timed call into the public API, rendering included;
* ``check(item, out)``: exact verification against an independent path, run
  outside the timed region;
* ``text(item, out)``: the rendered output, hashed into the run's digest.

and the constants ``cycle_ops`` (ops after which the composition repeats
exactly; runs are drawn in whole cycles), ``nominal_ops_per_s`` (the seed
code's throughput on a 2-core machine, which turns ``--seconds`` into an op
count) and ``trace_ops`` (the traced run's fixed op count).
"""

from __future__ import annotations

import math
import random


class _Strata:
    """Cycle through a fixed list of values, reshuffled by the seed each round."""

    def __init__(self, values):
        self.values = list(values)
        self.queue: list = []

    def draw(self, rng: random.Random):
        if not self.queue:
            self.queue = self.values[:]
            rng.shuffle(self.queue)
        return self.queue.pop()


class Pairing:
    """``B(x, y)`` and ``B(nu(y), x)`` over ``Z_eps(l)``, both rendered."""

    name = "pairing"
    # (n, ell, variant) and its ops per block of 16.  The plain shares follow
    # the symmetry cases of ``check_nakayama`` at its default pair samples:
    # 6,561 at (2,3), 500 at (2,5), 500 at (3,3), about 13:1:1.  No suite
    # pairs on gl; one op per block keeps unit inversion in every run.
    MIX = (((2, 3, "m"), 13), ((2, 5, "m"), 1), ((3, 3, "m"), 1), ((2, 3, "gl"), 1))
    # Strata of the cost proxy as quantile ranges (see ``generate``): 12 of
    # probability 1/16 below the upper quartile, 16 of 1/64 above it, where
    # the costly pairs that set the tail are.  Each appears in a cycle of 64
    # ops of a context as often as its probability says.  STRATA_SAMPLE fixes
    # the boundaries.
    QUANTILES = [k / 16 for k in range(12)] + [0.75 + k / 64 for k in range(17)]
    STRATA_SAMPLE = 4096
    # 64 blocks: every context then runs whole cycles of 64 strata.
    cycle_ops = 64 * sum(dict(MIX).values())
    trace_ops = 500
    nominal_ops_per_s = 550

    def setup(self) -> None:
        import qcoord
        from qcoord import FrobeniusContext, NormalMonomial

        self.qcoord = qcoord
        self.NormalMonomial = NormalMonomial
        self.contexts = {}
        self.nested = {}
        self.schedule = {}
        self.bounds = {}
        for key, _share in self.MIX:
            n, ell, variant = key
            ctx = FrobeniusContext(n, ell, variant)
            ctx.config  # noqa: B018  (builds the cached configuration)
            self.contexts[key] = ctx
            gens = [(i, j) for i in range(n) for j in range(n)]
            self.nested[key] = [
                (a, b)
                for a, (ra, ca) in enumerate(gens)
                for b, (rb, cb) in enumerate(gens)
                if (ra - rb) * (ca - cb) > 0
            ]
            self.schedule[key] = _Strata(
                k
                for k, (lo, hi) in enumerate(zip(self.QUANTILES, self.QUANTILES[1:]))
                for _ in range(round((hi - lo) * 64))
            )
        self.block = [key for key, share in self.MIX for _ in range(share)]

    @staticmethod
    def _exponents(rng, key):
        """Exponents and D power of a uniform residue monomial; on gl one
        diagonal exponent is 0, so it is already a normal form."""
        n, ell, variant = key
        exps = rng.choices(range(ell), k=n * n)
        dpower = 0
        if variant == "gl":
            i = rng.randrange(n)
            exps[i * n + i] = 0
            dpower = rng.randrange(ell)
        return exps, dpower

    def _candidate(self, rng, key):
        """A uniform pair, as exponents and D powers, with its cost proxy: the
        letter pairs of x and y at nested corners, each of which branches when
        ``x y`` or ``y x`` is straightened (correlation about 0.9 with log op
        time at n=3), and a uniform tie-break so that strata are never empty."""
        x = self._exponents(rng, key)
        y = self._exponents(rng, key)
        proxy = sum(x[0][a] * y[0][b] for a, b in self.nested[key])
        return (proxy, rng.random()), x, y

    def _bounds(self, key) -> list:
        """Strata boundaries of the proxy, from a sample with a fixed seed, so
        that every run seed shares them.  Built on first use, after set-up."""
        if key not in self.bounds:
            rng = random.Random(0)
            sample = sorted(self._candidate(rng, key)[0] for _ in range(self.STRATA_SAMPLE))
            inner = [sample[round(u * self.STRATA_SAMPLE)] for u in self.QUANTILES[1:-1]]
            self.bounds[key] = [(-1, 0.0)] + inner + [(math.inf, 0.0)]
        return self.bounds[key]

    def generate(self, rng: random.Random, count: int) -> list:
        """Stratified sampling on the cost proxy: each op of a context draws
        uniform pairs until one falls in the next scheduled stratum.

        The kept pairs are distributed as uniform draws, but every seed gets
        the same spread of cheap and costly pairs; plain draws let the few
        costliest pairs, which set the tail and much of the throughput, vary
        from seed to seed.
        """
        items = []
        while len(items) < count:
            block = self.block[:]
            rng.shuffle(block)
            for key in block:
                ctx = self.contexts[key]
                bounds = self._bounds(key)
                k = self.schedule[key].draw(rng)
                while True:
                    proxy, x, y = self._candidate(rng, key)
                    if bounds[k] <= proxy < bounds[k + 1]:
                        break
                mx = self.NormalMonomial(tuple(x[0]), x[1])
                my = self.NormalMonomial(tuple(y[0]), y[1])
                items.append((ctx, mx, my, ctx.element(mx), ctx.element(my)))
        return items[:count]

    @staticmethod
    def op(item):
        ctx, _mx, _my, x, y = item
        left = ctx.bform(x, y)
        right = ctx.bform(ctx.nakayama(y), x)
        return left, right, str(left), str(right)

    def check(self, item, out) -> bool:
        """B(x, y) == B(nu(y), x), and B(x, y) == phi of x y straightened
        rightmost from the concatenated word.

        phi reads one residue key, so most pairings are 0 (NOTES.md); the
        product check covers the straightening and enforcement behind them.
        """
        ctx, mx, my, _x, _y = item
        left, right, left_text, right_text = out
        cfg = ctx.config
        word = mx.word(cfg.order) + my.word(cfg.order)
        product = self.qcoord.Element.from_words(
            cfg, [(word, 1, mx.dpower + my.dpower)], strategy="rightmost"
        )
        return left == right and left_text == right_text and left == ctx.phi(product)

    @staticmethod
    def text(item, out) -> str:
        return f"{out[2]} | {out[3]}"


class Straighten:
    """``normal_form_of_word`` with both strategies over ``Z_q``."""

    name = "straighten"
    # (n, word length) and its ops per block of 100: the word counts of the
    # confluence suite and the acceptance corpus (n**(2k) words of each
    # length k up to 5: 98% at n=3, 89% of those of length 5), apportioned
    # by largest remainder, so lengths 0-2 round to none.
    BLOCK = {(3, 5): 87, (3, 4): 10, (3, 3): 1, (2, 5): 2}
    cycle_ops = sum(BLOCK.values())
    trace_ops = 8000
    nominal_ops_per_s = 13000

    def setup(self) -> None:
        import qcoord

        self.qcoord = qcoord
        self.configs = {n: qcoord.make_config(n) for n in {n for n, _k in self.BLOCK}}
        self.block = [key for key, ops in self.BLOCK.items() for _ in range(ops)]

    def generate(self, rng: random.Random, count: int) -> list:
        items = []
        while len(items) < count:
            block = self.block[:]
            rng.shuffle(block)
            for n, k in block:
                word = tuple((rng.randint(1, n), rng.randint(1, n)) for _ in range(k))
                items.append((self.configs[n], word))
        return items[:count]

    def op(self, item):
        cfg, word = item
        return (
            self.qcoord.normal_form_of_word(cfg, word, "leftmost"),
            self.qcoord.normal_form_of_word(cfg, word, "rightmost"),
        )

    def check(self, item, out) -> bool:
        cfg, word = item
        left, right = out
        if left != right:
            return False
        n = cfg.n
        counts = [0] * (n * n)
        for i, j in word:
            counts[(i - 1) * n + (j - 1)] += 1
        # At q = 1 the algebra is commutative: only the word's own monomial
        # survives, with coefficient 1.
        at_one = {}
        for exps, coeff in left.items():
            value = self.qcoord.specialize_at_one(coeff)
            if value:
                at_one[exps] = value
        return at_one == {tuple(counts): 1}

    @staticmethod
    def text(item, out) -> str:
        return "; ".join(f"{exps}: {coeff}" for exps, coeff in sorted(out[0].items()))


class Localized:
    """``multiply`` plus ``element_to_str`` at n=3 over ``Z_q`` with
    determinant enforcement."""

    name = "localized"
    N = 3
    CONFIGS = (("gl", "standard"), ("gl", "opposite"), ("sl", "standard"), ("sl", "opposite"))
    DEGREES = (2, 3, 4, 5)
    cycle_ops = len(CONFIGS) * len(DEGREES) ** 2
    trace_ops = 3000
    nominal_ops_per_s = 2300

    def setup(self) -> None:
        import qcoord
        from qcoord import render

        self.qcoord = qcoord
        self.render = render
        n = self.N
        self.configs = {key: qcoord.make_config(n, key[0], flavor=key[1]) for key in self.CONFIGS}
        self.targets = {
            "standard": [i * n + i for i in range(n)],
            "opposite": [i * n + (n - 1 - i) for i in range(n)],
        }
        self.block = [
            (key, da, db) for key in self.CONFIGS for da in self.DEGREES for db in self.DEGREES
        ]

    def _monomial(self, rng, variant, flavor, degree):
        """Degree units in uniformly chosen slots, except one target slot that
        stays 0, so the monomial is already in normal form."""
        n = self.N
        zero = rng.choice(self.targets[flavor])
        slots = [s for s in range(n * n) if s != zero]
        exps = [0] * (n * n)
        for _ in range(degree):
            exps[rng.choice(slots)] += 1
        dpower = rng.randint(-1, 1) if variant == "gl" else 0
        return self.qcoord.NormalMonomial(tuple(exps), dpower)

    def generate(self, rng: random.Random, count: int) -> list:
        items = []
        while len(items) < count:
            block = self.block[:]
            rng.shuffle(block)
            for key, da, db in block:
                cfg = self.configs[key]
                ma = self._monomial(rng, *key, da)
                mb = self._monomial(rng, *key, db)
                a = self.qcoord.Element.from_monomials(cfg, [(ma, 1)])
                b = self.qcoord.Element.from_monomials(cfg, [(mb, 1)])
                items.append((cfg, ma, mb, a, b))
        return items[:count]

    def op(self, item):
        cfg, ma, mb, a, b = item
        # Module attribute lookups at call time, so the traced run's wrappers
        # are reached.
        product = self.qcoord.multiply(a, b)
        return product, self.render.element_to_str(product)

    def check(self, item, out) -> bool:
        cfg, ma, mb, a, b = item
        product, _text = out
        word = ma.word(cfg.order) + mb.word(cfg.order)
        expected = self.qcoord.Element.from_words(
            cfg, [(word, 1, ma.dpower + mb.dpower)], strategy="rightmost"
        )
        return product == expected

    @staticmethod
    def text(item, out) -> str:
        return out[1]


WORKLOADS = {w.name: w for w in (Pairing, Straighten, Localized)}
