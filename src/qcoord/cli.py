"""Expression front-end and command line driver.

Grammar (whitespace-insensitive except that juxtaposed factors must be
separated by whitespace or an explicit ``*``)::

    expr   := term (('+' | '-') term)*
    term   := '-'* factor (('*' factor) | factor)*
    factor := atom ('^' '-'? INT)?
    atom   := INT | 'q' | 'D' | 't' '[' INT ',' INT ']' | '(' expr ')'

``INT`` is a run of decimal digits.  Negative exponents are allowed only on
``q`` and ``D``.  ``D`` requires the localized or special variant.
Parentheses nest at most ``MAX_NESTING`` deep.

Two tables drive the command line: ``COMMANDS``, and ``SUITES`` for the
``check`` suites.  Handlers return a JSON payload, text lines and an exit
code; :func:`run` alone checks the shared flags, prints and maps errors.

Exit codes: 0 success, 1 failed check, 2 usage, parse or input error (also
``--n`` above ``MAX_N``, ``--ell`` above ``MAX_ELL``, or a suite given a
non-default flag it does not read), or a command too large to finish (out
of memory, recursion limit, a suite or ``basis --json`` above the ``Limit``
it declares, a quantum determinant expanded at ``n`` above
``rewrite.MAX_DET_N``, or a word longer than ``rewrite.MAX_WORD_LEN``
letters, refused before it is built), and ``EXIT_BROKEN_PIPE`` when
standard output is closed before the command has written it all.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import namedtuple
from functools import reduce

from . import detloc, frobext, rootspec
from .render import element_to_str, monomial_to_str, sorted_terms
from .report import CheckReport
from .rewrite import VARIANTS, AlgebraConfig, Element, make_config, multiply, normal_form_of_word

# Deepest parenthesis nesting the parser accepts.  Parsing and evaluation
# take a few stack frames per level, so this keeps both far below the
# interpreter's recursion limit.
MAX_NESTING = 100

# Largest ``--n`` any command accepts.  Every generator order and exponent
# table has n*n entries, so this keeps a mistyped size a usage error, not an
# out-of-memory kill.
MAX_N = 1000

# Largest ``--ell`` any command accepts.  Building ``phi_l`` grows with
# ``l``: ``nf``, ``phi`` and ``nakayama`` take at most 0.2 s at 999, but
# ``nf q --ell 9993`` takes 1.6 s and ``nf 't[1,1]' --ell 100001`` 27 s
# (Python 3.11, 2 cores).
MAX_ELL = 999

# Longest word ``check pbw-confluence`` straightens both ways: all words up to it.
MAX_CONFLUENCE_LEN = 5

# Exit code when the reader of standard output goes away (``qcoord basis |
# head``): 128 + SIGPIPE, what a shell reports for a process SIGPIPE ends.
EXIT_BROKEN_PIPE = 141


class ParseError(ValueError):
    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"parse error at offset {offset}: {message}"
        if expected:
            detail += f" (expected {', '.join(expected)})"
        super().__init__(detail)


# ---------------------------------------------------------------------------
# Lexer and parser.  A token is its own text with its span, ``(text, start,
# end)``, and the empty text ends the input.  The AST's sums and products are
# flat n-ary nodes, so recursion depth follows parenthesis nesting only.
# ---------------------------------------------------------------------------

# ``\d`` is a decimal digit, as ``int`` reads it; ``str.isdigit`` takes more.
_STRAY = re.compile(r"[^\s\dqtD\[\],()+\-*^]")
_TOKEN = re.compile(r"\d+|\S")


def _tokenize(src: str) -> list[tuple[str, int, int]]:
    stray = _STRAY.search(src)
    if stray:
        expected = ("number", "q", "t", "D", "operator")
        raise ParseError(f"unexpected character {stray.group()!r}", stray.start(), expected)
    tokens = [(m.group(), m.start(), m.end()) for m in _TOKEN.finditer(src)]
    tokens.append(("", len(src), len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, cfg: AlgebraConfig):
        self.tokens = _tokenize(src)
        self.cfg = cfg
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, text: str) -> bool:
        if self.tokens[self.pos][0] != text:
            return False
        self.pos += 1
        return True

    def found(self, what: str) -> ParseError:
        text, start, _ = self.peek()
        return ParseError(f"found {text!r}" if text else "input ended", start, (what,))

    def expect(self, text: str) -> None:
        if not self.take(text):
            raise self.found(text)

    def number(self, what: str) -> int:
        text = self.peek()[0]
        if not text.isdecimal():
            raise self.found(what)
        self.pos += 1
        return int(text)

    def parse(self):
        node = self.expr()
        text, start, _ = self.peek()
        if text:
            raise ParseError(f"trailing input {text!r}", start, ("end of input",))
        return node

    def expr(self):
        terms = [self.term()]
        while (op := self.peek()[0]) in ("+", "-"):
            self.pos += 1
            terms.append(self.term() if op == "+" else ("neg", self.term()))
        return terms[0] if len(terms) == 1 else ("sum", terms)

    def term(self):
        negations = 0
        while self.take("-"):
            negations += 1
        factors = [self.factor()]
        while True:
            text, start, _ = self.peek()
            # Past the lexer, the letters and digits are q, D, t and numbers.
            if text.isalnum() or text == "(":
                if self.tokens[self.pos - 1][2] == start:
                    raise ParseError("adjacent factors need whitespace or '*'", start, ("*",))
            elif not self.take("*"):
                break
            factors.append(self.factor())
        node = factors[0] if len(factors) == 1 else ("prod", factors)
        return ("neg", node) if negations % 2 else node

    def factor(self):
        atom = self.atom()
        if not self.take("^"):
            return atom
        sign = -1 if self.take("-") else 1
        start = self.peek()[1]
        k = sign * self.number("integer exponent")
        if k < 0 and atom[0] not in ("q", "D"):
            if atom[0] == "gen":
                raise ParseError("negative power on a generator", start)
            raise ParseError("negative power is allowed only on q and D", start)
        return ("pow", atom, k)

    def atom(self):
        text, start, _ = self.peek()
        if not (text.isalnum() or text == "("):
            raise self.found("expression")
        if text == "D" and self.cfg.variant == "m":
            raise ParseError("D needs the gl or sl variant", start)
        if text == "(" and self.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", start)
        self.pos += 1
        if text.isdecimal():
            return ("int", int(text))
        if text in ("q", "D"):
            return (text,)
        if text == "t":
            self.expect("[")
            i = self.number("row index")
            self.expect(",")
            j = self.number("column index")
            self.expect("]")
            if not (1 <= i <= self.cfg.n and 1 <= j <= self.cfg.n):
                raise ParseError(f"index t[{i},{j}] out of range for n={self.cfg.n}", start)
            return ("gen", i, j)
        self.depth += 1
        inner = self.expr()
        self.depth -= 1
        self.expect(")")
        return inner


def parse(src: str, cfg: AlgebraConfig):
    """Parse an expression into an AST; raises :class:`ParseError`."""
    return _Parser(src, cfg).parse()


def eval_expr(node, cfg: AlgebraConfig) -> Element:
    kind = node[0]
    if kind == "int":
        return Element.scalar(cfg, node[1])
    if kind in ("q", "D", "gen"):
        return eval_expr(("pow", node, 1), cfg)
    if kind == "pow":
        base, k = node[1], node[2]
        if base == ("q",):
            return Element.scalar(cfg, cfg.ring.q_power(k))
        if base == ("D",):
            return Element.d_power(cfg, k)
        if base[0] == "gen":
            return Element.generator(cfg, base[1], base[2], k)
        return eval_expr(base, cfg) ** k
    if kind == "neg":
        return -eval_expr(node[1], cfg)
    if kind == "sum":
        return sum((eval_expr(term, cfg) for term in node[1]), Element.zero(cfg))
    if kind == "prod":
        return reduce(multiply, (eval_expr(factor, cfg) for factor in node[1]))
    raise AssertionError(f"unknown node {node!r}")


def evaluate(src: str, cfg: AlgebraConfig) -> Element:
    return eval_expr(parse(src, cfg), cfg)


# ---------------------------------------------------------------------------
# Check suites and commands.  A handler returns ``(payload, lines, exit
# code)``.  Generators in either are rendered only if that form is printed,
# so ``basis`` text streams.
# ---------------------------------------------------------------------------

_FLAVOR = {"rowmajor": "standard", "opposite": "opposite"}


def _algebra(args) -> AlgebraConfig:
    return make_config(args.n, args.variant, ell=args.ell, flavor=_FLAVOR[args.order])


def _confluence_report(n: int, flavor: str = "standard") -> CheckReport:
    from itertools import product

    report = CheckReport("pbw-confluence", n)
    cfg = make_config(n, "m", flavor=flavor)
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for length in range(MAX_CONFLUENCE_LEN + 1):
        mismatches = 0
        first = ""
        for letters in product(gens, repeat=length):
            left = normal_form_of_word(cfg, letters, "leftmost")
            right = normal_form_of_word(cfg, letters, "rightmost")
            if left != right:
                mismatches += 1
                if not first:
                    first = str(letters)
        report.add(
            f"all {len(gens) ** length} words of length {length}",
            f"{mismatches} strategy mismatches" + (f", first at {first}" if first else ""),
            mismatches == 0,
        )
    return report


# Admission: a suite or ``basis --json`` declares a ``Limit(cap, size)``, where
# ``size(args)`` is its work as ``(count, text with the unit)``.  Each cap sits
# beside the runs that set it (whole processes, Python 3.11, 2 cores).
Limit = namedtuple("Limit", "cap size")


def _admit(name: str, limit: Limit | None, args) -> None:
    """Refuse ``name`` above its cap before anything is built; a dimension
    below 1 is left to ``make_config``'s error."""
    if limit and args.n > 0:
        count, text = limit.size(args)
        if count > limit.cap:
            raise ValueError(f"{name} is too large: {text}, more than {limit.cap}")


def _power(base: int, k: int) -> int:
    """``base ** k``, ``k`` clipped at 64: enough to pass every cap; ``999 ** 10**6`` takes 2 s."""
    return base ** min(k, 64)


def _dimension(a) -> tuple:
    return a.n, f"n = {a.n}"


def _nakayama_cases(a) -> tuple:
    k = a.n * a.n
    grid = _power(a.ell, k)
    pairs = frobext.symmetry_sample_size(grid * grid)
    return k * grid + pairs, f"{k}*{a.ell}^{k} twist + {pairs} symmetry cases"


def _frobenius_work(a) -> tuple:
    work = a.n**5 * (a.ell**3 + 256 * a.n)
    return work, f"n^5*(l^3 + 256 n) = {work} work units"


def _confluence_words(a) -> tuple:
    words = sum((a.n * a.n) ** length for length in range(MAX_CONFLUENCE_LEN + 1))
    return words, f"{words} words"


def _basis_keys(a) -> tuple:
    k = a.n * a.n + (a.variant == "gl")
    return _power(a.ell, k), f"{a.ell}^{k} keys"


# ``build(args)`` returns the report, reaching its module by attribute at call
# time; ``takes`` names the shared flags it reads besides --n and --json.
Suite = namedtuple("Suite", "build limit takes needs_ell", defaults=((), False))

SUITES = {
    # ``D`` (n! terms) times each generator, both sides: n=6 took 0.91 s at 19 MB,
    # n=7 11.9 s at 40 MB, n=8 (``MAX_DET_N`` admits it) past 90 s at 267 MB or more.
    "central": Suite(lambda a: detloc.check_central(a.n, a.ell), Limit(7, _dimension), ("ell",)),
    # ``--n 4``'s 1,118,481 words took 30 s, ``--n 5``'s 10,172,526 over 30 s.
    "pbw-confluence": Suite(
        lambda a: _confluence_report(a.n, _FLAVOR[a.order]),
        Limit(2**21, _confluence_words),
        ("order",),
    ),
    # ``t^l h`` and ``h t^l`` for all n^4 generator pairs, about 1.1 ns a unit: a
    # pair's branches cost about n l^3, its monomials 256 n^2.  Row maxima with l
    # far above n took 4-5 s (``--n 3 --ell 259`` 5.1 s); with both terms, up to 1.6
    # times the law (``--n 11 --ell 27``, the heaviest admitted: 7.4 s at 22 MB).
    # Refused: ``--n 2 --ell 723`` took 11.9 s, ``--n 16 --ell 3`` 4.7-5.4 s at 46 MB.
    "frobenius": Suite(
        lambda a: rootspec.check_frobenius_central(a.n, a.ell),
        Limit(2**32, _frobenius_work),
        ("ell",),
        True,
    ),
    # Each case is held: n=3 l=3, the heaviest documented run, has 177,647; n=2
    # l=19 (521,784) took 2.4 s at 236 MB, 4.5 s at 607 MB with ``--json``.
    "nakayama": Suite(
        lambda a: frobext.check_nakayama(a.n, a.ell), Limit(2**19, _nakayama_cases), ("ell",), True
    ),
    # No limit: ``rewrite.MAX_DET_N`` bounds the determinant it expands.
    "iso": Suite(lambda a: detloc.check_sl_gl_iso(a.n), None),
    # n=6 took 1.45-1.66 s at 47.5 MB, n=7 58.6 s at 1,103 MB; n=8, which
    # ``MAX_DET_N`` admits, was never run.
    "identities": Suite(lambda a: detloc.check_identities(a.n), Limit(6, _dimension)),
}

# ``basis --json`` holds every key, while text output streams.
BASIS_JSON = Limit(2**22, _basis_keys)


def _element(e: Element, args) -> tuple:
    terms = (
        {"monomial": monomial_to_str(m, e.config.order) or "1", "coeff": str(c)}
        for m, c in sorted_terms(e.terms)
    )
    keys = {"n": args.n, "variant": args.variant, "ell": args.ell, "order": args.order}
    return {"schema": 1, **keys, "terms": terms}, map(element_to_str, [e]), 0


def _mul(args) -> tuple:
    cfg = _algebra(args)
    return _element(multiply(evaluate(args.expr1, cfg), evaluate(args.expr2, cfg)), args)


def _expand(args) -> tuple:
    cfg = _algebra(args)
    entries = [
        {"basis_key": monomial_to_str(k, cfg.order) or "1", "classical_coeff": str(c)}
        for k, c in sorted_terms(rootspec.module_expand(evaluate(args.expr, cfg)).entries)
    ]
    payload = dict(schema=1, ell=args.ell, n=args.n, variant=args.variant, entries=entries)
    return payload, (f"{e['basis_key']}: {e['classical_coeff']}" for e in entries), 0


def _phi(args) -> tuple:
    ctx = frobext.FrobeniusContext(args.n, args.ell, args.variant, _algebra(args).order)
    value = str(ctx.phi(evaluate(args.expr, ctx.config)))
    return {"schema": 1, "n": args.n, "ell": args.ell, "value": value}, [value], 0


def _nakayama(args) -> tuple:
    ctx = frobext.FrobeniusContext(args.n, args.ell, args.variant, _algebra(args).order)
    return _element(ctx.nakayama(evaluate(args.expr, ctx.config)), args)


def _basis(args) -> tuple:
    if args.json:
        _admit("basis --json", BASIS_JSON, args)
    cfg = _algebra(args)
    basis = rootspec.enumerate_basis(args.n, args.ell, args.variant)
    names = (monomial_to_str(m, cfg.order) or "1" for m in basis)
    payload = dict(schema=1, n=args.n, ell=args.ell, variant=args.variant, basis=names)
    return payload, names, 0


def _check(args) -> tuple:
    suite = SUITES[args.suite]
    _admit(f"check {args.suite}", suite.limit, args)
    report = suite.build(args)
    status = "PASS" if report.passed else "FAIL"
    scope = f"n={report.n}" + (f", ell={report.ell}" if report.ell is not None else "")
    lines = [f"check {report.check} ({scope}): {status} ({len(report.cases)} cases)"]
    lines += (f"  FAIL {case.input}: residual {case.residual}" for case in report.failures())
    return report.to_dict(), lines, 0 if report.passed else 1


# ``args`` maps each positional argument to its ``add_argument`` keywords.
Command = namedtuple("Command", "help handler args needs_ell", defaults=(False,))

_EXPR = {"expr": {}}
COMMANDS = {
    "nf": Command(
        "normal form of an expression", lambda a: _element(evaluate(a.expr, _algebra(a)), a), _EXPR
    ),
    "det": Command(
        "print the quantum determinant",
        lambda a: _element(detloc.quantum_determinant(_algebra(a)), a),
        {},
    ),
    "mul": Command("product of two expressions", _mul, {"expr1": {}, "expr2": {}}),
    "expand": Command("free-module expansion", _expand, _EXPR, True),
    "phi": Command("pairing functional of an expression", _phi, _EXPR, True),
    "nakayama": Command("apply the pairing twist", _nakayama, _EXPR, True),
    "basis": Command("list the residue basis monomials", _basis, {}, True),
    "check": Command("run a verification suite", _check, {"suite": {"choices": SUITES}}),
}

# The flags every command shares, as ``add_argument`` keywords.
_FLAGS = {
    "n": dict(type=int, default=2, help="matrix dimension (default 2)"),
    "variant": dict(choices=VARIANTS, default="m", help="algebra variant"),
    "ell": dict(type=int, default=None, help="odd root-of-unity order"),
    "order": dict(choices=_FLAVOR, default="rowmajor", help="generator order"),
    "json": dict(action="store_true", help="machine-readable output"),
}


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for flag, spec in _FLAGS.items():
        common.add_argument(f"--{flag}", **spec)
    parser = argparse.ArgumentParser(
        prog="qcoord", description="Exact computations in quantized coordinate rings of matrices."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for arg, spec in command.args.items():
            p.add_argument(arg, **spec)
    return parser


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def run(argv) -> int:
    """Execute a command line; returns the process exit code."""
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    suite = SUITES[args.suite] if args.command == "check" else None
    name = f"check {args.suite}" if suite else args.command
    if args.n > MAX_N:
        return _fail(f"error: --n {args.n} is too large; commands are limited to n <= {MAX_N}")
    if args.ell is not None and args.ell > MAX_ELL:
        return _fail(
            f"error: --ell {args.ell} is too large; commands are limited to ell <= {MAX_ELL}"
        )
    if (suite or COMMANDS[args.command]).needs_ell and args.ell is None:
        return _fail(f"{name} requires --ell")
    for flag in ("variant", "ell", "order") if suite else ():
        if flag not in suite.takes and getattr(args, flag) != _FLAGS[flag]["default"]:
            return _fail(f"{name} does not take --{flag}")
    try:
        payload, lines, code = COMMANDS[args.command].handler(args)
        if args.json:
            # ``default=list`` writes each generator in the payload as a list.
            print(json.dumps(payload, sort_keys=True, indent=2, default=list))
        else:
            for line in lines:
                print(line)
    except (ValueError, ArithmeticError) as exc:
        message = str(exc) if isinstance(exc, ParseError) else f"error: {exc}"
    except (MemoryError, RecursionError) as exc:
        reason = "out of memory" if isinstance(exc, MemoryError) else "recursion limit exceeded"
        message = f"error: {reason}"
    else:
        return code
    # Printed outside ``except``, so the failed command's frames are freed first.
    return _fail(message)


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The recipe of Python's ``signal`` documentation: send the rest of
        # the output to devnull so that the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(EXIT_BROKEN_PIPE)
    sys.exit(code)


if __name__ == "__main__":
    main()
