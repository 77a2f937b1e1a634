"""Expression front-end and command line driver.

Grammar (whitespace-insensitive except that juxtaposed factors must be
separated by whitespace or an explicit ``*``)::

    expr   := term (('+' | '-') term)*
    term   := '-'* factor (('*' factor) | factor)*
    factor := atom ('^' '-'? INT)?
    atom   := INT | 'q' | 'D' | 't' '[' INT ',' INT ']' | '(' expr ')'

Negative exponents are allowed only on ``q`` and ``D``.  ``D`` requires the
localized or special variant.  Parentheses nest at most ``MAX_NESTING``
deep.  Exit codes: 0 success, 1 failed check, 2 usage, parse or input error,
or a command too large to finish (out of memory, recursion limit,
``basis --json`` above ``MAX_BASIS_JSON`` keys, or a quantum determinant
expanded at ``n`` above ``rewrite.MAX_DET_N``), and ``EXIT_BROKEN_PIPE``
when standard output is closed before the command has written it all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import reduce

from . import detloc, frobext, rootspec
from .monomial import NormalMonomial
from .render import element_to_str, monomial_to_str
from .report import CheckReport
from .rewrite import AlgebraConfig, Element, make_config, multiply, normal_form_of_word

CHECK_SUITES = ("central", "pbw-confluence", "frobenius", "nakayama", "iso", "identities")

# Commands, and check suites as ``check <suite>``, that work at a root of unity.
NEEDS_ELL = ("expand", "phi", "nakayama", "basis", "check frobenius", "check nakayama")

# Deepest parenthesis nesting the parser accepts.  Parsing and evaluation
# take a few stack frames per level, so this keeps both far below the
# interpreter's recursion limit.
MAX_NESTING = 100

# Most keys ``basis --json`` lists: it holds them all, while text output streams.
MAX_BASIS_JSON = 2**22

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


@dataclass(frozen=True)
class RunConfig:
    n: int = 2
    variant: str = "m"
    ell: int | None = None
    order_flavor: str = "rowmajor"
    json: bool = False

    @property
    def flavor(self) -> str:
        return "standard" if self.order_flavor == "rowmajor" else "opposite"

    def algebra(self) -> AlgebraConfig:
        return make_config(self.n, self.variant, ell=self.ell, flavor=self.flavor)


# ---------------------------------------------------------------------------
# Lexer.
# ---------------------------------------------------------------------------

_SIMPLE = {
    "[": "LBRACK",
    "]": "RBRACK",
    ",": "COMMA",
    "(": "LPAREN",
    ")": "RPAREN",
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "^": "CARET",
}


def _tokenize(src: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    pos = 0
    size = len(src)
    while pos < size:
        ch = src[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            end = pos
            while end < size and src[end].isdigit():
                end += 1
            tokens.append(("INT", src[pos:end], pos, end))
            pos = end
            continue
        if ch in ("q", "D", "t"):
            tokens.append((ch.upper() if ch != "t" else "T", ch, pos, pos + 1))
            pos += 1
            continue
        kind = _SIMPLE.get(ch)
        if kind is None:
            raise ParseError(
                f"unexpected character {ch!r}", pos, ("number", "q", "t", "D", "operator")
            )
        tokens.append((kind, ch, pos, pos + 1))
        pos += 1
    tokens.append(("EOF", "", size, size))
    return tokens


# ---------------------------------------------------------------------------
# Parser producing a small tuple AST.  Sums and products are flat n-ary
# nodes, so recursion depth follows parenthesis nesting only.
# ---------------------------------------------------------------------------

_ATOM_STARTS = ("INT", "Q", "D", "T", "LPAREN")


class _Parser:
    def __init__(self, src: str, cfg: AlgebraConfig):
        self.tokens = _tokenize(src)
        self.cfg = cfg
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"found {tok[1]!r}" if tok[1] else "input ended", tok[2], (what,))
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], ("end of input",))
        return node

    def expr(self):
        terms = [self.term()]
        while self.peek()[0] in ("PLUS", "MINUS"):
            op = self.advance()
            rhs = self.term()
            terms.append(rhs if op[0] == "PLUS" else ("neg", rhs))
        return terms[0] if len(terms) == 1 else ("sum", terms)

    def term(self):
        negations = 0
        while self.peek()[0] == "MINUS":
            self.advance()
            negations += 1
        factors = [self.factor()]
        while True:
            tok = self.peek()
            if tok[0] == "STAR":
                self.advance()
            elif tok[0] in _ATOM_STARTS:
                prev = self.tokens[self.pos - 1]
                if prev[3] == tok[2]:
                    raise ParseError(
                        "adjacent factors need whitespace or '*'", tok[2], ("*",)
                    )
            else:
                break
            factors.append(self.factor())
        node = factors[0] if len(factors) == 1 else ("prod", factors)
        return ("neg", node) if negations % 2 else node

    def factor(self):
        atom = self.atom()
        if self.peek()[0] != "CARET":
            return atom
        self.advance()
        sign = 1
        if self.peek()[0] == "MINUS":
            self.advance()
            sign = -1
        tok = self.expect("INT", "integer exponent")
        k = sign * int(tok[1])
        if k < 0 and atom[0] not in ("q", "D"):
            if atom[0] == "gen":
                raise ParseError("negative power on a generator", tok[2])
            raise ParseError("negative power is allowed only on q and D", tok[2])
        return ("pow", atom, k)

    def atom(self):
        tok = self.peek()
        kind = tok[0]
        if kind == "INT":
            self.advance()
            return ("int", int(tok[1]))
        if kind == "Q":
            self.advance()
            return ("q",)
        if kind == "D":
            if self.cfg.variant == "m":
                raise ParseError("D needs the gl or sl variant", tok[2])
            self.advance()
            return ("D",)
        if kind == "T":
            self.advance()
            self.expect("LBRACK", "[")
            i = int(self.expect("INT", "row index")[1])
            self.expect("COMMA", ",")
            j = int(self.expect("INT", "column index")[1])
            close = self.expect("RBRACK", "]")
            if not (1 <= i <= self.cfg.n and 1 <= j <= self.cfg.n):
                raise ParseError(f"index t[{i},{j}] out of range for n={self.cfg.n}", tok[2])
            return ("gen", i, j)
        if kind == "LPAREN":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok[2])
            self.advance()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect("RPAREN", ")")
            return inner
        raise ParseError(
            f"found {tok[1]!r}" if tok[1] else "input ended", tok[2], ("expression",)
        )


def parse(src: str, cfg: AlgebraConfig):
    """Parse an expression into an AST; raises :class:`ParseError`."""
    return _Parser(src, cfg).parse()


def eval_expr(node, cfg: AlgebraConfig) -> Element:
    kind = node[0]
    if kind == "int":
        return Element.scalar(cfg, node[1])
    if kind == "q":
        return Element.scalar(cfg, cfg.ring.q_power(1))
    if kind == "D":
        return Element.d_power(cfg, 1)
    if kind == "gen":
        return Element.generator(cfg, node[1], node[2])
    if kind == "pow":
        base, k = node[1], node[2]
        if base == ("q",):
            return Element.scalar(cfg, cfg.ring.q_power(k))
        if base == ("D",):
            return Element.d_power(cfg, k)
        if base[0] == "gen":
            exps = [0] * (cfg.n * cfg.n)
            exps[(base[1] - 1) * cfg.n + (base[2] - 1)] = k
            return Element.from_monomials(cfg, [(NormalMonomial(tuple(exps)), 1)])
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
# Output helpers.
# ---------------------------------------------------------------------------


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def element_json(e: Element, run: RunConfig) -> dict:
    return {
        "schema": 1,
        "n": run.n,
        "variant": run.variant,
        "ell": run.ell,
        "order": run.order_flavor,
        "terms": [
            {"monomial": monomial_to_str(m, e.config.order) or "1", "coeff": str(c)}
            for m, c in e.sorted_terms()
        ],
    }


def _print_element(e: Element, run: RunConfig) -> None:
    if run.json:
        _emit_json(element_json(e, run))
    else:
        print(element_to_str(e))


def _print_report(report: CheckReport, run: RunConfig) -> int:
    if run.json:
        _emit_json(report.to_dict())
    else:
        status = "PASS" if report.passed else "FAIL"
        scope = f"n={report.n}" + (f", ell={report.ell}" if report.ell is not None else "")
        print(f"check {report.check} ({scope}): {status} ({len(report.cases)} cases)")
        for case in report.failures():
            print(f"  FAIL {case.input}: residual {case.residual}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Check suites.
# ---------------------------------------------------------------------------


def _confluence_report(n: int, max_len: int = 5, flavor: str = "standard") -> CheckReport:
    from itertools import product

    report = CheckReport("pbw-confluence", n)
    cfg = make_config(n, "m", flavor=flavor)
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for length in range(max_len + 1):
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


def _run_check(suite: str, run: RunConfig) -> int:
    if suite == "central":
        report = detloc.check_central(run.n, run.ell)
    elif suite == "pbw-confluence":
        report = _confluence_report(run.n, flavor=run.flavor)
    elif suite == "frobenius":
        report = rootspec.check_frobenius_central(run.n, run.ell)
    elif suite == "nakayama":
        report = frobext.check_nakayama(run.n, run.ell)
    elif suite == "iso":
        report = detloc.check_sl_gl_iso(run.n)
    elif suite == "identities":
        report = detloc.check_identities(run.n)
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(suite)
    return _print_report(report, run)


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=2, help="matrix dimension (default 2)")
    common.add_argument(
        "--variant", choices=("m", "gl", "sl"), default="m", help="algebra variant"
    )
    common.add_argument("--ell", type=int, default=None, help="odd root-of-unity order")
    common.add_argument(
        "--order", choices=("rowmajor", "opposite"), default="rowmajor", help="generator order"
    )
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(
        prog="qcoord",
        description="Exact computations in quantized coordinate rings of matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", parents=[common], help="normal form of an expression")
    p.add_argument("expr")
    sub.add_parser("det", parents=[common], help="print the quantum determinant")
    p = sub.add_parser("mul", parents=[common], help="product of two expressions")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p = sub.add_parser("expand", parents=[common], help="free-module expansion")
    p.add_argument("expr")
    p = sub.add_parser("phi", parents=[common], help="pairing functional of an expression")
    p.add_argument("expr")
    p = sub.add_parser("nakayama", parents=[common], help="apply the pairing twist")
    p.add_argument("expr")
    sub.add_parser("basis", parents=[common], help="list the residue basis monomials")
    p = sub.add_parser("check", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=CHECK_SUITES)
    return parser


def _run_config(args) -> RunConfig:
    return RunConfig(args.n, args.variant, args.ell, args.order, args.json)


def run(argv) -> int:
    """Execute a command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    run_cfg = _run_config(args)
    command = f"check {args.suite}" if args.command == "check" else args.command
    if command in NEEDS_ELL and run_cfg.ell is None:
        print(f"{command} requires --ell", file=sys.stderr)
        return 2

    try:
        if args.command == "check":
            return _run_check(args.suite, run_cfg)

        cfg = run_cfg.algebra()
        if args.command == "nf":
            _print_element(evaluate(args.expr, cfg), run_cfg)
        elif args.command == "det":
            _print_element(detloc.quantum_determinant(cfg), run_cfg)
        elif args.command == "mul":
            product = multiply(evaluate(args.expr1, cfg), evaluate(args.expr2, cfg))
            _print_element(product, run_cfg)
        elif args.command == "expand":
            expansion = rootspec.module_expand(evaluate(args.expr, cfg))
            payload = {
                "schema": 1,
                "ell": run_cfg.ell,
                "n": run_cfg.n,
                "variant": run_cfg.variant,
                "entries": [
                    {
                        "basis_key": monomial_to_str(k, cfg.order) or "1",
                        "classical_coeff": str(c),
                    }
                    for k, c in expansion.sorted_entries()
                ],
            }
            if run_cfg.json:
                _emit_json(payload)
            else:
                for entry in payload["entries"]:
                    print(f"{entry['basis_key']}: {entry['classical_coeff']}")
        elif args.command == "phi":
            ctx = frobext.FrobeniusContext(run_cfg.n, run_cfg.ell, run_cfg.variant, cfg.order)
            value = ctx.phi(evaluate(args.expr, ctx.config))
            if run_cfg.json:
                _emit_json(
                    {"schema": 1, "n": run_cfg.n, "ell": run_cfg.ell, "value": str(value)}
                )
            else:
                print(value)
        elif args.command == "nakayama":
            ctx = frobext.FrobeniusContext(run_cfg.n, run_cfg.ell, run_cfg.variant, cfg.order)
            _print_element(ctx.nakayama(evaluate(args.expr, ctx.config)), run_cfg)
        elif args.command == "basis":
            keys = run_cfg.ell ** (run_cfg.n**2 + (run_cfg.variant == "gl"))
            if run_cfg.json and keys > MAX_BASIS_JSON:
                raise ValueError(
                    f"basis --json would list {keys} keys, more than {MAX_BASIS_JSON}; "
                    "text output streams"
                )
            monomials = rootspec.enumerate_basis(run_cfg.n, run_cfg.ell, run_cfg.variant)
            if run_cfg.json:
                _emit_json(
                    {
                        "schema": 1,
                        "n": run_cfg.n,
                        "ell": run_cfg.ell,
                        "variant": run_cfg.variant,
                        "basis": [monomial_to_str(m, cfg.order) or "1" for m in monomials],
                    }
                )
            else:
                for m in monomials:
                    print(monomial_to_str(m, cfg.order) or "1")
        else:  # pragma: no cover - argparse restricts choices
            raise AssertionError(args.command)
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        reason = "out of memory" if isinstance(exc, MemoryError) else "recursion limit exceeded"
        print(f"error: {reason}", file=sys.stderr)
        return 2
    return 0


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
