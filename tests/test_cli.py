"""Tests for the expression parser, evaluator and command line driver."""

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcoord

from qcoord import cli
from qcoord.cli import EXIT_BROKEN_PIPE, MAX_NESTING, ParseError, evaluate, parse, run
from qcoord.coeff import LaurentPoly
from qcoord.detloc import quantum_determinant
from qcoord.monomial import NormalMonomial, make_opposite_order, row_major_order
from qcoord.render import element_to_str
from qcoord.rewrite import Element, make_config
from test_properties import SETTINGS


class TestParse:
    def test_determinant_expression(self):
        cfg = make_config(2)
        e = evaluate("t[1,1]*t[2,2] - q*t[1,2]*t[2,1]", cfg)
        assert e == quantum_determinant(cfg)

    def test_negative_generator_power(self):
        with pytest.raises(ParseError) as err:
            parse("t[1,2]^-1", make_config(2))
        assert "generator" in str(err.value)

    def test_empty_parens_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("()", make_config(2))
        assert err.value.offset == 1

    def test_juxtaposition_needs_gap(self):
        cfg = make_config(2)
        assert evaluate("2 t[1,1]", cfg) == Element.generator(cfg, 1, 1).scale(2)
        with pytest.raises(ParseError):
            parse("t[1,1]t[2,2]", cfg)

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse("t[3,1]", make_config(2))

    def test_determinant_token_needs_localized_variant(self):
        with pytest.raises(ParseError):
            parse("D", make_config(2))
        parse("D^-2", make_config(2, "gl"))

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("q )", make_config(2))

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse("q + %", make_config(2))
        assert err.value.offset == 4

    def test_nesting_limit(self):
        cfg = make_config(2)
        deep = "(" * MAX_NESTING + "t[1,1]" + ")" * MAX_NESTING
        assert evaluate(deep, cfg) == Element.generator(cfg, 1, 1)
        with pytest.raises(ParseError) as err:
            parse("(" + deep + ")", cfg)
        assert err.value.offset == MAX_NESTING


class TestEval:
    def test_unit(self):
        cfg = make_config(2)
        assert evaluate("1", cfg) == Element.one(cfg)

    def test_commutation_rewrite(self):
        cfg = make_config(2)
        e = evaluate("t[2,2]*t[1,1]", cfg)
        assert e.terms == {
            NormalMonomial((1, 0, 0, 1)): LaurentPoly(1),
            NormalMonomial((0, 1, 1, 0)): -LaurentPoly.q_diff(),
        }

    def test_determinant_is_central(self):
        cfg = make_config(2, "gl")
        assert evaluate("D*t[1,1] - t[1,1]*D", cfg).is_zero()

    def test_powers_and_parens(self):
        cfg = make_config(2)
        assert evaluate("(t[1,1] + t[1,2])^2", cfg) == evaluate(
            "t[1,1]^2 + (1 + q^-1) t[1,1] t[1,2] + t[1,2]^2", cfg
        )

    def test_unary_minus(self):
        cfg = make_config(2)
        assert evaluate("-q t[1,1] + 2", cfg) == evaluate("2 - q t[1,1]", cfg)

    def test_root_ring_coefficients(self):
        cfg = make_config(2, ell=3)
        assert evaluate("q^3", cfg) == Element.one(cfg)


def _random_expr(rng, depth=0, allow_d=False):
    atoms = ["q", "q^-1", "q^2", "1", "2", "3", "t[1,1]", "t[1,2]", "t[2,1]", "t[2,2]"]
    if allow_d:
        atoms += ["D", "D^-1"]
    if depth >= 2:
        return rng.choice(atoms)
    roll = rng.random()
    if roll < 0.35:
        return rng.choice(atoms)
    if roll < 0.55:
        return f"{_random_expr(rng, depth + 1, allow_d)} + {_random_expr(rng, depth + 1, allow_d)}"
    if roll < 0.75:
        return f"{_random_expr(rng, depth + 1, allow_d)} - {_random_expr(rng, depth + 1, allow_d)}"
    if roll < 0.9:
        return f"{_random_expr(rng, depth + 1, allow_d)} * {_random_expr(rng, depth + 1, allow_d)}"
    return f"({_random_expr(rng, depth + 1, allow_d)})^2"


class TestRoundTrip:
    def test_laurent_textual_form_round_trips(self):
        rng = random.Random(127)
        cfg = make_config(2)
        for _ in range(30):
            poly = LaurentPoly(
                {rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(rng.randint(0, 4))}
            )
            if poly.is_zero():
                continue
            assert evaluate(str(poly), cfg) == Element.scalar(cfg, poly)

    def test_monomial_textual_form(self):
        from qcoord.render import monomial_to_str

        cfg = make_config(2, "gl")
        m = NormalMonomial((2, 1, 0, 0), -1)
        assert monomial_to_str(m, cfg.order) == "t[1,1]^2 t[1,2] D^-1"
        assert evaluate("t[1,1]^2 t[1,2] D^-1", cfg).terms == {m: LaurentPoly(1)}

    def test_print_parse_print_is_stable(self):
        # rendered output reparses to the same element, for a mixed corpus
        rng = random.Random(313)
        corpora = [
            (make_config(2), False, 50),
            (make_config(2, "gl"), True, 25),
            (make_config(2, ell=3), False, 25),
        ]
        for cfg, allow_d, count in corpora:
            for _ in range(count):
                src = _random_expr(rng, allow_d=allow_d)
                element = evaluate(src, cfg)
                printed = element_to_str(element)
                if element.is_zero():
                    assert printed == "0"
                    continue
                again = evaluate(printed, cfg)
                assert again == element
                assert element_to_str(again) == printed


class TestRun:
    def test_det_output(self, capsys):
        assert run(["det", "--n", "2"]) == 0
        assert capsys.readouterr().out == "t[1,1] t[2,2] - q t[1,2] t[2,1]\n"

    def test_nf_output(self, capsys):
        assert run(["nf", "t[2,2]*t[1,1]"]) == 0
        assert capsys.readouterr().out == "t[1,1] t[2,2] + (q^-1 - q) t[1,2] t[2,1]\n"

    def test_mul(self, capsys):
        assert run(["mul", "t[1,1]", "t[1,2]"]) == 0
        assert capsys.readouterr().out == "t[1,1] t[1,2]\n"

    def test_check_central(self, capsys):
        assert run(["check", "central", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_check_nakayama(self, capsys):
        assert run(["check", "nakayama", "--n", "2", "--ell", "3"]) == 0

    def test_check_iso_json(self, capsys):
        assert run(["check", "iso", "--n", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        assert payload["check"] == "iso"
        assert payload["pass"] is True
        assert all(case["pass"] for case in payload["cases"])

    def test_expand_json(self, capsys):
        assert run(["expand", "t[1,1]^4", "--ell", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "schema": 1,
            "ell": 3,
            "n": 2,
            "variant": "m",
            "entries": [{"basis_key": "t[1,1]", "classical_coeff": "tbar[1,1]"}],
        }

    def test_phi(self, capsys):
        assert run(["phi", "t[1,1]^2 t[1,2]^2 t[2,1]^2 t[2,2]^2", "--ell", "3"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_nakayama_command(self, capsys):
        assert run(["nakayama", "t[1,1]", "--ell", "3"]) == 0
        assert capsys.readouterr().out == "(-1 - q) t[1,1]\n"

    def test_nakayama_follows_the_generator_order(self, capsys):
        # t[2,2] t[1,2] t[2,1] is already ordered under the opposite order
        argv = ["nakayama", "t[2,2] t[1,2] t[2,1]", "--ell", "3", "--order", "opposite"]
        assert run(argv) == 0
        assert capsys.readouterr().out == "q t[2,2] t[1,2] t[2,1]\n"

    def test_basis_listing(self, capsys):
        assert run(["basis", "--ell", "3", "--n", "1"]) == 0
        assert capsys.readouterr().out == "1\nt[1,1]\nt[1,1]^2\n"

    def test_basis_json_count(self, capsys):
        assert run(["basis", "--ell", "3", "--n", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["basis"]) == 81

    def test_output_is_deterministic(self, capsys):
        run(["det", "--n", "3", "--json"])
        first = capsys.readouterr().out
        run(["det", "--n", "3", "--json"])
        assert capsys.readouterr().out == first

    def test_deep_nesting_fails_cleanly(self, capsys):
        assert run(["nf", "(" * 3000 + "t[1,1]" + ")" * 3000]) == 2
        err = capsys.readouterr().err
        assert err == f"parse error at offset {MAX_NESTING}: parentheses nested deeper than {MAX_NESTING}\n"

    def test_long_sum(self, capsys):
        assert run(["nf", " + ".join(["t[1,1]"] * 1500)]) == 0
        assert capsys.readouterr().out == "1500 t[1,1]\n"

    def test_parse_error_exit_code(self, capsys):
        assert run(["nf", "t[1,2]^-1"]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["nf", "t[1,1]", "--n", "0"], "error: dimension must be at least 1"),
            (["nf", "t[1 1]"], "parse error at offset 4: found '1' (expected ,)"),
            (["nf", "(t[1,1]"], "parse error at offset 7: input ended (expected ))"),
            (["nf", "t[1,1]^q"], "parse error at offset 7: found 'q' (expected integer exponent)"),
            (
                ["nf", "(t[1,1] + 1)^-1"],
                "parse error at offset 14: negative power is allowed only on q and D",
            ),
            (
                ["nf", "q + %"],
                "parse error at offset 4: unexpected character '%' "
                "(expected number, q, t, D, operator)",
            ),
            (["nf", "q )"], "parse error at offset 2: trailing input ')' (expected end of input)"),
            (
                ["nf", "t[1,1]t[2,2]"],
                "parse error at offset 6: adjacent factors need whitespace or '*' (expected *)",
            ),
            (["nf", "D"], "parse error at offset 0: D needs the gl or sl variant"),
            (["nf", "t[3,1]"], "parse error at offset 0: index t[3,1] out of range for n=2"),
            (["nf", "()"], "parse error at offset 1: found ')' (expected expression)"),
            (["nf", ""], "parse error at offset 0: input ended (expected expression)"),
            (["nf", "t 1"], "parse error at offset 2: found '1' (expected [)"),
            (["nf", "t[,1]"], "parse error at offset 2: found ',' (expected row index)"),
            (["nf", "t[1,"], "parse error at offset 4: input ended (expected column index)"),
            (["nf", "q^"], "parse error at offset 2: input ended (expected integer exponent)"),
        ],
    )
    def test_bad_input_is_one_line_and_exit_two(self, capsys, argv, message):
        assert run(argv) == 2
        assert capsys.readouterr().err == message + "\n"

    def test_a_digit_int_rejects_is_one_line_and_exit_two(self, capsys):
        # '²' passes str.isdigit but not int(); only the exit and the line count are promised.
        assert run(["nf", "1²"]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_unknown_subcommand(self, capsys):
        assert run(["bogus"]) == 2

    def test_malformed_flag(self, capsys):
        assert run(["det", "--variant", "xx"]) == 2

    def test_missing_ell(self, capsys):
        assert run(["check", "frobenius", "--n", "2"]) == 2
        assert run(["phi", "q"]) == 2

    @pytest.mark.parametrize(
        "argv,command",
        [
            (["expand", "q"], "expand"),
            (["phi", "q"], "phi"),
            (["nakayama", "q"], "nakayama"),
            (["basis"], "basis"),
            (["check", "frobenius"], "check frobenius"),
            (["check", "nakayama"], "check nakayama"),
        ],
    )
    def test_missing_ell_names_the_command(self, capsys, argv, command):
        assert run(argv) == 2
        assert capsys.readouterr().err == f"{command} requires --ell\n"

    def test_even_ell_rejected(self, capsys):
        assert run(["basis", "--ell", "4"]) == 2

    @pytest.mark.parametrize(
        "error,message",
        [(MemoryError, "error: out of memory\n"), (RecursionError, "error: recursion limit exceeded\n")],
    )
    def test_resource_errors_exit_two(self, capsys, monkeypatch, error, message):
        from qcoord import cli

        def exhausted(cfg):
            raise error()

        monkeypatch.setattr(cli.detloc, "quantum_determinant", exhausted)
        assert run(["det"]) == 2
        assert capsys.readouterr().err == message

    def test_resource_error_is_written_after_the_command_is_freed(self, capsys, monkeypatch):
        # Printing while the traceback still holds the command's frames can
        # raise a second MemoryError, ending in a traceback and exit 1.
        from qcoord import cli

        class Held:
            pass

        refs, alive = [], []

        def exhausted(args):
            held = Held()
            refs.append(weakref.ref(held))
            raise MemoryError

        def spy(message):
            alive.append(refs[0]() is not None)
            return fail(message)

        fail = cli._fail
        monkeypatch.setitem(cli.COMMANDS, "det", cli.COMMANDS["det"]._replace(handler=exhausted))
        monkeypatch.setattr(cli, "_fail", spy)
        assert run(["det"]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"
        assert alive == [False]

    def test_basis_json_refused_above_cap(self, capsys, monkeypatch):
        from qcoord import cli

        def never(*args):
            pytest.fail("the basis was enumerated")

        monkeypatch.setattr(cli.rootspec, "enumerate_basis", never)
        assert run(["basis", "--n", "4", "--ell", "3", "--json"]) == 2
        assert capsys.readouterr().err == (
            f"error: basis --json would list 3^16 keys, more than {cli.MAX_BASIS_JSON}; "
            "text output streams\n"
        )
        # 3^10000 has 4,772 digits, past the integer-to-text limit of Python
        assert run(["basis", "--n", "100", "--ell", "3", "--json"]) == 2
        assert capsys.readouterr().err.startswith("error: basis --json would list 3^10000 keys,")
        # gl adds a determinant residue: l^(n*n) * l keys
        monkeypatch.setattr(cli, "MAX_BASIS_JSON", 8)
        assert run(["basis", "--n", "1", "--ell", "3", "--variant", "gl", "--json"]) == 2
        assert "would list 3^2 keys, more than 8" in capsys.readouterr().err

    def test_nakayama_refused_above_case_cap(self, capsys, monkeypatch):
        from qcoord import frobext

        cap = frobext.MAX_NAKAYAMA_CASES
        # n=1, l=3: 3 twist cases and the 9 pairs of the 3-monomial grid, run
        # whole; exactly at the cap the suite runs
        monkeypatch.setattr(frobext, "MAX_NAKAYAMA_CASES", 12)
        assert run(["check", "nakayama", "--n", "1", "--ell", "3"]) == 0
        assert capsys.readouterr().out == "check nakayama (n=1, ell=3): PASS (12 cases)\n"
        monkeypatch.setattr(frobext, "MAX_NAKAYAMA_CASES", 11)
        assert run(["check", "nakayama", "--n", "1", "--ell", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: check nakayama would run 1*3^1 + 9 cases, more than 11\n"
        )

        def never(*args):
            pytest.fail("the basis was enumerated")

        monkeypatch.setattr(frobext, "enumerate_basis", never)
        # n=3, l=3: the 9 * 3^9 twist cases fit; with the sample of 500, one over
        monkeypatch.setattr(frobext, "MAX_NAKAYAMA_CASES", 9 * 3**9 + 499)
        assert run(["check", "nakayama", "--n", "3", "--ell", "3"]) == 2
        assert capsys.readouterr().err == (
            "error: check nakayama would run 9*3^9 + 500 cases, more than 177646\n"
        )
        monkeypatch.setattr(frobext, "MAX_NAKAYAMA_CASES", cap)
        for n, ell in ((3, 5), (4, 3), (2, 21), (100, 3)):
            assert run(["check", "nakayama", "--n", str(n), "--ell", str(ell)]) == 2
            assert capsys.readouterr() == ("", (
                f"error: check nakayama would run {n * n}*{ell}^{n * n} twist cases, "
                f"more than {cap}\n"
            ))

    def test_nakayama_refuses_before_building_its_context(self, monkeypatch):
        from qcoord import frobext

        def never(*args):
            pytest.fail("a pairing context was built")

        monkeypatch.setattr(frobext, "FrobeniusContext", never)
        with pytest.raises(ValueError, match="would run 1000000\\*3\\^1000000 twist cases"):
            frobext.check_nakayama(1000, 3)
        with pytest.raises(ValueError, match="odd positive"):
            frobext.check_nakayama(1000, 4)

    def test_confluence_refused_above_word_cap(self, capsys, monkeypatch):
        from qcoord import cli

        def never(*args, **kwargs):
            pytest.fail("an algebra was built")

        # --n 4 straightens sum(16**k for k <= 5) words and runs; --n 5 does not
        assert sum(16**k for k in range(cli.MAX_CONFLUENCE_LEN + 1)) <= cli.MAX_CONFLUENCE_WORDS
        monkeypatch.setattr(cli, "make_config", never)
        for n, words in ((5, 10172526), (1000, sum(10**(6 * k) for k in range(6)))):
            assert run(["check", "pbw-confluence", "--n", str(n)]) == 2
            assert capsys.readouterr() == ("", (
                f"error: check pbw-confluence would straighten {words} words, "
                f"more than {cli.MAX_CONFLUENCE_WORDS}\n"
            ))

    def test_identities_refused_above_size_limit(self, capsys, monkeypatch):
        from qcoord import detloc

        def never(*args, **kwargs):
            pytest.fail("an algebra was built")

        # --n 7 ran 58.6 s at 1,103 MB before it was refused
        monkeypatch.setattr(detloc, "make_config", never)
        assert run(["check", "identities", "--n", "7"]) == 2
        assert capsys.readouterr() == ("", (
            "error: check identities at n=7 is too large; the suite is limited to n <= 6\n"
        ))

    def test_central_refused_above_size_limit(self, capsys, monkeypatch):
        from qcoord import detloc

        def never(*args, **kwargs):
            pytest.fail("an algebra was built")

        # --n 7 ran 11.9 s; --n 8, which MAX_DET_N admits, ran past 90 s
        monkeypatch.setattr(detloc, "make_config", never)
        assert run(["check", "central", "--n", "8"]) == 2
        assert capsys.readouterr() == ("", (
            "error: check central at n=8 is too large; the suite is limited to n <= 7\n"
        ))

    def test_frobenius_refused_above_its_bounds(self, capsys, monkeypatch):
        from qcoord import rootspec

        def never(*args, **kwargs):
            pytest.fail("an algebra was built")

        monkeypatch.setattr(rootspec, "make_config", never)
        assert run(["check", "frobenius", "--n", "30", "--ell", "3"]) == 2
        assert capsys.readouterr() == ("", (
            "error: check frobenius at n=30, l=3 would cost n^5*(l^3 + 256 n) = 187280100000, "
            f"more than {rootspec.MAX_FROBENIUS_WORK}\n"
        ))
        assert run(["check", "frobenius", "--n", "2", "--ell", "999"]) == 2
        assert capsys.readouterr() == ("", (
            "error: check frobenius at n=2, l=999 would cost n^5*(l^3 + 256 n) = 31904112352, "
            f"more than {rootspec.MAX_FROBENIUS_WORK}\n"
        ))
        with pytest.raises(ValueError, match="odd positive"):
            rootspec.check_frobenius_central(30, 4)

    @pytest.mark.parametrize("argv", [["det", "--n", "9"], ["check", "iso", "--n", "9"]])
    def test_determinant_above_size_limit_exits_two(self, capsys, argv):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "n <= 8" in err

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        from qcoord import cli
        from qcoord.report import CheckReport

        report = CheckReport("central", 2)
        report.add("forced failure", "1", False)
        monkeypatch.setattr(cli.detloc, "check_central", lambda n, ell=None: report)
        assert run(["check", "central"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "order,expected", [("rowmajor", row_major_order), ("opposite", make_opposite_order)]
    )
    def test_confluence_suite_straightens_under_the_run_order(
        self, capsys, monkeypatch, order, expected
    ):
        from qcoord import cli

        seen = set()
        straighten = cli.normal_form_of_word

        def spy(cfg, word, strategy):
            seen.add(cfg.order)
            return straighten(cfg, word, strategy)

        monkeypatch.setattr(cli, "normal_form_of_word", spy)
        assert run(["check", "pbw-confluence", "--n", "2", "--order", order]) == 0
        assert capsys.readouterr().out == "check pbw-confluence (n=2): PASS (6 cases)\n"
        assert seen == {expected(2)}


class TestMain:
    """The installed entry point, run as a child process."""

    @staticmethod
    def spawn(*argv):
        env = dict(os.environ, PYTHONPATH=str(Path(qcoord.__file__).parents[1]))
        return subprocess.Popen(
            [sys.executable, "-c", "from qcoord.cli import main; main()", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )

    def test_reader_leaving_after_one_line_ends_quietly(self):
        # 3**9 basis lines overfill the pipe, so the child is still writing
        # when the reader goes
        with self.spawn("basis", "--n", "3", "--ell", "3") as child:
            assert child.stdout.readline() == b"1\n"
            child.stdout.close()
            assert child.wait(timeout=60) == EXIT_BROKEN_PIPE
            assert child.stderr.read() == b""

    def test_reader_gone_before_the_first_write_ends_quietly(self):
        with self.spawn("check", "pbw-confluence", "--n", "2", "--json") as child:
            child.stdout.close()
            assert child.wait(timeout=60) == EXIT_BROKEN_PIPE
            assert child.stderr.read() == b""

    @staticmethod
    def run_capped(*argv):
        """Run to the end under a 1 GB address-space limit, so that a
        regression ends in a MemoryError in the child, not in memory taken
        from the machine."""

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = dict(os.environ, PYTHONPATH=str(Path(qcoord.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-c", "from qcoord.cli import main; main()", *argv],
            capture_output=True,
            env=env,
            timeout=60,
            preexec_fn=limit,
        )

    def test_a_long_product_word_exits_two_within_seconds(self):
        child = self.run_capped("nf", "t[2,2]^100000000 t[1,1]")
        assert (child.returncode, child.stdout, child.stderr) == (
            2,
            b"",
            b"error: a word of 100000001 letters is too long; "
            b"words are limited to 1000000 letters\n",
        )

    def test_an_oversized_nakayama_check_exits_two_up_front(self):
        # 17,578,125 twist cases: unrefused, the suite ran for seconds into
        # the memory cap, then ended in exit 1, 2, 120 or 134 by where it ran out
        child = self.run_capped("check", "nakayama", "--n", "3", "--ell", "5")
        assert (child.returncode, child.stdout, child.stderr) == (
            2,
            b"",
            b"error: check nakayama would run 9*5^9 twist cases, more than 524288\n",
        )

    def test_exit_code_is_kept_when_output_is_read(self):
        with self.spawn("det", "--n", "2") as child:
            out, err = child.communicate(timeout=60)
        assert (child.returncode, out, err) == (0, b"t[1,1] t[2,2] - q t[1,2] t[2,1]\n", b"")


class TestTables:
    """A generator prints as its normal form; ``run`` refuses ``--n`` above
    ``MAX_N``, ``--ell`` above ``MAX_ELL`` and a shared flag that a suite
    does not read."""

    @pytest.mark.parametrize("flavor", ["standard", "opposite"])
    @pytest.mark.parametrize("variant", ["gl", "sl"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_a_generator_prints_as_its_normal_form(self, capsys, n, variant, flavor):
        cfg = make_config(n, variant, flavor=flavor)
        order = "rowmajor" if flavor == "standard" else "opposite"
        flags = ["--n", str(n), "--variant", variant, "--order", order]
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                t = Element.generator(cfg, i, j)
                assert t == Element.from_monomials(t.config, t.terms.items())
                printed = []
                for spelling in (f"t[{i},{j}]", f"t[{i},{j}] * 1"):
                    assert run(["nf", spelling, *flags]) == 0
                    if variant == "gl":
                        assert run(["phi", spelling, "--ell", "3", *flags]) == 0
                    printed.append(capsys.readouterr().out)
                assert printed[0] == printed[1]

    @pytest.mark.parametrize(
        "argv",
        [["nf", "t[2,2] t[1,1]"], ["basis", "--ell", "3"], ["check", "central"]],
    )
    def test_n_above_max_n_is_refused_before_anything_is_built(self, capsys, monkeypatch, argv):
        from qcoord import cli
        from qcoord.monomial import GenOrder

        def never(self):
            pytest.fail("a generator order was built")

        monkeypatch.setattr(GenOrder, "__post_init__", never)
        assert run([*argv, "--n", "100000"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --n 100000 is too large; commands are limited to n <= {cli.MAX_N}\n"

    @pytest.mark.parametrize(
        "argv,builder,flag",
        [
            ("check nakayama --ell 3 --variant gl", "frobext.check_nakayama", "variant"),
            ("check central --order opposite", "detloc.check_central", "order"),
            ("check iso --ell 3", "detloc.check_sl_gl_iso", "ell"),
        ],
    )
    def test_check_refuses_a_flag_its_suite_does_not_read(
        self, capsys, monkeypatch, argv, builder, flag
    ):
        from qcoord import cli

        def never(*args):
            pytest.fail("the suite ran")

        module, name = builder.split(".")
        monkeypatch.setattr(getattr(cli, module), name, never)
        assert run(argv.split()) == 2
        assert capsys.readouterr() == ("", f"check {argv.split()[1]} does not take --{flag}\n")

    @pytest.mark.parametrize(
        "argv",
        [["nf", "q"], ["nakayama", "t[1,1]"], ["basis"], ["check", "nakayama"]],
    )
    def test_ell_above_max_ell_is_refused_before_anything_is_built(self, capsys, monkeypatch, argv):
        from qcoord import cli
        from qcoord.coeff import CycloRing

        def never(self):
            pytest.fail("a cyclotomic ring was built")

        monkeypatch.setattr(CycloRing, "__post_init__", never)
        assert run([*argv, "--ell", "1001"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --ell 1001 is too large; commands are limited to ell <= {cli.MAX_ELL}\n"

    @pytest.mark.parametrize(
        "argv,letters",
        [
            (["nf", "t[2,2]^9 t[1,1]"], 10),
            (["nf", "(t[1,1]^5 + 1) t[2,2]^5"], 10),
        ],
    )
    def test_a_word_above_max_word_len_is_refused_before_it_is_straightened(
        self, capsys, monkeypatch, argv, letters
    ):
        from qcoord import rewrite

        def never(*args):
            pytest.fail("a word was straightened")

        monkeypatch.setattr(rewrite, "MAX_WORD_LEN", 8)
        monkeypatch.setattr(rewrite, "_rewrite", never)
        assert run(argv) == 2
        assert capsys.readouterr() == (
            "",
            f"error: a word of {letters} letters is too long; words are limited to 8 letters\n",
        )
        with pytest.raises(ValueError, match="a word of 9 letters"):
            Element.from_words(make_config(2), [(((1, 1),) * 9, 1)])

    def test_a_diagonal_power_at_n1_builds_no_word_of_its_length(self, capsys, monkeypatch):
        # At n = 1 every reduction step of t[1,1]^k has the core t[1,1]:
        # ``D``'s one letter, never a word of k letters.
        from qcoord import rewrite

        monkeypatch.setattr(rewrite, "MAX_WORD_LEN", 8)
        monkeypatch.setattr(rewrite, "_reduction_step", rewrite._reduction_step.__wrapped__)
        assert run(["nf", "t[1,1]^13", "--n", "1", "--variant", "gl"]) == 0
        assert capsys.readouterr() == ("D^13\n", "")

    def test_a_core_above_max_word_len_is_refused_before_it_is_straightened(self, monkeypatch):
        # t11 t22^12 t33 at n = 3 is its own core: t22 is the one letter
        # that no core cuts, and t11 and t33 are targets at exponent 1.  So
        # the product by ``D`` builds t22^11 with ``D``'s three letters.
        from qcoord import rewrite

        cfg = make_config(3, "gl")
        rewrite._det_words(cfg.order)

        def never(*args):
            pytest.fail("a word was straightened")

        monkeypatch.setattr(rewrite, "MAX_WORD_LEN", 8)
        monkeypatch.setattr(rewrite, "_rewrite", never)
        monkeypatch.setattr(rewrite, "_reduction_step", rewrite._reduction_step.__wrapped__)
        with pytest.raises(ValueError, match="a word of 14 letters is too long"):
            Element.from_monomials(cfg, [(NormalMonomial((1, 0, 0, 0, 12, 0, 0, 0, 1)), 1)])

    def test_check_accepts_the_default_of_a_flag_it_does_not_read(self, capsys):
        assert run(["check", "identities", "--variant", "m", "--order", "rowmajor"]) == 0
        assert capsys.readouterr().out == "check identities (n=2): PASS (7 cases)\n"


# Expressions from the grammar: exponents up to 3 on atoms only, and indices
# up to 3, so that at n <= 2 every draw runs in milliseconds.
_ATOMS = st.tuples(
    st.sampled_from(["q", "D", "0", "2", "t[1,1]", "t[1,2]", "t[2,1]", "t[2,2]", "t[3,1]"]),
    st.sampled_from(["", "", "^0", "^3", "^-1"]),
).map("".join)
_EXPRESSIONS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "-", " * ", " ", ""]), inner).map("".join),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
    ),
    max_leaves=6,
)


@st.composite
def _expressions(draw):
    """A grammar expression, one time in three with a stray character spliced in."""
    expr = draw(_EXPRESSIONS)
    stray = draw(st.sampled_from(["%", "x", "²", "٣", "\t", "]", "(", "^"]))
    k = draw(st.integers(0, len(expr)))
    return expr[:k] + stray + expr[k:] if draw(st.integers(0, 2)) == 0 else expr


# Each shared flag's valid values, then its invalid ones.
_FLAG_VALUES = {
    "--n": (["1", "2"], ["0", "-1", "1001", "two"]),
    "--ell": (["1", "3", "5"], ["4", "-3", "1001"]),
    "--variant": (["m", "gl", "sl"], ["xx"]),
    "--order": (["rowmajor", "opposite"], ["xx"]),
}


@st.composite
def _command_lines(draw):
    """A command line with valid flags, or with one flag's value invalid."""
    command = draw(st.sampled_from([*cli.COMMANDS]))
    suites = st.sampled_from([*cli.SUITES, "bogus"])
    argv = [command]
    for arg in cli.COMMANDS[command].args:
        argv.append(draw(suites if arg == "suite" else _expressions()))
    invalid = draw(st.sampled_from([None, None, *_FLAG_VALUES]))
    for flag, (valid, bad) in _FLAG_VALUES.items():
        value = draw(st.sampled_from(bad if flag == invalid else [None, *valid]))
        argv += [flag, value] if value is not None else []
    return argv + (["--json"] if draw(st.booleans()) else [])


class TestFuzz:
    @settings(SETTINGS, max_examples=200)
    @given(_command_lines())
    def test_every_command_line_ends_in_an_exit_code(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2)
        if code == 2 and not err.getvalue().startswith("usage:"):
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        if code != 2:
            assert err.getvalue() == ""
