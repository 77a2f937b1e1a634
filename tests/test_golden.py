"""Golden CLI transcript: a fixed command list whose output must not change
by a single byte.

Each command runs in-process through ``qcoord.cli.run``; its exit code,
stdout and stderr are appended to a transcript that is compared with
``golden_cli.txt``.  Regenerate the file with ``python tests/test_golden.py``
only when an output change is intended.  Suites whose output is too long to
keep there are pinned by the sha256 of their stdout in ``DIGESTS``.
"""

import contextlib
import hashlib
import io
import shlex
from pathlib import Path

import pytest

from qcoord import rewrite
from qcoord.cli import run
from qcoord.monomial import make_opposite_order, row_major_order

GOLDEN = Path(__file__).with_name("golden_cli.txt")

TOP2 = "t[1,1]^2 t[1,2]^2 t[2,1]^2 t[2,2]^2"

COMMANDS = [
    *(
        f"det --n {n} --variant {variant} --order {order}"
        for n in (2, 3)
        for variant in ("m", "gl", "sl")
        for order in ("rowmajor", "opposite")
    ),
    "det --n 3 --json",
    "det --n 2 --variant gl --order opposite --json",
    "nf 't[2,2] t[1,1]' --variant gl",
    "nf 't[2,2] t[1,1] t[1,2]' --variant gl --order opposite --json",
    "nf 't[2,2] t[1,1] + D^-1 t[2,1]' --variant gl",
    "nf 't[2,2] t[2,1] t[1,1] t[1,2]' --variant sl",
    "nf 't[2,1] t[2,2] t[1,1] t[1,2]' --variant sl --order opposite",
    "nf 't[2,2]^2 t[1,1]^2 - q t[1,2]' --ell 3",
    "nf '(t[1,1] + q^-1 t[2,2])^3' --ell 3 --json",
    "mul 't[2,2] t[1,2]' 't[1,1] t[2,1]' --variant gl",
    "mul 't[1,1] t[2,2]' 't[1,1]' --variant gl --order opposite --json",
    "mul 't[2,2]^2' 't[1,1]^2' --variant sl --json",
    "mul 't[2,1] t[2,2]' 't[1,1] t[1,2]' --variant sl --order opposite",
    "mul 't[2,2]^2 t[2,1]' 't[1,1]^2 t[1,2]' --ell 3",
    f"expand '{TOP2} t[2,2]^2 t[1,1]^3 + q t[1,2]^4' --ell 3",
    "expand 't[2,2]^4 t[1,1]^2 D^-2 + t[1,2]^3 D^5' --ell 3 --variant gl --json",
    f"phi '{TOP2}' --ell 3",
    "phi 't[2,2]^5 t[2,1]^2 t[1,2]^2 t[1,1]^2 + q t[1,2]^3' --ell 3 --json",
    f"phi '{TOP2} D^3 - q t[2,2]^2 t[2,1]^2 t[1,2]^2 t[1,1]^2 D^-3' --ell 3 --variant gl",
    "phi 't[1,1] t[1,2]^2 t[2,1]^2 t[2,2] D^4 + t[1,2]^2 t[2,1]^2 D^5' --ell 3 --variant gl"
    " --order opposite",
    "nakayama 't[1,1] t[2,2]^2 + t[1,2] t[2,1]^2' --ell 3",
    "nakayama 't[1,2]^2 t[2,1] D^-1 + t[2,2]' --ell 3 --variant gl --json",
    "basis --n 2 --ell 3",
    "basis --n 1 --ell 3 --variant gl --json",
    "check central --n 2",
    "check central --n 2 --json",
    "check iso --n 2",
    "check identities --n 2 --json",
    "check frobenius --n 2 --ell 3",
    "nf 't[1,2]^-1'",
    "phi q",
]


# Suites too long to keep in the transcript, pinned by the sha256 of stdout.
DIGESTS = {
    "check nakayama --n 2 --ell 3 --json": "c2d58306b7af90a72dd7aea9c4357817f7655a742d44c729104220da42a739b3",
    "check nakayama --n 2 --ell 5 --json": "daff1568519698da4c4ffb2c4bca4434a27660fc68959b128f685ea3e210a7fe",
    "check identities --n 5 --json": "5d094791d73cfd27d6614c1a5bdef83ca56fe22340a34953d121e335e0b2954a",
    "check iso --n 3 --json": "063c2f6bfa17fa39cd5196f1399ffc318036b26cc049bb411406d55d0719538e",
    # 13 terms whose coefficients reach 100 terms and |c| = 504.
    "nf 't[2,2]^12 t[1,1]^12' --n 2": "e061c2c6740124ba98c4e97a03d879b12c36162e25610e1cf55bd1b1d78b810c",
    # 21 terms whose coefficients reach 274 terms and |c| = 244,340.
    "nf 't[2,2]^20 t[1,1]^20' --n 2": "1ca90ba0725cf2be1c000dfb284ec3d6963886da278049247d8faef86314b9b1",
    # Its l1 bounds pass 2**63, so the 64-bit pass is redone at 68 bits,
    # determinant enforcement included: 137 reduction steps a pass.
    "nf 't[2,2]^16 t[1,1]^16' --n 2 --variant gl": "ad8b6ddad4e0362999ece0a5eef711097d5ed07ed95c08f2fff0ae341f5d8b2b",
    # n = 3 products that take several determinant reduction steps: 29, 29
    # and 11 misses of the reduction-step cache.
    "mul 't[1,1]^2 t[2,3] t[3,3] t[2,2]' 't[2,2] t[3,3] t[1,1] t[3,2]^2' --n 3 --variant gl"
    " --order opposite": "69e399a772146d3259de8aca557ac8fdcead7e7385a23c936371ffe3ae91eb7e",
    "mul 't[1,3]^2 t[2,2] t[3,1] t[2,1]' 't[1,3] t[2,2]^2 t[3,1]^2 t[1,2]' --n 3 --variant sl"
    " --order opposite": "3e8a810bb27f9d0ccda286ad365ade882d6cbd056fdf3606d1dc75063f5f9461",
    "mul 't[1,1]^2 t[2,2] t[3,3] t[2,1]' 't[1,1] t[2,2]^2 t[3,3] t[1,3]' --n 3 --variant gl"
    " --json": "b9db888ee0fa2434e5c4193cc57edca9f863eb66e0709f3f19c15d2ae25e90d7",
}


def capture(command: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(shlex.split(command))
    return code, out.getvalue(), err.getvalue()


def transcript() -> str:
    chunks = []
    for command in COMMANDS:
        code, out, err = capture(command)
        chunks.append(f"$ qcoord {command}\n[exit {code}]\n{out}")
        if err:
            chunks.append(f"[stderr]\n{err}")
    return "".join(chunks)


def test_transcript_is_byte_identical():
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


def test_transcript_is_byte_identical_from_a_three_bit_start_width(monkeypatch):
    """With every operation packed at 3-bit digits first, most passes are
    abandoned or refused and redone wider; not a byte of output changes.
    The generator orders, which carry ``D``, and the reduction and decoding
    tables are cleared so that they are rebuilt that way."""
    caches = (row_major_order, make_opposite_order, rewrite._reduction_step, rewrite._decoded)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(rewrite, "_PACK_WIDTH", 3)
    assert transcript() == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_suite_stdout_digest(command):
    code, out, err = capture(command)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[command]


if __name__ == "__main__":
    GOLDEN.write_text(transcript(), encoding="utf-8")
