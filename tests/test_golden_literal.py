"""Golden gate for the literal map and the word commands: exit code and
output digest per call.

`check` runs at n = 5..7 for every target (g, gamma, gammar with r = 2 and
r = 3), both assemblies and both output formats; then with `--relation3 both`
(gamma, and gammar with r = 3 in both formats), traced with
`--compare-modes`, and traced for g and for gammar with r = 2.  `map` runs a few
braid words per target and assembly, and `invariant` and `canon` run good and
bad group words, so parse errors and their positions are pinned too.  Each
call goes through `cli.main`; the SHA-256 of stdout followed by stderr, and
the exit code, must match the stored table.

After an intended change of output, rewrite the digests with
`PYTHONPATH=src python tests/test_golden_literal.py` and review the changed
rows.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from braidgamma import cli

GOLDEN = Path(__file__).with_name("data") / "golden_literal.json"

TARGETS = (("g",), ("gamma",), ("gammar", "--r", "2"), ("gammar", "--r", "3"))
ASSEMBLIES = ("flip", "doubled")
BRAIDS = ("b(1,2)", "b(2,5)^-1 b(1,3) b(3,4)^2", "b(1,6) b(2,4)^-1 b(1,6)^-1 b(2,4)")
GROUP_WORDS = (
    # (extra flags, word)
    ((), "d(2,1,3,4) d(1,2,3,4) d(5,6,1,2) d(1,2,3,4)"),
    ((), "d(1,2,3,4) d(1,2,4,5) d(2,3,4,5) d(1,2,3,5) d(1,3,4,5)"),
    ((), "a{4,3,2,1}  a{1,2,5,6} a{1,2,3,4}"),
    (("--target", "gammar", "--r", "3"), "[2]d(1,2,3,4) [0]d(3,4,5,6) [2]d(4,3,2,1)"),
    ((), ""),
    ((), "d(1,2,3,9)"),
    ((), "d(1,2,3,4) a{1,2,3,4}"),
    ((), "a{1,2,3,4} [0]d(1,2,3,4)"),
    (("--target", "gammar", "--r", "2"), "[0]d(1,2,3,4) [2]d(1,2,3,4)"),
    ((), "d(1,2,3,4"),
    ((), "d(1,1,3,4)"),
    ((), "x"),
)


def calls():
    for n in (5, 6, 7):
        for target in TARGETS:
            for assembly in ASSEMBLIES:
                for fmt in ("text", "json"):
                    yield ["check", "-n", str(n), "--target", *target,
                           "--assembly", assembly, "--format", fmt]
    yield ["check", "-n", "6", "--relation3", "both"]
    yield ["check", "-n", "5", "--mode", "traced", "--compare-modes"]
    for fmt in ("text", "json"):
        yield ["check", "-n", "6", "--target", "gammar", "--r", "3",
               "--relation3", "both", "--format", fmt]
    yield ["check", "-n", "5", "--mode", "traced", "--target", "g"]
    yield ["check", "-n", "5", "--mode", "traced", "--target", "gammar", "--r", "2"]
    for target in TARGETS:
        for assembly in ASSEMBLIES:
            for word in BRAIDS:
                yield ["map", "-n", "6", "--target", *target, "--assembly", assembly, word]
    yield ["map", "-n", "6", "--target", "gammar", "--r", "2", "--format", "json", BRAIDS[1]]
    for flags, word in GROUP_WORDS:
        yield ["invariant", "-n", "6", *flags, word]
        yield ["canon", *flags, word]
    flags, word = GROUP_WORDS[3]
    yield ["invariant", "-n", "6", "--format", "json", *flags, word]


def outputs() -> dict:
    """Exit code and stdout followed by stderr of every golden call."""
    out = {}
    for argv in calls():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        out[" ".join(argv)] = (code, stdout.getvalue() + stderr.getvalue())
    return out


def digests(outs: dict) -> dict:
    return {
        key: [code, hashlib.sha256(text.encode()).hexdigest()]
        for key, (code, text) in outs.items()
    }


@pytest.fixture(scope="module")
def golden_outputs():
    return outputs()


def test_literal_output_matches_golden_digests(golden_outputs):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digests(golden_outputs)
    assert sorted(got) == sorted(expected)
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"{len(changed)} outputs differ: {changed[:10]}"
    codes = [code for code, _ in got.values()]
    assert codes.count(3) >= 10  # parse and range errors stay covered


if __name__ == "__main__":
    table = digests(outputs())
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
