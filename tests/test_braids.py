import random
import sys
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_fuzz_boundary import SEEDED, TEXT

from braidgamma import braids
from braidgamma.errors import BraidGammaError, IndexRangeError, WordSyntaxError
from braidgamma.braids import (
    _INTERNED_LETTERS,
    BraidWord,
    _interned,
    braid,
    braid_inverse,
    parse_braid,
    print_braid,
    relation_instances,
)
from braidgamma.generators import BraidGen
from braidgamma.words import parse_uint


def test_parse_braid():
    w = parse_braid("b(1,3) b(2,4)^-1", 4)
    assert len(w) == 2
    assert w.letters == (BraidGen(1, 3), BraidGen(2, 4, -1))
    assert print_braid(w) == "b(1,3) b(2,4)^-1"
    assert parse_braid("b(1,2)^3", 3).letters == (BraidGen(1, 2, 3),)
    assert parse_braid("", 3) == BraidWord(3)


def test_parse_braid_errors():
    with pytest.raises(IndexRangeError):
        parse_braid("b(3,1)", 4)
    with pytest.raises(IndexRangeError):
        parse_braid("b(2,5)", 4)
    with pytest.raises(WordSyntaxError) as err:
        parse_braid("b(1,3) c(2,4)", 4)
    assert err.value.position == 7
    with pytest.raises(WordSyntaxError):
        parse_braid("b(1,3)^0", 4)
    # str.isdigit accepts a superscript two, which int() rejects
    with pytest.raises(WordSyntaxError) as err:
        parse_braid("b(1,\u00b2)", 4)
    assert err.value.position == 4


def test_roundtrip_corpus():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randrange(2, 8)
        letters = []
        for _ in range(rng.randrange(6)):
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            e = rng.choice([-3, -2, -1, 1, 2, 3])
            letters.append(BraidGen(i, j, e))
        w = BraidWord(n, tuple(letters))
        text = print_braid(w)
        assert parse_braid(text, n) == w
        # sloppy whitespace normalizes
        assert print_braid(parse_braid("  " + text.replace(" ", "   "), n)) == text


def test_braid_inverse():
    assert braid_inverse(braid(3, (1, 2))) == braid(3, (1, 2, -1))
    assert braid_inverse(braid(3, (1, 2), (1, 3, 2))) == braid(3, (1, 3, -2), (1, 2, -1))
    rng = random.Random(37)
    for _ in range(50):
        n = rng.randrange(2, 7)
        letters = []
        for _ in range(rng.randrange(5)):
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            letters.append(BraidGen(i, j, rng.choice([-2, -1, 1, 2])))
        w = BraidWord(n, tuple(letters))
        # merge adjacent letters on one strand pair, dropping zero exponents
        stack = []
        for g in (w * braid_inverse(w)).letters:
            if stack and (stack[-1].i, stack[-1].j) == (g.i, g.j):
                e = stack.pop().exponent + g.exponent
                if e:
                    stack.append(BraidGen(g.i, g.j, e))
            else:
                stack.append(g)
        assert stack == []


def test_relation_instances_small():
    insts = relation_instances(3)
    assert [r.family for r in insts] == ["2a", "2b"]
    assert insts[0].indices == (1, 2, 3)
    assert print_braid(insts[0].lhs) == "b(1,2) b(1,3) b(2,3)"
    assert print_braid(insts[0].rhs) == "b(1,3) b(2,3) b(1,2)"
    assert print_braid(insts[1].rhs) == "b(2,3) b(1,2) b(1,3)"


def test_relation_instance_counts():
    # Regression constants fixed by brute-force enumeration of the printed
    # index patterns: family 1 has two patterns per 4-subset, family 2 has two
    # equalities per 3-subset, family 3 one instance per 4-subset.
    def counts(n):
        from collections import Counter

        return Counter(r.family for r in relation_instances(n))

    assert counts(4) == {"1": 2, "2a": 4, "2b": 4, "3": 1}
    assert counts(5) == {"1": 10, "2a": 10, "2b": 10, "3": 5}
    assert counts(6) == {"1": 30, "2a": 20, "2b": 20, "3": 15}


def test_relation_instances_are_well_formed():
    for n in (3, 4, 5, 6):
        insts = relation_instances(n)
        assert insts == relation_instances(n)  # deterministic
        for inst in insts:
            assert inst.lhs.letters != inst.rhs.letters
            for g in list(inst.lhs) + list(inst.rhs):
                assert 1 <= g.i < g.j <= n
            # two sides are permutations of the same letter multiset
            assert sorted(map(str, inst.lhs)) == sorted(map(str, inst.rhs))


def test_relation3_inverted_variant():
    printed = [r for r in relation_instances(4) if r.family == "3"]
    inverted = [r for r in relation_instances(4, family3_inverted=True) if r.family == "3inv"]
    assert len(printed) == len(inverted) == 1
    assert print_braid(printed[0].lhs) == "b(1,3) b(2,3) b(2,4) b(2,3)"
    assert print_braid(inverted[0].lhs) == "b(1,3) b(2,3) b(2,4) b(2,3)^-1"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: parse_braid("b(1,2", 4), WordSyntaxError, "expected ')' (at position 5)"),
        (lambda: BraidGen(0, 2), IndexRangeError,
         "strand index must be a positive integer, got 0"),
        (lambda: BraidWord(3, (BraidGen(1, 4),)), IndexRangeError,
         "letter b(1,4) exceeds strand count n=3"),
        (lambda: relation_instances(1), IndexRangeError, "need n >= 2 strands, got 1"),
    ],
)
def test_bad_braid_input_raises_its_error_class_and_message(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message


# ---------------------------------------------------------------------------
# the term-pattern parser against the term-by-term scanner it replaced
# ---------------------------------------------------------------------------


def oracle_parse(text: str, n: int) -> BraidWord:
    """The scanner-only `parse_braid`, kept as the oracle of the fast one."""
    letters = []
    i = 0
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i >= len(text):
            break
        start = i
        if not text.startswith("b(", i):
            raise WordSyntaxError("expected 'b('", i)
        a, i = parse_uint(text, i + 2)
        if i >= len(text) or text[i] != ",":
            raise WordSyntaxError("expected ','", i)
        b, i = parse_uint(text, i + 1)
        if i >= len(text) or text[i] != ")":
            raise WordSyntaxError("expected ')'", i)
        i += 1
        exponent = 1
        if i < len(text) and text[i] == "^":
            i += 1
            sign = 1
            if i < len(text) and text[i] == "-":
                sign = -1
                i += 1
            mag, i = parse_uint(text, i)
            exponent = sign * mag
            if exponent == 0:
                raise WordSyntaxError("exponent must be nonzero", start)
        if a >= b:
            raise IndexRangeError(f"braid letter needs i < j, got b({a},{b})")
        if b > n:
            raise IndexRangeError(f"letter b({a},{b}) exceeds strand count n={n}")
        letters.append(BraidGen(a, b, exponent))
    return BraidWord(n, tuple(letters))


def outcome(parse, text, n):
    """The word, or the error's class, message and position."""
    try:
        return parse(text, n)
    except BraidGammaError as e:
        return type(e), str(e), getattr(e, "position", None)


BLANKS = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
INDEX_TEXT = st.sampled_from(["0", "1", "2", "3", "4", "7", "01", "002", "12", "\u00b2", "\u0663", ""])


@st.composite
def near_terms(draw):
    """Terms with indices and exponents that are valid, zero, padded, signed,
    non-ASCII or cut, joined by blanks, by no separator or by non-blanks."""
    out = draw(st.sampled_from(["", " ", "\t\n", "\x1c"]))
    for _ in range(draw(st.integers(0, 4))):
        exponent = draw(st.sampled_from(
            ["", "^2", "^-1", "^-3", "^0", "^-0", "^+3", "^", "^-", "^^2", "^01", "^\u00b2"]
        ))
        term = f"b({draw(INDEX_TEXT)},{draw(INDEX_TEXT)}){exponent}"
        cut = draw(st.integers(0, len(term)))
        out += draw(st.sampled_from([term, term, term[:cut]]))
        out += draw(st.sampled_from(["", " ", "\u2003", "\u200b", "\r\n", "x", "("]))
    return out


@SEEDED
@given(st.one_of(TEXT, near_terms()), st.integers(-1, 9))
def test_parse_braid_agrees_with_the_scanner_oracle(text, n):
    assert outcome(parse_braid, text, n) == outcome(oracle_parse, text, n)


TOO_LONG = "9" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize(
    "text, n, expected",
    [
        ("b(1,2)b(1,3)", 4, (BraidGen(1, 2), BraidGen(1, 3))),
        ("b(1,2)^-0", 4, (WordSyntaxError, "exponent must be nonzero (at position 0)", 0)),
        ("b(1,2)^+3", 4, (WordSyntaxError, "expected an integer (at position 7)", 7)),
        ("b(1,2)^", 4, (WordSyntaxError, "expected an integer (at position 7)", 7)),
        ("b(1,2)^-", 4, (WordSyntaxError, "expected an integer (at position 8)", 8)),
        ("b(1,2)^2^3", 4, (WordSyntaxError, "expected 'b(' (at position 8)", 8)),
        ("b(01,02)", 4, (BraidGen(1, 2),)),
        ("b(1,2)\x1cb(1,3)\u2003b(2,3)^-2", 4,
         (BraidGen(1, 2), BraidGen(1, 3), BraidGen(2, 3, -2))),
        ("b(1,2)" + BLANKS + "b(3,4)" + BLANKS, 4, (BraidGen(1, 2), BraidGen(3, 4))),
        ("b(1,2)\u200bb(1,3)", 4, (WordSyntaxError, "expected 'b(' (at position 6)", 6)),
        ("b(1,3)^-2\t\n", 4, (BraidGen(1, 3, -2),)),
        ("b(1,\u0663)", 4, (WordSyntaxError, "expected an integer (at position 4)", 4)),
        ("b(1,2)^\u0663", 4, (WordSyntaxError, "expected an integer (at position 7)", 7)),
        ("b(1,2)^" + TOO_LONG, 4, (WordSyntaxError, "integer too long (at position 7)", 7)),
        ("b(1," + TOO_LONG + ")", 4, (WordSyntaxError, "integer too long (at position 4)", 4)),
        ("b(2,5)^2", 4, (IndexRangeError, "letter b(2,5) exceeds strand count n=4", None)),
        ("b(3,1)", 4, (IndexRangeError, "braid letter needs i < j, got b(3,1)", None)),
        ("b(0,2)", 4, (IndexRangeError, "strand index must be a positive integer, got 0", None)),
        ("b(0,5)", 4, (IndexRangeError, "letter b(0,5) exceeds strand count n=4", None)),
        ("b(1,2) b(2,5) b(1,2", 4,
         (IndexRangeError, "letter b(2,5) exceeds strand count n=4", None)),
    ],
)
def test_parse_braid_pinned_cases(text, n, expected):
    got = outcome(parse_braid, text, n)
    assert got == outcome(oracle_parse, text, n)
    assert (got.letters if type(got) is BraidWord else got) == expected


def test_a_valid_word_reaches_the_scanner_only_at_its_end():
    text = BLANKS + BLANKS.join(f"b({i},{j})^{e}" for i, j, e in [(1, 2, -3), (2, 4, 1), (1, 4, 12)])
    for word in (text, text + BLANKS):
        with mock.patch.object(braids, "_scan_term", wraps=braids._scan_term) as scan:
            assert parse_braid(word, 4) == oracle_parse(word, 4)
        assert scan.call_count == 1


def test_parsed_letters_are_interned_and_the_cache_is_bounded():
    text = "b(1,2) b(3,4)^-2 b(1,2)"
    first, second = parse_braid(text, 4), parse_braid(text, 4)
    assert first.letters[0] is first.letters[2]
    assert all(a is b for a, b in zip(first.letters, second.letters))
    _interned.cache_clear()
    for bad in ("b(3,1)", "b(1,2)^-0", "b(0,2)", "b(1,2)^" + TOO_LONG):
        with pytest.raises(BraidGammaError):
            parse_braid(bad, 4)
    assert _interned.cache_info().currsize == 0  # refused terms are never cached
    many = " ".join(f"b(1,2)^{e}" for e in range(1, _INTERNED_LETTERS + 50))
    assert len(parse_braid(many, 2)) == _INTERNED_LETTERS + 49
    info = _interned.cache_info()
    assert info.maxsize == info.currsize == _INTERNED_LETTERS
