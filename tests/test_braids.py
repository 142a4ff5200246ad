import random

import pytest

from braidgamma.errors import IndexRangeError, WordSyntaxError
from braidgamma.braids import (
    BraidWord,
    braid,
    braid_inverse,
    parse_braid,
    print_braid,
    relation_instances,
)
from braidgamma.generators import BraidGen


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
