"""The word layer compares letters by identity.

`free_reduce` tests `is`, and `invariant` counts letters in a Counter.  That
is sound only while every letter of a word is the one interned object of its
value, slot pairs included.  Each test here holds the fast path to a
reference that compares with `==` or XORs one bit per letter, on words whose
slot pairs are built fresh.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidgamma import geom2d, gf2, words
from braidgamma.braids import parse_braid
from braidgamma.errors import GroupMismatchError, IndexRangeError
from braidgamma.generators import GammaGen
from braidgamma.homs import HomConfig, generator_image, map_braid, passage
from braidgamma.words import (
    GammaWord,
    MultiWord,
    free_reduce,
    g_columns,
    gamma_columns,
    invariant,
    parse_word,
)

SEEDED = settings(max_examples=200, deadline=None, derandomize=True, database=None)

TARGETS = [("g", 1), ("gamma", 1), ("gammar", 1), ("gammar", 2), ("gammar", 3)]


@st.composite
def fresh_words(draw):
    """(word, n): a word over a pool of at most five letters, so that many
    neighbours cancel, with every slot pair a tuple built on the spot."""
    target, r = draw(st.sampled_from(TARGETS))
    n = draw(st.integers(4, 7))
    cols = g_columns(n) if target == "g" else gamma_columns(n)
    pool = draw(st.lists(st.tuples(st.integers(0, r - 1), st.sampled_from(cols)),
                         min_size=1, max_size=5))
    picks = draw(st.lists(st.sampled_from(pool), max_size=60))
    if target == "gammar":
        return MultiWord(r, tuple(tuple([slot, gen]) for slot, gen in picks)), n
    return words.TARGETS[target].word(tuple(gen for _, gen in picks)), n


def reference_reduce(letters):
    stack = []
    for letter in letters:
        if stack and stack[-1] == letter:
            stack.pop()
        else:
            stack.append(letter)
    return stack


def reference_columns(kind, n, r):
    """The coordinate letters in bit order: for gammar, r slot-major blocks
    of `gamma_columns(n)`, each letter tagged with its slot."""
    if kind == "g":
        return list(g_columns(n))
    if kind == "gamma":
        return list(gamma_columns(n))
    return [(slot, g) for slot in range(r) for g in gamma_columns(n)]


def reference_bits(w, n):
    """One XOR per letter, then each slot's block reduced modulo the
    pentagon rows."""
    cols = reference_columns(w.kind, n, w.r)
    column = {letter: k for k, letter in enumerate(cols)}
    bits = 0
    for letter in w.letters:
        bits ^= 1 << column[letter]
    if w.kind == "g":
        return bits
    width = len(gamma_columns(n))
    basis = dict(gf2.echelon(words.pentagon_rows(n)))
    out = 0
    for slot in range(w.r):
        out |= gf2.reduce(bits >> (slot * width) & ((1 << width) - 1), basis) << (slot * width)
    return out


@st.composite
def sparse_slot_words(draw):
    """(word, n): letters only in slots 0 and r - 1, with r up to MAX_R."""
    r = draw(st.sampled_from([2, 3, 64, 1000, words.MAX_R - 1, words.MAX_R]))
    n = draw(st.integers(4, 6))
    picks = draw(st.lists(st.tuples(st.sampled_from([0, r - 1]),
                                    st.sampled_from(gamma_columns(n))), max_size=12))
    return MultiWord(r, tuple(picks)), n


@SEEDED
@given(fresh_words())
def test_free_reduce_matches_an_equality_stack(case):
    w, _ = case
    assert list(free_reduce(w).letters) == reference_reduce(w.letters)


@SEEDED
@given(fresh_words())
def test_invariant_matches_a_per_letter_xor(case):
    w, n = case
    assert invariant(w, n).bits == reference_bits(w, n)


@SEEDED
@given(fresh_words())
def test_fresh_slot_pairs_reduce_as_parsed_letters(case):
    w, n = case
    parsed = parse_word(str(w), w.r, w.kind)
    assert parsed == w
    assert free_reduce(parsed) == free_reduce(w)
    assert invariant(parsed, n) == invariant(w, n)
    for a, b in zip(parsed.letters, w.letters):
        assert a is b


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sparse_slot_words())
def test_sparse_high_slots_match_the_reference(case):
    w, n = case
    cls = invariant(w, n)
    assert cls.bits == reference_bits(w, n)
    cols = reference_columns(w.kind, n, w.r)
    letters = [cols[k] for k in range(len(cols)) if cls.bits >> k & 1]
    assert cls.nonzero_letters() == letters
    assert str(cls) == (" + ".join(f"[{slot}]{g}" for slot, g in letters) or "0")


def test_a_fresh_tuple_cancels_its_equal():
    g = GammaGen((1, 2, 3, 4))
    assert free_reduce(MultiWord(2, ((0, g), tuple([0, g])))) == MultiWord(2)


def test_equal_slot_letters_are_one_object():
    g = GammaGen((1, 2, 3, 5))
    built = MultiWord(3, ((1, g), tuple([1, g]))).letters
    parsed = parse_word("[1]d(1,2,3,5)", 3, "gammar").letters
    assert built[0] is built[1] is parsed[0]
    # passages, generator images, traced words and map images share them
    cfg = HomConfig(6, "gammar", 2)
    image = map_braid(cfg, parse_braid("b(1,3) b(2,5)^-1", 6), reduced=False)
    traced = geom2d.events_to_word(geom2d.trace(geom2d.generator_choreography(5, 1, 3)),
                                   "gammar", 2)
    for w in (passage(cfg, 1, 3), generator_image(cfg, 2, 5), image, traced):
        for letter in w.letters:
            assert MultiWord(2, (tuple(letter),)).letters[0] is letter


def test_invariant_names_the_first_bad_letter_even_twice_over():
    d9, a = GammaGen((1, 2, 3, 9)), g_columns(5)[0]
    with pytest.raises(IndexRangeError, match=r"letter d\(1,2,3,9\) uses index 9 > n=5"):
        invariant(GammaWord((d9, d9, a)), 5)
    with pytest.raises(GroupMismatchError, match=r"cannot hold the letter a\{1,2,3,4\}"):
        invariant(GammaWord((a, d9, a)), 5)
