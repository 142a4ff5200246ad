import itertools
import random

import pytest

from braidgamma import gf2
from braidgamma.errors import GroupMismatchError, IndexRangeError, WordSyntaxError
from braidgamma.generators import GammaGen, GGen, quads_of_subset
from braidgamma.words import (
    GammaWord,
    GWord,
    MultiWord,
    commute_normalize,
    forget_to_g,
    free_reduce,
    gamma_columns,
    invariant,
    invariant_equal,
    invert,
    parse_gamma_word,
    parse_gword,
    parse_multi_word,
    parse_word,
    pentagon_faces,
    pentagon_rows,
    word_to_text,
)

D = lambda *c: GammaGen(tuple(c))
A = lambda *m: GGen(tuple(m))


def random_gamma_word(rng, n, length):
    cols = gamma_columns(n)
    return GammaWord(tuple(rng.choice(cols) for _ in range(length)))


def random_multi_word(rng, n, r, length):
    cols = gamma_columns(n)
    return MultiWord(r, tuple((rng.randrange(r), rng.choice(cols)) for _ in range(length)))


# ---------------------------------------------------------------------------
# free reduction / inversion
# ---------------------------------------------------------------------------


def test_free_reduce_examples():
    assert free_reduce(GammaWord((D(1, 2, 3, 4), D(1, 2, 3, 4)))) == GammaWord()
    w = GammaWord((D(1, 2, 3, 4), D(1, 2, 4, 3)))
    assert free_reduce(w) == w
    mw = MultiWord(2, ((0, D(1, 2, 3, 4)), (1, D(1, 2, 3, 4))))
    assert free_reduce(mw) == mw


def test_free_reduce_is_confluent():
    # Inserting squares anywhere must not change the reduced word.
    rng = random.Random(3)
    for _ in range(100):
        w = random_gamma_word(rng, 6, rng.randrange(8))
        reduced = free_reduce(w)
        letters = list(w.letters)
        for _ in range(4):
            pos = rng.randrange(len(letters) + 1)
            g = rng.choice(gamma_columns(6))
            letters[pos:pos] = [g, g]
        assert free_reduce(GammaWord(tuple(letters))) == reduced


def test_invert():
    assert invert(GammaWord()) == GammaWord()
    assert invert(GammaWord((D(1, 2, 3, 4), D(1, 2, 4, 3)))) == GammaWord(
        (D(1, 2, 4, 3), D(1, 2, 3, 4))
    )
    rng = random.Random(5)
    for _ in range(50):
        w = random_gamma_word(rng, 6, rng.randrange(10))
        assert free_reduce(w * invert(w)) == GammaWord()
        mw = random_multi_word(rng, 5, 3, rng.randrange(10))
        assert free_reduce(mw * invert(mw)) == MultiWord(3)


# ---------------------------------------------------------------------------
# pentagon rows and the invariant
# ---------------------------------------------------------------------------


def test_pentagon_rows_small():
    assert pentagon_rows(4) == ()
    rows = pentagon_rows(5)
    index = {g: k for k, g in enumerate(gamma_columns(5))}
    expected = 0
    for face in pentagon_faces((1, 2, 3, 4, 5)):
        expected |= 1 << index[face]
    assert expected in rows
    assert all(bin(row).count("1") == 5 for row in rows)


def test_pentagon_rows_regression_constants():
    # Frozen after a first audited run, backed by the elimination oracle below.
    assert len(pentagon_rows(5)) == 12
    assert len(gf2.echelon(pentagon_rows(5))) == 6
    assert len(pentagon_rows(6)) == 72
    assert len(gf2.echelon(pentagon_rows(6))) == 26


def test_invariant_examples():
    w = GammaWord((D(1, 2, 3, 4), D(1, 2, 3, 4)))
    assert invariant(w, 4).is_zero()
    assert invariant(GammaWord(pentagon_faces((1, 2, 3, 4, 5))), 5).is_zero()
    single = GammaWord((D(1, 2, 3, 4),))
    assert not invariant(single, 5).is_zero()
    # oracle for the nonzero claim: the unit vector is outside the row space
    index = {g: k for k, g in enumerate(gamma_columns(5))}
    unit = 1 << index[D(1, 2, 3, 4)]
    assert gf2.reduce(unit, gf2.echelon(pentagon_rows(5))) != 0


def test_pentagon_rows_match_all_ordered_tuples():
    for n in range(5, 9):
        index = {g: k for k, g in enumerate(gamma_columns(n))}
        rows = set()
        for order in itertools.permutations(range(1, n + 1), 5):
            row = 0
            for face in pentagon_faces(order):
                row |= 1 << index[face]
            rows.add(row)
        assert pentagon_rows(n) == tuple(sorted(rows))


def test_invariant_rejects_out_of_range():
    message = r"^letter d\(1,2,3,7\) uses index 7 > n=5$"
    with pytest.raises(IndexRangeError, match=message):
        invariant(GammaWord((D(1, 2, 3, 7),)), 5)
    # the first offending letter is named, wherever it sits
    with pytest.raises(IndexRangeError, match=message):
        invariant(GammaWord((D(1, 2, 3, 4), D(1, 2, 3, 7), D(1, 2, 3, 9))), 5)
    with pytest.raises(IndexRangeError, match=message):
        invariant(MultiWord(2, ((0, D(1, 2, 3, 4)), (1, D(1, 2, 3, 7)))), 5)
    with pytest.raises(IndexRangeError, match=r"^letter a\{2,3,4,6\} uses index 6 > n=5$"):
        invariant(GWord((A(1, 2, 3, 4), A(2, 3, 4, 6))), 5)


def test_invariant_additivity_and_symmetries():
    rng = random.Random(9)
    for _ in range(60):
        w1 = random_gamma_word(rng, 6, rng.randrange(10))
        w2 = random_gamma_word(rng, 6, rng.randrange(10))
        assert invariant(w1 * w2, 6) == invariant(w1, 6) + invariant(w2, 6)
        assert invariant(invert(w1), 6) == invariant(w1, 6)
        assert invariant(free_reduce(w1), 6) == invariant(w1, 6)
        assert invariant(commute_normalize(w1), 6) == invariant(w1, 6)
    for _ in range(30):
        mw = random_multi_word(rng, 6, 3, rng.randrange(10))
        assert invariant(invert(mw), 6) == invariant(mw, 6)
        assert invariant(free_reduce(mw), 6) == invariant(mw, 6)
        assert invariant(commute_normalize(mw), 6) == invariant(mw, 6)


def test_reduction_is_idempotent_and_row_order_free():
    # The echelon basis spans the same row space under any row order, so the
    # reduced representative is unique.
    rng = random.Random(47)
    rows = list(pentagon_rows(6))
    basis = gf2.echelon(rows)
    for _ in range(20):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        other = gf2.echelon(shuffled)
        for _ in range(20):
            vec = rng.getrandbits(len(gamma_columns(6)))
            red = gf2.reduce(vec, basis)
            assert gf2.reduce(vec, other) == red
            assert gf2.reduce(red, basis) == red


def test_invariant_equal_examples():
    rng = random.Random(13)
    w = random_gamma_word(rng, 5, 6)
    pentagon = GammaWord(pentagon_faces((1, 2, 3, 4, 5)))
    assert invariant_equal(w, w * pentagon, 5)
    assert not invariant_equal(w, w * GammaWord((D(1, 2, 3, 4),)), 5)
    assert invariant_equal(w, invert(w), 5)
    with pytest.raises(GroupMismatchError):
        invariant_equal(w, forget_to_g(w), 5)
    with pytest.raises(GroupMismatchError):
        invariant_equal(MultiWord(2), MultiWord(3), 5)


def test_gamma_defining_relations_have_equal_invariants():
    # All four relation families on n <= 6, realized as word pairs.
    for n in (5, 6):
        empty = GammaWord()
        cols = gamma_columns(n)
        # involution
        for g in cols:
            assert invariant_equal(GammaWord((g, g)), empty, n)
        # far-commutation
        for x, y in itertools.combinations(cols, 2):
            if len(set(x.subset) & set(y.subset)) < 3:
                assert invariant_equal(GammaWord((x, y)), GammaWord((y, x)), n)
        # pentagon
        for order in itertools.permutations(range(1, n + 1), 5):
            assert invariant_equal(GammaWord(pentagon_faces(order)), empty, n)
        # dihedral identification is definitional: same canonical letter
        for subset in itertools.combinations(range(1, n + 1), 4):
            for perm in itertools.permutations(subset):
                assert GammaGen(perm) in quads_of_subset(subset)


def test_g_invariant_is_plain_parity():
    w = GWord((A(1, 2, 3, 4), A(1, 2, 3, 5), A(1, 2, 3, 4)))
    cls = invariant(w, 5)
    assert cls.kind == "g"
    assert cls.nonzero_letters() == [A(1, 2, 3, 5)]
    # the 5-term squared relation abelianizes to zero
    fives = [A(1, 2, 3, 4), A(1, 2, 3, 5), A(1, 2, 4, 5), A(1, 3, 4, 5), A(2, 3, 4, 5)]
    squared = GWord(tuple(fives + fives))
    assert invariant(squared, 5).is_zero()


def test_multiword_invariant_is_per_slot():
    same_slot = MultiWord(2, ((0, D(1, 2, 3, 4)), (0, D(1, 2, 3, 4))))
    split = MultiWord(2, ((0, D(1, 2, 3, 4)), (1, D(1, 2, 3, 4))))
    assert invariant(same_slot, 5).is_zero()
    assert not invariant(split, 5).is_zero()
    # within n=4 there is no pentagon row, so representatives stay unit vectors
    assert invariant(split, 4).nonzero_letters() == [
        (0, D(1, 2, 3, 4)),
        (1, D(1, 2, 3, 4)),
    ]
    pentagon = pentagon_faces((1, 2, 3, 4, 5))
    assert invariant(MultiWord(3, tuple((1, g) for g in pentagon)), 5).is_zero()
    mixed = MultiWord(2, tuple((k % 2, g) for k, g in enumerate(pentagon)))
    assert not invariant(mixed, 5).is_zero()


# ---------------------------------------------------------------------------
# forget / commute-normalize
# ---------------------------------------------------------------------------


def test_forget_to_g():
    assert forget_to_g(GammaWord((D(1, 2, 3, 4),))) == GWord((A(1, 2, 3, 4),))
    assert forget_to_g(GammaWord((D(1, 2, 4, 3),))) == GWord((A(1, 2, 3, 4),))
    rng = random.Random(17)
    for _ in range(40):
        w = random_gamma_word(rng, 7, rng.randrange(12))
        assert len(forget_to_g(w)) == len(w)


def test_commute_normalize_examples():
    w = GammaWord((D(1, 2, 3, 4), D(5, 6, 7, 8), D(1, 2, 3, 4)))
    assert commute_normalize(w) == GammaWord((D(5, 6, 7, 8),))
    sticky = GammaWord((D(1, 2, 3, 4), D(1, 2, 3, 5)))
    assert commute_normalize(sticky) == sticky
    # sharing 3 indices blocks the swap even when the key order says otherwise
    blocked = GammaWord((D(1, 2, 3, 5), D(1, 2, 3, 4)))
    assert commute_normalize(blocked) == blocked


def test_commute_normalize_idempotent_and_invariant_safe():
    rng = random.Random(23)
    for _ in range(80):
        w = random_gamma_word(rng, 8, rng.randrange(12))
        nf = commute_normalize(w)
        assert commute_normalize(nf) == nf
        assert invariant_equal(nf, w, 8)
    for _ in range(40):
        mw = random_multi_word(rng, 6, 3, rng.randrange(10))
        nf = commute_normalize(mw)
        assert commute_normalize(nf) == nf
        assert invariant_equal(nf, mw, 6)


def test_commute_normalize_crosses_slots():
    x, y = D(1, 2, 3, 4), D(1, 2, 3, 5)
    mw = MultiWord(2, ((0, x), (1, y), (0, x)))
    assert commute_normalize(mw) == MultiWord(2, ((1, y),))


# ---------------------------------------------------------------------------
# text forms
# ---------------------------------------------------------------------------


def test_parse_and_print_roundtrip():
    text = "d(1,2,3,4) d(1,3,2,5)"
    assert word_to_text(parse_gamma_word(text)) == text
    assert word_to_text(parse_gamma_word("  d(2,3,4,1)   d(1,3,2,5) ")) == text
    assert word_to_text(parse_gword("a{4,1,3,2}")) == "a{1,2,3,4}"
    assert word_to_text(parse_multi_word("[0]d(1,2,3,4) [2]d(2,3,4,5)", 3)) == (
        "[0]d(1,2,3,4) [2]d(2,3,4,5)"
    )
    assert parse_gamma_word("") == GammaWord()
    assert word_to_text(GammaWord()) == ""


def test_parse_word_infers_kind():
    assert isinstance(parse_word("a{1,2,3,4}"), GWord)
    assert isinstance(parse_word("d(1,2,3,4)"), GammaWord)
    w = parse_word("[1]d(1,2,3,4)")
    assert isinstance(w, MultiWord) and w.r == 2


def test_parse_errors_carry_positions():
    with pytest.raises(WordSyntaxError) as err:
        parse_gamma_word("d(1,2,3")
    assert err.value.position == 7
    with pytest.raises(WordSyntaxError) as err:
        parse_gamma_word("d(1,2,3,4) x")
    assert err.value.position == 11
    with pytest.raises(WordSyntaxError):
        parse_gword("d(1,2,3,4)")
    with pytest.raises(WordSyntaxError):
        parse_multi_word("[5]d(1,2,3,4)", 2)
    with pytest.raises(WordSyntaxError):
        parse_gamma_word("d(1,2,,4)")


# ---------------------------------------------------------------------------
# the normal form against an independent oracle
# ---------------------------------------------------------------------------


def _oracle_commute(x, y):
    """Far commutation, written out apart from the package: letters in
    different slots, or on 4-subsets sharing fewer than 3 indices."""
    if isinstance(x, tuple):
        if x[0] != y[0]:
            return True
        x, y = x[1], y[1]
    members = lambda g: set(g.members if isinstance(g, GGen) else g.cycle)
    return len(members(x) & members(y)) < 3


def _oracle_reduce(letters, rng):
    """Tits deletion in a random order: drop two equal letters while every
    letter between them commutes with them, until no such pair is left."""
    letters = list(letters)
    while True:
        pairs = [
            (i, j)
            for i, j in itertools.combinations(range(len(letters)), 2)
            if letters[i] == letters[j]
            and all(_oracle_commute(letters[i], z) for z in letters[i + 1 : j])
        ]
        if not pairs:
            return tuple(letters)
        i, j = rng.choice(pairs)
        del letters[j], letters[i]


def _oracle_class(letters):
    """Every word reached by swapping adjacent commuting letters (BFS)."""
    seen = {letters}
    todo = [letters]
    while todo:
        w = todo.pop()
        for k in range(len(w) - 1):
            if w[k] != w[k + 1] and _oracle_commute(w[k], w[k + 1]):
                v = w[:k] + (w[k + 1], w[k]) + w[k + 2 :]
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
    return seen


def _perturb(rng, w, pool, moves):
    """A word equal to w modulo involution and far commutation: random xx
    insertions and swaps of adjacent commuting letters."""
    letters = list(w.letters)
    for _ in range(moves):
        if rng.random() < 0.4:
            x = rng.choice(pool)
            pos = rng.randrange(len(letters) + 1)
            letters[pos:pos] = [x, x]
        elif len(letters) > 1:
            k = rng.randrange(len(letters) - 1)
            if _oracle_commute(letters[k], letters[k + 1]):
                letters[k], letters[k + 1] = letters[k + 1], letters[k]
    if isinstance(w, MultiWord):
        return MultiWord(w.r, tuple(letters))
    return type(w)(tuple(letters))


def _pools():
    """Small alphabets with both commuting and non-commuting pairs."""
    gammas = [D(1, 2, 3, 4), D(1, 2, 4, 3), D(1, 2, 3, 5), D(3, 4, 5, 6), D(1, 2, 5, 6)]
    gs = [A(1, 2, 3, 4), A(1, 2, 3, 5), A(3, 4, 5, 6), A(1, 2, 5, 6), A(2, 3, 4, 6)]
    multis = [(s, g) for s in range(2) for g in gammas[:3]]
    return (
        (lambda ls: GammaWord(tuple(ls)), gammas),
        (lambda ls: GWord(tuple(ls)), gs),
        (lambda ls: MultiWord(2, tuple(ls)), multis),
    )


def test_commute_normalize_matches_tits_oracle():
    rng = random.Random(2024)
    equal_pairs = 0
    for make, pool in _pools():
        for _ in range(150):
            w1 = make(rng.choice(pool) for _ in range(rng.randrange(7)))
            if rng.random() < 0.5:
                w2 = _perturb(rng, w1, pool, rng.randrange(1, 4))
            else:
                w2 = make(rng.choice(pool) for _ in range(rng.randrange(7)))
            reduced1 = _oracle_reduce(w1.letters, rng)
            reduced2 = _oracle_reduce(w2.letters, rng)
            cls = _oracle_class(reduced1)
            nf1, nf2 = commute_normalize(w1), commute_normalize(w2)
            assert type(nf1) is type(w1)
            # the form is a reduced word of the element, the least one
            assert nf1.letters in cls and nf1.letters == min(cls)
            assert (nf1 == nf2) == (reduced2 in cls)
            equal_pairs += nf1 == nf2
    assert 100 < equal_pairs < 400


def test_commute_normalize_equal_words_get_equal_forms():
    rng = random.Random(1500)
    cols = gamma_columns(6)
    for _ in range(300):
        w = random_gamma_word(rng, 6, rng.randrange(4, 14))
        assert commute_normalize(_perturb(rng, w, cols, 12)) == commute_normalize(w)
    for _ in range(100):
        mw = random_multi_word(rng, 6, 2, rng.randrange(4, 14))
        pool = [(s, g) for s in range(2) for g in cols]
        assert commute_normalize(_perturb(rng, mw, pool, 12)) == commute_normalize(mw)


# ---------------------------------------------------------------------------
# words of one target only
# ---------------------------------------------------------------------------


def test_words_of_different_targets_do_not_multiply():
    g, gamma = GWord((A(1, 2, 3, 4),)), GammaWord((D(1, 2, 3, 4),))
    with pytest.raises(GroupMismatchError, match="cannot concatenate a GWord with a GammaWord"):
        g * gamma
    with pytest.raises(GroupMismatchError):
        gamma * MultiWord(2, ((0, D(1, 2, 3, 4)),))
    with pytest.raises(GroupMismatchError, match="cannot concatenate words with r=2 and r=3"):
        MultiWord(2) * MultiWord(3)


def test_invariant_rejects_letters_of_another_kind():
    with pytest.raises(GroupMismatchError, match=r"a GammaWord cannot hold the letter a\{1,2,3,4\}"):
        invariant(GammaWord((D(1, 2, 3, 4), A(1, 2, 3, 4))), 5)
    with pytest.raises(GroupMismatchError, match=r"a GWord cannot hold the letter d\(1,2,3,4\)"):
        invariant(GWord((D(1, 2, 3, 4),)), 5)
    with pytest.raises(GroupMismatchError, match=r"cannot hold the letter \[1\]a\{1,2,3,4\}"):
        invariant(MultiWord(2, ((1, A(1, 2, 3, 4)),)), 5)
    with pytest.raises(GroupMismatchError, match=r"cannot hold the letter \[0.5\]d\(1,2,3,4\)"):
        invariant(MultiWord(2, ((0.5, D(1, 2, 3, 4)),)), 5)
    # the first bad letter is named, be it of another kind or out of range
    with pytest.raises(IndexRangeError):
        invariant(GammaWord((D(1, 2, 3, 9), A(1, 2, 3, 4))), 5)


@pytest.mark.parametrize(
    "letter, text",
    [
        (D(1, 2, 3, 4), "d(1,2,3,4)"),  # no slot
        ((0,), "(0,)"),  # no quadruple
        (("0", D(1, 2, 3, 4)), "[0]d(1,2,3,4)"),  # a slot that is not a number
    ],
)
def test_multi_word_rejects_malformed_letters(letter, text):
    with pytest.raises(GroupMismatchError) as info:
        MultiWord(2, ((1, D(1, 2, 3, 5)), letter))
    assert str(info.value) == f"a MultiWord cannot hold the letter {text}"
