import itertools
import random

import pytest

from braidgamma import gf2
from braidgamma.errors import GroupMismatchError, IndexRangeError, WordSyntaxError
from braidgamma.generators import GammaGen, GGen
from braidgamma.homs import HomConfig, letter_slot
from braidgamma.words import (
    MAX_R,
    GammaWord,
    GWord,
    InvariantClass,
    MultiWord,
    TARGETS,
    check_target,
    free_reduce,
    g_columns,
    gamma_columns,
    invariant,
    invariant_equal,
    invert,
    parse_word,
    pentagon_faces,
    pentagon_rows,
    target_word,
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


@pytest.mark.parametrize("n", range(4, 9))
def test_gamma_columns_are_in_letter_order(n):
    # the columns sort as cycle tuples; the letters' own __lt__ agrees
    cols = gamma_columns(n)
    assert cols == tuple(sorted(cols)) and len(set(cols)) == len(cols) == 3 * len(g_columns(n))


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
    for _ in range(30):
        mw = random_multi_word(rng, 6, 3, rng.randrange(10))
        assert invariant(invert(mw), 6) == invariant(mw, 6)
        assert invariant(free_reduce(mw), 6) == invariant(mw, 6)


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


def echelon_by_insertion(rows):
    """The echelon algorithm as first written: each row is reduced against
    the whole sorted basis, then cleared from it and inserted."""
    basis = []
    for row in rows:
        for pivot, b in basis:
            if row >> pivot & 1:
                row ^= b
        if row == 0:
            continue
        pivot = (row & -row).bit_length() - 1
        basis = [(p, b ^ row if b >> pivot & 1 else b) for p, b in basis]
        basis.append((pivot, row))
        basis.sort()
    return tuple(basis)


def gauss_jordan(rows, width):
    """Dense Gauss-Jordan over GF(2) on bit lists, columns taken from 0 up:
    the (pivot, row) pairs of the reduced row-echelon form."""
    matrix = [[row >> c & 1 for c in range(width)] for row in rows]
    done = []
    for c in range(width):
        hit = next((r for r in matrix if r[c] and r not in done), None)
        if hit is None:
            continue
        for r in matrix:
            if r is not hit and r[c]:
                r[:] = [x ^ y for x, y in zip(r, hit)]
        done.append(hit)
    return tuple(
        (next(c for c in range(width) if r[c]), sum(x << c for c, x in enumerate(r)))
        for r in done
    )


def dense_reduce(vec, pairs, width):
    bits = [vec >> c & 1 for c in range(width)]
    for pivot, row in pairs:
        if bits[pivot]:
            bits = [x ^ (row >> c & 1) for c, x in enumerate(bits)]
    return sum(x << c for c, x in enumerate(bits))


def test_pentagon_basis_ranks():
    # 3 C(n,4) - d, with d = dim V/R = 9, 19, 34, 55, 83, 119 for n = 5..10
    ranks = {n: len(gf2.echelon(pentagon_rows(n))) for n in range(5, 11)}
    assert ranks == {5: 6, 6: 26, 7: 71, 8: 155, 9: 295, 10: 511}
    for n, d in zip(range(5, 11), (9, 19, 34, 55, 83, 119)):
        assert ranks[n] == len(gamma_columns(n)) - d


def test_pentagon_basis_is_reduced_and_unchanged():
    for n in range(5, 11):
        rows = pentagon_rows(n)
        basis = gf2.echelon(rows)
        assert basis == echelon_by_insertion(rows)
        pivots = [p for p, _ in basis]
        assert pivots == sorted(set(pivots))
        for pivot, row in basis:
            assert row & -row == 1 << pivot  # the row's lowest bit
            assert sum(b >> pivot & 1 for _, b in basis) == 1  # set in no other row
        table = dict(basis)
        assert all(gf2.reduce(row, basis) == 0 for row in rows)
        assert all(gf2.reduce(row, table) == 0 for row in rows)


def test_echelon_and_reduce_match_dense_gauss_jordan():
    rng = random.Random(2)
    cases = [(pentagon_rows(n), len(gamma_columns(n))) for n in range(5, 9)]
    for _ in range(40):
        width = rng.randrange(1, 70)
        density = rng.choice((0.05, 0.2, 0.5))
        rows = [sum(1 << c for c in range(width) if rng.random() < density)
                for _ in range(rng.randrange(0, 30))]
        rows += rng.sample(rows, len(rows) // 4)  # repeated rows
        cases.append((rows, width))
    for rows, width in cases:
        basis = gf2.echelon(rows)
        oracle = gauss_jordan(rows, width)
        assert basis == tuple(sorted(oracle))
        for _ in range(10):
            vec = rng.getrandbits(width)
            assert gf2.reduce(vec, basis) == dense_reduce(vec, oracle, width)


def test_invariant_equal_examples():
    rng = random.Random(13)
    w = random_gamma_word(rng, 5, 6)
    pentagon = GammaWord(pentagon_faces((1, 2, 3, 4, 5)))
    assert invariant_equal(w, w * pentagon, 5)
    assert not invariant_equal(w, w * GammaWord((D(1, 2, 3, 4),)), 5)
    assert invariant_equal(w, invert(w), 5)
    with pytest.raises(GroupMismatchError):
        invariant_equal(w, GWord(tuple(GGen(x.subset) for x in w)), 5)
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
            quads = {GammaGen(perm) for perm in itertools.permutations(subset)}
            assert len(quads) == 3 and all(q.subset == subset for q in quads)


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


def test_nonzero_letters_name_no_letter_for_bits_past_the_columns():
    # such a class is unequal to the zero class, so it must not print as 0
    past = [
        InvariantClass(5, "gamma", 1, 1 << 15),
        InvariantClass(3, "gamma", 1, 1),  # no columns at all
        InvariantClass(4, "g", 1, 0b11),  # one column
        InvariantClass(4, "gammar", 2, 1 << 3 | 1 << 6),  # 2 slots of 3 columns
        InvariantClass(4, "g", 1, -1),  # a negative int has bits past any column
    ]
    for cls in past:
        with pytest.raises(IndexRangeError, match="bits past the"):
            cls.nonzero_letters()
        with pytest.raises(IndexRangeError, match="bits past the"):
            str(cls)
    assert past[0] != InvariantClass(5, "gamma", 1, 0)
    assert InvariantClass(4, "g", 1, 0b1).nonzero_letters() == [A(1, 2, 3, 4)]
    assert InvariantClass(4, "gammar", 2, 1 << 3).nonzero_letters() == [
        (1, gamma_columns(4)[0])
    ]


# ---------------------------------------------------------------------------
# text forms
# ---------------------------------------------------------------------------


def test_parse_and_print_roundtrip():
    text = "d(1,2,3,4) d(1,3,2,5)"
    assert word_to_text(parse_word(text, target="gamma")) == text
    assert word_to_text(parse_word("  d(2,3,4,1)   d(1,3,2,5) ", target="gamma")) == text
    assert word_to_text(parse_word("a{4,1,3,2}", target="g")) == "a{1,2,3,4}"
    assert word_to_text(parse_word("[0]d(1,2,3,4) [2]d(2,3,4,5)", 3, "gammar")) == (
        "[0]d(1,2,3,4) [2]d(2,3,4,5)"
    )
    assert parse_word("", target="gamma") == GammaWord()
    assert word_to_text(GammaWord()) == ""


def test_parse_word_infers_kind():
    assert isinstance(parse_word("a{1,2,3,4}"), GWord)
    assert isinstance(parse_word("d(1,2,3,4)"), GammaWord)
    w = parse_word("[1]d(1,2,3,4)")
    assert isinstance(w, MultiWord) and w.r == 2


def test_parse_word_infers_r_for_gammar():
    # r comes from the largest slot; with no slotted letter it is 1
    assert parse_word("", target="gammar") == MultiWord(1)
    assert parse_word("[0]d(1,2,3,4) [2]d(2,3,4,5)", target="gammar").r == 3
    with pytest.raises(WordSyntaxError) as err:
        parse_word("d(1,2,3,4)", target="gammar")
    assert err.value.position == 0
    assert str(err.value).startswith("only [slot]d(...) letters are allowed in this word")


def test_parse_word_checks_r_with_the_target():
    for text, r, target in (
        ("d(1,2,3,4)", 3, "gamma"),  # r > 1 for an unslotted target
        ("a{1,2,3,4}", 2, None),  # ... also when the kind is inferred
        ("[0]d(1,2,3,4)", 0, "gammar"),  # r = 0 as for the empty text
        ("", 0, "gammar"),
        ("[0]d(1,2,3,4)", True, "gammar"),  # a bool is not an r
        ("[0]d(1,2,3,4)", 1.0, "gammar"),
    ):
        with pytest.raises(IndexRangeError):
            parse_word(text, r, target)
    for r in (True, False, 1.0, "2"):
        with pytest.raises(IndexRangeError, match="r must be an int"):
            check_target("gammar", r)
    with pytest.raises(IndexRangeError, match="r must be an int, got True"):
        MultiWord(True)
    assert parse_word("[1]d(1,2,3,4)", 2, "gammar").r == 2


def test_r_above_max_r_is_refused_everywhere():
    big = MAX_R + 1
    d = D(1, 2, 3, 4)
    for build in (
        lambda: check_target("gammar", big),
        lambda: HomConfig(5, "gammar", big),
        lambda: MultiWord(big),
        lambda: target_word("gammar", big, (1 / 0 for _ in range(1))),
        lambda: parse_word("[0]d(1,2,3,4)", big, "gammar"),
        lambda: letter_slot(1, 2, 3, 4, big),
    ):
        with pytest.raises(IndexRangeError, match=f"need 1 <= r <= {MAX_R}"):
            build()
    w = parse_word(f"[{MAX_R - 1}]d(1,2,3,4) [0]d(1,2,3,4)")
    assert w.r == MAX_R
    assert HomConfig(5, "gammar", MAX_R).r == MAX_R
    assert str(invariant(w, 5)) == str(invariant(MultiWord(MAX_R, ((MAX_R - 1, d), (0, d))), 5))


def test_an_inferred_r_reports_a_slot_past_max_r_at_its_tag():
    """With r inferred, a slot of MAX_R or more is a syntax error at its slot
    tag, as a slot at or above a given r is, not an r the text never names."""
    for text, slot, pos in (
        (f"[{MAX_R}]d(1,2,3,4)", MAX_R, 0),
        ("[5000]d(1,2,3,4)", 5000, 0),
        (f"[0]d(1,2,3,4)  [{10 ** 29}]d(1,2,3,4)", 10 ** 29, 15),
    ):
        for target in (None, "gammar"):
            with pytest.raises(WordSyntaxError) as err:
                parse_word(text, target=target)
            assert str(err.value) == f"slot {slot} out of range for r <= {MAX_R} (at position {pos})"
            assert err.value.position == pos
    assert str(pytest.raises(WordSyntaxError, parse_word, "[5]d(1,2,3,4)", 2).value) == (
        "slot 5 out of range for r=2 (at position 0)"
    )
    assert parse_word(f"[{MAX_R - 1}]d(1,2,3,4)").r == MAX_R


def test_target_word_builds_each_target_from_the_table():
    assert target_word("g", 1, [A(1, 2, 3, 4)]) == GWord((A(1, 2, 3, 4),))
    assert target_word("gamma", 1, iter([D(1, 2, 3, 4)])) == GammaWord((D(1, 2, 3, 4),))
    assert target_word("gammar", 3, [(2, D(1, 2, 3, 4))]) == MultiWord(3, ((2, D(1, 2, 3, 4)),))
    for kind, t in TARGETS.items():
        assert t.word.kind == kind and type(target_word(kind, 1, ())) is t.word
    # target and r are checked before the letters are read
    for target, r in (("G", 1), ("gamma", 2), ("g", 0), ("gammar", 0)):
        with pytest.raises(IndexRangeError):
            target_word(target, r, (1 / 0 for _ in range(1)))


def test_parse_error_names_the_expected_letter_shape():
    for target, r, text, shape in (
        ("g", None, "a{1,2,3,4} d(1,2,3,4)", "a{...}"),
        ("gamma", None, "d(1,2,3,4) a{1,2,3,4}", "d(...)"),
        ("gammar", 2, "[0]d(1,2,3,4) d(1,2,3,4)", "[slot]d(...)"),
    ):
        with pytest.raises(WordSyntaxError) as err:
            parse_word(text, r, target)
        assert err.value.position == text.index(" ") + 1
        assert str(err.value).startswith(f"only {shape} letters are allowed in this word")


def test_parse_errors_carry_positions():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("d(1,2,3", target="gamma")
    assert err.value.position == 7
    with pytest.raises(WordSyntaxError) as err:
        parse_word("d(1,2,3,4) x", target="gamma")
    assert err.value.position == 11
    with pytest.raises(WordSyntaxError):
        parse_word("d(1,2,3,4)", target="g")
    with pytest.raises(WordSyntaxError):
        parse_word("[5]d(1,2,3,4)", 2, "gammar")
    with pytest.raises(WordSyntaxError):
        parse_word("d(1,2,,4)", target="gamma")


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
        ((0.5, D(1, 2, 3, 4)), "[0.5]d(1,2,3,4)"),  # a slot that is not an int
        ((True, D(1, 2, 3, 4)), "[True]d(1,2,3,4)"),  # nor a bool
        ((0, "x"), "[0]x"),  # no quadruple after the slot
        ((0, A(1, 2, 3, 4)), "[0]a{1,2,3,4}"),  # a 4-subset letter
    ],
)
def test_multi_word_rejects_malformed_letters(letter, text):
    with pytest.raises(GroupMismatchError) as info:
        MultiWord(2, ((1, D(1, 2, 3, 5)), letter))
    assert str(info.value) == f"a MultiWord cannot hold the letter {text}"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: parse_word("[1"), WordSyntaxError, "expected ']' (at position 2)"),
        (lambda: parse_word("[1]a{1,2,3,4}"), WordSyntaxError,
         "expected 'd(' after slot tag (at position 3)"),
        (lambda: MultiWord(2, ((2, GammaGen((1, 2, 3, 4))),)), IndexRangeError,
         "slot 2 out of range for r=2"),
        (lambda: invariant(GWord((GGen((1, 2, 3, 4)),)), 4)
         + invariant(GammaWord((GammaGen((1, 2, 3, 4)),)), 4),
         GroupMismatchError, "cannot add invariant classes of different targets"),
    ],
)
def test_bad_word_input_raises_its_error_class_and_message(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message
