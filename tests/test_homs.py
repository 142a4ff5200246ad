import copy
import gc
import itertools
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidgamma import cli, homs
from braidgamma.braids import BraidWord, braid, parse_braid, relation_instances
from braidgamma.errors import IndexRangeError
from braidgamma.generators import BraidGen, GammaGen, GGen
from braidgamma.homs import (
    HomConfig,
    generator_image,
    image_invariant,
    inside_count,
    letter_slot,
    map_braid,
    passage,
)
from braidgamma.words import (
    GammaWord,
    GWord,
    MultiWord,
    free_reduce,
    invariant,
    invariant_equal,
    invert,
    word_to_text,
)


def erase_slots(mw: MultiWord) -> GammaWord:
    return GammaWord(tuple(g for _, g in mw.letters))


def random_braid_word(rng, n, max_len=5):
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        letters.append(BraidGen(i, j, rng.choice([-2, -1, 1, 2])))
    return BraidWord(n, tuple(letters))


# ---------------------------------------------------------------------------
# passage words (literal products)
# ---------------------------------------------------------------------------


def test_passage_regression_hand_expansions():
    # Audited by hand once from the printed double products, then frozen.
    cfg = HomConfig(5, target="g")
    assert word_to_text(passage(cfg, 1, 4)) == "a{1,3,4,5} a{1,2,3,4} a{1,3,4,5} a{1,2,3,4}"
    assert word_to_text(passage(cfg, 1, 2)) == "a{1,2,4,5} a{1,2,3,4} a{1,2,3,5} a{1,2,3,4}"


def test_passage_small_n_empty():
    for n in (1, 2, 3):
        cfg = HomConfig(n, target="g")
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                assert passage(cfg, i, j) == GWord()


def test_passage_letters_contain_the_moving_pair():
    for n in (4, 5, 6):
        cfg = HomConfig(n, target="g")
        for i, j in itertools.combinations(range(1, n + 1), 2):
            for letter in passage(cfg, i, j):
                assert i in letter.members and j in letter.members


def forget(w):
    """The letterwise map of words onto 4-subset letters."""
    return GWord(tuple(GGen(x.subset) for x in w))


def test_passage_forgetful_cross_check():
    # The 4-subset and cyclic-quadruple products share their index ranges, so
    # forgetting cyclic order recovers the 4-subset word letter for letter.
    for n in (4, 5, 6):
        cfg_g = HomConfig(n, target="g")
        cfg_gam = HomConfig(n)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            assert forget(passage(cfg_gam, i, j)) == passage(cfg_g, i, j)


# ---------------------------------------------------------------------------
# inside counts and slots
# ---------------------------------------------------------------------------


def test_inside_count_examples():
    assert inside_count(2, 4, 7) == 3
    assert inside_count(1, 2, 3) == 0
    assert inside_count(3, 5, 9) == 5
    assert inside_count(7, 2, 4) == 3  # order-free
    with pytest.raises(IndexRangeError):
        inside_count(2, 2, 5)


def test_letter_slot_examples():
    assert letter_slot(4, 7, 1, 3, 2) == 1
    for p, q, mover, anchor in itertools.permutations(range(1, 5), 4):
        assert letter_slot(p, q, mover, anchor, 1) == 0


def test_letter_slot_against_two_case_parity_table():
    # Independent transcription of the two-case mod-2 table.
    def table(p, q, i, j):
        lo, mid, hi = sorted((p, q, j))
        parity = (j + p + q) % 2
        if (lo < i < mid) or i > hi:
            return 0 if parity == 0 else 1
        return 1 if parity == 0 else 0

    for n in (6, 10):
        for p, q, i, j in itertools.permutations(range(1, n + 1), 4):
            assert letter_slot(p, q, i, j, 2) == table(p, q, i, j)


# ---------------------------------------------------------------------------
# braid-word images
# ---------------------------------------------------------------------------


def test_map_braid_trivialities():
    cfg = HomConfig(5, target="g")
    assert map_braid(cfg, BraidWord(5)) == GWord()
    assert map_braid(HomConfig(3, target="g"), parse_braid("b(1,2)", 3)) == GWord()
    w = parse_braid("b(1,2) b(1,2)^-1", 5)
    assert map_braid(cfg, w) == GWord()
    assert map_braid(HomConfig(5), w) == GammaWord()
    assert map_braid(HomConfig(5, target="gammar", r=2), w) == MultiWord(2)


def test_phi_doubles_the_last_passage():
    cfg = HomConfig(5, target="g")
    img = map_braid(cfg, parse_braid("b(1,2)", 5), reduced=False)
    c12 = passage(cfg, 1, 2)
    assert img == c12 * c12


def test_map_braid_is_the_concatenation_of_letter_images():
    rng = random.Random(53)
    for n in range(2, 8):
        for target, r in (("g", 1), ("gamma", 1), ("gammar", 2), ("gammar", 3)):
            for assembly in ("flip", "doubled"):
                cfg = HomConfig(n, target=target, r=r, assembly=assembly)
                for _ in range(4):
                    letters = []
                    for _ in range(rng.randrange(1, 7)):
                        i, j = sorted(rng.sample(range(1, n + 1), 2))
                        e = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
                        letters.append(BraidGen(i, j, e))
                    w = BraidWord(n, tuple(letters))
                    expected = ()
                    for g in w.letters:
                        img = generator_image(cfg, g.i, g.j).letters
                        if g.exponent < 0:
                            img = img[::-1]
                        for _ in range(abs(g.exponent)):
                            expected = expected + img
                    got = map_braid(cfg, w, reduced=False)
                    assert type(got) is type(generator_image(cfg, 1, 2))
                    assert got.letters == expected
                    assert map_braid(cfg, w) == free_reduce(got)
                    if target == "gammar":
                        assert got.r == r


def test_cached_images_share_letters():
    for target, r in (("g", 1), ("gamma", 1), ("gammar", 2)):
        cfg = HomConfig(7, target=target, r=r)
        assert generator_image(cfg, 2, 5) is generator_image(HomConfig(7, target=target, r=r), 2, 5)
        seen = {}
        for i, j in itertools.combinations(range(1, 8), 2):
            for letter in generator_image(cfg, i, j).letters:
                gen = letter[1] if target == "gammar" else letter
                assert seen.setdefault(gen, gen) is gen


def test_image_of_inverse_is_inverse_of_image():
    rng = random.Random(41)
    for target, r in (("g", 1), ("gamma", 1), ("gammar", 3)):
        cfg = HomConfig(5, target=target, r=r)
        for _ in range(20):
            w = random_braid_word(rng, 5)
            from braidgamma.braids import braid_inverse

            lhs = map_braid(cfg, braid_inverse(w))
            rhs = free_reduce(invert(map_braid(cfg, w)))
            assert lhs == rhs


def test_slot_erasure_recovers_gamma_image():
    rng = random.Random(43)
    for n in (4, 5, 6):
        for r in (1, 2, 3):
            cfg_r = HomConfig(n, target="gammar", r=r)
            cfg_g = HomConfig(n)
            for _ in range(10):
                w = random_braid_word(rng, n)
                assert erase_slots(map_braid(cfg_r, w, reduced=False)) == map_braid(
                    cfg_g, w, reduced=False
                )


def test_f1_coincides_with_f():
    cfg_r = HomConfig(5, target="gammar", r=1)
    cfg_g = HomConfig(5)
    for i, j in itertools.combinations(range(1, 6), 2):
        mw = generator_image(cfg_r, i, j)
        assert all(slot == 0 for slot, _ in mw.letters)
        assert erase_slots(mw) == generator_image(cfg_g, i, j)


def test_fr_slot_regression():
    # Frozen after an audited run of the slot arithmetic for b(1,2), n=5, r=2:
    # surviving far pairs are (4,5),(4,3),(3,5),(3,4) for both passages, with
    # base inside-counts 1,1,2,1 (mover 1 inside) and 0,0,1,0 (mover 2 outside).
    cfg = HomConfig(5, target="gammar", r=2)
    img = map_braid(cfg, parse_braid("b(1,2)", 5), reduced=False)
    slots = [slot for slot, _ in img.letters]
    pairs = ((4, 5), (4, 3), (3, 5), (3, 4))
    assert slots == [letter_slot(p, q, 1, 2, 2) for p, q in pairs] + [
        letter_slot(p, q, 2, 1, 2) for p, q in pairs
    ]
    assert slots == [0, 0, 1, 0, 0, 0, 1, 0]


def test_relation_preservation_at_invariant_level_n5():
    # The acceptance suite re-runs this for n in {4,5,6}; keep one n here.
    n = 5
    configs = [
        HomConfig(n, target="g"),
        HomConfig(n),
        HomConfig(n, target="gammar", r=2),
        HomConfig(n, target="gammar", r=3),
    ]
    for cfg in configs:
        for inst in relation_instances(n):
            assert invariant_equal(
                map_braid(cfg, inst.lhs), map_braid(cfg, inst.rhs), n
            ), (cfg.target, cfg.r, inst.family, inst.indices)


def test_both_assemblies_preserve_relations():
    n = 4
    for assembly in ("flip", "doubled"):
        cfg = HomConfig(n, assembly=assembly)
        for inst in relation_instances(n):
            assert invariant_equal(map_braid(cfg, inst.lhs), map_braid(cfg, inst.rhs), n)
    # and they genuinely differ as unreduced letter sequences
    flip = generator_image(HomConfig(5), 1, 3)
    doubled = generator_image(HomConfig(5, assembly="doubled"), 1, 3)
    assert flip != doubled


def test_forgetting_doubled_assembly_recovers_g_image():
    # Under the doubled assembly the cyclic-target image forgets letter for
    # letter onto the 4-subset image, for every generator.
    from braidgamma.braids import braid

    for n in (4, 5, 6):
        cfg_g = HomConfig(n, target="g")
        cfg_d = HomConfig(n, assembly="doubled")
        for i, j in itertools.combinations(range(1, n + 1), 2):
            w = braid(n, (i, j))
            assert (
                forget(map_braid(cfg_d, w, reduced=False)).letters
                == map_braid(cfg_g, w, reduced=False).letters
            )
    # under the flip assembly the two images do not even share multisets;
    # the check CLI reports this, nothing reconciles it
    w = braid(5, (1, 3))
    flip = forget(map_braid(HomConfig(5), w, reduced=False))
    phi = map_braid(HomConfig(5, target="g"), w, reduced=False)
    assert sorted(flip.letters) != sorted(phi.letters)


def test_hom_config_validation():
    with pytest.raises(IndexRangeError):
        HomConfig(5, target="gamma", r=2)
    with pytest.raises(IndexRangeError):
        HomConfig(5, target="nope")
    with pytest.raises(IndexRangeError):
        HomConfig(5, target=["g"])  # unhashable: still a range error
    with pytest.raises(IndexRangeError):
        HomConfig(5, formula_mode="guessed")
    with pytest.raises(IndexRangeError):
        generator_image(HomConfig(4), 3, 2)


def test_equal_configs_hash_equal_also_through_a_pickle():
    # the hash is stored at construction; equality, repr and pickle stay by fields
    for args in ((5,), (6, "gammar", 3, "traced", "doubled")):
        a, b = HomConfig(*args), HomConfig(*args)
        c = pickle.loads(pickle.dumps(a))
        assert a == b == c and hash(a) == hash(b) == hash(c) == hash(HomConfig._values(a))
        assert repr(c) == repr(a) and copy.copy(a) == a and {a: 1}[c] == 1
    assert HomConfig(5) != HomConfig(5, assembly="doubled")


@pytest.mark.parametrize("n", [4.5, True, "5"])
def test_hom_config_refuses_an_n_that_is_not_an_int(n):
    # True would pass as n = 1, and 4.5 would build a map; "5" fails the same way
    with pytest.raises(IndexRangeError, match="n must be an int"):
        HomConfig(n)


@pytest.mark.parametrize("assembly", ["flip", "doubled"])
@pytest.mark.parametrize("target", ["g", "gamma", "gammar"])
def test_check_parity_needs_no_free_reduce(target, assembly):
    # the class of an image does not depend on free reduction: cancelling a
    # pair of equal letters keeps every parity
    cfg = HomConfig(6, target=target, r=3 if target == "gammar" else 1, assembly=assembly)
    for inverted in (False, True):
        for inst in relation_instances(6, family3_inverted=inverted):
            for w in (inst.lhs, inst.rhs):
                raw = map_braid(cfg, w, reduced=False)
                assert invariant(raw, 6) == invariant(free_reduce(raw), 6)
                assert free_reduce(raw) == map_braid(cfg, w)


# ---------------------------------------------------------------------------
# invariant classes composed from generator classes
# ---------------------------------------------------------------------------

_TARGETS = (("g", 1), ("gamma", 1), ("gammar", 2), ("gammar", 3))
_CONFIGS = [
    HomConfig(n, target, r, "literal", assembly)
    for n in (5, 6, 7)
    for target, r in _TARGETS
    for assembly in ("flip", "doubled")
] + [HomConfig(5, target, r, "traced") for target, r in _TARGETS]


def braid_words(n_max):
    """Braid words on at most n_max strands: letters from a small pool of
    generators, so that letters repeat, with exponents +-1..+-4."""

    @st.composite
    def words(draw):
        n = draw(st.integers(2, n_max))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        pool = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))
        exponent = st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4))
        letters = draw(st.lists(st.tuples(st.sampled_from(pool), exponent), max_size=10))
        return BraidWord(n, tuple(BraidGen(i, j, e) for (i, j), e in letters))

    return words()


def memo_free(w):
    """A copy of w without memos, whose invariant is recounted letter by letter."""
    return MultiWord(w.r, w.letters) if type(w) is MultiWord else type(w)(w.letters)


@pytest.mark.parametrize("cfg", _CONFIGS, ids=str)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_image_invariant_is_the_invariant_of_the_image(cfg, data):
    w = data.draw(braid_words(cfg.n))
    raw = map_braid(cfg, w, reduced=False)
    expected = invariant(memo_free(raw), cfg.n)
    assert image_invariant(cfg, w) == expected
    # the class that map_braid carries out, through the raw word and the reduced one
    assert invariant(raw, cfg.n) == expected == invariant(map_braid(cfg, w), cfg.n)


def test_the_class_memo_answers_for_its_n_only():
    cfg = HomConfig(6, target="gammar", r=2)
    raw = map_braid(cfg, parse_braid("b(1,4)^3 b(2,5)^-1 b(3,6)^2", 6), reduced=False)
    red = free_reduce(raw)
    assert invariant(raw, 6) is red._class and invariant(red, 6) is red._class
    for n in (7, 8):  # more columns: recounted, not the 6-strand memo
        for w in (raw, red):
            got = invariant(w, n)
            assert got.n == n and got == invariant(memo_free(red), n) != red._class
    # fewer strands than the letters use: the letter check, not the memo
    with pytest.raises(IndexRangeError, match="> n=5"):
        invariant(red, 5)


_CLASS_CONFIGS = [
    HomConfig(n, target, r, mode, assembly)
    for n in (4, 5, 6, 7)
    for target, r in _TARGETS
    for assembly in ("flip", "doubled")
    for mode in ("literal", "traced")
    if mode == "literal" or n <= 6
]


@pytest.mark.parametrize("cfg", _CLASS_CONFIGS, ids=str)
def test_a_generator_class_is_the_recount_of_its_image(cfg):
    # literal classes are composed from passage classes, traced ones counted
    for i, j in itertools.combinations(range(1, cfg.n + 1), 2):
        recount = invariant(memo_free(generator_image(cfg, i, j)), cfg.n).bits
        assert homs._generator_class(cfg, i, j) == recount
        if cfg.formula_mode == "literal" and (cfg.target == "g" or cfg.assembly == "doubled"):
            assert recount == 0  # every passage occurs twice
    with pytest.raises(IndexRangeError, match="1 <= i < j <= n"):
        homs._generator_class(cfg, 2, 1)


_HOM_CACHES = (homs.passage, homs.generator_image, homs._passage_class,
               homs._generator_class, homs._record)


@pytest.mark.parametrize("assembly", ["flip", "doubled"])
@pytest.mark.parametrize("target, r", _TARGETS)
def test_a_literal_check_builds_no_generator_image(target, r, assembly, capsys):
    for cache in _HOM_CACHES:
        cache.cache_clear()
    argv = ["check", "-n", "6", "--target", target, "--r", str(r), "--assembly", assembly]
    assert cli.run(argv) == 0
    assert "passed 85 / 85" in capsys.readouterr().out
    assert homs.generator_image.cache_info().currsize == 0
    assert homs._record.cache_info().currsize == 0
    if target == "g" or assembly == "doubled":  # every class is 0: nothing counted
        assert homs.passage.cache_info().currsize == 0
        assert homs._passage_class.cache_info().currsize == 0
    else:  # the flip: each of the n(n-1) passages counted once
        info = homs._passage_class.cache_info()
        assert info.misses == info.currsize == 30


@pytest.mark.parametrize("kw", [{"target": "g"}, {"formula_mode": "traced"}])
def test_an_assembly_that_changes_no_map_is_no_part_of_the_key(kw):
    flip, doubled = (HomConfig(5, assembly=a, **kw) for a in ("flip", "doubled"))
    assert flip == doubled and hash(flip) == hash(doubled)
    assert flip.assembly == "doubled"
    assert HomConfig(5, assembly="flip") != HomConfig(5, assembly="doubled")


def test_a_traced_check_caches_one_class_per_generator_in_either_assembly(capsys):
    for cache in _HOM_CACHES:
        cache.cache_clear()
    for assembly in ("flip", "doubled"):
        cli.run(["check", "-n", "5", "--mode", "traced", "--assembly", assembly])
        assert "passed 35 / 35" in capsys.readouterr().out
    assert homs._generator_class.cache_info().currsize == 10  # C(5, 2), not twice over


def test_image_invariant_rejects_a_longer_braid_word():
    w = BraidWord(6, (BraidGen(1, 2),))
    for fn in (image_invariant, map_braid):
        with pytest.raises(IndexRangeError, match="braid word has n=6 but config has n=5"):
            fn(HomConfig(5), w)


# ---------------------------------------------------------------------------
# the seam fold and the reduced-word memo
# ---------------------------------------------------------------------------

_FOLD_CONFIGS = [
    HomConfig(n, target, r, mode, assembly)
    for mode, sizes in (("literal", range(4, 8)), ("traced", range(3, 7)))
    for n in sizes
    for target, r in (("g", 1), ("gamma", 1), ("gammar", 1), ("gammar", 2), ("gammar", 3))
    for assembly in ("flip", "doubled")
]
# literal flip at n = 4 maps every b(i,j) but b(1,2) to an involution (its
# reduced image is X C X^-1 with |C| = 1), whose even powers fold to nothing
_INVOLUTION_CONFIGS = [HomConfig(4, target, r) for target, r in (("gamma", 1), ("gammar", 2))]


def _stack_reduce(letters) -> list:
    """Free reduction by an `==` stack over the raw letters: no seams, no `is`."""
    stack = []
    for x in letters:
        if stack and stack[-1] == x:
            stack.pop()
        else:
            stack.append(x)
    return stack


def _interned(x) -> bool:
    if type(x) is tuple:
        return MultiWord(x[0] + 1, (x,)).letters[0] is x and _interned(x[1])
    return x is (GGen(x.members) if type(x) is GGen else GammaGen(x.cycle))


def _never(*args):
    raise AssertionError("built after the cap was exceeded")


@st.composite
def fold_cases(draw):
    """A config and a braid word u v v^-1 s over a few strand pairs, so that
    seams cancel within images, across whole images and across powers; half
    of the configs map generators to involutions."""
    cfg = draw(st.sampled_from(_FOLD_CONFIGS) | st.sampled_from(_INVOLUTION_CONFIGS))
    pairs = list(itertools.combinations(range(1, cfg.n + 1), 2))
    pool = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))
    exponent = st.sampled_from([e for k in range(1, 7) for e in (k, -k)])
    part = st.lists(st.tuples(st.sampled_from(pool), exponent), max_size=4)
    u, v, s = draw(part), draw(part), draw(part)
    terms = u + v + [(ij, -e) for ij, e in reversed(v)] + s
    return cfg, BraidWord(cfg.n, tuple(BraidGen(i, j, e) for (i, j), e in terms))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fold_cases())
def test_the_seam_fold_is_the_free_reduction_of_the_raw_image(case):
    cfg, w = case
    raw = map_braid(cfg, w, reduced=False)
    expected = _stack_reduce(raw.letters)
    expected_class = invariant(memo_free(raw), cfg.n)
    for got in (map_braid(cfg, w), free_reduce(raw)):
        assert type(got) is type(raw) and got.r == raw.r
        assert len(got.letters) == len(expected)
        assert all(a is b for a, b in zip(got.letters, expected))
        assert invariant(got, cfg.n) == expected_class
    assert all(_interned(x) for x in set(raw.letters))
    if raw.letters:
        with mock.patch.object(homs, "MAX_IMAGE_LETTERS", len(raw.letters) - 1), \
                mock.patch.object(homs, "_rebuild", _never), \
                mock.patch.object(homs, "_seam", _never):
            for reduced in (True, False):
                with pytest.raises(IndexRangeError, match="image longer than the cap"):
                    map_braid(cfg, w, reduced=reduced)


def _twins(w):
    return copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))


def test_the_memo_is_not_a_field():
    cfg = HomConfig(6, target="gammar", r=2)
    raw = map_braid(cfg, parse_braid("b(1,4)^2 b(2,5)^-1 b(1,4)^-1", 6), reduced=False)
    red = free_reduce(raw)
    assert raw._reduced is red and len(red) < len(raw)
    assert red._class == invariant(memo_free(red), 6) and not red._class.is_zero()
    fresh = MultiWord(2, raw.letters)
    assert raw == fresh and hash(raw) == hash(fresh) and repr(raw) == repr(fresh)
    assert raw != red
    for twin in _twins(raw):
        assert twin == raw and free_reduce(twin) == red
    fresh_red = MultiWord(2, red.letters)
    assert red == fresh_red and hash(red) == hash(fresh_red) and repr(red) == repr(fresh_red)
    for twin in _twins(red):
        assert twin == red and not hasattr(twin, "_class")
    # a word built by hand carries no memo and is reduced letter by letter
    assert free_reduce(fresh) == red and free_reduce(fresh) is not red
    assert not hasattr(red, "_reduced") and not hasattr(raw, "_class")


@pytest.mark.parametrize("target, r", [("gamma", 1), ("gammar", 2)])
def test_an_involutive_generator_folds_its_powers(target, r):
    cfg = HomConfig(4, target=target, r=r)  # literal flip
    image = map_braid(cfg, parse_braid("b(1,3)", 4))
    assert len(image) == 1  # an involution
    for e in (2, -2, 4):
        even = map_braid(cfg, parse_braid(f"b(1,3)^{e}", 4))
        assert even.letters == () and invariant(even, 4).is_zero()
    for e in (3, -3, 5):
        odd = map_braid(cfg, parse_braid(f"b(1,3)^{e}", 4))
        assert odd == image and invariant(odd, 4) == invariant(memo_free(image), 4)


def test_mapping_leaves_no_reference_cycle():
    cfg = HomConfig(8)
    w = parse_braid(" ".join(f"b({i},{j})^2" for i, j in itertools.combinations(range(1, 9), 2)), 8)
    map_braid(cfg, w, reduced=False)  # fill the caches first
    gc.collect()
    gc.disable()
    try:
        raw = map_braid(cfg, w, reduced=False)
        red, cls = free_reduce(raw), invariant(free_reduce(raw), 8)
        assert len(raw) > 5_000 and len(red) < len(raw)
        del raw, red, cls
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_conjugate_of_one_letter_folds_like_an_involution():
    # no generator image at literal n <= 10 or traced n <= 7 reduces to
    # X c X^-1 with |X| > 0, so made-up ones stand in for b(1,2)'s and
    # b(1,3)'s, the latter to cancel across a vanished block
    a, b, c = GammaGen((1, 2, 3, 4)), GammaGen((1, 2, 3, 5)), GammaGen((1, 2, 4, 5))
    images = {(1, 2): GammaWord((a, b, c, b, a)), (1, 3): GammaWord((a, b, a, b, c, b, a, b, a))}
    cfg = HomConfig(5, assembly="doubled")
    homs._record.cache_clear()
    homs._generator_class.cache_clear()
    try:
        with mock.patch.object(homs, "generator_image", lambda cfg, i, j: images[i, j]):
            for text in ("b(1,2)^2", "b(1,2)^-3", "b(1,2)^3 b(1,3)^2", "b(1,3) b(1,2)^4 b(1,3)"):
                w = parse_braid(text, 5)
                raw = map_braid(cfg, w, reduced=False)
                assert list(map_braid(cfg, w).letters) == _stack_reduce(raw.letters)
                assert invariant(map_braid(cfg, w), 5) == invariant(memo_free(raw), 5)
    finally:  # the made-up images must not outlive the test
        homs._record.cache_clear()
        homs._generator_class.cache_clear()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: HomConfig(0), IndexRangeError, "need n >= 1, got 0"),
        (lambda: HomConfig(4, assembly="x"), IndexRangeError, "unknown assembly 'x'"),
        (lambda: letter_slot(1, 1, 2, 3, 2), IndexRangeError,
         "indices must be distinct, got (1, 1, 2, 3)"),
    ],
)
def test_bad_hom_input_raises_its_error_class_and_message(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message
