import copy
import itertools
import pickle
import random

import pytest

from braidgamma.errors import DuplicateIndexError, IndexRangeError
from braidgamma.generators import (
    BraidGen,
    GammaGen,
    GGen,
    select_quad,
)


def dihedral_orbit(cycle):
    """All 8 reorderings of a 4-cycle under rotation and reversal."""
    orbit = []
    for k in range(4):
        rot = cycle[k:] + cycle[:k]
        orbit.append(rot)
        orbit.append(rot[::-1])
    return orbit


def test_canonicalize_examples():
    assert GammaGen((2, 3, 4, 1)).cycle == (1, 2, 3, 4)
    assert GammaGen((4, 1, 2, 3)).cycle == (1, 2, 3, 4)
    assert GammaGen((3, 2, 1, 4)).cycle == (1, 2, 3, 4)
    assert GammaGen((1, 3, 2, 4)).cycle == (1, 3, 2, 4)


def test_canonicalize_constant_on_orbits():
    rng = random.Random(7)
    for _ in range(200):
        cycle = tuple(rng.sample(range(1, 10), 4))
        rep = GammaGen(cycle)
        for other in dihedral_orbit(cycle):
            assert GammaGen(other) == rep
        # idempotent
        assert GammaGen(rep.cycle) == rep


def test_canonicalize_rejects_duplicates():
    with pytest.raises(DuplicateIndexError):
        GammaGen((1, 2, 2, 3))
    with pytest.raises(IndexRangeError):
        GammaGen((0, 1, 2, 3))
    with pytest.raises(IndexRangeError):
        GammaGen((1, 2, 3))


def quads_of_subset(subset):
    """The distinct cyclic quadruples on a 4-subset, in order."""
    return sorted({GammaGen(p) for p in itertools.permutations(subset)})


def test_three_classes_per_subset():
    assert [g.cycle for g in quads_of_subset({1, 2, 3, 4})] == [
        (1, 2, 3, 4),
        (1, 2, 4, 3),
        (1, 3, 2, 4),
    ]
    assert len(quads_of_subset({2, 3, 5, 7})) == 3
    for subset in itertools.combinations(range(1, 7), 4):
        quads = quads_of_subset(subset)
        assert len(set(quads)) == 3
        assert all(q.subset == subset for q in quads)


def test_select_quad_printed_cases():
    # p<q<s
    assert select_quad(1, 2, 5, 3).cycle == (1, 2, 5, 3)
    # p<s<q
    assert select_quad(1, 3, 5, 2).cycle == (1, 3, 2, 5)
    # all six orderings, spelled out against the case table
    assert select_quad(1, 2, 9, 3) == GammaGen((1, 2, 9, 3))
    assert select_quad(1, 3, 9, 2) == GammaGen((1, 9, 2, 3))
    assert select_quad(2, 3, 9, 1) == GammaGen((9, 1, 2, 3))
    assert select_quad(2, 1, 9, 3) == GammaGen((1, 2, 9, 3))
    assert select_quad(3, 1, 9, 2) == GammaGen((1, 9, 2, 3))
    assert select_quad(3, 2, 9, 1) == GammaGen((9, 1, 2, 3))


@pytest.mark.parametrize(
    "args, error, message",
    [
        ((1, 2.0, 3, 4), IndexRangeError, "positive integer, got 2.0"),
        ((1, 2, True, 4), IndexRangeError, "positive integer, got True"),
        ((1, 2, 3, "4"), IndexRangeError, "positive integer, got '4'"),
        ((0, 2, 3, 4), IndexRangeError, "positive integer, got 0"),
        ((1, 2, 3, 2), DuplicateIndexError, r"distinct, got \(1, 2, 3, 2\)"),
        ((5, 5, 3, 4), DuplicateIndexError, r"distinct, got \(5, 5, 3, 4\)"),
    ],
)
def test_select_quad_rejects_bad_indices(args, error, message):
    with pytest.raises(error, match=message):
        select_quad(*args)


def test_select_quad_contains_exactly_its_arguments():
    rng = random.Random(11)
    for _ in range(300):
        p, q, r, s = rng.sample(range(1, 12), 4)
        assert select_quad(p, q, r, s).subset == tuple(sorted((p, q, r, s)))
    with pytest.raises(DuplicateIndexError):
        select_quad(1, 2, 3, 3)


def test_ggen_is_order_free():
    assert GGen((4, 1, 3, 2)) == GGen((1, 2, 3, 4))
    assert str(GGen((4, 1, 3, 2))) == "a{1,2,3,4}"
    with pytest.raises(DuplicateIndexError):
        GGen((1, 1, 2, 3))


def test_braid_gen_validation():
    assert str(BraidGen(1, 3)) == "b(1,3)"
    assert str(BraidGen(2, 4, -1)) == "b(2,4)^-1"
    with pytest.raises(IndexRangeError):
        BraidGen(3, 1)
    with pytest.raises(IndexRangeError):
        BraidGen(2, 2)
    with pytest.raises(IndexRangeError):
        BraidGen(1, 2, 0)


def test_gamma_gen_str_and_order():
    g = GammaGen((2, 3, 4, 1))
    assert str(g) == "d(1,2,3,4)"
    assert GammaGen((1, 2, 3, 4)) < GammaGen((1, 2, 4, 3)) < GammaGen((1, 3, 2, 4))


def test_equal_letters_are_one_object():
    g = GammaGen((2, 3, 4, 1))
    assert GammaGen((1, 4, 3, 2)) is g
    assert GammaGen([3, 4, 1, 2]) is g
    assert select_quad(1, 2, 3, 4) is GammaGen((1, 2, 3, 4))
    assert GGen((4, 1, 3, 2)) is GGen([1, 2, 3, 4])
    for letter in (g, GGen((1, 2, 3, 4))):
        assert copy.copy(letter) is letter
        assert copy.deepcopy(letter) is letter
        assert pickle.loads(pickle.dumps(letter)) is letter
    # validation still runs before any lookup: True == 1 as a dict key
    with pytest.raises(IndexRangeError):
        GammaGen((True, 2, 3, 4))
    with pytest.raises(IndexRangeError):
        GGen((True, 2, 3, 4))
