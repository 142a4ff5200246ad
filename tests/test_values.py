"""Value semantics of the package's immutable types: equality within one
class, field by field; the hash of the field tuple; the `Name(field=value)`
repr; no assignment or deletion; keyword construction and defaults; the
order of letters; copy and pickle.  Interned letters (`GammaGen`, `GGen`)
compare and hash by identity, since equal letters are one object."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from braidgamma import (
    BraidGen,
    BraidWord,
    Choreography,
    Event,
    Event3,
    GammaGen,
    GammaWord,
    GGen,
    GWord,
    HomConfig,
    InvariantClass,
    Move,
    MultiWord,
    Pt2,
    Pt3,
    relation_instances,
)
from braidgamma.braids import RelationInstance

P0, P1 = Pt2(F(0), F(0)), Pt2(F(1), F(1))

# (build, field names, repr at the time the types were frozen dataclasses)
CASES = [
    (lambda: BraidGen(1, 3, -2), ("i", "j", "exponent"), "BraidGen(i=1, j=3, exponent=-2)"),
    (lambda: GammaGen((2, 3, 4, 1)), ("cycle",), "GammaGen(cycle=(1, 2, 3, 4))"),
    (lambda: GGen((4, 1, 3, 2)), ("members",), "GGen(members=(1, 2, 3, 4))"),
    (
        lambda: BraidWord(4, (BraidGen(1, 2), BraidGen(3, 4, -1))),
        ("n", "letters"),
        "BraidWord(n=4, letters=(BraidGen(i=1, j=2, exponent=1), BraidGen(i=3, j=4, exponent=-1)))",
    ),
    (
        lambda: relation_instances(4)[0],
        ("family", "indices", "lhs", "rhs"),
        "RelationInstance(family='1', indices=(1, 2, 3, 4), "
        "lhs=BraidWord(n=4, letters=(BraidGen(i=1, j=2, exponent=1), BraidGen(i=3, j=4, exponent=1))), "
        "rhs=BraidWord(n=4, letters=(BraidGen(i=3, j=4, exponent=1), BraidGen(i=1, j=2, exponent=1))))",
    ),
    (lambda: Pt2(F(1, 2), F(3)), ("x", "y"), "Pt2(x=Fraction(1, 2), y=Fraction(3, 1))"),
    (
        lambda: Pt3(F(1), F(-2, 3), F(0)),
        ("x", "y", "z"),
        "Pt3(x=Fraction(1, 1), y=Fraction(-2, 3), z=Fraction(0, 1))",
    ),
    (
        lambda: Move(2, Pt2(F(1), F(2))),
        ("point", "to"),
        "Move(point=2, to=Pt2(x=Fraction(1, 1), y=Fraction(2, 1)))",
    ),
    (
        lambda: Choreography(2, (P0, P1)),
        ("n", "start", "moves", "loop"),
        "Choreography(n=2, start=(Pt2(x=Fraction(0, 1), y=Fraction(0, 1)), "
        "Pt2(x=Fraction(1, 1), y=Fraction(1, 1))), moves=(), loop=False)",
    ),
    (
        lambda: Event(3, F(1, 2), GammaGen((1, 2, 3, 4)), GGen((1, 2, 3, 4)), 1),
        ("segment", "time", "quad", "subset", "inside", "collinear_wall"),
        "Event(segment=3, time=Fraction(1, 2), quad=GammaGen(cycle=(1, 2, 3, 4)), "
        "subset=GGen(members=(1, 2, 3, 4)), inside=1, collinear_wall=False)",
    ),
    (
        lambda: Event3(0, F(2, 5), GGen((1, 2, 3, 5)), None, False, True, -1),
        ("segment", "time", "subset", "quad", "convex", "one_sided", "side"),
        "Event3(segment=0, time=Fraction(2, 5), subset=GGen(members=(1, 2, 3, 5)), "
        "quad=None, convex=False, one_sided=True, side=-1)",
    ),
    (
        lambda: HomConfig(5, assembly="doubled"),
        ("n", "target", "r", "formula_mode", "assembly"),
        "HomConfig(n=5, target='gamma', r=1, formula_mode='literal', assembly='doubled')",
    ),
    (
        lambda: GWord((GGen((1, 2, 3, 4)),)),
        ("letters",),
        "GWord(letters=(GGen(members=(1, 2, 3, 4)),))",
    ),
    (
        lambda: GammaWord((GammaGen((1, 3, 2, 4)),)),
        ("letters",),
        "GammaWord(letters=(GammaGen(cycle=(1, 3, 2, 4)),))",
    ),
    (
        lambda: MultiWord(2, ((1, GammaGen((1, 2, 3, 4))),)),
        ("r", "letters"),
        "MultiWord(r=2, letters=((1, GammaGen(cycle=(1, 2, 3, 4))),))",
    ),
    (
        lambda: InvariantClass(5, "gammar", 2, 6),
        ("n", "kind", "r", "bits"),
        "InvariantClass(n=5, kind='gammar', r=2, bits=6)",
    ),
]
IDS = [text[: text.index("(")] for _, _, text in CASES]
INTERNED = (GammaGen, GGen)


@pytest.mark.parametrize("build, fields, text", CASES, ids=IDS)
def test_equality_hash_and_repr(build, fields, text):
    x, y = build(), build()
    values = tuple(getattr(x, f) for f in fields)
    assert x == y and not x != y
    assert x != values and x != object()
    if type(x) in INTERNED:
        assert x is y and hash(x) == object.__hash__(x)
    else:
        assert x is not y and hash(x) == hash(values)
    assert {x: 1}[y] == 1
    assert repr(x) == text


@pytest.mark.parametrize("build, fields, text", CASES, ids=IDS)
def test_fields_are_frozen(build, fields, text):
    x = build()
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(x, f, getattr(x, f))
        with pytest.raises(AttributeError):
            delattr(x, f)
    with pytest.raises(AttributeError):
        x.not_a_field = 1


@pytest.mark.parametrize("build, fields, text", CASES, ids=IDS)
def test_copy_and_pickle_keep_the_value(build, fields, text):
    x = build()
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x
        if type(x) in INTERNED:
            assert y is x


def test_a_field_that_differs_makes_values_unequal():
    assert BraidGen(1, 2) != BraidGen(1, 2, -1)
    assert HomConfig(5) != HomConfig(5, assembly="doubled")
    assert Pt2(F(0), F(1)) != Pt2(F(1), F(0))
    assert InvariantClass(5, "gamma", 1, 0) != InvariantClass(5, "g", 1, 0)


def test_values_of_different_classes_are_unequal():
    assert GWord(()) != GammaWord(())
    assert GammaWord(()) != MultiWord(1, ())
    assert Pt2(F(0), F(0)) != Pt3(F(0), F(0), F(0))
    assert GammaGen((1, 2, 3, 4)) != GGen((1, 2, 3, 4))


def test_keyword_construction_and_defaults():
    assert HomConfig(5, assembly="doubled") == HomConfig(5, "gamma", 1, "literal", "doubled")
    assert HomConfig(n=5, target="g") == HomConfig(5, "g")
    ch = Choreography(2, (P0, P1))
    assert ch.moves == () and ch.loop is False
    assert Choreography(2, (P0, P1), loop=True).loop is True
    assert BraidGen(1, 2).exponent == 1 and BraidGen(i=1, j=2, exponent=3).exponent == 3
    assert BraidWord(3).letters == () and BraidWord(n=3, letters=()) == BraidWord(3)
    assert Event(0, F(0), None, None, 0).collinear_wall is False
    assert GWord().letters == () and GammaWord().letters == ()
    assert MultiWord(2).letters == () and MultiWord(r=2).r == 2
    inst = RelationInstance(family="1", indices=(1,), lhs=BraidWord(2), rhs=BraidWord(2))
    assert inst.family == "1"


def test_letters_are_ordered_by_their_field():
    quads = [GammaGen(c) for c in ((1, 3, 2, 4), (1, 2, 4, 3), (1, 2, 3, 4))]
    assert sorted(quads) == [GammaGen((1, 2, 3, 4)), GammaGen((1, 2, 4, 3)), GammaGen((1, 3, 2, 4))]
    a, b = GGen((1, 2, 3, 4)), GGen((1, 2, 3, 5))
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (b < a or a > b or a < a)
    assert sorted([b, a]) == [a, b]
    for bad in (lambda: a < GammaGen((1, 2, 3, 4)), lambda: a < (1, 2, 3, 4)):
        with pytest.raises(TypeError):
            bad()


def test_other_values_have_no_order():
    with pytest.raises(TypeError):
        BraidGen(1, 2) < BraidGen(1, 3)
