"""Pure braid words over the two-strand twist generators, and the defining
relations as first-class data.

The presentation used here has generators b(i,j) for 1 <= i < j <= n and three
relation families:

  (1)  b(i,j) b(k,l) = b(k,l) b(i,j)            for i<j<k<l and for i<k<l<j
  (2)  b(i,j) b(i,k) b(j,k) = b(i,k) b(j,k) b(i,j) = b(j,k) b(i,j) b(i,k)
                                                 for i<j<k  (two equalities)
  (3)  b(i,k) b(j,k) b(j,l) b(j,k) = b(j,k) b(j,l) b(j,k) b(i,k)
                                                 for i<j<k<l

Family (3) is implemented exactly as printed in the source presentation; some
presentations conjugate by b(j,k)^-1 instead of b(j,k).  The inverted variant
is available behind `family3_inverted` so callers can check both and report.
"""

from __future__ import annotations

import itertools

from .errors import IndexRangeError, WordSyntaxError
from .generators import BraidGen, Record, _set
from .words import parse_uint


class BraidWord(Record):
    __slots__ = _fields = ("n", "letters")

    def __init__(self, n: int, letters: tuple[BraidGen, ...] = ()):
        for letter in letters:
            if letter.j > n:
                raise IndexRangeError(f"letter {letter} exceeds strand count n={n}")
        _set(self, "n", n)
        _set(self, "letters", letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.n != other.n:
            raise IndexRangeError("cannot concatenate braid words with different n")
        return BraidWord(self.n, self.letters + other.letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self):
        return print_braid(self)


def braid(n: int, *pairs) -> BraidWord:
    """Shorthand: braid(4, (1,2), (1,3,-1)) -> b(1,2) b(1,3)^-1."""
    return BraidWord(n, tuple(BraidGen(*p) for p in pairs))


def braid_inverse(w: BraidWord) -> BraidWord:
    """Reversed letters with negated exponents."""
    return BraidWord(
        w.n, tuple(BraidGen(g.i, g.j, -g.exponent) for g in reversed(w.letters))
    )


class RelationInstance(Record):
    __slots__ = _fields = ("family", "indices", "lhs", "rhs")

    def __init__(self, family: str, indices: tuple[int, ...], lhs: BraidWord, rhs: BraidWord):
        _set(self, "family", family)  # "1" | "2a" | "2b" | "3" | "3inv"
        _set(self, "indices", indices)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)


def relation_instances(n: int, *, family3_inverted: bool = False) -> list[RelationInstance]:
    """Every printed relation instance on n strands, in a fixed deterministic order."""
    if n < 2:
        raise IndexRangeError(f"need n >= 2 strands, got {n}")
    out: list[RelationInstance] = []
    idx = range(1, n + 1)
    gens: dict = {}  # (i, j[, e]) -> its letter, checked once and shared

    def word(*pairs) -> BraidWord:
        for p in pairs:
            if p not in gens:
                gens[p] = BraidGen(*p)
        return BraidWord(n, tuple(gens[p] for p in pairs))

    # family 1 on disjoint pairs i < j < k < l, then on nested pairs i < k < l < j:
    # the places of i, j, k, l in the sorted quadruple
    for places in ((0, 1, 2, 3), (0, 3, 1, 2)):
        for quad in itertools.combinations(idx, 4):
            i, j, k, l = (quad[p] for p in places)
            out.append(
                RelationInstance("1", (i, j, k, l), word((i, j), (k, l)), word((k, l), (i, j)))
            )
    for i, j, k in itertools.combinations(idx, 3):
        first = word((i, j), (i, k), (j, k))
        second = word((i, k), (j, k), (i, j))
        third = word((j, k), (i, j), (i, k))
        out.append(RelationInstance("2a", (i, j, k), first, second))
        out.append(RelationInstance("2b", (i, j, k), second, third))
    family, e = ("3inv", -1) if family3_inverted else ("3", 1)
    for i, j, k, l in itertools.combinations(idx, 4):
        out.append(
            RelationInstance(
                family, (i, j, k, l),
                word((i, k), (j, k), (j, l), (j, k, e)),
                word((j, k), (j, l), (j, k, e), (i, k)),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Text form:  term := "b(" i "," j ")" ("^" int)?   terms separated by ws
# ---------------------------------------------------------------------------


def parse_braid(text: str, n: int) -> BraidWord:
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


def print_braid(w: BraidWord) -> str:
    return " ".join(str(g) for g in w.letters)
