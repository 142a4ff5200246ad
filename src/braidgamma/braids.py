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

Text form: terms `b(i,j)` or `b(i,j)^e`, separated by optional blanks.
`parse_braid` matches one term at a time with one regular expression, compiled
on first use so that an import compiles nothing.  Its blanks are `str.isspace`
and its digits are ASCII only, as in `words.parse_uint`.  Each term's letter
comes from a bounded cache keyed on the matched strings, so equal terms share
one `BraidGen` within and across calls.  The cache builds letters only through
`BraidGen`, which refuses an index 0, i >= j and a zero exponent; a refused
letter is never cached.  A term the pattern does not match (a `^` with no
integer after it fails the pattern's lookahead), a refused letter, an integer
too long for `int`, or j > n goes to the one-term scanner, which raises the
error with its position.  The scanner is the only error path.
"""

from __future__ import annotations

import functools
import itertools
import re

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

_TERM = r"\s*b\(([0-9]+),([0-9]+)\)(?:\^(-?[0-9]+)|(?!\^))"
_INTERNED_LETTERS = 4096


@functools.lru_cache(maxsize=_INTERNED_LETTERS)
def _interned(i: str, j: str, e: str | None) -> BraidGen:
    return BraidGen(int(i), int(j), 1 if e is None else int(e))


def parse_braid(text: str, n: int) -> BraidWord:
    match = re.compile(_TERM).match  # compiled on first use, then from re's cache
    letters = []
    i = 0
    while True:
        m = match(text, i)
        try:
            g = _interned(*m.groups()) if m else None
        except (ValueError, IndexRangeError):  # an int() too long, or a refused letter
            g = None
        if g is None or g.j > n:
            g, i = _scan_term(text, i, n)  # raises, or None past trailing blanks
            if g is None:
                break
        else:
            i = m.end()
        letters.append(g)
    # every term was checked against n: build the word without its letter scan
    out = object.__new__(BraidWord)
    _set(out, "n", n)
    _set(out, "letters", tuple(letters))
    return out


def _scan_term(text: str, i: int, n: int) -> tuple[BraidGen | None, int]:
    """The term at text[i:], after blanks, and the offset past it; None at
    the end of the text.  A malformed or out-of-range term raises."""
    while i < len(text) and text[i].isspace():
        i += 1
    if i >= len(text):
        return None, i
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
    return BraidGen(a, b, exponent), i


def print_braid(w: BraidWord) -> str:
    return " ".join(str(g) for g in w.letters)
