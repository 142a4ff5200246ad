"""Word calculus over the three involution-generated targets.

Words carry no exponents: every generator squares to the identity, so
inversion is reversal and free reduction is cancellation of adjacent equal
letters.  The three word types differ only in their letters (`GGen`,
`GammaGen`, `(slot, GammaGen)`), and every letter answers the same questions:
its 4-subset, its place in one total order, and its text (`letter_text`).
Equality of group elements is not decidable here in general; the package
commits to two certificates:

  * `invariant` — the GF(2) occurrence-parity vector of a word, reduced
    modulo the row space spanned by the pentagon relations (for cyclic
    quadruples) or by nothing (for 4-subset generators, whose 5-term
    relation is a square and dies under abelianization).  Equal invariants
    are a *necessary* condition for equality in the group, never sufficient.
  * `commute_normalize` — the exact normal form modulo the involution and
    far-commutation relations alone, a right-angled Coxeter group.  Equal
    normal forms certify equality; unequal ones certify nothing, since the
    pentagon and five-term relations are not used.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass

from . import gf2
from .errors import (
    GroupMismatchError,
    IndexRangeError,
    WordSyntaxError,
)
from .generators import GammaGen, GGen


class _Word:
    """The methods the three word types share; each holds `letters`."""

    def __mul__(self, other):
        _check_same_target(self, other, "concatenate")
        return _rebuild(self, self.letters + other.letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self):
        return word_to_text(self)


@dataclass(frozen=True)
class GWord(_Word):
    """A word in the 4-subset generators."""

    kind = "g"
    r = 1
    letters: tuple[GGen, ...] = ()


@dataclass(frozen=True)
class GammaWord(_Word):
    """A word in the cyclic-quadruple generators (letters stored canonically)."""

    kind = "gamma"
    r = 1
    letters: tuple[GammaGen, ...] = ()


@dataclass(frozen=True)
class MultiWord(_Word):
    """A word in an r-fold product: each letter is (slot, cyclic quadruple)."""

    kind = "gammar"
    r: int
    letters: tuple[tuple[int, GammaGen], ...] = ()

    def __post_init__(self):
        if self.r < 1:
            raise IndexRangeError(f"slot count r must be >= 1, got {self.r}")
        letter = None
        try:
            for letter in self.letters:
                slot, _ = letter
                if not 0 <= slot < self.r:
                    raise IndexRangeError(f"slot {slot} out of range for r={self.r}")
        except (TypeError, ValueError):
            # not a pair, or a slot that does not compare with ints
            raise GroupMismatchError(
                f"a MultiWord cannot hold the letter {letter_text(letter)}"
            ) from None


Word = GWord | GammaWord | MultiWord


def _rebuild(w: Word, letters) -> Word:
    if isinstance(w, MultiWord):
        return MultiWord(w.r, tuple(letters))
    return type(w)(tuple(letters))


def _check_same_target(w1: Word, w2: Word, verb: str) -> None:
    if type(w1) is not type(w2):
        raise GroupMismatchError(f"cannot {verb} a {type(w1).__name__} with a {type(w2).__name__}")
    if w1.r != w2.r:
        raise GroupMismatchError(f"cannot {verb} words with r={w1.r} and r={w2.r}")


def free_reduce(w: Word) -> Word:
    """Delete adjacent equal letters until none remain.

    Involutive cancellation is confluent, so the result does not depend on
    deletion order; a single stack pass computes it.
    """
    stack = []
    for letter in w.letters:
        if stack and stack[-1] == letter:
            stack.pop()
        else:
            stack.append(letter)
    return _rebuild(w, stack)


def invert(w: Word) -> Word:
    """Group inverse: reversal, since all letters are involutions."""
    return _rebuild(w, reversed(w.letters))


def forget_to_g(w: GammaWord) -> GWord:
    """Quotient a cyclic-quadruple word onto 4-subset generators."""
    return GWord(tuple(GGen(letter.subset) for letter in w.letters))


def _commute(x, y) -> bool:
    """Far commutation: letters in different slots, or sharing at most 2 indices."""
    if type(x) is tuple:
        if x[0] != y[0]:
            return True
        x, y = x[1], y[1]
    return len(set(x.subset).intersection(y.subset)) < 3


def commute_normalize(w: Word, n: int | None = None) -> Word:
    """Exact normal form modulo involution and far commutation, which alone
    present a right-angled Coxeter group (Tits 1969).

    First each letter cancels the last earlier letter it does not commute
    with, if the two are equal: the result is reduced, and reduced words of
    one element differ only by swaps of commuting letters.  Then the least
    letter that waits on no earlier letter it does not commute with is
    emitted, until none is left.  Equal forms certify equality in the
    target; unequal ones certify nothing, as pentagon relations are unused.
    """
    if n is not None:
        _check_letters(w, n)
    distinct = set(w.letters)
    clash = {x: {y for y in distinct if not _commute(x, y)} for x in distinct}
    kept = []
    for x in w.letters:
        k = len(kept) - 1
        while k >= 0 and kept[k] not in clash[x]:
            k -= 1
        if k >= 0 and kept[k] == x:
            del kept[k]
        else:
            kept.append(x)
    # y waits on the last earlier place of each letter it does not commute
    # with; that letter's earlier places come before that place anyway
    waits, blocked, last = [], [[] for _ in kept], {}
    for j, y in enumerate(kept):
        before = [last[z] for z in clash[y] if z in last]
        waits.append(len(before))
        for i in before:
            blocked[i].append(j)
        last[y] = j
    ready = [(x, i) for i, x in enumerate(kept) if not waits[i]]
    heapq.heapify(ready)
    out = []
    while ready:
        x, i = heapq.heappop(ready)
        out.append(x)
        for j in blocked[i]:
            waits[j] -= 1
            if not waits[j]:
                heapq.heappush(ready, (kept[j], j))
    return _rebuild(w, out)


# ---------------------------------------------------------------------------
# Pentagon relation rows and the parity invariant
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def gamma_columns(n: int) -> tuple[GammaGen, ...]:
    """All canonical cyclic quadruples on indices <= n, lexicographic order."""
    return tuple(sorted(
        GammaGen(cycle)
        for i, j, k, l in itertools.combinations(range(1, n + 1), 4)
        for cycle in ((i, j, k, l), (i, j, l, k), (i, k, j, l))
    ))


@functools.lru_cache(maxsize=None)
def g_columns(n: int) -> tuple[GGen, ...]:
    return tuple(GGen(s) for s in itertools.combinations(range(1, n + 1), 4))


@functools.lru_cache(maxsize=None)
def _columns(kind: str, n: int, r: int) -> tuple:
    """The invariant's coordinate letters; for gammar, a block per slot."""
    if kind == "g":
        return g_columns(n)
    if kind == "gamma":
        return gamma_columns(n)
    return tuple((slot, g) for slot in range(r) for g in gamma_columns(n))


@functools.lru_cache(maxsize=None)
def _column_index(kind: str, n: int, r: int) -> dict:
    return {letter: k for k, letter in enumerate(_columns(kind, n, r))}


def pentagon_faces(order: tuple[int, int, int, int, int]) -> tuple[GammaGen, ...]:
    """The five quadruples induced on the faces of a cyclically ordered 5-tuple."""
    i, j, k, l, m = order
    return (
        GammaGen((i, j, k, l)),
        GammaGen((i, j, k, m)),
        GammaGen((i, j, l, m)),
        GammaGen((i, k, l, m)),
        GammaGen((j, k, l, m)),
    )


def pentagon_rows(n: int) -> tuple[int, ...]:
    """Deduplicated GF(2) rows of all pentagon relation instances on n indices.

    One row per distinct 5-letter indicator vector over `gamma_columns(n)`.
    A row depends only on the cyclic order of its 5-tuple (canonicalization
    absorbs the dihedral symmetry), so one tuple per cyclic order of each
    5-subset gives the same rows as all ordered 5-tuples.
    """
    if n < 5:
        return ()
    index = _column_index("gamma", n, 1)
    rows = set()
    for first, *rest in itertools.combinations(range(1, n + 1), 5):
        # one tuple per dihedral orbit: the smallest index first, and the
        # second entry below the last
        for perm in itertools.permutations(rest):
            if perm[0] < perm[-1]:
                row = 0
                for face in pentagon_faces((first, *perm)):
                    row |= 1 << index[face]
                rows.add(row)
    return tuple(sorted(rows))


@functools.lru_cache(maxsize=None)
def _pentagon_basis(n: int):
    return gf2.echelon(pentagon_rows(n))


def _check_letters(w: Word, n: int) -> None:
    """Raise for the first letter of w that is of another kind than w's, or
    that uses an index above n."""
    gen_type = GGen if w.kind == "g" else GammaGen
    for letter in w.letters:
        gen = letter[1] if w.kind == "gammar" else letter
        slot_ok = w.kind != "gammar" or type(letter[0]) is int
        if type(gen) is not gen_type or not slot_ok:
            raise GroupMismatchError(
                f"a {type(w).__name__} cannot hold the letter {letter_text(letter)}"
            )
        top = gen.subset[-1]
        if top > n:
            raise IndexRangeError(f"letter {gen} uses index {top} > n={n}")


@dataclass(frozen=True)
class InvariantClass:
    """Reduced GF(2) parity coordinates of a word; a decidable equality certificate.

    Two words with unequal classes are distinct in the group.  Equal classes
    say nothing beyond "equal after abelianizing modulo pentagon rows".
    Bit k is the k-th letter of the target's columns: `g_columns(n)`,
    `gamma_columns(n)`, or for "gammar" r slot-major blocks of the latter.
    """

    n: int
    kind: str  # "g" | "gamma" | "gammar"
    r: int
    bits: int

    def is_zero(self) -> bool:
        return self.bits == 0

    def __add__(self, other: "InvariantClass") -> "InvariantClass":
        if (self.n, self.kind, self.r) != (other.n, other.kind, other.r):
            raise GroupMismatchError("cannot add invariant classes of different targets")
        # XOR of reduced representatives is reduced: pivot columns stay zero.
        return InvariantClass(self.n, self.kind, self.r, self.bits ^ other.bits)

    def nonzero_letters(self):
        """The letters (or slot-tagged letters) whose coordinate is 1."""
        cols = _columns(self.kind, self.n, self.r)
        return [cols[k] for k in range(len(cols)) if self.bits >> k & 1]

    def __str__(self):
        return " + ".join(map(letter_text, self.nonzero_letters())) or "0"


def invariant(w: Word, n: int) -> InvariantClass:
    """Occurrence-parity vector of w, reduced modulo the relation row space."""
    index = _column_index(w.kind, n, w.r)
    bits = 0
    try:
        for letter in w.letters:
            bits ^= 1 << index[letter]
    except KeyError:
        # a letter outside the columns: name the first one
        _check_letters(w, n)
        raise
    if w.kind != "g":
        basis = _pentagon_basis(n)
        width = len(gamma_columns(n))
        mask = (1 << width) - 1
        bits = sum(
            gf2.reduce(bits >> (slot * width) & mask, basis) << (slot * width)
            for slot in range(w.r)
        )
    return InvariantClass(n, w.kind, w.r, bits)


def invariant_equal(w1: Word, w2: Word, n: int) -> bool:
    """Necessary condition for w1 = w2 in the group (see InvariantClass)."""
    _check_same_target(w1, w2, "compare")
    return invariant(w1, n) == invariant(w2, n)


# ---------------------------------------------------------------------------
# Text forms
#
#   word   := ws* (letter ws*)* ;
#   letter := gGen | dGen | slotGen ;
#   gGen   := "a{" int "," int "," int "," int "}" ;
#   dGen   := "d(" int "," int "," int "," int ")" ;
#   slotGen:= "[" int "]" dGen ;
#
# Printed form is always canonical, so print . parse is the identity on
# printed words and a normalizer on everything else.
# ---------------------------------------------------------------------------


def parse_uint(text: str, i: int) -> tuple[int, int]:
    """The unsigned decimal integer at text[i:] and the offset just past it.

    Only ASCII digits count: `str.isdigit` also accepts characters such as
    superscripts that `int` rejects.
    """
    j = i
    while j < len(text) and "0" <= text[j] <= "9":
        j += 1
    if j == i:
        raise WordSyntaxError("expected an integer", i)
    try:
        return int(text[i:j]), j
    except ValueError:  # more digits than int() converts
        raise WordSyntaxError("integer too long", i) from None


def _parse_quad(text: str, i: int, close: str) -> tuple[tuple[int, int, int, int], int]:
    vals = []
    for k in range(4):
        v, i = parse_uint(text, i)
        vals.append(v)
        want = "," if k < 3 else close
        if i >= len(text) or text[i] != want:
            raise WordSyntaxError(f"expected {want!r}", i)
        i += 1
    return tuple(vals), i


_OPENERS = {"a": ("g", "a{", "}"), "d": ("gamma", "d(", ")")}


def _scan_word(text: str):
    """(kind, payload, position) per letter, kind in {"g", "gamma", "gammar"}."""
    i = 0
    out = []
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i >= len(text):
            return out
        start = i
        ch = text[i]
        if ch in _OPENERS:
            kind, opener, close = _OPENERS[ch]
            if not text.startswith(opener, i):
                raise WordSyntaxError(f"expected {opener!r}", i)
            quad, i = _parse_quad(text, i + 2, close)
            out.append((kind, quad, start))
        elif ch == "[":
            slot, i = parse_uint(text, i + 1)
            if i >= len(text) or text[i] != "]":
                raise WordSyntaxError("expected ']'", i)
            i += 1
            if not text.startswith("d(", i):
                raise WordSyntaxError("expected 'd(' after slot tag", i)
            quad, i = _parse_quad(text, i + 2, ")")
            out.append(("gammar", (slot, quad), start))
        else:
            raise WordSyntaxError(f"unexpected character {ch!r}", i)


_SHAPES = {"g": "a{...}", "gamma": "d(...)", "gammar": "[slot]d(...)"}


def _parse(text: str, kind: str | None, r: int | None = None) -> Word:
    """The word of `text` in letters of `kind` (default: the first letter's;
    GammaWord if empty), with r from the largest slot if None.  Syntax errors
    anywhere come first, then the letters are checked in order."""
    scanned = _scan_word(text)
    if kind is None:
        kind = scanned[0][0] if scanned else "gamma"
    if kind == "gammar" and r is None:
        r = max(payload[0] for got, payload, _ in scanned if got == kind) + 1
    letters = []
    for got, payload, pos in scanned:
        if got != kind:
            raise WordSyntaxError(f"only {_SHAPES[kind]} letters are allowed in this word", pos)
        if kind != "gammar":
            letters.append((GGen if kind == "g" else GammaGen)(payload))
            continue
        slot, quad = payload
        if not 0 <= slot < r:
            raise WordSyntaxError(f"slot {slot} out of range for r={r}", pos)
        letters.append((slot, GammaGen(quad)))
    if kind == "gammar":
        return MultiWord(r, tuple(letters))
    return (GWord if kind == "g" else GammaWord)(tuple(letters))


def parse_gword(text: str) -> GWord:
    return _parse(text, "g")


def parse_gamma_word(text: str) -> GammaWord:
    return _parse(text, "gamma")


def parse_multi_word(text: str, r: int) -> MultiWord:
    return _parse(text, "gammar", r)


def parse_word(text: str, r: int | None = None) -> Word:
    """Parse with the letter kind inferred from the first letter (empty -> GammaWord)."""
    return _parse(text, None, r)


def letter_text(letter) -> str:
    """Printed form of a letter: `a{...}`, `d(...)` or `[slot]d(...)`."""
    if type(letter) is tuple and len(letter) == 2:
        return f"[{letter[0]}]{letter[1]}"
    return str(letter)


def word_to_text(w: Word) -> str:
    return " ".join(map(letter_text, w.letters))
