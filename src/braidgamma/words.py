"""Word calculus over the three involution-generated targets.

Words carry no exponents: every generator squares to the identity, so
inversion is reversal and free reduction is cancellation of adjacent equal
letters.  The three word types differ only in their letters (`GGen`,
`GammaGen`, `(slot, GammaGen)`), and every letter answers the same questions:
its 4-subset, its place in one total order, and its text (`letter_text`).
Every letter is interned: `GGen` and `GammaGen` by their constructors, and
each `(slot, GammaGen)` pair by `MultiWord`, which swaps it for the one
tuple per distinct pair.  So the word layer compares letters by identity:
`free_reduce` tests `is`, and `invariant` counts letters in a `Counter`.
A word from `homs.map_braid` carries two memo slots: an unreduced image
holds its reduced word in `_reduced`, which `free_reduce` returns, and the
reduced word its `InvariantClass` in `_class`, which `invariant` returns
for the same n.  A memo is no field, so equality, hash, repr, copy and
pickle ignore it, and a reduced word never points at itself (a reference
cycle would leave every image to the cyclic GC).
Equality of group elements is not decidable here in general.  The one
certificate is `invariant`: the GF(2) occurrence-parity vector of a word,
reduced modulo the row space spanned by the pentagon relations (for cyclic
quadruples) or by nothing (for 4-subset generators, whose 5-term relation
is a square and dies under abelianization); gammar's slots are copies, each
reduced on its own.  Equal invariants are a *necessary* condition for
equality in the group, never sufficient.
"""

from __future__ import annotations

import collections
import functools
import itertools

from . import gf2
from .errors import (
    GroupMismatchError,
    IndexRangeError,
    WordSyntaxError,
)
from .generators import GammaGen, GGen, Record, _letter, _set


class _Word(Record):
    """The methods the three word types share; each holds `letters`, and
    may hold the memos `_reduced` and `_class` (see the module docstring)."""

    __slots__ = ("_reduced", "_class")

    def __mul__(self, other):
        _check_same_target(self, other, "concatenate")
        return _rebuild(self, self.letters + other.letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self):
        return word_to_text(self)


class GWord(_Word):
    """A word in the 4-subset generators (letters are not checked)."""

    kind = "g"
    r = 1
    __slots__ = _fields = ("letters",)

    def __init__(self, letters: tuple[GGen, ...] = ()):
        _set(self, "letters", letters)


class GammaWord(_Word):
    """A word in the cyclic-quadruple generators (letters stored canonically,
    not checked)."""

    kind = "gamma"
    r = 1
    __slots__ = _fields = ("letters",)

    def __init__(self, letters: tuple[GammaGen, ...] = ()):
        _set(self, "letters", letters)


# the one (slot, GammaGen) tuple per distinct slot letter, as GammaGen keeps
# one object per quadruple: at most r*3*C(n,4) pairs for the largest r and n
_SLOT_LETTERS: dict = {}


class MultiWord(_Word):
    """A word in an r-fold product: each letter is (slot, cyclic quadruple),
    with an int slot in 0..r-1, stored as the interned pair."""

    kind = "gammar"
    __slots__ = _fields = ("r", "letters")

    def __init__(self, r: int, letters: tuple[tuple[int, GammaGen], ...] = ()):
        check_target(self.kind, r)
        letter = None
        interned = []
        try:
            for letter in letters:
                slot, gen = letter
                if type(slot) is not int or type(gen) is not GammaGen:
                    raise TypeError
                if not 0 <= slot < r:
                    raise IndexRangeError(f"slot {slot} out of range for r={r}")
                pair = slot, gen
                interned.append(_SLOT_LETTERS.setdefault(pair, pair))
        except (TypeError, ValueError):
            # not a pair, or not an int slot with a cyclic quadruple
            raise GroupMismatchError(
                f"a MultiWord cannot hold the letter {letter_text(letter)}"
            ) from None
        _set(self, "r", r)
        _set(self, "letters", tuple(interned))


Word = GWord | GammaWord | MultiWord


class _Target(Record):
    __slots__ = _fields = ("word", "gen", "shape", "slotted")

    def __init__(self, word: type, gen: type, shape: str, slotted: bool):
        _set(self, "word", word)
        _set(self, "gen", gen)
        _set(self, "shape", shape)  # a printed letter, for parse errors
        _set(self, "slotted", slotted)  # letters are (slot, gen) pairs, the word type takes r


# The one table of targets: the only place a target name meets a word type.
TARGETS = {
    "g": _Target(GWord, GGen, "a{...}", False),
    "gamma": _Target(GammaWord, GammaGen, "d(...)", False),
    "gammar": _Target(MultiWord, GammaGen, "[slot]d(...)", True),
}
MAX_R = 1024  # the largest r that check_target lets through


def check_target(target: str, r: int) -> _Target:
    """The table entry of `target`, after the one check of the target and r."""
    if not isinstance(target, str) or target not in TARGETS:
        raise IndexRangeError(f"target must be one of {tuple(TARGETS)}, got {target!r}")
    if type(r) is not int:  # bool too: True would pass as r = 1
        raise IndexRangeError(f"r must be an int, got {r!r}")
    if not 1 <= r <= MAX_R:
        raise IndexRangeError(f"need 1 <= r <= {MAX_R}, got {r}")
    if r != 1 and not TARGETS[target].slotted:
        raise IndexRangeError("r > 1 requires target 'gammar'")
    return TARGETS[target]


def target_word(target: str, r: int, letters) -> Word:
    """The word of `target` (with r slots) on `letters`.  Target and r are
    checked before `letters` is read."""
    t = check_target(target, r)
    return t.word(r, tuple(letters)) if t.slotted else t.word(tuple(letters))


def _rebuild(w: Word, letters) -> Word:
    """A word of w's type and r on letters taken from such words, which were
    checked when those were built: a MultiWord skips its letter scan."""
    if type(w) is not MultiWord:
        return type(w)(tuple(letters))
    out = object.__new__(MultiWord)
    _set(out, "r", w.r)
    _set(out, "letters", tuple(letters))
    return out


def _check_same_target(w1: Word, w2: Word, verb: str) -> None:
    if type(w1) is not type(w2):
        raise GroupMismatchError(f"cannot {verb} a {type(w1).__name__} with a {type(w2).__name__}")
    if w1.r != w2.r:
        raise GroupMismatchError(f"cannot {verb} words with r={w1.r} and r={w2.r}")


def free_reduce(w: Word) -> Word:
    """Delete adjacent equal letters until none remain.

    Involutive cancellation is confluent, so the result does not depend on
    deletion order; a single stack pass computes it.  A word that carries
    its reduced form (the memo `_reduced`, set by `homs.map_braid`) returns
    that instead.
    """
    red = getattr(w, "_reduced", None)
    if red is not None:
        return red
    stack = []
    for letter in w.letters:
        if stack and stack[-1] is letter:  # letters are interned; see _Letter
            stack.pop()
        else:
            stack.append(letter)
    return _rebuild(w, stack)


def invert(w: Word) -> Word:
    """Group inverse: reversal, since all letters are involutions."""
    return _rebuild(w, reversed(w.letters))


# ---------------------------------------------------------------------------
# Pentagon relation rows and the parity invariant
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def gamma_columns(n: int) -> tuple[GammaGen, ...]:
    """All canonical cyclic quadruples on indices <= n, lexicographic order."""
    return tuple(_letter(GammaGen, cycle) for cycle in sorted(  # tuples compare in C
        cycle
        for i, j, k, l in itertools.combinations(range(1, n + 1), 4)
        for cycle in ((i, j, k, l), (i, j, l, k), (i, k, j, l))  # canonical, checked
    ))


@functools.lru_cache(maxsize=None)
def g_columns(n: int) -> tuple[GGen, ...]:
    return tuple(GGen(s) for s in itertools.combinations(range(1, n + 1), 4))


@functools.lru_cache(maxsize=None)
def _column_index(gen: type, n: int) -> dict:
    """Column of each letter of type `gen` on indices <= n: one slot's block."""
    return {g: k for k, g in enumerate(g_columns(n) if gen is GGen else gamma_columns(n))}


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
    # the 12 rows on 1..5 as positions in its 15 columns: one 5-tuple per
    # dihedral orbit, 1 first and the second entry below the last
    model = gamma_columns(5)
    model_rows = [
        [model.index(face) for face in pentagon_faces((1, *perm))]
        for perm in itertools.permutations((2, 3, 4, 5))
        if perm[0] < perm[-1]
    ]
    column = {g.cycle: k for k, g in enumerate(gamma_columns(n))}
    rows = set()
    for subset in itertools.combinations(range(1, n + 1), 5):
        # canonical cycles keep their form under the increasing relabelling
        # 1..5 -> subset, so each column of the subset is one table lookup
        bit = [1 << column[tuple(subset[v - 1] for v in g.cycle)] for g in model]
        for a, b, c, d, e in model_rows:
            rows.add(bit[a] | bit[b] | bit[c] | bit[d] | bit[e])
    return tuple(sorted(rows))


@functools.lru_cache(maxsize=None)
def _pentagon_basis(n: int) -> dict[int, int]:
    """The pivot -> row table of the pentagon rows' echelon basis."""
    return dict(gf2.echelon(pentagon_rows(n)))


def _check_letters(w: Word, n: int) -> None:
    """Raise for the first letter of w that is of another kind than w's, or
    that uses an index above n."""
    t = TARGETS[w.kind]
    for letter in w.letters:
        gen = letter[1] if t.slotted else letter  # MultiWord checked its slots
        if type(gen) is not t.gen:
            raise GroupMismatchError(
                f"a {type(w).__name__} cannot hold the letter {letter_text(letter)}"
            )
        top = gen.subset[-1]
        if top > n:
            raise IndexRangeError(f"letter {gen} uses index {top} > n={n}")


class InvariantClass(Record):
    """Reduced GF(2) parity coordinates of a word; a decidable equality certificate.

    Two words with unequal classes are distinct in the group.  Equal classes
    say nothing beyond "equal after abelianizing modulo pentagon rows".
    Bit k is the k-th letter of the target's columns: `g_columns(n)`,
    `gamma_columns(n)`, or for "gammar" r slot-major blocks of the latter.
    """

    __slots__ = _fields = ("n", "kind", "r", "bits")

    def __init__(self, n: int, kind: str, r: int, bits: int):
        _set(self, "n", n)
        _set(self, "kind", kind)  # "g" | "gamma" | "gammar"
        _set(self, "r", r)
        _set(self, "bits", bits)

    def is_zero(self) -> bool:
        return self.bits == 0

    def __add__(self, other: "InvariantClass") -> "InvariantClass":
        if (self.n, self.kind, self.r) != (other.n, other.kind, other.r):
            raise GroupMismatchError("cannot add invariant classes of different targets")
        # XOR of reduced representatives is reduced: pivot columns stay zero.
        return InvariantClass(self.n, self.kind, self.r, self.bits ^ other.bits)

    def nonzero_letters(self):
        """The letters (or slot-tagged letters) whose coordinate is 1.  A bit
        past the columns names no letter: IndexRangeError, never a mask."""
        cols = g_columns(self.n) if self.kind == "g" else gamma_columns(self.n)
        if self.bits >> self.r * len(cols):  # a negative int shifts to -1
            raise IndexRangeError(f"bits past the {self.r * len(cols)} columns of the class")
        out, rest = [], self.bits
        while rest:  # one step per set bit, lowest first: slot-major order
            slot, k = divmod((rest & -rest).bit_length() - 1, len(cols))
            out.append((slot, cols[k]) if self.kind == "gammar" else cols[k])
            rest &= rest - 1
        return out

    def __str__(self):
        return " + ".join(map(letter_text, self.nonzero_letters())) or "0"


def invariant(w: Word, n: int) -> InvariantClass:
    """Occurrence-parity vector of w, reduced modulo the relation row space.
    Slots are copies: only the blocks of the slots w uses are built and
    reduced, so no table or loop depends on r.  A memo `_class` (see the
    module docstring) answers for its own n only."""
    memo = getattr(getattr(w, "_reduced", w), "_class", None)
    if memo is not None and memo.n == n:
        return memo
    t = TARGETS[w.kind]
    index = _column_index(t.gen, n)
    counts = collections.Counter(w.letters)
    blocks = {}  # slot -> parity bits of its letters
    try:
        if t.slotted:
            for (slot, gen), count in counts.items():
                blocks[slot] = blocks.get(slot, 0) | (count & 1) << index[gen]
        else:
            blocks[0] = sum((count & 1) << index[gen] for gen, count in counts.items())
    except KeyError:
        # a letter outside the columns: name the first one
        _check_letters(w, n)
        raise
    if t.gen is GammaGen:  # 4-subset letters have no relator rows
        blocks = {slot: gf2.reduce(b, _pentagon_basis(n)) for slot, b in blocks.items()}
    bits = sum(b << slot * len(index) for slot, b in blocks.items())
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


def parse_word(text: str, r: int | None = None, target: str | None = None) -> Word:
    """Parse a word of `target`; if None, of the first letter's kind (empty ->
    GammaWord).  A given r is checked with the target before the text is read
    (with an inferred kind, once it is known); for gammar it defaults to one
    more than the largest slot, 1 if none, and at most MAX_R.  Syntax errors
    anywhere come first, then the letters are checked in order."""
    if target is not None:
        check_target(target, 1 if r is None else r)
    scanned = _scan_word(text)
    kind = target
    if kind is None:
        kind = scanned[0][0] if scanned else "gamma"
        if r is not None:
            check_target(kind, r)
    t = TARGETS[kind]
    inferred = t.slotted and r is None
    if inferred:  # a slot of MAX_R or more then fails at its tag, below
        top = max((payload[0] for got, payload, _ in scanned if got == kind), default=0)
        r = min(top + 1, MAX_R)
    letters = []
    for got, payload, pos in scanned:
        if got != kind:
            raise WordSyntaxError(f"only {t.shape} letters are allowed in this word", pos)
        if not t.slotted:
            letters.append(t.gen(payload))
            continue
        slot, quad = payload
        if not 0 <= slot < r:
            bound = f"r <= {MAX_R}" if inferred else f"r={r}"
            raise WordSyntaxError(f"slot {slot} out of range for {bound}", pos)
        letters.append((slot, t.gen(quad)))
    return target_word(kind, r if t.slotted else 1, letters)


def letter_text(letter) -> str:
    """Printed form of a letter: `a{...}`, `d(...)` or `[slot]d(...)`."""
    if type(letter) is tuple and len(letter) == 2:
        return f"[{letter[0]}]{letter[1]}"
    return str(letter)


def word_to_text(w: Word) -> str:
    return " ".join(map(letter_text, w.letters))
