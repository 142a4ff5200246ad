"""Word calculus over the three involution-generated targets.

Words carry no exponents: every generator squares to the identity, so
inversion is reversal and free reduction is cancellation of adjacent equal
letters.  Equality of group elements is not decidable here in general; the
package commits to two certificates:

  * `invariant` — the GF(2) occurrence-parity vector of a word, reduced
    modulo the row space spanned by the pentagon relations (for cyclic
    quadruples) or by nothing (for 4-subset generators, whose 5-term
    relation is a square and dies under abelianization).  Equal invariants
    are a *necessary* condition for equality in the group, never sufficient.
  * `commute_normalize` — a deterministic rewriting heuristic using only the
    far-commutation and involution relations.  Equal normal forms certify
    equality; unequal normal forms certify nothing.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import gf2
from .errors import (
    GroupMismatchError,
    IndexRangeError,
    WordSyntaxError,
)
from .generators import GammaGen, GGen


@dataclass(frozen=True)
class GWord:
    """A word in the 4-subset generators."""

    letters: tuple[GGen, ...] = ()

    def __mul__(self, other: "GWord") -> "GWord":
        return GWord(self.letters + other.letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self):
        return word_to_text(self)


@dataclass(frozen=True)
class GammaWord:
    """A word in the cyclic-quadruple generators (letters stored canonically)."""

    letters: tuple[GammaGen, ...] = ()

    def __mul__(self, other: "GammaWord") -> "GammaWord":
        return GammaWord(self.letters + other.letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self):
        return word_to_text(self)


@dataclass(frozen=True)
class MultiWord:
    """A word in an r-fold product: each letter is (slot, cyclic quadruple)."""

    r: int
    letters: tuple[tuple[int, GammaGen], ...] = ()

    def __post_init__(self):
        if self.r < 1:
            raise IndexRangeError(f"slot count r must be >= 1, got {self.r}")
        for slot, _ in self.letters:
            if not 0 <= slot < self.r:
                raise IndexRangeError(f"slot {slot} out of range for r={self.r}")

    def __mul__(self, other: "MultiWord") -> "MultiWord":
        if self.r != other.r:
            raise GroupMismatchError(f"cannot concatenate words with r={self.r} and r={other.r}")
        return MultiWord(self.r, self.letters + other.letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self):
        return word_to_text(self)


Word = GWord | GammaWord | MultiWord


def _rebuild(w: Word, letters) -> Word:
    if isinstance(w, MultiWord):
        return MultiWord(w.r, tuple(letters))
    return type(w)(tuple(letters))


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


def _subset_of(letter):
    if isinstance(letter, GammaGen):
        return letter.subset
    return letter.members


def _letters_commute(x, y, multi: bool) -> bool:
    if multi:
        (sx, gx), (sy, gy) = x, y
        if sx != sy:
            return True
        x, y = gx, gy
    return len(set(_subset_of(x)) & set(_subset_of(y))) < 3


def _letter_key(letter, multi: bool):
    if multi:
        slot, gen = letter
        return (slot, gen.cycle)
    if isinstance(letter, GammaGen):
        return letter.cycle
    return letter.members


def commute_normalize(w: Word, n: int | None = None) -> Word:
    """Deterministic semi-canonical form using involution + far-commutation.

    Repeatedly cancels adjacent equal letters and swaps adjacent commuting
    letters toward the length-lexicographic minimum (leftmost applicable
    rewrite first) until a fixed point.  Equal results imply equality in the
    group; unequal results imply nothing.  Letters sharing 3 indices are
    never swapped.
    """
    if n is not None:
        _check_word_indices(w, n)
    multi = isinstance(w, MultiWord)
    letters = list(free_reduce(w).letters)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(letters) - 1:
            x, y = letters[i], letters[i + 1]
            if x == y:
                del letters[i : i + 2]
                i = max(i - 1, 0)
                changed = True
                continue
            if _letters_commute(x, y, multi) and _letter_key(y, multi) < _letter_key(x, multi):
                letters[i], letters[i + 1] = y, x
                changed = True
            i += 1
    return _rebuild(w, letters)


# ---------------------------------------------------------------------------
# Pentagon relation rows and the parity invariant
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def gamma_columns(n: int) -> tuple[GammaGen, ...]:
    """All canonical cyclic quadruples on indices <= n, lexicographic order."""
    cols = []
    for subset in itertools.combinations(range(1, n + 1), 4):
        cols.extend(
            GammaGen(cyc)
            for cyc in ((subset[0], subset[1], subset[2], subset[3]),
                        (subset[0], subset[1], subset[3], subset[2]),
                        (subset[0], subset[2], subset[1], subset[3]))
        )
    return tuple(sorted(cols))


@functools.lru_cache(maxsize=None)
def g_columns(n: int) -> tuple[GGen, ...]:
    return tuple(GGen(s) for s in itertools.combinations(range(1, n + 1), 4))


@functools.lru_cache(maxsize=None)
def _gamma_column_index(n: int) -> dict[GammaGen, int]:
    return {g: k for k, g in enumerate(gamma_columns(n))}


@functools.lru_cache(maxsize=None)
def _g_column_index(n: int) -> dict[GGen, int]:
    return {g: k for k, g in enumerate(g_columns(n))}


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
    index = _gamma_column_index(n)
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


def _check_word_indices(w: Word, n: int) -> None:
    for letter in w.letters:
        gen = letter[1] if isinstance(w, MultiWord) else letter
        top = max(_subset_of(gen))
        if top > n:
            raise IndexRangeError(f"letter {gen} uses index {top} > n={n}")


@dataclass(frozen=True)
class InvariantClass:
    """Reduced GF(2) parity coordinates of a word; a decidable equality certificate.

    Two words with unequal classes are distinct in the group.  Equal classes
    say nothing beyond "equal after abelianizing modulo pentagon rows".
    Coordinates live in slot-major blocks of width len(gamma_columns(n))
    (one block for kind "g"/"gamma", r blocks for "gammar").
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
        if self.kind == "g":
            cols = g_columns(self.n)
            return [cols[k] for k in range(len(cols)) if self.bits >> k & 1]
        cols = gamma_columns(self.n)
        width = len(cols)
        out = []
        for slot in range(self.r):
            block = self.bits >> (slot * width)
            for k in range(width):
                if block >> k & 1:
                    out.append(cols[k] if self.kind == "gamma" else (slot, cols[k]))
        return out

    def __str__(self):
        if self.bits == 0:
            return "0"
        parts = []
        for item in self.nonzero_letters():
            if isinstance(item, tuple) and not hasattr(item, "cycle"):
                slot, gen = item
                parts.append(f"[{slot}]{gen}")
            else:
                parts.append(str(item))
        return " + ".join(parts)


def invariant(w: Word, n: int) -> InvariantClass:
    """Occurrence-parity vector of w, reduced modulo the relation row space."""
    try:
        return _invariant(w, n)
    except KeyError:
        # a letter outside the columns of n: name the first one
        _check_word_indices(w, n)
        raise


def _invariant(w: Word, n: int) -> InvariantClass:
    if isinstance(w, GWord):
        index = _g_column_index(n)
        bits = 0
        for letter in w.letters:
            bits ^= 1 << index[letter]
        return InvariantClass(n, "g", 1, bits)

    index = _gamma_column_index(n)
    width = len(index)
    basis = _pentagon_basis(n)
    if isinstance(w, GammaWord):
        bits = 0
        for letter in w.letters:
            bits ^= 1 << index[letter]
        return InvariantClass(n, "gamma", 1, gf2.reduce(bits, basis))

    bits = 0
    for slot, letter in w.letters:
        bits ^= 1 << (slot * width + index[letter])
    mask = (1 << width) - 1
    reduced = 0
    for slot in range(w.r):
        block = bits >> (slot * width) & mask
        reduced |= gf2.reduce(block, basis) << (slot * width)
    return InvariantClass(n, "gammar", w.r, reduced)


def invariant_equal(w1: Word, w2: Word, n: int) -> bool:
    """Necessary condition for w1 = w2 in the group (see InvariantClass)."""
    if type(w1) is not type(w2):
        raise GroupMismatchError(
            f"cannot compare a {type(w1).__name__} with a {type(w2).__name__}"
        )
    if isinstance(w1, MultiWord) and w1.r != w2.r:
        raise GroupMismatchError(f"cannot compare words with r={w1.r} and r={w2.r}")
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


def _scan_word(text: str):
    """Yield (kind, payload, position) triples; kind in {'a','d','slot'}."""
    i = 0
    out = []
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i >= len(text):
            return out
        start = i
        ch = text[i]
        if ch == "a":
            if not text.startswith("a{", i):
                raise WordSyntaxError("expected 'a{'", i)
            quad, i = _parse_quad(text, i + 2, "}")
            out.append(("a", quad, start))
        elif ch == "d":
            if not text.startswith("d(", i):
                raise WordSyntaxError("expected 'd('", i)
            quad, i = _parse_quad(text, i + 2, ")")
            out.append(("d", quad, start))
        elif ch == "[":
            slot, i = parse_uint(text, i + 1)
            if i >= len(text) or text[i] != "]":
                raise WordSyntaxError("expected ']'", i)
            i += 1
            if not text.startswith("d(", i):
                raise WordSyntaxError("expected 'd(' after slot tag", i)
            quad, i = _parse_quad(text, i + 2, ")")
            out.append(("slot", (slot, quad), start))
        else:
            raise WordSyntaxError(f"unexpected character {ch!r}", i)


def parse_gword(text: str) -> GWord:
    letters = []
    for kind, payload, pos in _scan_word(text):
        if kind != "a":
            raise WordSyntaxError("only a{...} letters are allowed in this word", pos)
        letters.append(GGen(payload))
    return GWord(tuple(letters))


def parse_gamma_word(text: str) -> GammaWord:
    letters = []
    for kind, payload, pos in _scan_word(text):
        if kind != "d":
            raise WordSyntaxError("only d(...) letters are allowed in this word", pos)
        letters.append(GammaGen(payload))
    return GammaWord(tuple(letters))


def parse_multi_word(text: str, r: int) -> MultiWord:
    letters = []
    for kind, payload, pos in _scan_word(text):
        if kind != "slot":
            raise WordSyntaxError("only [slot]d(...) letters are allowed in this word", pos)
        slot, quad = payload
        if not 0 <= slot < r:
            raise WordSyntaxError(f"slot {slot} out of range for r={r}", pos)
        letters.append((slot, GammaGen(quad)))
    return MultiWord(r, tuple(letters))


def parse_word(text: str, r: int | None = None) -> Word:
    """Parse with the letter kind inferred from the first letter (empty -> GammaWord)."""
    scanned = _scan_word(text)
    if not scanned:
        return GammaWord()
    kind = scanned[0][0]
    if kind == "a":
        return parse_gword(text)
    if kind == "d":
        return parse_gamma_word(text)
    if r is None:
        r = max(payload[0] for k, payload, _ in scanned if k == "slot") + 1
    return parse_multi_word(text, r)


def word_to_text(w: Word) -> str:
    if isinstance(w, MultiWord):
        return " ".join(f"[{slot}]{gen}" for slot, gen in w.letters)
    return " ".join(str(letter) for letter in w.letters)
