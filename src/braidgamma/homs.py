"""Maps from pure braid words into the three involution-generated targets.

Each braid letter b(i,j) is sent to a product of "passage" words, one per
point that the moving strand passes.  A passage word is assembled from three
literal double products whose letters are indexed by the printed expressions

    part II :  p in 1..y-1, q in 1..n-y      letter on (y-p, y+p | x, y)
    part I  :  p in 2..y-1, q in 1..p-1      letter on (p,   q   | x, y)
    part III:  p in 1..n-y+1, q in 0..n-p+1  letter on (n-p, n-q | x, y)

for a passage of strand x anchored at strand y, multiplied as II * I * III.
The inner bound variable of part II never appears in its letter, so each of
its letters occurs with multiplicity n-y; factors whose four indices collide
or leave 1..n are dropped.  No index expression is repaired: the geometric
tracer (`formula_mode="traced"`) is the semantic oracle, and discrepancies
between the two modes are reported, never silently reconciled.

Two assembly patterns for the full letter image are printed in different
places and are both exposed:

    "flip"    : P(i,i+1) ... P(i,j)  P(j,i)  P(j-1,i)^-1 ... P(i+1,i)^-1
    "doubled" : P(i,i+1) ... P(i,j)  P(i,j)  P(i,j-1)^-1 ... P(i,i+1)^-1

The 4-subset target always uses "doubled" (its only printed form); the
cyclic-quadruple targets default to "flip".  Past that choice only `passage`
(which letter) looks at the target; `words.target_word` builds every word.

Passage words, their classes (reduced invariant bits) and, per generator,
its image, its class and its record for `map_braid` are memoised for the
life of the process, keyed by (HomConfig, i, j).  Words and letters are
immutable, so every caller shares the cached objects.

`invariant` is a homomorphism to GF(2) vectors, and a word and its inverse
have the same parities.  So a literal generator's class is the XOR of the
classes of the passages that occur an odd number of times in its image,
which is never built for it: under "doubled" and for "g" each occurs twice
and the class is 0.  A traced generator's class, and a record's (`_record`),
count their own image.  A braid word's class is the XOR of its letters'
generator classes, one per odd exponent: `image_invariant` computes it
without building the image, and `map_braid` stores it on the image it builds.
"""

from __future__ import annotations

import functools

from . import geom2d
from .braids import BraidWord
from .errors import IndexRangeError
from .generators import GGen, Record, _set, select_quad
from .words import (
    InvariantClass,
    _rebuild,
    check_target,
    free_reduce,
    invariant,
    target_word,
)

MAX_IMAGE_LETTERS = 1 << 22


class HomConfig(Record):
    _fields = ("n", "target", "r", "formula_mode", "assembly")
    __slots__ = (*_fields, "_hash")  # every cache lookup hashes the config

    def __init__(
        self,
        n: int,
        target: str = "gamma",
        r: int = 1,
        formula_mode: str = "literal",  # "literal" | "traced"
        assembly: str = "flip",  # "flip" | "doubled"
    ):
        if type(n) is not int:  # bool too, as check_target does for r
            raise IndexRangeError(f"n must be an int, got {n!r}")
        if n < 1:
            raise IndexRangeError(f"need n >= 1, got {n}")
        check_target(target, r)
        if formula_mode not in ("literal", "traced"):
            raise IndexRangeError(f"unknown formula_mode {formula_mode!r}")
        if assembly not in ("flip", "doubled"):
            raise IndexRangeError(f"unknown assembly {assembly!r}")
        _set(self, "n", n)
        _set(self, "target", target)
        _set(self, "r", r)
        _set(self, "formula_mode", formula_mode)
        if target == "g" or formula_mode == "traced":
            assembly = "doubled"  # no traced or "g" map has another: one key
        _set(self, "assembly", assembly)
        _set(self, "_hash", hash(self._values(self)))

    def __hash__(self):
        return self._hash


def inside_count(a: int, b: int, c: int) -> int:
    """Base points strictly inside the circle through base points a, b, c.

    For the standard parabola configuration the points inside the circle
    through the sorted triple lo < mid < hi are exactly 1..lo-1 and
    mid+1..hi-1, i.e. lo + hi - mid - 2 of them.
    """
    lo, mid, hi = sorted((a, b, c))
    if lo == mid or mid == hi:
        raise IndexRangeError(f"indices must be distinct, got {(a, b, c)}")
    return lo + hi - mid - 2


def letter_slot(p: int, q: int, mover: int, anchor: int, r: int) -> int:
    """Slot of the product letter on (p, q | mover, anchor) in the r-fold target.

    The base count is inside_count(p, q, anchor); one more when the moving
    strand's base point sits strictly inside the circle through p, q, anchor
    (below all three, or between the middle and largest).  Reduced mod r.
    """
    check_target("gammar", r)
    lo, mid, hi = sorted((p, q, anchor))
    if len({p, q, mover, anchor}) != 4:
        raise IndexRangeError(f"indices must be distinct, got {(p, q, mover, anchor)}")
    inside = mover < lo or mid < mover < hi
    return (inside_count(p, q, anchor) + (1 if inside else 0)) % r


def _passage_pairs(n: int, mover: int, anchor: int):
    """(p, q) far-point pairs of one passage word, in printed product order.

    Yields only pairs whose letter has four distinct in-range indices.
    """
    y = anchor

    def ok(p, q):
        return 1 <= p <= n and 1 <= q <= n and len({p, q, mover, anchor}) == 4

    # part II (letter independent of the inner bound variable)
    for p in range(1, y):
        for _ in range(1, n - y + 1):
            if ok(y - p, y + p):
                yield (y - p, y + p)
    # part I
    for p in range(2, y):
        for q in range(1, p):
            if ok(p, q):
                yield (p, q)
    # part III
    for p in range(1, n - y + 2):
        for q in range(0, n - p + 2):
            if ok(n - p, n - q):
                yield (n - p, n - q)


@functools.lru_cache(maxsize=None)
def passage(cfg: HomConfig, mover: int, anchor: int):
    """Image word of one passage of strand `mover` at strand `anchor`: per far
    pair, the target's letter on (p, q | mover, anchor), in printed order."""
    letters = []
    for p, q in _passage_pairs(cfg.n, mover, anchor):
        if cfg.target == "g":
            letters.append(GGen((p, q, mover, anchor)))
            continue
        quad = select_quad(p, q, mover, anchor)
        if cfg.target == "gammar":
            quad = (letter_slot(p, q, mover, anchor, cfg.r), quad)
        letters.append(quad)
    return target_word(cfg.target, cfg.r, letters)


def _parts(cfg: HomConfig, i: int, j: int) -> list:
    """b(i,j)'s literal image as its passages (mover, anchor, inverted), in
    product order: P(i,k) doubled, P(k,i) in the flip (see module docstring)."""
    if not 1 <= i < j <= cfg.n:
        raise IndexRangeError(f"need 1 <= i < j <= n, got ({i},{j}) with n={cfg.n}")
    at = (lambda k: (k, i)) if cfg.assembly == "flip" else (lambda k: (i, k))
    return ([(i, k, False) for k in range(i + 1, j + 1)] + [(*at(j), False)]
            + [(*at(k), True) for k in range(j - 1, i, -1)])


@functools.lru_cache(maxsize=None)
def generator_image(cfg: HomConfig, i: int, j: int):
    """Image of the braid letter b(i,j), unreduced (cached; see module docstring)."""
    parts = _parts(cfg, i, j)
    if cfg.formula_mode == "traced":
        return geom2d.events_to_word(_traced_events(cfg.n, i, j), cfg.target, cfg.r)
    letters = []
    for mover, anchor, inverted in parts:
        word = passage(cfg, mover, anchor).letters
        letters += word[::-1] if inverted else word  # an inverse is a reversal
    return target_word(cfg.target, cfg.r, letters)


@functools.lru_cache(maxsize=None)
def _traced_events(n: int, i: int, j: int):
    return tuple(geom2d.trace(geom2d.generator_choreography(n, i, j)))


@functools.lru_cache(maxsize=None)
def _record(cfg: HomConfig, i: int, j: int) -> tuple:
    """b(i,j)'s record for `map_braid`: (raw, raw^-1, red, red^-1, class, t),
    its image's letters and free-reduced letters (a list no caller mutates),
    each with its reversal, the image's class bits, and t = |X| where
    red = X C X^-1 with C cyclically reduced."""
    image = generator_image(cfg, i, j)
    raw, red = image.letters, list(free_reduce(image).letters)
    t = 0
    while len(red) - 2 * t > 1 and red[t] is red[-1 - t]:
        t += 1
    return raw, raw[::-1], red, red[::-1], invariant(image, cfg.n).bits, t


def _seam(stack: list, v: list) -> int:
    """How many letters cancel when the reduced word v is appended to the
    reduced `stack`: the length of the longest suffix of the stack whose
    reversal begins v.  Blocks of doubling length are compared as slices,
    v's read backwards, then the first unequal block is bisected, so a seam
    of k letters costs O(log k) Python steps."""
    end = len(stack)
    top = min(end, len(v))
    if not top or stack[-1] is not v[0]:  # most seams cancel nothing
        return 0
    lo, step = 1, 2  # the last lo letters of the stack reverse the first lo of v
    while lo < top:
        hi = lo + step if lo + step < top else top
        if stack[end - hi:end - lo] != v[hi - 1:lo - 1:-1]:
            break
        lo, step = hi, 2 * step
    else:
        return lo
    while hi - lo > 1:  # the first disagreement lies in [lo, hi)
        mid = (lo + hi) // 2
        if stack[end - mid:end - lo] == v[mid - 1:lo - 1:-1]:
            lo = mid
        else:
            hi = mid
    return lo


def map_braid(cfg: HomConfig, w: BraidWord, *, reduced: bool = True):
    """Image of a braid word: letterwise substitution, inverses by reversal.

    The reduced image is folded from the cached reduced generator images
    onto a list that is always reduced, cancelling only at each seam (free
    reduction is confluent).  A power b^e is one block: if b's reduced image
    is X C X^-1 with C cyclically reduced, b^e reduces to X C^e X^-1, or for
    |C| = 1 to b's image (e odd) or nothing (e even).  The reduced word
    carries its class, the XOR of the odd powers' generator classes, in the
    memo `_class`.  With reduced=False the raw image is returned, carrying
    the reduced word in the memo `_reduced`.  An image longer than
    MAX_IMAGE_LETTERS raises IndexRangeError before anything is built.
    """
    if w.n > cfg.n:
        raise IndexRangeError(f"braid word has n={w.n} but config has n={cfg.n}")
    records, size = [], 0
    for g in w.letters:
        rec = _record(cfg, g.i, g.j)
        size += len(rec[0]) * abs(g.exponent)
        if size > MAX_IMAGE_LETTERS:
            raise IndexRangeError(f"image longer than the cap of {MAX_IMAGE_LETTERS} letters")
        records.append(rec)
    # the letters come from generator images, checked when those were built
    out = target_word(cfg.target, cfg.r, ())
    if not reduced:
        letters = []
        for g, rec in zip(w.letters, records):
            image = rec[0] if g.exponent > 0 else rec[1]
            for _ in range(abs(g.exponent)):  # no temporary image * |e|
                letters.extend(image)
        out = _rebuild(out, letters)
        del letters
    stack, bits = [], 0
    for g, (_, _, forward, backward, cls, t) in zip(w.letters, records):
        image, e = (forward, g.exponent) if g.exponent > 0 else (backward, -g.exponent)
        if e & 1:
            bits ^= cls
        if e > 1:
            m = len(image) - t  # C is image[t:m]
            if m - t > 1:
                block = image[t:m] * e
                block[:0] = image[:t]
                block += image[m:]
                image = block
            elif not e & 1:  # an involution: even powers vanish
                continue
        k = _seam(stack, image)
        del stack[len(stack) - k:]
        stack.extend(image[k:] if k else image)
    red = _rebuild(out, stack)
    _set(red, "_class", InvariantClass(cfg.n, cfg.target, cfg.r, bits))
    if reduced:
        return red
    _set(out, "_reduced", red)  # never red itself: see the words docstring
    return out


@functools.lru_cache(maxsize=None)
def _passage_class(cfg: HomConfig, mover: int, anchor: int) -> int:
    return invariant(passage(cfg, mover, anchor), cfg.n).bits


@functools.lru_cache(maxsize=None)
def _generator_class(cfg: HomConfig, i: int, j: int) -> int:
    if cfg.formula_mode == "traced":
        return invariant(generator_image(cfg, i, j), cfg.n).bits
    bits, odd = 0, set()  # the passages that occur an odd number of times
    for mover, anchor, _ in _parts(cfg, i, j):
        odd ^= {(mover, anchor)}
    for pair in odd:
        bits ^= _passage_class(cfg, *pair)
    return bits


def image_invariant(cfg: HomConfig, w: BraidWord) -> InvariantClass:
    """`invariant(map_braid(cfg, w, reduced=False), cfg.n)`, composed from the
    cached class of each letter's generator: an inverse has its generator's
    parities, and a power k its generator's k times over."""
    if w.n > cfg.n:
        raise IndexRangeError(f"braid word has n={w.n} but config has n={cfg.n}")
    bits = 0
    for g in w.letters:
        cls = _generator_class(cfg, g.i, g.j)  # even powers too: errors as in map_braid
        if g.exponent & 1:
            bits ^= cls
    return InvariantClass(cfg.n, cfg.target, cfg.r, bits)
