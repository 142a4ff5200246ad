"""Generator types: braid letters, 4-subset letters, and cyclic-quadruple letters.

A cyclic quadruple is an arrangement of four distinct strand indices on an
(unoriented, unbased) 4-cycle, so each 4-subset carries exactly three distinct
quadruples: 4!/8 = 3 orbits of the dihedral symmetry group.  We store the
canonical orbit representative chosen by the rule

    first entry  = smallest index,
    second entry = the smaller of its two cycle neighbours.

Equality of canonical forms then decides equality of generators.

Letters are interned: `GammaGen(...)` and `GGen(...)` validate and
canonicalize their argument, then return the one object that exists per
distinct letter (`_letter`, which callers holding checked indices call
directly), so words, cached images and column tables share letters instead
of copying them.  The tables live as long as the process and hold at
most 3*C(n,4) cyclic and C(n,4) order-free letters for the largest n used.
"""

from __future__ import annotations

import functools
import operator

from .errors import DuplicateIndexError, IndexRangeError

_set = object.__setattr__


class Record:
    """Base of the package's immutable value types.  A subclass names its
    fields in `_fields`, stores them in `__init__` through `_set`, and gets:
    equality with a value of the same class, field by field; the hash of the
    field tuple; the repr `Name(field=value, ...)`; copy and pickle by
    calling the class on the fields; and no assignment or deletion."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if "_fields" in vars(cls):
            get = operator.attrgetter(*cls._fields)
            # the field tuple; attrgetter of one name gives the bare value
            cls._values = staticmethod(get if len(cls._fields) > 1 else lambda x: (get(x),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _check_indices(idxs) -> tuple[int, ...]:
    idxs = tuple(idxs)
    for v in idxs:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise IndexRangeError(f"strand index must be a positive integer, got {v!r}")
    if len(set(idxs)) != len(idxs):
        raise DuplicateIndexError(f"indices must be distinct, got {idxs}")
    return idxs


def _canonical_cycle(cycle: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    k = cycle.index(min(cycle))
    fwd, bwd = cycle[(k + 1) % 4], cycle[(k - 1) % 4]
    step = 1 if fwd < bwd else -1
    return tuple(cycle[(k + step * t) % 4] for t in range(4))


def _check_quad(idxs, what: str) -> tuple[int, int, int, int]:
    idxs = _check_indices(idxs)
    if len(idxs) != 4:
        raise IndexRangeError(f"{what} needs 4 indices, got {len(idxs)}")
    return idxs


_GAMMA_GENS: dict = {}
_G_GENS: dict = {}


def _letter(cls, idxs: tuple[int, int, int, int]):
    """The one GammaGen or GGen (cls) on four indices already checked to be
    distinct positive ints, built on first use: a cycle, canonicalized here,
    or an ascending subset.  The constructors check, then call this."""
    table, key = (_GAMMA_GENS, _canonical_cycle(idxs)) if cls is GammaGen else (_G_GENS, idxs)
    self = table.get(key)
    if self is None:
        self = table[key] = object.__new__(cls)
        _set(self, cls._fields[0], key)
    return self


@functools.total_ordering
class _Letter(Record):
    """An interned letter, ordered by its one field."""

    __slots__ = ()

    # interning makes equal letters one object, so identity is equality.
    # Still, a class that defines any rich comparison in Python (here __lt__
    # and the three total_ordering adds) sends every comparison through
    # CPython's slot_tp_richcompare, `==` included: about ten times the cost
    # of `is`.  So the word layer compares letters with `is` (free_reduce).
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) < other._values(other)


class GammaGen(_Letter):
    """A cyclic-quadruple generator, stored canonically (see module docstring)."""

    # no __slots__: the cached `subset` lives in the instance __dict__
    _fields = ("cycle",)

    def __new__(cls, cycle):
        return _letter(cls, _check_quad(cycle, "a cyclic quadruple"))

    def __init__(self, cycle):
        pass  # set once, by __new__

    @functools.cached_property
    def subset(self) -> tuple[int, int, int, int]:
        return tuple(sorted(self.cycle))

    def __str__(self):
        return "d(%d,%d,%d,%d)" % self.cycle


class GGen(_Letter):
    """An order-free generator on a 4-subset of strand indices."""

    __slots__ = _fields = ("members",)

    def __new__(cls, members):
        return _letter(cls, tuple(sorted(_check_quad(members, "a 4-subset generator"))))

    def __init__(self, members):
        pass  # set once, by __new__

    @property
    def subset(self) -> tuple[int, int, int, int]:
        return self.members

    def __str__(self):
        return "a{%d,%d,%d,%d}" % self.members


class BraidGen(Record):
    """One signed letter of a pure braid word: the full twist of strands i < j."""

    __slots__ = _fields = ("i", "j", "exponent")

    def __init__(self, i: int, j: int, exponent: int = 1):
        for v in (i, j):
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise IndexRangeError(f"strand index must be a positive integer, got {v!r}")
        if i >= j:
            raise IndexRangeError(f"braid letter needs i < j, got ({i},{j})")
        if exponent == 0:
            raise IndexRangeError("braid letter exponent must be nonzero")
        _set(self, "i", i)
        _set(self, "j", j)
        _set(self, "exponent", exponent)

    def __str__(self):
        base = f"b({self.i},{self.j})"
        return base if self.exponent == 1 else f"{base}^{self.exponent}"


def select_quad(p: int, q: int, r: int, s: int) -> GammaGen:
    """Quadruple for far points p, q and a close pair (r, s) anchored at s.

    The three points p, q, s sit on a common circle in ascending cyclic order;
    r is inserted immediately before s.  Written out, the six cases are

        (p,q,r,s) if p<q<s    (p,r,s,q) if p<s<q    (r,s,p,q) if s<p<q
        (q,p,r,s) if q<p<s    (q,r,s,p) if q<s<p    (r,s,q,p) if s<q<p
    """
    _check_indices((p, q, r, s))
    base = sorted((p, q, s))
    k = base.index(s)
    base.insert(k, r)
    # four checked, distinct indices: GammaGen would check them again
    return _letter(GammaGen, tuple(base))
