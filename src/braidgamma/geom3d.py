"""Exact spatial event tracer for loops of points in 3-space.

Paths are `geom2d.Choreography` plans whose points are `Pt3`.  They live in
the restricted configuration space where no three points are ever
collinear.  With one point moving per unit segment, the coplanarity
determinant of any 4-tuple is linear in time, so every event time is an
exact rational.

The segment loop (integer grid, static degeneracy scan, root isolation,
grouping by time) is `geom2d.wall_crossings`, shared with the planar tracer.
Its wall is each static triple's plane, one linear form per segment
(`geom2d._plane`); in space the lift is the identity (`tuple`), and this
module supplies the event builder, which classifies each event as special
or not.  Its labels come from the one labeller of both tracers,
`geom2d._labels`, read at the root on the segment's integer grid: every
orientation that involves the mover is linear in t, and the bystanders'
sides are signs of the plane's form.

A mover that crosses the line through two other points a, b leaves the
restricted space there and is reported as a collinear triple through the
mover.  At that moment a, b, c and the mover are coplanar for each of the
n - 3 other static points c, so all n - 3 triples {a, b, c} cross a plane
at that time (a zero of a whole segment or at a waypoint has already been
rejected).  So only a pair (a, b) in all n - 3 static triples of a time
group is tested, in lexicographic order, which is the order of the sorted
triples through the mover: the first triple named is that of a full scan.

An event is *special* when the four coplanar points form a convex
quadrilateral and all remaining points lie strictly on one side of the
plane; in the cyclic targets only special events give letters
(`geom2d.events_to_word`): the cyclic order of the convex quadrilateral,
which the dihedral canonicalization makes independent of the side from
which the plane is viewed.  Convexity and the order are read together, as
in the plane, off the crossing diagonals (`geom2d.cyclic_order`): by
Radon's theorem the four points are in convex position exactly when one
pair of diagonals crosses.  Every event stays in the trace, classified.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import CollinearTripleError, ValidationError
from .exact import sign
from .generators import GammaGen, GGen, Record, _letter, _set
from .geom2d import Choreography, _labels, _on_grid, _orient3d_raw, _plane, events_to_word
from .geom2d import wall_crossings
from .words import GammaWord


class Pt3(Record):
    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: Fraction, y: Fraction, z: Fraction):
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)

    def __iter__(self):
        return iter((self.x, self.y, self.z))


def pt3(x, y, z) -> Pt3:
    return Pt3(Fraction(x), Fraction(y), Fraction(z))


def orient3d_sign(a: Pt3, b: Pt3, c: Pt3, d: Pt3) -> int:
    """Sign of det with rows (x, y, z, 1); zero iff the points are coplanar."""
    return sign(_orient3d_raw(*_on_grid((a, b, c, d))))


def require_no_collinear_triple(cfg, where: str, mover: int | None = None) -> None:
    """Raise CollinearTripleError naming the first collinear triple of cfg
    (Pt3 points or integer grid tuples); with `mover`, of the triples
    through that point only."""
    for t in itertools.combinations(range(1, len(cfg) + 1), 3):
        # collinear: the normal (b - a) x (c - a) of their plane is 0
        if (mover is None or mover in t) and _plane(*(cfg[k - 1] for k in t))[1:] == (0, 0, 0):
            raise CollinearTripleError(f"points {t} collinear {where}")


class Event3(Record):
    """One coplanarity event.  `quad` is None when the four points are not in
    convex position (no cyclic order exists); `side` is the common orientation
    sign of the bystanders when they are one-sided, else 0."""

    __slots__ = _fields = ("segment", "time", "subset", "quad", "convex", "one_sided", "side")

    def __init__(
        self,
        segment: int,
        time: Fraction,
        subset: GGen,
        quad: GammaGen | None,
        convex: bool,
        one_sided: bool,
        side: int,
    ):
        _set(self, "segment", segment)
        _set(self, "time", time)
        _set(self, "subset", subset)
        _set(self, "quad", quad)
        _set(self, "convex", convex)
        _set(self, "one_sided", one_sided)
        _set(self, "side", side)

    @property
    def special(self) -> bool:
        return self.convex and self.one_sided


def trace3(ch: Choreography) -> list[Event3]:
    """All coplanarity events of a valid spatial choreography, in time order."""
    if ch.dim != 3:
        raise ValidationError("trace3 needs a spatial choreography; use geom2d.trace")

    def build(seg, grid, mover, g0, g1, groups):
        events = []
        for group in groups:
            root = group[0][0]
            triples = [triple for _, triple, _ in group]
            _require_no_collinear_pair(
                grid, root, g1, mover, triples, f"at event time t={root.exact} of segment {seg}"
            )
            events.extend(_build_event3(seg, grid, g1, mover, *item) for item in group)
        return events

    return wall_crossings(ch, tuple, ("coplanar", "plane"), build)


def _require_no_collinear_pair(grid, root, g1, mover, triples, where: str) -> None:
    """Raise CollinearTripleError naming the first triple through the mover
    that is collinear with the mover at root, as it runs to g1 on the grid.
    `triples` are the sorted static triples of the time group: only a pair
    in n - 3 of them can be collinear with the mover (see the module
    docstring), and pairs in lexicographic order give the sorted triples
    through the mover in order, so the first one named is a full scan's."""
    count: dict[tuple[int, int], int] = {}
    for a, b, c in triples:
        for pair in ((a, b), (a, c), (b, c)):
            count[pair] = count.get(pair, 0) + 1
    need = len(grid) - 3
    g0 = grid[mover - 1]
    for a, b in sorted(pair for pair, k in count.items() if k == need):
        # the normal (b - a) x (M(t) - a) of the plane (a, b, M(t)), linear
        # in t, vanishes at the root
        c0, c1 = (_plane(grid[a - 1], grid[b - 1], m)[1:] for m in (g0, g1))
        if not any(root.linear_sign(x, y - x) for x, y in zip(c0, c1)):
            raise CollinearTripleError(f"points {tuple(sorted((a, b, mover)))} collinear {where}")


def _build_event3(seg, grid, g1, mover, root, triple, form) -> Event3:
    # Dropping the dominant coordinate of the plane's normal N maps the plane
    # onto a coordinate plane bijectively and affinely, which keeps convex
    # position.  No three event points are collinear: validate checked the
    # static triple, and trace3 the triples through the mover.
    axis = max(range(3), key=lambda k: abs(form[k + 1]))
    subset, cycle, sides = _labels(root, grid, g1, mover, triple, form, axis)
    side_signs = set(sides)
    one_sided = len(side_signs) == 1
    side = side_signs.pop() if one_sided else 0
    quad = _letter(GammaGen, cycle) if cycle else None
    return Event3(seg, root.exact, _letter(GGen, subset), quad, cycle is not None, one_sided, side)


def loop_word(ch: Choreography) -> GammaWord:
    """Letters of the special events of a loop, in time order."""
    if not ch.loop:
        raise ValidationError("loop_word needs a loop choreography (loop flag set)")
    return events_to_word(trace3(ch), "gamma")
