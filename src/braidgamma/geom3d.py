"""Exact spatial event tracer for loops of points in 3-space.

Paths are `geom2d.Choreography` plans whose points are `Pt3`.  They live in
the restricted configuration space where no three points are ever
collinear.  With one point moving per unit segment, the coplanarity
determinant of any 4-tuple is linear in time, so every event time is an
exact rational.

The segment loop (integer grid, static degeneracy scan, root isolation,
grouping by time) is `geom2d.wall_crossings`, shared with the planar tracer;
this module supplies its wall, the orient3d determinant, and the event
builder with the special-moment filter.  At an event time t = p/q the
builder scales the segment's grid by q, which puts the mover, q g0 +
p (g1 - g0), on it too; orient3d is homogeneous and collinearity and convex
position are invariant under a positive scale, so every test runs on ints
and decides as it would on the rational plan.  A mover that crosses the
line through two other points leaves the restricted space there and is
reported as a collinear triple through the mover.

An event is *special* when the four coplanar points form a convex
quadrilateral and all remaining points lie strictly on one side of the
plane; only special events contribute letters (the cyclic order of the
convex quadrilateral, which the dihedral canonicalization makes independent
of the side from which the plane is viewed).  Convexity and the order are
read together, as in the plane, off the crossing diagonals
(`geom2d.cyclic_order`): by Radon's theorem the four points are in convex
position exactly when one pair of diagonals crosses.  Non-special events are kept in
the trace with their classification for inspection, but emit nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import CollinearTripleError, ValidationError
from .exact import sign
from .generators import GammaGen, GGen
from .geom2d import Choreography, cyclic_order, orient2d, wall_crossings
from .words import GammaWord


@dataclass(frozen=True)
class Pt3:
    x: Fraction
    y: Fraction
    z: Fraction

    def __iter__(self):
        return iter((self.x, self.y, self.z))


def pt3(x, y, z) -> Pt3:
    return Pt3(Fraction(x), Fraction(y), Fraction(z))


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _sub(a, b):
    (ax, ay, az), (bx, by, bz) = a, b
    return (ax - bx, ay - by, az - bz)


def _orient3d_raw(a, b, c, d):
    """The orient3d determinant of four Pt3 or integer grid points."""
    u, v, w = _sub(a, d), _sub(b, d), _sub(c, d)
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


def orient3d_sign(a: Pt3, b: Pt3, c: Pt3, d: Pt3) -> int:
    """Sign of det with rows (x, y, z, 1); zero iff the points are coplanar."""
    return sign(_orient3d_raw(a, b, c, d))


def _orient3d_coeffs(a, b, c, m0, m1):
    """Integer coefficients of orient3d(a, b, c, M(t)), which is linear in t."""
    p0 = _orient3d_raw(a, b, c, m0)
    return (p0, _orient3d_raw(a, b, c, m1) - p0, 0)


def _collinear(a, b, c) -> bool:
    return _cross(_sub(b, a), _sub(c, a)) == (0, 0, 0)


def require_no_collinear_triple(cfg, where: str, mover: int | None = None) -> None:
    """Raise CollinearTripleError naming the first collinear triple of cfg
    (Pt3 points or integer grid tuples); with `mover`, of the triples
    through that point only."""
    for t in itertools.combinations(range(1, len(cfg) + 1), 3):
        if (mover is None or mover in t) and _collinear(*(cfg[k - 1] for k in t)):
            raise CollinearTripleError(f"points {t} collinear {where}")


@dataclass(frozen=True)
class Event3:
    """One coplanarity event.  `quad` is None when the four points are not in
    convex position (no cyclic order exists); `side` is the common orientation
    sign of the bystanders when they are one-sided, else 0."""

    segment: int
    time: Fraction
    subset: GGen
    quad: GammaGen | None
    convex: bool
    one_sided: bool
    side: int

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
            tau = group[0][0].exact
            # the grid scaled by tau's denominator holds the mover at tau too
            p, q = tau.numerator, tau.denominator
            at = [tuple(q * v for v in pt) for pt in grid]
            at[mover - 1] = tuple(q * u + p * (w - u) for u, w in zip(g0, g1))
            # the start waypoint passed validate, so only triples through the
            # mover can have become collinear
            require_no_collinear_triple(at, f"at event time t={tau} of segment {seg}", mover)
            events.extend(_build_event3(ch.n, seg, at, mover, triple, tau) for _, triple in group)
        return events

    return wall_crossings(ch, _orient3d_raw, _orient3d_coeffs, ("coplanar", "plane"), build)


def _build_event3(n, seg, at, mover, triple, tau) -> Event3:
    subset = tuple(sorted(triple + (mover,)))
    a, b, c = (at[k - 1] for k in triple)
    # Dropping the dominant coordinate of the plane's normal maps the plane
    # onto a coordinate plane bijectively and affinely, which keeps convex
    # position.  No three event points are collinear: validate checked the
    # static triple, and trace3 the triples through the mover.
    normal = _cross(_sub(b, a), _sub(c, a))
    axis = max(range(3), key=lambda k: abs(normal[k]))
    flat = {k: at[k - 1][:axis] + at[k - 1][axis + 1 :] for k in subset}
    cycle = cyclic_order(subset, lambda i, j, k: orient2d(flat[i], flat[j], flat[k]))
    # no bystander lies on the event plane: with a, b, c it would make four
    # static coplanar points, which wall_crossings rejects first
    side_signs = {
        sign(_orient3d_raw(a, b, c, at[k - 1])) for k in range(1, n + 1) if k not in subset
    }
    one_sided = len(side_signs) == 1
    side = side_signs.pop() if one_sided else 0
    quad = GammaGen(cycle) if cycle else None
    return Event3(seg, tau, GGen(subset), quad, cycle is not None, one_sided, side)


def loop_word(ch: Choreography) -> GammaWord:
    """Letters of the special events of a loop, in time order."""
    if not ch.loop:
        raise ValidationError("loop_word needs a loop choreography (loop flag set)")
    return GammaWord(tuple(e.quad for e in trace3(ch) if e.special))
