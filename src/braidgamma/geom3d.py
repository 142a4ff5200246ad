"""Exact spatial event tracer for loops of points in 3-space.

Paths are `geom2d.Choreography` plans whose points are `Pt3`.  They live in
the restricted configuration space where no three points are ever
collinear.  With one point moving per unit segment, the coplanarity
determinant of any 4-tuple is linear in time, so every event time is an
exact rational.

The segment loop (static degeneracy scan, root isolation, grouping by time)
is `geom2d.wall_crossings`, shared with the planar tracer; this module
supplies its wall, the orient3d determinant, and the event builder with the
special-moment filter.  A mover that crosses the line through two other
points leaves the restricted space there and is reported as a collinear
triple through the mover.

An event is *special* when the four coplanar points form a convex
quadrilateral and all remaining points lie strictly on one side of the
plane; only special events contribute letters (the cyclic order of the
convex quadrilateral, which the dihedral canonicalization makes independent
of the side from which the plane is viewed).  Non-special events are kept in
the trace with their classification for inspection, but emit nothing.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import CollinearTripleError, DegenerateError, ValidationError
from .exact import sign
from .generators import GammaGen, GGen
from .geom2d import Choreography, Pt2, lerp, orient2d, wall_crossings
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


def _sub(a: Pt3, b: Pt3):
    return (a.x - b.x, a.y - b.y, a.z - b.z)


def _orient3d_raw(a: Pt3, b: Pt3, c: Pt3, d: Pt3) -> Fraction:
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
    """Coefficients of orient3d(a, b, c, M(t)), which is linear in t."""
    p0 = _orient3d_raw(a, b, c, m0)
    return (p0, _orient3d_raw(a, b, c, m1) - p0, Fraction(0))


def _collinear(a: Pt3, b: Pt3, c: Pt3) -> bool:
    return _cross(_sub(b, a), _sub(c, a)) == (0, 0, 0)


def _require_not_collinear(cfg, triples, where: str) -> None:
    for t in triples:
        if _collinear(cfg[t[0] - 1], cfg[t[1] - 1], cfg[t[2] - 1]):
            raise CollinearTripleError(f"points {t} collinear {where}")


def require_no_collinear_triple(cfg: tuple[Pt3, ...], where: str) -> None:
    """Raise CollinearTripleError naming the first collinear triple of cfg."""
    _require_not_collinear(cfg, itertools.combinations(range(1, len(cfg) + 1), 3), where)


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


def _project_axis(normal) -> int:
    return max(range(3), key=lambda k: abs(normal[k]))


def _convex_cycle(pts3: dict[int, Pt3]):
    """(convex, cycle) for four coplanar points keyed by index.

    Projects out the dominant normal coordinate, rejects in-plane collinear
    triples, and reads the cyclic order by exact angular sort around the
    centroid (interior for convex position).
    """
    ids = sorted(pts3)
    a, b, c, d = (pts3[k] for k in ids)
    normal = _cross(_sub(b, a), _sub(c, a))
    axis = _project_axis(normal)
    keep = [k for k in range(3) if k != axis]
    flat = {i: Pt2(*(tuple(p)[k] for k in keep)) for i, p in pts3.items()}
    for t in itertools.combinations(ids, 3):
        if orient2d(flat[t[0]], flat[t[1]], flat[t[2]]) == 0:
            raise CollinearTripleError(f"points {t} collinear inside the event plane")
    inside = 0
    for i in ids:
        rest = [flat[j] for j in ids if j != i]
        s1 = orient2d(rest[0], rest[1], flat[i])
        s2 = orient2d(rest[1], rest[2], flat[i])
        s3 = orient2d(rest[2], rest[0], flat[i])
        if s1 == s2 == s3:
            inside += 1
    if inside:
        return False, None

    cx = sum(flat[i].x for i in ids) / 4
    cy = sum(flat[i].y for i in ids) / 4

    def half(i):
        vx, vy = flat[i].x - cx, flat[i].y - cy
        if vy != 0:
            return 0 if vy > 0 else 1
        return 0 if vx > 0 else 1

    def cmp(i, j):
        hi, hj = half(i), half(j)
        if hi != hj:
            return -1 if hi < hj else 1
        ui = (flat[i].x - cx, flat[i].y - cy)
        uj = (flat[j].x - cx, flat[j].y - cy)
        s = sign(ui[0] * uj[1] - ui[1] * uj[0])
        assert s != 0, "two vertices on one ray from the centroid"
        return -1 if s > 0 else 1

    return True, tuple(sorted(ids, key=functools.cmp_to_key(cmp)))


def trace3(ch: Choreography) -> list[Event3]:
    """All coplanarity events of a valid spatial choreography, in time order."""
    if ch.dim != 3:
        raise ValidationError("trace3 needs a spatial choreography; use geom2d.trace")

    def build(seg, cfg, mover, m0, m1, groups):
        events = []
        for group in groups:
            tau = group[0][0].exact
            at = cfg[: mover - 1] + (lerp(m0, m1, tau),) + cfg[mover:]
            # the start waypoint passed validate, so only triples through the
            # mover can have become collinear
            through = (t for t in itertools.combinations(range(1, ch.n + 1), 3) if mover in t)
            _require_not_collinear(at, through, f"at event time t={tau} of segment {seg}")
            events.extend(_build_event3(ch.n, seg, at, mover, triple, tau) for _, triple in group)
        return events

    return wall_crossings(ch, _orient3d_raw, _orient3d_coeffs, ("coplanar", "plane"), build)


def _build_event3(n, seg, at, mover, triple, tau) -> Event3:
    subset = tuple(sorted(triple + (mover,)))
    quad_pts = {k: at[k - 1] for k in subset}
    convex, cycle = _convex_cycle(quad_pts)
    a, b, c = (at[k - 1] for k in triple)
    side_signs = set()
    for k in range(1, n + 1):
        if k in subset:
            continue
        s = orient3d_sign(a, b, c, at[k - 1])
        if s == 0:
            raise DegenerateError(
                "a fifth point lies exactly on the event plane",
                segment=seg,
                subsets=[subset + (k,)],
                window=f"t={tau}",
            )
        side_signs.add(s)
    one_sided = len(side_signs) == 1
    side = side_signs.pop() if one_sided else 0
    return Event3(
        seg,
        tau,
        GGen(subset),
        GammaGen(cycle) if convex else None,
        convex,
        one_sided,
        side,
    )


def loop_word(ch: Choreography) -> GammaWord:
    """Letters of the special events of a loop, in time order."""
    if not ch.loop:
        raise ValidationError("loop_word needs a loop choreography (loop flag set)")
    return GammaWord(tuple(e.quad for e in trace3(ch) if e.special))
