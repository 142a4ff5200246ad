"""Exact spatial event tracer for loops of points in 3-space.

Paths are `geom2d.Choreography` plans whose points are `Pt3`.  They live in
the restricted configuration space where no three points are ever collinear.  With one point moving per unit segment, the coplanarity
determinant of any 4-tuple is linear in time, so every event time is an
exact rational.  An event is *special* when the four coplanar points form a
convex quadrilateral and all remaining points lie strictly on one side of
the plane; only special events contribute letters (the cyclic order of the
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
from .geom2d import Choreography, lerp
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


def orient3d_sign(a: Pt3, b: Pt3, c: Pt3, d: Pt3) -> int:
    """Sign of det with rows (x, y, z, 1); zero iff the points are coplanar."""
    u, v, w = _sub(a, d), _sub(b, d), _sub(c, d)
    det = (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )
    return sign(det)


def _collinear(a: Pt3, b: Pt3, c: Pt3) -> bool:
    return _cross(_sub(b, a), _sub(c, a)) == (0, 0, 0)


def require_no_collinear_triple(cfg: tuple[Pt3, ...], where: str) -> None:
    """Raise CollinearTripleError naming the first collinear triple of cfg."""
    for t in itertools.combinations(range(1, len(cfg) + 1), 3):
        if _collinear(cfg[t[0] - 1], cfg[t[1] - 1], cfg[t[2] - 1]):
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


def _project_axis(normal) -> int:
    return max(range(3), key=lambda k: abs(normal[k]))


def _orient2(a, b, c) -> int:
    return sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


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
    flat = {
        i: (tuple(p)[keep[0]], tuple(p)[keep[1]]) for i, p in pts3.items()
    }
    for t in itertools.combinations(ids, 3):
        if _orient2(flat[t[0]], flat[t[1]], flat[t[2]]) == 0:
            raise CollinearTripleError(f"points {t} collinear inside the event plane")
    inside = 0
    for i in ids:
        rest = [flat[j] for j in ids if j != i]
        s1 = _orient2(rest[0], rest[1], flat[i])
        s2 = _orient2(rest[1], rest[2], flat[i])
        s3 = _orient2(rest[2], rest[0], flat[i])
        if s1 == s2 == s3:
            inside += 1
    if inside:
        return False, None

    cx = sum(flat[i][0] for i in ids) / 4
    cy = sum(flat[i][1] for i in ids) / 4

    def half(i):
        vx, vy = flat[i][0] - cx, flat[i][1] - cy
        if vy != 0:
            return 0 if vy > 0 else 1
        return 0 if vx > 0 else 1

    def cmp(i, j):
        hi, hj = half(i), half(j)
        if hi != hj:
            return -1 if hi < hj else 1
        ui = (flat[i][0] - cx, flat[i][1] - cy)
        uj = (flat[j][0] - cx, flat[j][1] - cy)
        s = sign(ui[0] * uj[1] - ui[1] * uj[0])
        assert s != 0, "two vertices on one ray from the centroid"
        return -1 if s > 0 else 1

    return True, tuple(sorted(ids, key=functools.cmp_to_key(cmp)))


def trace3(ch: Choreography) -> list[Event3]:
    """All coplanarity events of a valid spatial choreography, in time order."""
    if ch.dim != 3:
        raise ValidationError("trace3 needs a spatial choreography; use geom2d.trace")
    ch.validate()
    configs = ch.configs()
    events: list[Event3] = []
    for seg, move in enumerate(ch.moves):
        cfg = configs[seg]
        mover = move.point
        others = [k for k in range(1, ch.n + 1) if k != mover]
        for quad in itertools.combinations(others, 4):
            if orient3d_sign(*(cfg[k - 1] for k in quad)) == 0:
                raise DegenerateError(
                    "four static points are coplanar", segment=seg, subsets=[quad]
                )
        m0, m1 = cfg[mover - 1], move.to
        if m0 == m1:
            continue
        hits: list[tuple[Fraction, tuple[int, int, int]]] = []
        for triple in itertools.combinations(others, 3):
            a, b, c = (cfg[k - 1] for k in triple)
            p0 = _orient3d_value(a, b, c, m0)
            p1 = _orient3d_value(a, b, c, m1)
            subset = tuple(sorted(triple + (mover,)))
            if p0 == 0 and p1 == 0:
                raise DegenerateError(
                    "tuple rides a common plane for a whole segment",
                    segment=seg,
                    subsets=[subset],
                )
            if p0 == 0 or p1 == 0:
                raise DegenerateError(
                    "wall contact exactly at a waypoint",
                    segment=seg,
                    subsets=[subset],
                    window=f"t={0 if p0 == 0 else 1}",
                )
            if sign(p0) == sign(p1):
                continue
            hits.append((Fraction(-p0, p1 - p0), triple))
        hits.sort()
        for tau, group in itertools.groupby(hits, key=lambda h: h[0]):
            group = list(group)
            for (_, t1), (_, t2) in itertools.combinations(group, 2):
                if len(set(t1) & set(t2)) >= 2:
                    raise DegenerateError(
                        "five or more points on one plane (simultaneous events share 3 indices)",
                        segment=seg,
                        subsets=[t1 + (mover,), t2 + (mover,)],
                    )
            at = cfg[: mover - 1] + (lerp(m0, m1, tau),) + cfg[mover:]
            require_no_collinear_triple(at, f"at event time t={tau} of segment {seg}")
            for _, triple in sorted(group, key=lambda h: h[1]):
                events.append(_build_event3(ch.n, seg, at, mover, triple, tau))
    return events


def _orient3d_value(a, b, c, d) -> Fraction:
    u, v, w = _sub(a, d), _sub(b, d), _sub(c, d)
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


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
