"""Exact planar event tracer for piecewise-linear point choreographies.

A choreography moves one point per unit time segment while the rest stand
still.  A wall crossing happens when four points become concyclic (or
collinear); with one moving point the incircle determinant restricted to a
segment is a polynomial of degree at most two in the time parameter, so every
event time is either rational or a quadratic irrational, and event detection,
ordering, and labeling are carried out entirely in exact arithmetic.

Each event records the four points in their circular order (canonicalized as
a cyclic-quadruple generator, so orientation and starting point are
irrelevant) plus the number of other points strictly inside the event
circle.  Tangential touches (double roots) cross nothing, emit nothing, and
raise UnstableWarning; genuinely degenerate contacts (four static points
concyclic, wall contact at a waypoint, a tuple riding a wall for a whole
segment) raise DegenerateError.

A cyclic quadruple is fixed by which pairs of its points are opposite, so
`cyclic_order` reads the circular order off the one pair of crossing
diagonals.  By Radon's theorem four points, no three collinear, have either
exactly one such pair (convex position) or none (one point inside the
triangle of the other three); in space None means not convex.  Which pair
crosses depends on the four triple orientations alone, the chirotope (Knuth
1992, "Axioms and Hulls"), so the order is a lookup of the four signs in a
16-entry table (`_CYCLES`).  One labeller, `_labels`, reads the event labels
of both tracers at the root: the four signs, each read once (the static
triple's off its plane, the three through the mover as linear signs in t,
as only the mover moves), and the side of the wall of each bystander.

The segment loop, `wall_crossings`, serves the spatial tracer too, with one
wall: lifting (x, y) to (x, y, x^2 + y^2) on the paraboloid (`_lift`;
Edelsbrunner and Seidel 1986) makes orient3d of four lifted points their
incircle determinant, so each dimension passes a lift into 3-space and an
event builder.  A static triple's wall is its plane, the linear form
orient3d(a, b, c, d) = h - N . d (`_plane`), kept until one of its points
moves: the static scan, the wall coefficients (read off the lifted mover
p0 + t e + t^2 f, `_wall_coeffs`) and the bystanders' sides are its values,
and N gives a planar triple's orient2d (N_z) and the spatial projection
axis.  Plans hold rationals, but a plan is traced on one integer grid: its
points scaled by the lcm of all their coordinate denominators (`_on_grid`).
Every determinant is homogeneous, so the positive scale keeps its sign;
`AlgebraicRoot` divides the content out of each irrational root's
polynomial, so roots and their printed dyadic cells are those of the
rational plan; and the sign of alpha + beta * t at a root does not change
when alpha and beta are scaled alike.  `validate` builds the grid and
decides coincidence, waypoint collinearity and collisions on it;
`wall_crossings` reuses it, and the public predicates decide on a grid of
their own.  Fractions remain only in the JSON codec and the order along a
collinear wall.

On a collinear wall (three static points on one line) the incircle
determinant is linear in the mover, so the event time is rational, the
order is the exact order along the line, and the mover's side of the line
flips there: the inside count is the number of bystanders on one side of
the line, and must equal the number on the other (lifted, the wall is
the vertical plane over the line, so the labeller reads those sides).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from fractions import Fraction
from functools import cmp_to_key
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import (
    DegenerateError,
    EndpointMismatchError,
    UnstableWarning,
    ValidationError,
)
from .exact import rat_from_str, rat_to_str, sign
from .generators import GammaGen, GGen, Record, _letter, _set
from .roots import AlgebraicRoot, ConstantZero, EndpointZero, isolate_unit_roots, time_key
from .words import target_word

if TYPE_CHECKING:
    from .geom3d import Pt3


class Pt2(Record):
    __slots__ = _fields = ("x", "y")

    def __init__(self, x: Fraction, y: Fraction):
        _set(self, "x", x)
        _set(self, "y", y)

    def __iter__(self):
        return iter((self.x, self.y))


def pt2(x, y) -> Pt2:
    return Pt2(Fraction(x), Fraction(y))


def orient2d(a: Pt2, b: Pt2, c: Pt2) -> int:
    """Sign of the signed area of (a, b, c), Pt2 or grid points: +1 counterclockwise."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    return sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


def _cycle_table() -> dict:
    """Positions (0, y, x, z) of the circular order of four points by the
    signs (s012, s013, s023, s123) of their triples: diagonals 0-x and y-z
    cross, read for x = 1, 2, 3 in turn, each crossing as two sign tests.  A
    pattern with no crossing is absent.  For ascending ids each order is canonical."""
    table = {}
    for key in itertools.product((1, -1), repeat=4):
        s012, s013, s023, s123 = key
        if s012 != s013 and s023 != s123:
            table[key] = itemgetter(0, 2, 1, 3)
        elif s012 == s023 and s013 == s123:
            table[key] = itemgetter(0, 1, 2, 3)
        elif s013 != s023 and s012 != s123:
            table[key] = itemgetter(0, 1, 3, 2)
    return table


_CYCLES = _cycle_table()


def cyclic_order(ids, signs):
    """The circular order (a, y, x, z) of four point ids, no three of the
    points collinear: a = ids[0], and the diagonals a-x and y-z cross.  None
    if no two diagonals cross.  signs are the orientation signs of the
    triples of ids at positions (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)."""
    pick = _CYCLES.get(signs)
    return pick(ids) if pick else None


def _plane(a, b, c):
    """The plane of three 3-tuples as the linear form (h, Nx, Ny, Nz) with
    orient3d(a, b, c, d) = h - N . d: N = (b - a) x (c - a), h = N . a."""
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = a, b, c
    ux, uy, uz, vx, vy, vz = bx - ax, by - ay, bz - az, cx - ax, cy - ay, cz - az
    nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return (nx * ax + ny * ay + nz * az, nx, ny, nz)


def _at(form, d):
    """A plane's linear form at the 3-tuple d."""
    h, nx, ny, nz = form
    x, y, z = d
    return h - nx * x - ny * y - nz * z


def _orient3d_raw(a, b, c, d):
    """The orient3d determinant, the wall of both tracers, of four 3-tuples."""
    return _at(_plane(a, b, c), d)


def _lift(p):
    """A planar point lifted onto the paraboloid z = x^2 + y^2."""
    x, y = p
    return (x, y, x * x + y * y)


def _on_grid(points) -> list[tuple[int, ...]]:
    """Rational points scaled by the lcm of their denominators, as int tuples."""
    den = math.lcm(*(v.denominator for p in points for v in p))
    return [tuple(v.numerator * (den // v.denominator) for v in p) for p in points]


def incircle_sign(a: Pt2, b: Pt2, c: Pt2, p: Pt2) -> int:
    """0 iff the four points are concyclic or collinear; +1 iff p is strictly
    inside the circle through a, b, c (any orientation).

    When a, b, c are themselves collinear there is no circle; the returned
    sign then reports the side of their common line on which p lies, positive
    to the left of the walk a -> b -> c.
    """
    grid = _on_grid((a, b, c, p))
    s = sign(_orient3d_raw(*map(_lift, grid)))
    return s if orient2d(*grid[:3]) >= 0 else -s


def circumcenter(a: Pt2, b: Pt2, c: Pt2) -> Pt2:
    """Exact circumcenter of a non-degenerate triangle."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    d = 2 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
    if d == 0:
        raise ValidationError("circumcenter of collinear points")
    b2 = bx * bx + by * by - ax * ax - ay * ay
    c2 = cx * cx + cy * cy - ax * ax - ay * ay
    return Pt2(((cy - ay) * b2 - (by - ay) * c2) / d, ((bx - ax) * c2 - (cx - ax) * b2) / d)


# ---------------------------------------------------------------------------
# base configuration
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def base_config(n: int) -> tuple[Pt2, ...]:
    """The standard configuration: P_k = (4^k, 16^k) on y = x^2, k = 1..n.

    A circle meets y = x^2 where a quartic with no x^3 term vanishes, so its
    four meeting abscissae sum to 0.  The circle through P_j, P_p, P_q
    (j < p < q) meets the parabola a fourth time at x = -(x_j + x_p + x_q) < 0:
    no fourth P_k lies on it.  The parabola runs inside it exactly on
    (-(x_j + x_p + x_q), x_j) and (x_p, x_q), so it holds exactly P_1..P_{j-1}
    and P_{p+1}..P_{q-1}, for any increasing positive abscissae.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    return tuple(Pt2(Fraction(4) ** k, Fraction(16) ** k) for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# choreographies
# ---------------------------------------------------------------------------


def lerp(p, q, t):
    """The point p + t (q - p), of the same type as p (Pt2 or Pt3)."""
    return type(p)(*(a + t * (b - a) for a, b in zip(p, q)))


def _first_hit_inside(g0, g1, points) -> int:
    """The first of `points`, numbered from 1, that the segment g0 -> g1 of
    integer grid points, in any dimension, passes through strictly between
    its ends, or 0 if none: s - g0 = t d with d = g1 - g0 and 0 < t < 1.
    That is 0 < (s - g0) . d < d . d, and s - g0 parallel to d, which by
    Lagrange's identity |u x d|^2 = |u|^2 |d|^2 - (u . d)^2 is equality in
    Cauchy-Schwarz.  Neither g0 itself nor anything on a null move (d = 0)
    is hit."""
    d = [b - a for a, b in zip(g0, g1)]
    dd = sum(x * x for x in d)
    for k, s in enumerate(points, start=1):
        u = [c - a for a, c in zip(g0, s)]
        ud = sum(x * y for x, y in zip(u, d))
        if 0 < ud < dd and ud * ud == dd * sum(x * x for x in u):
            return k
    return 0


class Move(Record):
    __slots__ = _fields = ("point", "to")

    def __init__(self, point: int, to: Pt2 | Pt3):
        _set(self, "point", point)
        _set(self, "to", to)


class Choreography(Record):
    """A motion plan: one point interpolates linearly per unit time segment.

    The points are all Pt2 (planar, traced by `trace`) or all Pt3 (spatial,
    traced by `geom3d.trace3`); `dim` reads which from the start points.
    """

    __slots__ = _fields = ("n", "start", "moves", "loop")

    def __init__(
        self, n: int, start: tuple[Pt2 | Pt3, ...], moves: tuple[Move, ...] = (), loop: bool = False
    ):
        _set(self, "n", n)
        _set(self, "start", start)
        _set(self, "moves", moves)
        _set(self, "loop", loop)

    @property
    def dim(self) -> int:
        return len(tuple(self.start[0])) if self.start else 2

    def configs(self) -> list[tuple[Pt2 | Pt3, ...]]:
        if self.n < 1:
            raise ValidationError(f"need n >= 1, got {self.n}")
        if len(self.start) != self.n:
            raise ValidationError(f"expected {self.n} start points, got {len(self.start)}")
        out = [self.start]
        cur = list(self.start)
        for seg, m in enumerate(self.moves):
            if not 1 <= m.point <= self.n:
                raise ValidationError(f"move {seg} names point {m.point} outside 1..{self.n}")
            cur[m.point - 1] = m.to
            out.append(tuple(cur))
        return out

    @property
    def end(self) -> tuple[Pt2 | Pt3, ...]:
        return self.configs()[-1]

    def position(self, t: Fraction) -> tuple[Pt2 | Pt3, ...]:
        """Configuration at global time t in [0, len(moves)]."""
        t = Fraction(t)
        if not 0 <= t <= len(self.moves):
            raise ValidationError(f"time {t} outside [0, {len(self.moves)}]")
        configs = self.configs()
        if not self.moves or t == len(self.moves):
            return configs[-1]
        seg = int(t)
        cur = list(configs[seg])
        m = self.moves[seg]
        cur[m.point - 1] = lerp(cur[m.point - 1], m.to, t - seg)
        return tuple(cur)

    def validate(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
        """Check the plan; return its start points and move targets on one integer
        grid (`_on_grid`): a positive scale keeps coincidence and collinearity."""
        self.configs()  # checks n, the start points and the movers
        points = self.start + tuple(m.to for m in self.moves)
        if len({type(p) for p in points}) > 1:
            raise ValidationError("points of one choreography must all be Pt2 or all Pt3")
        points = _on_grid(points)
        start, targets = points[: self.n], points[self.n :]
        at = list(start)
        for which, mover in enumerate((None, *(m.point for m in self.moves))):
            if mover:
                at[mover - 1] = targets[which - 1]
            if len(set(at)) != self.n:
                raise ValidationError(f"coincident points at waypoint {which}")
            if len(at[0]) == 3:  # only triples through the mover can have become collinear
                from .geom3d import require_no_collinear_triple
                require_no_collinear_triple(at, f"at waypoint {which}", mover)
        at = list(start)
        for seg, (m, g1) in enumerate(zip(self.moves, targets)):
            k = _first_hit_inside(at[m.point - 1], g1, at)
            if k:
                raise ValidationError(
                    f"point {m.point} collides with point {k} inside segment {seg}"
                )
            at[m.point - 1] = g1
        if self.loop and at != start:
            raise ValidationError("loop flag set but final configuration differs from start")
        return start, targets


def concat(ch1: Choreography, ch2: Choreography) -> Choreography:
    if ch1.n != ch2.n:
        raise EndpointMismatchError("choreographies have different n")
    if ch1.end != ch2.start:
        raise EndpointMismatchError("second choreography does not start where the first ends")
    return Choreography(
        ch1.n, ch1.start, ch1.moves + ch2.moves, loop=ch1.start == ch2.end
    )


def reverse(ch: Choreography) -> Choreography:
    configs = ch.configs()
    moves = tuple(
        Move(ch.moves[k].point, configs[k][ch.moves[k].point - 1])
        for k in range(len(ch.moves) - 1, -1, -1)
    )
    return Choreography(ch.n, configs[-1], moves, loop=ch.loop)


def subdivide(ch: Choreography, seg: int, at: Fraction = Fraction(1, 2)) -> Choreography:
    """Split segment `seg` at local parameter `at` (event words are unchanged)."""
    if not 0 <= seg < len(ch.moves):
        raise ValidationError(f"no segment {seg} in a plan of {len(ch.moves)} moves")
    if not 0 < Fraction(at) < 1:
        raise ValidationError("subdivision parameter must be strictly inside (0,1)")
    m = ch.moves[seg]
    mid = lerp(ch.configs()[seg][m.point - 1], m.to, Fraction(at))
    moves = ch.moves[:seg] + (Move(m.point, mid), m) + ch.moves[seg + 1 :]
    return Choreography(ch.n, ch.start, moves, loop=ch.loop)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class Event(Record):
    """One wall crossing: four points concyclic (or collinear) with odd contact."""

    __slots__ = _fields = ("segment", "time", "quad", "subset", "inside", "collinear_wall")
    # every planar crossing gives a letter; only some spatial events do
    special = True

    def __init__(
        self,
        segment: int,
        time: AlgebraicRoot,
        quad: GammaGen,
        subset: GGen,
        inside: int,
        collinear_wall: bool = False,
    ):
        _set(self, "segment", segment)
        _set(self, "time", time)
        _set(self, "quad", quad)
        _set(self, "subset", subset)
        _set(self, "inside", inside)
        _set(self, "collinear_wall", collinear_wall)


def _wall_coeffs(form, p0, e, fz):
    """The coefficients in t of a plane's form h - N . d at the lifted mover
    p0 + t e + t^2 (0, 0, fz): form(p0), -N . e and -N_z fz."""
    _, nx, ny, nz = form
    return (_at(form, p0), -nx * e[0] - ny * e[1] - nz * e[2], -nz * fz)


def wall_crossings(ch: Choreography, lift, nouns, build) -> list:
    """The one wall-crossing loop of both tracers, segment by segment.

    The plan runs on the integer grid `validate` builds for it, which lift
    maps into 3-space, where the wall is orient3d = 0: `_lift` onto the
    paraboloid in the plane, `tuple` in space.  The lifted points and each
    static triple's plane (`_plane`) are kept across segments, a plane until
    one of its points moves.  Lifted, a mover g0 -> g1 runs along
    p0 + t e + t^2 (0, 0, fz), fz = |g1 - g0|^2 in the plane and 0 in space.
    nouns = (how four static points sit on a wall, the wall) word the errors.
    build(seg, grid, mover, g1, groups) makes the events of a segment from
    its crossings, grouped by equal time and ordered by time, each group a
    list of (root, static triple, plane) ordered by triple; grid is the
    lifted grid, with the mover at its start, and g1 its lifted target.
    """
    static_wall, wall = nouns
    start, targets = ch.validate()
    lifted = [lift(p) for p in start]
    planes = {}  # static triple -> its plane
    events = []
    moved = None  # the previous segment's mover
    for seg, (move, g1) in enumerate(zip(ch.moves, targets)):
        mover = move.point
        others = [k for k in range(1, ch.n + 1) if k != mover]
        # the last segment's planes leave out its mover, so a triple through
        # it is built afresh; one through this mover is dropped
        planes = {
            t: planes.get(t) or _plane(*(lifted[k - 1] for k in t))
            for t in itertools.combinations(others, 3)
        }
        # A static quadruple without the previous mover kept its points, and
        # the previous segment cleared it.  Same order, same first failure.
        for quad in itertools.combinations(others, 4):
            if moved is not None and moved not in quad:
                continue
            if _at(planes[quad[:3]], lifted[quad[3] - 1]) == 0:
                raise DegenerateError(
                    f"four static points are {static_wall}", segment=seg, subsets=[quad]
                )
        moved = mover
        p0, p1 = lifted[mover - 1], lift(g1)
        if p0 == p1:
            continue
        # in the plane p0 starts with g0, which zip pairs with g1
        fz = sum((w - u) * (w - u) for u, w in zip(p0, g1)) if len(g1) == 2 else 0
        e = (p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2] - fz)
        found = []
        for triple, form in planes.items():
            try:
                roots, tangencies = isolate_unit_roots(_wall_coeffs(form, p0, e, fz))
            except (ConstantZero, EndpointZero) as exc:
                subset = tuple(sorted(triple + (mover,)))
                if isinstance(exc, ConstantZero):
                    what, window = f"tuple rides a common {wall} for a whole segment", None
                else:
                    what, window = "wall contact exactly at a waypoint", f"t={exc.where}"
                raise DegenerateError(what, segment=seg, subsets=[subset], window=window) from None
            for tau in tangencies:
                subset = tuple(sorted(triple + (mover,)))
                what = "tangential wall contact crosses nothing and emits nothing"
                warnings.warn(UnstableWarning(what, segment=seg, subset=subset, time=tau))
            found.extend((root, triple, form) for root in roots)
        if found:
            events.extend(build(seg, lifted, mover, p1, _group_by_time(found)))
        lifted[mover - 1] = p1
    return events


def _group_by_time(found):
    """Items (root, triple, ...) grouped by equal time in time order, each
    group ordered by triple.  Sorted by floor(2^32 t), and by `compare` only
    within a run of equal floors: the order of one stable sort by `compare`."""
    groups = []
    keyed = sorted(((item[0].refine(32), item) for item in found), key=itemgetter(0))
    for _, run in itertools.groupby(keyed, key=itemgetter(0)):
        run = [item for _, item in run]
        if len(run) == 1:  # nearly every run: its one item is its group
            groups.append(run)
            continue
        run.sort(key=cmp_to_key(lambda u, v: u[0].compare(v[0])))
        groups += (
            sorted(group, key=itemgetter(1))
            for _, group in itertools.groupby(run, key=lambda item: time_key(item[0]))
        )
    return groups


def trace(ch: Choreography) -> list[Event]:
    """All wall crossings of a valid planar choreography, ordered by (segment, time)."""
    if ch.dim != 2:
        raise ValidationError("trace needs a planar choreography; use geom3d.trace3")

    def build(seg, grid, mover, g1, groups):
        return [_build_event(seg, grid, mover, g1, *item) for group in groups for item in group]

    return wall_crossings(ch, _lift, ("concyclic or collinear", "circle"), build)


def _labels(root, grid, g1, mover, triple, form, axis):
    """An event's subset, the `cyclic_order` of its four points with
    coordinate `axis` of the lifted grid dropped (in the plane 2 drops the
    paraboloid's), and the sign of the static triple's plane form at each
    lifted bystander; g1 is the mover's lifted target."""
    subset = tuple(sorted(triple + (mover,)))
    p, q, r = triple
    # N_axis of the static plane is the static triple's orientation with
    # coordinate axis dropped; dropping y swaps the terms of N_y
    static = sign(form[axis + 1])
    signs = {mover: -static if axis == 1 else static}  # left-out point -> sign
    i, j = (1, 2) if axis == 0 else (0, 2) if axis == 1 else (0, 1)  # the kept coordinates
    g0 = grid[mover - 1]
    x0, y0 = g0[i], g0[j]
    ex, ey = g1[i] - x0, g1[j] - y0
    for out, u, v in ((r, p, q), (q, p, r), (p, q, r)):
        # with the mover last the orientation of (u, v, mover) is
        # o + (dx ey - dy ex) t, as only the mover moves; the mover between
        # u and v makes the ascending order an odd permutation of it
        gu, gv = grid[u - 1], grid[v - 1]
        ux, uy = gu[i], gu[j]
        dx, dy = gv[i] - ux, gv[j] - uy
        s = root.linear_sign(dx * (y0 - uy) - dy * (x0 - ux), dx * ey - dy * ex)
        signs[out] = -s if u < mover < v else s
    # No bystander lies on the wall: it would make four static points sit on
    # a wall, which the static scan of wall_crossings rejects first.
    sides = [sign(_at(form, g)) for k, g in enumerate(grid, 1) if k not in subset]
    a, b, c, d = subset
    return subset, cyclic_order(subset, (signs[d], signs[c], signs[b], signs[a])), sides


def _build_event(seg, grid, mover, g1, root, triple, form):
    subset, cycle, sides = _labels(root, grid, g1, mover, triple, form, 2)
    sd = sign(form[3])  # N_z of the lifted plane: orient2d of the static triple
    if sd:
        # Four distinct concyclic points are in convex position.
        return Event(seg, root, _letter(GammaGen, cycle), _letter(GGen, subset), sides.count(sd))

    # Collinear wall: a, b, c collinear make incircle linear in the mover,
    # so the root is rational and the mover crosses the line ab there.
    # Order along the line, closed up projectively; distinct points, as
    # validate rejects a collision.
    t = root.exact
    a, b, g0 = (grid[k - 1] for k in (*triple[:2], mover))

    def along(k):
        # (P_k(t) - a) . (b - a)
        p = tuple(u + t * (w - u) for u, w in zip(g0, g1)) if k == mover else grid[k - 1]
        return (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])

    cycle = tuple(sorted(subset, key=along))
    # The mover's side of the line ab flips at the root: on one side of the
    # wall the bystanders inside are those on one side of ab, on the other
    # those on the other side, and the two counts must agree.
    inside = sides.count(1)
    if inside != sides.count(-1):
        raise DegenerateError(
            "inside count disagrees on the two sides of a collinear wall",
            segment=seg,
            subsets=[subset],
            window=f"{{{t}}}",
        )
    quad = _letter(GammaGen, cycle)
    return Event(seg, root, quad, _letter(GGen, subset), inside, collinear_wall=True)


def events_to_word(events, target: str, r: int = 1):
    """The word of a planar or spatial trace: in g a letter per event (its
    4-subset), in gamma and gammar one per special event (its cyclic
    quadruple, in the slot of its inside count mod r for gammar).  Every
    planar event is special; spatial events have no inside count, so gammar
    rejects them."""
    if target == "g":
        letters = (e.subset for e in events)
    elif target == "gamma":
        letters = (e.quad for e in events if e.special)
    else:  # lazy: target_word rejects an unknown target before reading these
        letters = (_slot_letter(e, r) for e in events if e.special)
    return target_word(target, r, letters)


def _slot_letter(e, r: int):
    require_inside_counts(isinstance(e, Event))
    return (e.inside % r, e.quad)


def require_inside_counts(planar: bool) -> None:
    """`gammar`'s one rule on a trace: only planar events have inside counts."""
    if not planar:
        raise ValidationError("spatial traces have no inside counts")


# ---------------------------------------------------------------------------
# the standard generator choreography
# ---------------------------------------------------------------------------


def generator_choreography(n: int, i: int, j: int) -> Choreography:
    """Loop realizing the two-strand twist b(i,j) over the base configuration.

    Four stages, all waypoints strictly above the parabola by half the
    smallest vertical gap: point i flies over i+1..j and parks right of j;
    point j hops over it; point i flies home; point j returns.  Straight
    flights between lifted points stay above every intermediate base point
    because chords of a convex graph lie above it.
    """
    if not 1 <= i < j <= n:
        raise ValidationError(f"need 1 <= i < j <= n, got ({i},{j}), n={n}")
    pts = base_config(n)
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    eps = min(ys[k + 1] - ys[k] for k in range(n - 1)) / 2 if n >= 2 else Fraction(1)
    gap = (xs[j] - xs[j - 1]) if j < n else (xs[n - 1] - xs[n - 2])
    xl = xs[j - 1] + gap / 2
    xl2 = xs[j - 1] + 3 * gap / 4
    yl, yl2 = xl * xl, xl2 * xl2
    xi, yi = xs[i - 1], ys[i - 1]
    xj, yj = xs[j - 1], ys[j - 1]
    moves = (
        Move(i, Pt2(xi, yi + eps)),
        Move(i, Pt2(xl, yl + eps)),
        Move(i, Pt2(xl, yl)),
        Move(j, Pt2(xj, yl2 + eps)),
        Move(j, Pt2(xl2, yl2 + eps)),
        Move(j, Pt2(xl2, yl2)),
        Move(i, Pt2(xl, yl + eps)),
        Move(i, Pt2(xi, yi + eps)),
        Move(i, Pt2(xi, yi)),
        Move(j, Pt2(xl2, yl2 + eps)),
        Move(j, Pt2(xj, yj + eps)),
        Move(j, Pt2(xj, yj)),
    )
    # valid by construction; tracing validates it
    return Choreography(n, pts, moves, loop=True)


def braid_choreography(w) -> Choreography:
    """Concatenated generator loops realizing a braid word (inverses reversed)."""
    from .braids import BraidWord

    if not isinstance(w, BraidWord):
        raise ValidationError(f"braid_choreography needs a BraidWord, got {type(w).__name__}")
    moves = []
    for g in w.letters:  # each loop, and its reverse, starts and ends at base_config
        piece = generator_choreography(w.n, g.i, g.j)
        if g.exponent < 0:
            piece = reverse(piece)
        moves += piece.moves * abs(g.exponent)
    return Choreography(w.n, base_config(w.n), tuple(moves), loop=True)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def choreography_to_json(ch: Choreography) -> dict:
    return {
        "n": ch.n,
        "dim": ch.dim,
        "points": [[rat_to_str(v) for v in p] for p in ch.start],
        "moves": [{"point": m.point, "to": [rat_to_str(v) for v in m.to]} for m in ch.moves],
        "loop": ch.loop,
    }


def _json_typed(value, kind: type, what: str):
    """value, if its type is exactly kind: true is not an int, nor 1 a bool."""
    if type(value) is not kind:
        raise ValidationError(
            f"malformed choreography JSON: {what} must be {kind.__name__}, got {value!r}"
        )
    return value


def choreography_from_json(data: dict) -> Choreography:
    """Build a 2D or 3D choreography from the documented JSON schema.

    `n`, `dim` and each move's `point` must be JSON integers, `loop` a JSON
    boolean, and every coordinate list must hold exactly `dim` rationals.
    """
    if not isinstance(data, dict) or "dim" not in data:
        raise ValidationError("choreography JSON must be an object with a 'dim' field")
    dim = _json_typed(data["dim"], int, "dim")
    if dim == 2:
        kind = Pt2
    elif dim == 3:
        from .geom3d import Pt3 as kind
    else:
        raise ValidationError(f"unsupported dim {dim!r}")

    def point(coords):
        if not isinstance(coords, list) or len(coords) != dim:
            raise ValidationError(
                f"malformed choreography JSON: expected {dim} coordinates, got {coords!r}"
            )
        return kind(*map(rat_from_str, coords))

    try:
        n = _json_typed(data["n"], int, "n")
        start = tuple(point(p) for p in data["points"])
        moves = tuple(
            Move(_json_typed(m["point"], int, "point"), point(m["to"]))
            for m in data.get("moves", ())
        )
        loop = _json_typed(data.get("loop", False), bool, "loop")
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed choreography JSON: {exc}") from None
    return Choreography(n, start, moves, loop=loop)


def load_choreography(path: str) -> Choreography:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, deep nesting
            raise ValidationError(f"malformed choreography JSON: {exc}") from None
    return choreography_from_json(data)
