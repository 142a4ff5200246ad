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
triangle of the other three).  The planar builder passes orientation signs
that are linear in t, as only the mover moves; the spatial tracer passes
orientations of the projected points, and there None means not convex.

The segment loop, `wall_crossings`, serves the spatial tracer too: each
dimension passes its wall determinant, its coefficient function and its
event builder.  Plans hold rationals, but each segment is traced on one
integer grid: its configuration and the mover's target scaled by twice the
lcm of all their coordinate denominators (`_on_grid`; the factor 2 puts the
midpoint sample of `_incircle_coeffs` on the grid).  Every determinant is
homogeneous, so the positive scale keeps its sign; `AlgebraicRoot` divides
the content out of each polynomial, so roots and their printed dyadic cells
are those of the rational plan; and the sign of alpha + beta * t at a root
does not change when alpha and beta are scaled alike.  Fractions remain in
the JSON codec, `validate`'s collision test and the order along a collinear
wall.

On a collinear wall (three static points on one line) the incircle
determinant is linear in the mover, so the event time is rational, the
order is the exact order along the line, and the mover's side of the line
flips there: the inside count is the number of bystanders on one side of
the line, and must equal the number on the other.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import (
    DegenerateError,
    EndpointMismatchError,
    UnstableWarning,
    ValidationError,
)
from .exact import rat_from_str, rat_to_str, sign
from .generators import GammaGen, GGen
from .roots import AlgebraicRoot, ConstantZero, EndpointZero, isolate_unit_roots
from .words import GammaWord, GWord, MultiWord

if TYPE_CHECKING:
    from .geom3d import Pt3


@dataclass(frozen=True)
class Pt2:
    x: Fraction
    y: Fraction

    def __iter__(self):
        return iter((self.x, self.y))


def pt2(x, y) -> Pt2:
    return Pt2(Fraction(x), Fraction(y))


def _orient2d_raw(a, b, c):
    """Twice the signed area of three Pt2 or integer grid points."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def orient2d(a: Pt2, b: Pt2, c: Pt2) -> int:
    """Sign of the signed area of (a, b, c): +1 counterclockwise."""
    return sign(_orient2d_raw(a, b, c))


def cyclic_order(ids, side):
    """The circular order (a, y, x, z) of four point ids, no three of the
    points collinear: a = ids[0], and the diagonals a-x and y-z cross.  None
    if no two diagonals cross.  side(p, q, r) is the orientation sign of
    three of the points."""
    a, *rest = ids
    for x in rest:
        y, z = (k for k in rest if k != x)
        if side(a, x, y) != side(a, x, z) and side(y, z, a) != side(y, z, x):
            return (a, y, x, z)
    return None


def _incircle_raw(a, b, c, p):
    """The incircle determinant of four Pt2 or integer grid points."""
    (ax, ay), (bx, by), (cx, cy), (px, py) = a, b, c, p
    adx, ady = ax - px, ay - py
    bdx, bdy = bx - px, by - py
    cdx, cdy = cx - px, cy - py
    ad2 = adx * adx + ady * ady
    bd2 = bdx * bdx + bdy * bdy
    cd2 = cdx * cdx + cdy * cdy
    return (
        adx * (bdy * cd2 - bd2 * cdy)
        - ady * (bdx * cd2 - bd2 * cdx)
        + ad2 * (bdx * cdy - bdy * cdx)
    )


def incircle_sign(a: Pt2, b: Pt2, c: Pt2, p: Pt2) -> int:
    """0 iff the four points are concyclic or collinear; +1 iff p is strictly
    inside the circle through a, b, c (any orientation).

    When a, b, c are themselves collinear there is no circle; the returned
    sign then reports the side of their common line on which p lies, positive
    to the left of the walk a -> b -> c.
    """
    s = sign(_incircle_raw(a, b, c, p))
    o = orient2d(a, b, c)
    return s if o >= 0 else -s


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
def base_config(n: int, *, max_base: int = 1 << 20) -> tuple[Pt2, ...]:
    """n points on the squaring parabola at geometrically growing abscissae.

    The base B (a power of two, starting at 4) is accepted only after two
    exact checks: no four points concyclic, and for every sorted triple
    (j, p, q) the points strictly inside the circle through P_j, P_p, P_q are
    exactly P_1..P_{j-1} and P_{p+1}..P_{q-1}.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    B = 4
    while B <= max_base:
        t = [Fraction(B) ** k for k in range(1, n + 1)]
        pts = tuple(Pt2(v, v * v) for v in t)
        if _base_config_ok(pts):
            return pts
        B *= 2
    raise ValidationError(f"no admissible base found up to {max_base}")


def _base_config_ok(pts) -> bool:
    n = len(pts)
    for quad in itertools.combinations(range(n), 4):
        if incircle_sign(pts[quad[0]], pts[quad[1]], pts[quad[2]], pts[quad[3]]) == 0:
            return False
    for j, p, q in itertools.combinations(range(1, n + 1), 3):
        for k in range(1, n + 1):
            if k in (j, p, q):
                continue
            expected = k < j or p < k < q
            s = incircle_sign(pts[j - 1], pts[p - 1], pts[q - 1], pts[k - 1])
            if s == 0 or (s > 0) != expected:
                return False
    return True


# ---------------------------------------------------------------------------
# choreographies
# ---------------------------------------------------------------------------


def lerp(p, q, t):
    """The point p + t (q - p), of the same type as p (Pt2 or Pt3)."""
    return type(p)(*(a + t * (b - a) for a, b in zip(p, q)))


def _hits_inside(p0, p1, s) -> bool:
    """Whether the segment p0 -> p1 passes through s strictly between its
    ends, component by component, so in any dimension."""
    ts = set()
    for a, b, c in zip(p0, p1, s):
        if b != a:
            ts.add(Fraction(c - a, b - a))
        elif c != a:
            return False
    return len(ts) == 1 and 0 < ts.pop() < 1


@dataclass(frozen=True)
class Move:
    point: int
    to: Pt2 | Pt3


@dataclass(frozen=True)
class Choreography:
    """A motion plan: one point interpolates linearly per unit time segment.

    The points are all Pt2 (planar, traced by `trace`) or all Pt3 (spatial,
    traced by `geom3d.trace3`); `dim` reads which from the start points.
    """

    n: int
    start: tuple[Pt2 | Pt3, ...]
    moves: tuple[Move, ...] = ()
    loop: bool = False

    @property
    def dim(self) -> int:
        return len(tuple(self.start[0])) if self.start else 2

    def configs(self) -> list[tuple[Pt2 | Pt3, ...]]:
        if self.n < 1 or len(self.start) != self.n:
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

    def validate(self) -> None:
        configs = self.configs()
        kind = type(self.start[0])
        if any(type(p) is not kind for p in self.start + tuple(m.to for m in self.moves)):
            raise ValidationError("points of one choreography must all be Pt2 or all Pt3")
        for which, cfg in enumerate(configs):
            if len(set(cfg)) != self.n:
                raise ValidationError(f"coincident points at waypoint {which}")
            if self.dim == 3:
                from .geom3d import require_no_collinear_triple

                # only triples through the last mover can have become collinear
                mover = self.moves[which - 1].point if which else None
                require_no_collinear_triple(_on_grid(cfg), f"at waypoint {which}", mover)
        for seg, m in enumerate(self.moves):
            p0 = configs[seg][m.point - 1]
            for k, s in enumerate(configs[seg], start=1):
                if k != m.point and _hits_inside(p0, m.to, s):
                    raise ValidationError(
                        f"point {m.point} collides with point {k} inside segment {seg}"
                    )
        if self.loop and configs[-1] != self.start:
            raise ValidationError("loop flag set but final configuration differs from start")


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
    if not 0 < Fraction(at) < 1:
        raise ValidationError("subdivision parameter must be strictly inside (0,1)")
    m = ch.moves[seg]
    mid = lerp(ch.configs()[seg][m.point - 1], m.to, Fraction(at))
    moves = ch.moves[:seg] + (Move(m.point, mid), m) + ch.moves[seg + 1 :]
    return Choreography(ch.n, ch.start, moves, loop=ch.loop)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    """One wall crossing: four points concyclic (or collinear) with odd contact."""

    segment: int
    time: AlgebraicRoot
    quad: GammaGen
    subset: GGen
    inside: int
    collinear_wall: bool = False


def _on_grid(points) -> list[tuple[int, ...]]:
    """Rational points scaled by 2 * lcm of all their coordinate denominators,
    as int tuples.  The coordinates are even, so midpoints stay on the grid."""
    den = 2 * math.lcm(*(v.denominator for p in points for v in p))
    return [tuple(v.numerator * (den // v.denominator) for v in p) for p in points]


def _incircle_coeffs(a, b, c, m0, m1):
    """Integer coefficients of det(t) = incircle(a, b, c, M(t)), degree <= 2.

    Only the mover's row of the lifted determinant depends on t, so the true
    degree is at most two and interpolation at t = 0, 1/2, 1 is exact; the
    midpoint of two grid points is a grid point.
    """
    p0 = _incircle_raw(a, b, c, m0)
    ph = _incircle_raw(a, b, c, ((m0[0] + m1[0]) // 2, (m0[1] + m1[1]) // 2))
    p1 = _incircle_raw(a, b, c, m1)
    c2 = 2 * (p1 + p0 - 2 * ph)
    return (p0, p1 - p0 - c2, c2)


def wall_crossings(ch: Choreography, raw, coeffs, nouns, build) -> list:
    """The one wall-crossing loop of both tracers, segment by segment.

    Each segment runs on one integer grid (`_on_grid` of its configuration
    and the mover's target), so every determinant is taken on ints.
    raw(a, b, c, d) is the wall determinant of four points and coeffs(a, b,
    c, m0, m1) the integer coefficients of raw(a, b, c, M(t)) in t (degree at
    most two).  nouns = (how four static points sit on a wall, the wall) word
    the errors.  build(seg, grid, mover, g0, g1, groups) makes the events of a
    segment from its crossings, grouped by equal time and ordered by time,
    each group a list of (root, static triple) ordered by triple; g0 and g1
    are the mover's start and target on the grid.
    """
    static_wall, wall = nouns
    ch.validate()
    configs = ch.configs()
    events = []
    for seg, move in enumerate(ch.moves):
        *grid, g1 = _on_grid(configs[seg] + (move.to,))
        mover = move.point
        others = [k for k in range(1, ch.n + 1) if k != mover]
        for quad in itertools.combinations(others, 4):
            if raw(*(grid[k - 1] for k in quad)) == 0:
                raise DegenerateError(
                    f"four static points are {static_wall}", segment=seg, subsets=[quad]
                )
        g0 = grid[mover - 1]
        if g0 == g1:
            continue
        found: list[tuple[AlgebraicRoot, tuple[int, int, int]]] = []
        for triple in itertools.combinations(others, 3):
            a, b, c = (grid[k - 1] for k in triple)
            subset = tuple(sorted(triple + (mover,)))
            try:
                roots, tangencies = isolate_unit_roots(coeffs(a, b, c, g0, g1))
            except ConstantZero:
                raise DegenerateError(
                    f"tuple rides a common {wall} for a whole segment",
                    segment=seg,
                    subsets=[subset],
                ) from None
            except EndpointZero as exc:
                raise DegenerateError(
                    "wall contact exactly at a waypoint",
                    segment=seg,
                    subsets=[subset],
                    window=f"t={exc.where}",
                ) from None
            for tau in tangencies:
                warnings.warn(
                    UnstableWarning(
                        "tangential wall contact crosses nothing and emits nothing",
                        segment=seg,
                        subset=subset,
                        time=tau,
                    )
                )
            found.extend((root, triple) for root in roots)
        if found:
            events.extend(build(seg, grid, mover, g0, g1, _group_by_time(found)))
    return events


def _group_by_time(found):
    found.sort(key=functools.cmp_to_key(lambda u, v: u[0].compare(v[0])))
    groups: list[list[tuple[AlgebraicRoot, tuple]]] = []
    for item in found:
        if groups and groups[-1][0][0].compare(item[0]) == 0:
            groups[-1].append(item)
        else:
            groups.append([item])
    for group in groups:
        group.sort(key=lambda item: item[1])
    return groups


def trace(ch: Choreography) -> list[Event]:
    """All wall crossings of a valid planar choreography, ordered by (segment, time)."""
    if ch.dim != 2:
        raise ValidationError("trace needs a planar choreography; use geom3d.trace3")

    def build(seg, grid, mover, g0, g1, groups):
        return [
            _build_event(ch.n, seg, grid, mover, g0, g1, root, triple)
            for group in groups
            for root, triple in group
        ]

    return wall_crossings(
        ch, _incircle_raw, _incircle_coeffs, ("concyclic or collinear", "circle"), build
    )


def _build_event(n, seg, grid, mover, g0, g1, root, triple):
    # No bystander lies on the event circle or line: with the three static
    # points of the event it would make four static points concyclic or
    # collinear, which the static scan of wall_crossings rejects first.
    a, b, c = (grid[k - 1] for k in triple)
    subset = tuple(sorted(triple + (mover,)))
    bystanders = [k for k in range(1, n + 1) if k not in subset]
    sd = orient2d(a, b, c)
    if sd:
        # Four distinct concyclic points are in convex position.  Only the
        # mover moves, so each orientation is linear in t: o0 + (o1 - o0) t.
        grid1 = list(grid)
        grid1[mover - 1] = g1

        def side(i, j, k):
            o0 = _orient2d_raw(grid[i - 1], grid[j - 1], grid[k - 1])
            o1 = _orient2d_raw(grid1[i - 1], grid1[j - 1], grid1[k - 1])
            return root.linear_sign(o0, o1 - o0)

        cycle = cyclic_order(subset, side)
        inside = sum(1 for k in bystanders if sign(_incircle_raw(a, b, c, grid[k - 1])) == sd)
        return Event(seg, root, GammaGen(cycle), GGen(subset), inside)

    # Collinear wall: a, b, c collinear make incircle linear in the mover,
    # so the root is rational and the mover crosses the line ab there.
    # Order along the line, closed up projectively; distinct points, as
    # validate rejects a collision.
    t = root.exact

    def along(k):
        # (P_k(t) - a) . (b - a)
        p = tuple(u + t * (w - u) for u, w in zip(g0, g1)) if k == mover else grid[k - 1]
        return (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])

    cycle = tuple(sorted(subset, key=along))
    # The mover's side of the line ab flips at the root: on one side of the
    # wall the bystanders inside are those left of ab, on the other those
    # right of it, and the two counts must agree.
    sides = [orient2d(a, b, grid[k - 1]) for k in bystanders]
    inside = sides.count(1)
    if inside != sides.count(-1):
        raise DegenerateError(
            "inside count disagrees on the two sides of a collinear wall",
            segment=seg,
            subsets=[subset],
            window=f"{{{t}}}",
        )
    return Event(seg, root, GammaGen(cycle), GGen(subset), inside, collinear_wall=True)


def events_to_word(events, target: str, r: int = 1):
    """Letter per event. Slots in the r-fold target are inside counts mod r."""
    if target == "g":
        return GWord(tuple(e.subset for e in events))
    if target == "gamma":
        return GammaWord(tuple(e.quad for e in events))
    if target == "gammar":
        return MultiWord(r, tuple((e.inside % r, e.quad) for e in events))
    raise ValidationError(f"unknown target {target!r}")


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

    assert isinstance(w, BraidWord)
    ch = Choreography(w.n, base_config(w.n), (), loop=True)
    for g in w.letters:
        piece = generator_choreography(w.n, g.i, g.j)
        if g.exponent < 0:
            piece = reverse(piece)
        for _ in range(abs(g.exponent)):
            ch = concat(ch, piece)
    return ch


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
        return choreography_from_json(json.load(fh))
