"""The one rule both tracers read an event's circular order by.

`geom2d.cyclic_order` finds the crossing diagonals of four points by
looking their four triple signs up in a table.  On every sign pattern the
table is held to the crossing-diagonal loop it was derived from.  On point
sets it is held to a brute-force oracle over the three 4-cycles, and so is
every traced event at a rational time, on the plan's own Fraction positions
at that time; the planar collinear-wall branch, which sorts along the line
instead, is held to those positions too.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidgamma.errors import BraidGammaError, DegenerateError, ValidationError
from braidgamma.generators import GammaGen, GGen
from braidgamma.geom2d import Choreography, Move, cyclic_order, orient2d, pt2, trace
from braidgamma.geom3d import pt3, trace3

SEEDED = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _cross(o, p, q):
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def oracle_cycle(pts):
    """The 4-cycle of the points whose every edge has the other two strictly
    on one side, or None."""
    a, b, c, d = pts
    for cycle in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
        edges = [(cycle[k], cycle[(k + 1) % 4]) for k in range(4)]
        if all(
            _cross(u, v, w) * _cross(u, v, x) > 0
            for u, v in edges
            for w, x in [[p for p in cycle if p not in (u, v)]]
        ):
            return cycle
    return None


def edge_set(cycle):
    return {frozenset((cycle[k], cycle[(k + 1) % 4])) for k in range(4)}


COORD = st.integers(min_value=-6, max_value=6)


@SEEDED
@given(
    st.lists(st.tuples(COORD, COORD), min_size=4, max_size=4, unique=True).filter(
        lambda ps: all(
            _cross(ps[i], ps[j], ps[k])
            for i in range(4)
            for j in range(i + 1, 4)
            for k in range(j + 1, 4)
        )
    ),
    st.permutations([1, 2, 3, 4]),
)
@example([(0, 0), (1, 0), (1, 1), (0, 1)], [1, 2, 3, 4])  # a square
@example([(0, 0), (4, 0), (0, 4), (1, 1)], [3, 1, 4, 2])  # one point inside
def test_cyclic_order_matches_the_oracle(pts, ids):
    at = dict(zip(ids, map(pt2, *zip(*pts))))
    signs = tuple(orient2d(at[i], at[j], at[k]) for i, j, k in itertools.combinations(ids, 3))
    got = cyclic_order(ids, signs)
    want = oracle_cycle(pts)
    if want is None:
        assert got is None
        return
    assert got[0] == ids[0] and sorted(got) == [1, 2, 3, 4]
    ids_of = dict(zip(pts, ids))
    assert edge_set(got) == edge_set(tuple(ids_of[p] for p in want))


def crossing_diagonal_order(ids, side):
    """The circular order by the crossing-diagonal rule that the sign table
    was derived from, kept verbatim: the first x of ids[1:] whose diagonal
    a-x crosses the other, y-z."""
    a, *rest = ids
    for x in rest:
        y, z = (k for k in rest if k != x)
        if side(a, x, y) != side(a, x, z) and side(y, z, a) != side(y, z, x):
            return (a, y, x, z)
    return None


def pattern_side(ids, pattern):
    """side(p, q, r) of four ids whose triples at positions (0, 1, 2),
    (0, 1, 3), (0, 2, 3), (1, 2, 3) have the orientation signs `pattern`:
    the sign of the ascending positions, flipped by an odd permutation."""
    pos = {k: i for i, k in enumerate(ids)}

    def side(*triple):
        at = [pos[k] for k in triple]
        odd = (at[0] > at[1]) ^ (at[0] > at[2]) ^ (at[1] > at[2])
        s = pattern[3 - (6 - sum(at))]  # the pattern lists triples by the missing position, 3 first
        return -s if odd else s

    return side


def test_the_sign_table_is_the_crossing_diagonal_rule_on_every_pattern():
    for pattern in itertools.product((1, -1), repeat=4):
        for ids in itertools.permutations((1, 2, 3, 4)):
            got = cyclic_order(ids, pattern)
            want = crossing_diagonal_order(ids, pattern_side(ids, pattern))
            assert (got is None) == (want is None), (pattern, ids)
            if got is None:
                continue
            assert got[0] == ids[0] and edge_set(got) == edge_set(want), (pattern, ids)
            if ids == (1, 2, 3, 4):
                assert GammaGen(got).cycle == got  # canonical for ascending ids
    # a zero sign (a planar collinear wall, which never reads the cycle) has no order
    for pattern in itertools.product((1, 0, -1), repeat=4):
        if 0 in pattern:
            assert cyclic_order((1, 2, 3, 4), pattern) is None


def collinear_wall_plan(rng):
    """Three static points on a line, 0..2 bystanders on each side of it in
    equal numbers, and a mover that crosses the line on every move; every
    coordinate is an integer, so every crossing time is rational."""
    o = (rng.randrange(-5, 6), rng.randrange(-5, 6))
    d = (0, 0)
    while d == (0, 0):
        d = (rng.randrange(-3, 4), rng.randrange(-3, 4))
    normal = (-d[1], d[0])

    def off_line(side):
        # o + s d + h normal, h of the given sign
        s, h = rng.randrange(-6, 7), side * rng.randrange(1, 4)
        return pt2(o[0] + s * d[0] + h * normal[0], o[1] + s * d[1] + h * normal[1])

    statics = [pt2(o[0] + k * d[0], o[1] + k * d[1]) for k in rng.sample(range(-4, 5), 3)]
    pairs = rng.randrange(0, 3)
    bystanders = [off_line(side) for _ in range(pairs) for side in (1, -1)]
    side = rng.choice((1, -1))
    start = off_line(side)
    moves = []
    for _ in range(rng.randrange(1, 4)):
        side = -side
        moves.append(Move(4, off_line(side)))
    pts = tuple(statics + [start] + bystanders)
    return Choreography(len(pts), pts, tuple(moves))


@pytest.mark.filterwarnings("ignore::braidgamma.errors.UnstableWarning")
def test_collinear_wall_quads_follow_the_line():
    rng = random.Random(20261018)
    plans = events = 0
    for _ in range(400):
        ch = collinear_wall_plan(rng)
        try:
            traced = trace(ch)
        except (DegenerateError, ValidationError):
            continue  # a collision, or another degenerate contact
        walls = [e for e in traced if e.collinear_wall]
        # the mover crosses the line of points 1, 2, 3 once per move; lattice
        # points may put other triples on a common line too
        assert sum(e.subset.members == (1, 2, 3, 4) for e in walls) == len(ch.moves)
        for e in walls:
            at = ch.position(e.segment + e.time.exact)
            p, q = (at[k - 1] for k in e.subset.members[:2])
            along = {
                k: (at[k - 1].x - p.x) * (q.x - p.x) + (at[k - 1].y - p.y) * (q.y - p.y)
                for k in e.subset.members
            }
            assert all(type(v) is Fraction for v in along.values())
            assert e.quad == GammaGen(tuple(sorted(along, key=along.get)))
            sides = [orient2d(p, q, at[k - 1]) for k in range(1, ch.n + 1)]
            outside = [s for k, s in enumerate(sides, 1) if k not in e.subset.members]
            assert e.inside == outside.count(1) == outside.count(-1)
        plans += 1
        events += len(walls)
    assert plans >= 100 and events >= 200


def small_plan(rng, dim):
    """n = 4..7 distinct points and 1..3 moves, coordinates p/q with
    |p/q| <= 5 and q = 1..3, so that walls are often hit at rational times."""
    n = rng.randrange(4, 8)

    def point():
        q = rng.randrange(1, 4)
        return (pt2 if dim == 2 else pt3)(
            *(Fraction(rng.randrange(-5 * q, 5 * q + 1), q) for _ in range(dim))
        )

    pts = []
    while len(pts) < n:
        p = point()
        if p not in pts:
            pts.append(p)
    moves = tuple(Move(rng.randrange(1, n + 1), point()) for _ in range(rng.randrange(1, 4)))
    return Choreography(n, tuple(pts), moves)


def projected(e, ch):
    """The four event points at the event time, as the event builder sees
    them: planar as they are; spatial with the dominant coordinate of the
    static triple's normal dropped, the first one on a tie."""
    t = e.time if ch.dim == 3 else e.time.exact
    at = ch.position(e.segment + t)
    pts = {k: tuple(at[k - 1]) for k in e.subset.members}
    if ch.dim == 3:
        mover = ch.moves[e.segment].point
        a, b, c = (pts[k] for k in e.subset.members if k != mover)
        u, v = [q - p for p, q in zip(a, b)], [q - p for p, q in zip(a, c)]
        normal = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
        axis = max(range(3), key=lambda k: abs(normal[k]))
        pts = {k: p[:axis] + p[axis + 1 :] for k, p in pts.items()}
    return pts


@pytest.mark.filterwarnings("ignore::braidgamma.errors.UnstableWarning")
@pytest.mark.parametrize("dim, plans, least", [(2, 1200, 150), (3, 300, 1000)])
def test_traced_quads_match_the_oracle_at_rational_times(dim, plans, least):
    # Every event at a rational time, but a collinear wall's (which has no
    # crossing diagonals), is held to the oracle on the plan's own Fraction
    # positions.  Its letters are the interned letters of its cycle and
    # subset.  In space a non-convex event has neither cycle nor quad.
    rng = random.Random(20261020 + dim)
    checked = convex = 0
    for _ in range(plans):
        ch = small_plan(rng, dim)
        try:
            events = (trace if dim == 2 else trace3)(ch)
        except BraidGammaError:
            continue  # a degenerate contact or a collision
        for e in events:
            assert e.subset is GGen(e.subset.members)
            if dim == 2 and (e.time.exact is None or e.collinear_wall):
                continue
            pts = projected(e, ch)
            want = oracle_cycle(list(pts.values()))
            checked += 1
            if want is None:
                assert dim == 3 and e.quad is None and not e.convex
                continue
            ids_of = {p: k for k, p in pts.items()}
            assert e.quad is GammaGen(tuple(ids_of[p] for p in want))
            convex += 1
    assert checked >= least and convex > 0
    assert dim == 2 or convex < checked  # space has non-convex events too
