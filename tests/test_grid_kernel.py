"""Property tests for the integer grid the tracers compute on.

Both tracers scale the whole plan onto one integer grid (`geom2d._on_grid`)
and take every wall determinant there, keeping each static triple's plane
across segments until one of its points moves.  These tests hold the integer
results to the Fraction predicates on random rational input, hold the traced
events to a fresh trace of each segment alone, and check the consequence the
tracers rely on: scaling a plan by a positive rational changes no byte of
`trace` output.
"""

import contextlib
import io
import itertools
import json
import math
import os
import random
import tempfile
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from braidgamma import cli
from braidgamma.errors import BraidGammaError
from braidgamma.exact import sign
from braidgamma.geom2d import (
    Choreography,
    Move,
    Pt2,
    _first_hit_inside,
    _lift,
    _on_grid,
    _at,
    _orient3d_raw,
    _plane,
    _wall_coeffs,
    choreography_to_json,
    incircle_sign,
    lerp,
    orient2d,
    trace,
)
from braidgamma.geom3d import Event3, Pt3, orient3d_sign, trace3
from braidgamma.roots import time_key

SEEDED = settings(max_examples=60, deadline=None, derandomize=True, database=None)
COORD = st.fractions(min_value=-4, max_value=4, max_denominator=7)
UNIT = st.fractions(min_value=0, max_value=1, max_denominator=50)


def points(kind, count):
    dim = 2 if kind is Pt2 else 3
    return st.lists(st.tuples(*[COORD] * dim), min_size=count, max_size=count).map(
        lambda ps: [kind(*p) for p in ps]
    )


@SEEDED
@given(points(Pt2, 5), UNIT)
def test_grid_incircle_signs_match_incircle_sign(pts, t):
    grid = _on_grid(pts)
    assert all(type(v) is int for p in grid for v in p)
    a, b, c, m0, m1 = map(_lift, grid)
    s = sign(_orient3d_raw(a, b, c, m0))
    assert s == sign(_orient3d_raw(*map(_lift, pts[:4])))
    assert (s if orient2d(*grid[:3]) >= 0 else -s) == incircle_sign(*pts[:4])
    # the coefficients in t, read off the lifted path m0 + t e + t^2 f with
    # f = lift(g1 - g0) - (g1 - g0, 0) = (0, 0, |g1 - g0|^2)
    d = tuple(w - u for u, w in zip(grid[3], grid[4]))
    f = _lift(d)[2]
    e = (m1[0] - m0[0], m1[1] - m0[1], m1[2] - m0[2] - f)
    c0, c1, c2 = _wall_coeffs(_plane(a, b, c), m0, e, f)
    moved = lerp(pts[3], pts[4], t)
    assert sign(c0 + c1 * t + c2 * t * t) == sign(
        _orient3d_raw(*map(_lift, pts[:3]), _lift(moved))
    )


def det4(rows):
    """The Leibniz expansion of a 4x4 determinant: a signed product per
    permutation, the sign that of its inversion count."""
    total = 0
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(4), 2))
        total += (-1) ** inversions * math.prod(rows[r][c] for r, c in enumerate(perm))
    return total


GRID = st.tuples(*[st.integers(-10**6, 10**6)] * 3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(GRID, min_size=4, max_size=4), st.booleans())
def test_plane_form_is_the_orient3d_determinant(pts, lifted):
    # the form h - N . d of the plane of a, b, c is det with rows (x, y, z, 1)
    # of a, b, c, d, on int points and on planar int points lifted
    if lifted:
        pts = [_lift(p[:2]) for p in pts]
    a, b, c, d = pts
    want = det4([(*p, 1) for p in pts])
    assert _at(_plane(a, b, c), d) == _orient3d_raw(a, b, c, d) == want
    assert _at(_plane(a, b, c), a) == 0  # a, b and c lie on their plane


@SEEDED
@given(points(Pt3, 5), UNIT)
def test_grid_orient3d_signs_match_orient3d_sign(pts, t):
    grid = _on_grid(pts)
    assert sign(_orient3d_raw(*grid[:4])) == orient3d_sign(*pts[:4])
    # trace3's event-time grid: scale by t's denominator, move the mover
    p, q = t.numerator, t.denominator
    a, b, c = (tuple(q * v for v in g) for g in grid[:3])
    mover = tuple(q * u + p * (w - u) for u, w in zip(grid[3], grid[4]))
    assert sign(_orient3d_raw(a, b, c, mover)) == orient3d_sign(
        *pts[:3], lerp(pts[3], pts[4], t)
    )


@st.composite
def plans(draw, kind):
    n = draw(st.integers(4, 5))
    pt = points(kind, 1).map(lambda ps: ps[0])
    start = draw(st.lists(pt, min_size=n, max_size=n, unique=True))
    moves = draw(st.lists(st.builds(Move, st.integers(1, n), pt), min_size=1, max_size=2))
    return Choreography(n, tuple(start), tuple(moves))


def scaled(ch, lam):
    def move(p):
        return type(p)(*(lam * v for v in p))

    return Choreography(
        ch.n, tuple(map(move, ch.start)), tuple(Move(m.point, move(m.to)) for m in ch.moves)
    )


def trace_output(ch, target):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "plan.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(choreography_to_json(ch), fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["trace", "--format", "json", "--target", target, path])
    return code, out.getvalue(), err.getvalue()


SCALE = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)


@settings(SEEDED, max_examples=30)
@given(plans(Pt2), SCALE)
def test_scaling_a_planar_plan_keeps_trace_output(ch, lam):
    for target in ("g", "gamma"):
        assert trace_output(scaled(ch, lam), target) == trace_output(ch, target)


@settings(SEEDED, max_examples=30)
@given(plans(Pt3), SCALE)
def test_scaling_a_spatial_plan_keeps_trace_output(ch, lam):
    for target in ("g", "gamma"):
        assert trace_output(scaled(ch, lam), target) == trace_output(ch, target)


def fraction_hits_inside(p0, p1, s) -> bool:
    """The Fraction collision test `validate` ran before the integer grid."""
    ts = set()
    for a, b, c in zip(p0, p1, s):
        if b != a:
            ts.add(Fraction(c - a, b - a))
        elif c != a:
            return False
    return len(ts) == 1 and 0 < ts.pop() < 1


def test_integer_collision_test_matches_the_fraction_one():
    # Seeded segments in the plane and in space, with s planted on the
    # segment's line inside it, at an end, and outside it; off the line; and
    # null moves (g0 = g1), which hit nothing.
    rng = random.Random(1503)

    def coord():
        return Fraction(rng.randrange(-30, 31), rng.randrange(1, 8))

    seen = Counter()
    for dim in (2, 3):
        for _ in range(600):
            p0 = tuple(coord() for _ in range(dim))
            case = rng.choice(("inside", "end", "outside", "off", "null"))
            p1 = p0 if case == "null" else tuple(coord() for _ in range(dim))
            beyond = Fraction(rng.randrange(1, 30), 7)
            t = {
                "inside": Fraction(rng.randrange(1, 12), 12),
                "end": Fraction(rng.randrange(2)),
                "outside": rng.choice((-beyond, 1 + beyond)),
            }.get(case)
            if t is not None:
                s = tuple(a + t * (b - a) for a, b in zip(p0, p1))
            else:
                s = tuple(coord() for _ in range(dim)) if case == "off" else p0
                if case == "null" and rng.random() < 0.5:
                    s = tuple(coord() for _ in range(dim))
            expected = fraction_hits_inside(p0, p1, s)
            g0, g1, g = _on_grid([p0, p1, s])
            # the ends are never hit, and the hit is numbered from 1
            assert _first_hit_inside(g0, g1, [g0, g1, g]) == 3 * expected, (p0, p1, s)
            seen[case, expected] += 1
    assert seen["inside", True] > 100 and seen["null", False] > 100
    assert seen["end", False] > 100 and seen["outside", False] > 100


def revisiting_plan(rng, dim):
    """A seeded plan of n = 5..7 integer points and 6..9 moves in which the
    first mover moves again after others have, and so does the last: its
    static planes through those points go stale and must be built again."""
    kind = Pt2 if dim == 2 else Pt3
    n = rng.randrange(5, 8)

    def point():
        return kind(*(Fraction(rng.randrange(-30, 31)) for _ in range(dim)))

    start = []
    while len(start) < n:
        p = point()
        if p not in start:
            start.append(p)
    movers = [rng.randrange(1, n + 1) for _ in range(rng.randrange(4, 7))]
    movers = [movers[0], *movers, movers[0], movers[-1]]
    return Choreography(n, tuple(start), tuple(Move(k, point()) for k in movers))


def event_key(e):
    if isinstance(e, Event3):
        return e
    return (e.segment, time_key(e.time), e.quad, e.subset, e.inside, e.collinear_wall)


def test_planes_carried_across_segments_match_a_fresh_trace_per_segment():
    # Each segment traced alone, as a one-move plan from its own start
    # configuration, builds every plane afresh; a plane kept past a move of
    # one of its points shows as a different event list.
    rng = random.Random(2611)
    for dim, tracer in ((2, trace), (3, trace3)):
        traced = events = 0
        while traced < 40:
            ch = revisiting_plan(rng, dim)
            try:
                got = tracer(ch)
            except BraidGammaError:
                continue
            traced += 1
            want = []
            for seg, (cfg, move) in enumerate(zip(ch.configs(), ch.moves)):
                alone = tracer(Choreography(ch.n, cfg, (move,)))
                want += [e.__class__(seg, *(getattr(e, f) for f in e._fields[1:])) for e in alone]
            assert list(map(event_key, got)) == list(map(event_key, want)), ch
            events += len(got)
        assert events > 10 * traced, (dim, events)  # the plans cross many walls
