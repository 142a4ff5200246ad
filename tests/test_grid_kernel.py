"""Property tests for the integer grid the tracers compute on.

Both tracers scale each segment onto one integer grid (`geom2d._on_grid`)
and take every wall determinant there.  These tests hold the integer results to
the Fraction predicates on random rational input, and check the consequence
the tracers rely on: scaling a plan by a positive rational changes no byte of
`trace` output.
"""

import contextlib
import io
import json
import os
import random
import tempfile
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from braidgamma import cli
from braidgamma.exact import sign
from braidgamma.geom2d import (
    Choreography,
    Move,
    Pt2,
    _hits_inside,
    _lift,
    _on_grid,
    _orient3d_raw,
    _wall_coeffs,
    choreography_to_json,
    incircle_sign,
    lerp,
    orient2d,
)
from braidgamma.geom3d import Pt3, orient3d_sign

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
    assert all(type(v) is int and v % 2 == 0 for p in grid for v in p)
    a, b, c, m0, m1 = map(_lift, grid)
    s = sign(_orient3d_raw(a, b, c, m0))
    assert s == sign(_orient3d_raw(*map(_lift, pts[:4])))
    assert (s if orient2d(*grid[:3]) >= 0 else -s) == incircle_sign(*pts[:4])
    # the coefficients in t, interpolated through the lifted grid midpoint
    mh = _lift([(u + w) // 2 for u, w in zip(grid[3], grid[4])])
    c0, c1, c2 = _wall_coeffs(a, b, c, m0, mh, m1)
    moved = lerp(pts[3], pts[4], t)
    assert sign(c0 + c1 * t + c2 * t * t) == sign(
        _orient3d_raw(*map(_lift, pts[:3]), _lift(moved))
    )


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
            assert _hits_inside(*_on_grid([p0, p1, s])) == expected, (p0, p1, s)
            seen[case, expected] += 1
    assert seen["inside", True] > 100 and seen["null", False] > 100
    assert seen["end", False] > 100 and seen["outside", False] > 100
