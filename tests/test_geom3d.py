import random
from fractions import Fraction

import pytest

from braidgamma.errors import (
    BraidGammaError,
    CollinearTripleError,
    DegenerateError,
    ValidationError,
)
from braidgamma.generators import GammaGen
from braidgamma.geom2d import (
    Choreography,
    Move,
    choreography_from_json,
    choreography_to_json,
    concat,
    events_to_word,
    generator_choreography,
    reverse,
    trace,
)
from braidgamma.geom2d import wall_crossings
from braidgamma.geom3d import (
    loop_word,
    orient3d_sign,
    pt3,
    require_no_collinear_triple,
    trace3,
)
from braidgamma.words import GammaWord, free_reduce, invariant_equal, invert


def orient3d_cofactor_oracle(a, b, c, d):
    """Independent 4x4 determinant by cofactor expansion along the last column."""
    rows = [list(a) + [1], list(b) + [1], list(c) + [1], list(d) + [1]]

    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    total = 0
    for k in range(4):
        minor = [r[:3] for r in rows[:k] + rows[k + 1 :]]
        total += (-1) ** (k + 3) * rows[k][3] * det3(minor)
    return (total > 0) - (total < 0)


def test_orient3d_examples():
    a, b, c, d = pt3(0, 0, 0), pt3(1, 0, 0), pt3(0, 1, 0), pt3(0, 0, 1)
    assert orient3d_sign(a, b, c, d) != 0
    assert orient3d_sign(a, b, c, pt3(7, -3, 0)) == 0
    assert orient3d_sign(b, a, c, d) == -orient3d_sign(a, b, c, d)


def test_orient3d_against_cofactor_oracle():
    rng = random.Random(79)
    for _ in range(500):
        pts = [
            pt3(
                Fraction(rng.randrange(-64, 64), 8),
                Fraction(rng.randrange(-64, 64), 8),
                Fraction(rng.randrange(-64, 64), 8),
            )
            for _ in range(4)
        ]
        assert orient3d_sign(*pts) == orient3d_cofactor_oracle(*pts)


# ---------------------------------------------------------------------------
# standard configurations
# ---------------------------------------------------------------------------

A, B, C = pt3(0, 0, 0), pt3(10, 1, 0), pt3(3, 9, 0)


def crossing(n_extra, cross_at, extras, there_and_back=False):
    """Mover crosses plane(A, B, C) vertically at cross_at (a 2D point)."""
    m0 = pt3(cross_at[0], cross_at[1], -4)
    m1 = pt3(cross_at[0], cross_at[1], 6)
    pts = (A, B, C) + tuple(extras) + (m0,)
    n = 4 + n_extra
    moves = (Move(n, m1), Move(n, m0)) if there_and_back else (Move(n, m1),)
    return Choreography(n, pts, moves, loop=there_and_back)


def test_convex_one_sided_crossing_is_special():
    ch = crossing(2, (11, 9), (pt3(2, 3, 7), pt3(6, 2, 5)), there_and_back=True)
    events = trace3(ch)
    plane_events = [e for e in events if e.subset.members == (1, 2, 3, 6)]
    assert len(plane_events) == 2
    for e in plane_events:
        assert e.convex and e.one_sided and e.special and e.side != 0
    word = loop_word(ch)
    assert free_reduce(word) == GammaWord()
    assert loop_word(reverse(ch)) == invert(word)


def test_nonconvex_crossing_is_not_special():
    # crossing point strictly inside triangle ABC
    ch = crossing(2, (4, 3), (pt3(2, 3, 7), pt3(6, 2, 5)))
    events = [e for e in trace3(ch) if e.subset.members == (1, 2, 3, 6)]
    assert len(events) == 1
    assert not events[0].convex and events[0].quad is None
    assert events[0].one_sided
    assert not events[0].special


def test_two_sided_crossing_is_not_special():
    ch = crossing(2, (11, 9), (pt3(2, 3, 7), pt3(6, 2, -5)))
    events = [e for e in trace3(ch) if e.subset.members == (1, 2, 3, 6)]
    assert len(events) == 1
    assert events[0].convex
    assert not events[0].one_sided and events[0].side == 0
    assert not events[0].special


def test_quad_letter_ignores_viewing_side():
    # reading the cyclic order from the other side reverses the cycle, which
    # the dihedral canonicalization absorbs
    ch = crossing(2, (11, 9), (pt3(2, 3, 7), pt3(6, 2, 5)))
    (e,) = [x for x in trace3(ch) if x.subset.members == (1, 2, 3, 6)]
    assert GammaGen(tuple(reversed(e.quad.cycle))) == e.quad


def test_labels_on_a_vertical_wall():
    # The wall of {1, 3, 4, 5} at t = 5/6 has normal (8, 4, 0): projected
    # along z it is a line, so its cyclic order must be read with x dropped.
    pts = (pt3(0, 0, 0), pt3(4, 0, 0), pt3(0, 0, 4), pt3(1, 3, 1), pt3(1, -2, 2))
    ch = Choreography(5, pts, (Move(4, pt3(1, -3, 1)),))
    events = trace3(ch)
    got = [(e.time, e.subset.members, e.quad, e.convex, e.one_sided, e.side) for e in events]
    assert got == [
        (Fraction(1, 2), (1, 2, 3, 4), None, False, True, -1),
        (Fraction(2, 3), (1, 2, 4, 5), None, False, True, 1),
        (Fraction(5, 6), (1, 3, 4, 5), GammaGen((1, 3, 5, 4)), True, True, -1),
    ]
    assert str(events[2].quad) == "d(1,3,5,4)"


def test_static_coplanar_quadruple_is_degenerate():
    pts = (A, B, C, pt3(7, 7, 0), pt3(1, 1, 5))
    ch = Choreography(5, pts, (Move(5, pt3(1, 1, 6)),))
    with pytest.raises(DegenerateError, match="four static points are coplanar"):
        trace3(ch)


def test_fifth_point_on_event_plane_is_degenerate():
    # the bystander sits exactly in the z=0 plane the mover crosses; with the
    # three points spanning that plane it is a static coplanar quadruple,
    # which the scan at the start of the segment names
    ch = crossing(1, (11, 9), (pt3(-6, 4, 0),))
    with pytest.raises(DegenerateError, match=r"four static points are coplanar .*\[1, 2, 3, 4\]"):
        trace3(ch)


def test_endpoint_wall_contact_is_degenerate():
    pts = (A, B, C, pt3(11, 9, 0))
    ch = Choreography(4, pts, (Move(4, pt3(11, 9, 5)),))
    with pytest.raises(DegenerateError, match=r"wall contact exactly at a waypoint .*\[t in t=0\]"):
        trace3(ch)


def test_collinear_triples_are_rejected():
    with pytest.raises(CollinearTripleError, match=r"points \(1, 2, 3\) collinear at waypoint 0"):
        Choreography(4, (A, B, pt3(20, 2, 0), pt3(1, 1, 1))).validate()
    # collinearity hit exactly at an event time
    ch = Choreography(
        4,
        (A, B, pt3(3, 9, 2), pt3(20, 2, -1)),
        (Move(4, pt3(20, 2, 1)),),
    )
    with pytest.raises(
        CollinearTripleError, match=r"points \(1, 2, 4\) collinear at event time t=1/2 of segment 0"
    ):
        trace3(ch)


def test_mover_crossing_a_line_is_a_collinear_triple():
    # at t=1/2 the mover passes through the line AB, so it crosses the planes
    # (A, B, 3) and (A, B, 4) at once; that moment is a collinear triple
    # through the mover, not five points on one plane
    ch = Choreography(
        5,
        (A, B, pt3(3, 9, 2), pt3(2, 3, 7), pt3(20, 2, -1)),
        (Move(5, pt3(20, 2, 1)),),
    )
    with pytest.raises(
        CollinearTripleError, match=r"points \(1, 2, 5\) collinear at event time t=1/2 of segment 0"
    ):
        trace3(ch)


def full_scan_outcome(ch):
    """trace3's outcome if every event time checked all triples through the
    mover on the whole grid scaled by its denominator: the error's class and
    message, or None."""

    def build(seg, grid, mover, g1, groups):
        g0 = grid[mover - 1]
        for group in groups:
            tau = group[0][0].exact
            p, q = tau.numerator, tau.denominator
            at = [tuple(q * v for v in pt) for pt in grid]
            at[mover - 1] = tuple(q * u + p * (w - u) for u, w in zip(g0, g1))
            require_no_collinear_triple(at, f"at event time t={tau} of segment {seg}", mover)
        return []

    try:
        wall_crossings(ch, tuple, ("coplanar", "plane"), build)
    except BraidGammaError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_pair_pruned_collinearity_matches_a_full_scan(n):
    # Plant a mover that passes through the line of two static points a, b
    # at a rational time, which is a wall time of every triple {a, b, c}.
    # n = 4 leaves one such triple.  Some plans meet another degeneracy
    # first; the pruned check must raise exactly what a full scan raises.
    rng = random.Random(1500 + n)

    def coord():
        return Fraction(rng.randrange(-40, 41), rng.randrange(1, 4))

    hits = late = 0
    for _ in range(40):
        pts = [pt3(coord(), coord(), coord()) for _ in range(n)]
        a, b, mover = rng.sample(range(n), 3)
        s = Fraction(rng.choice((-3, -1, 2, 4)), rng.randrange(1, 4))
        on_line = [u + s * (w - u) for u, w in zip(pts[a], pts[b])]
        tau = Fraction(rng.randrange(1, 7), 7)
        target = pt3(*(u + (p - u) / tau for u, p in zip(pts[mover], on_line)))
        moves = [Move(mover + 1, target)]
        if rng.random() < 0.5:  # a bystander moves first: the crossing is in segment 1
            other = rng.choice([k for k in range(n) if k not in (a, b, mover)])
            moves.insert(0, Move(other + 1, pt3(coord(), coord(), coord())))
        ch = Choreography(n, tuple(pts), tuple(moves))
        expected = full_scan_outcome(ch)
        try:
            trace3(ch)
            got = None
        except BraidGammaError as exc:
            got = type(exc), str(exc)
        assert got == expected, ch
        if expected and expected[0] is CollinearTripleError and "event time" in expected[1]:
            trio = tuple(sorted((a + 1, b + 1, mover + 1)))
            where = f"at event time t={tau} of segment {len(moves) - 1}"
            assert expected[1] == f"points {trio} collinear {where}"
            hits += 1
            late += len(moves) - 1
    assert hits >= 30 and late >= 10


def test_riding_a_plane_is_degenerate():
    # the mover slides inside the plane of A, B, C for the whole segment
    ch = Choreography(4, (A, B, C, pt3(11, 9, 0)), (Move(4, pt3(12, -5, 0)),))
    with pytest.raises(
        DegenerateError, match=r"tuple rides a common plane for a whole segment .*\[1, 2, 3, 4\]"
    ):
        trace3(ch)


def test_disjoint_quads_commute_at_invariant_level():
    # two far-apart clusters crossed in either order; the movers travel inside
    # thin slabs so only their own cluster plane is crossed
    far = 200
    q = Fraction(1, 40)
    D1 = (pt3(0, 0, 0), pt3(10, 1, 0), pt3(3, 9, 0))
    D2 = (pt3(far, 0, 50), pt3(far + 13, 2, 50), pt3(far + 4, 11, 50))
    m1_lo, m1_hi = pt3(11, 9, -q), pt3(11, 9, q)
    m2_lo, m2_hi = pt3(far + 15, 8, 50 - q), pt3(far + 15, 8, 50 + q)
    pts = D1 + D2 + (m1_lo, m2_lo)

    first_then_second = Choreography(
        8, pts,
        (Move(7, m1_hi), Move(7, m1_lo), Move(8, m2_hi), Move(8, m2_lo)),
        loop=True,
    )
    second_then_first = Choreography(
        8, pts,
        (Move(8, m2_hi), Move(8, m2_lo), Move(7, m1_hi), Move(7, m1_lo)),
        loop=True,
    )
    w1 = loop_word(first_then_second)
    w2 = loop_word(second_then_first)
    assert len(w1) == len(w2) == 4
    assert sorted(w1.letters) == sorted(w2.letters)
    assert {len(set(x.subset) & set(y.subset)) for x in w1 for y in w2} <= {0, 4}
    assert invariant_equal(w1, w2, 8)
    assert w1 != w2  # the orders genuinely differ


def detour_loop():
    """The mover rises through plane(A, B, C) outside triangle ABC and comes
    back down inside it: special, two-sided and non-convex events alike."""
    start = (A, B, C, pt3(2, 3, 7), pt3(6, 2, 5), pt3(11, 9, -4))
    path = (pt3(11, 9, 6), pt3(4, 3, 6), pt3(4, 3, -4), pt3(11, 9, -4))
    return Choreography(6, start, tuple(Move(6, p) for p in path), loop=True)


def test_events_to_word_is_the_loop_word_rule():
    ch = detour_loop()
    events = trace3(ch)
    assert any(not e.convex for e in events)
    assert any(e.convex and not e.special for e in events)
    assert any(e.special for e in events)
    # gamma: the letters of the special events only, as loop_word reads them
    assert events_to_word(events, "gamma") == loop_word(ch)
    assert len(loop_word(ch)) == sum(e.special for e in events)
    # g: every coplanarity moment gives its 4-subset
    assert events_to_word(events, "g").letters == tuple(e.subset for e in events)


def test_events_to_word_rejects_gammar_in_space_and_unknown_targets():
    spatial = trace3(detour_loop())
    with pytest.raises(ValidationError, match="spatial traces have no inside counts"):
        events_to_word(spatial, "gammar", 2)
    planar = trace(generator_choreography(4, 1, 2))
    for events in (spatial, planar):
        with pytest.raises(BraidGammaError, match="target must be one of"):
            events_to_word(events, "gammaR")
        with pytest.raises(BraidGammaError, match="requires target 'gammar'"):
            events_to_word(events, "gamma", 2)


def test_loop_word_requires_loop():
    ch = crossing(2, (11, 9), (pt3(2, 3, 7), pt3(6, 2, 5)))
    with pytest.raises(ValidationError):
        loop_word(ch)


def test_static_choreography_is_empty():
    ch = Choreography(4, (A, B, C, pt3(1, 1, 5)), (), loop=True)
    assert trace3(ch) == [] and loop_word(ch) == GammaWord()


def test_json_roundtrip_and_concat():
    ch = crossing(2, (11, 9), (pt3(2, 3, 7), pt3(6, 2, 5)), there_and_back=True)
    data = choreography_to_json(ch)
    assert data["dim"] == 3
    assert choreography_from_json(data) == ch
    both = concat(ch, ch)
    assert both.loop and len(both.moves) == 4
    assert choreography_from_json(data) == ch  # dim dispatch
