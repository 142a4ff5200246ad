import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidgamma.braids import parse_braid
from braidgamma.errors import (
    BraidGammaError,
    DegenerateError,
    EndpointMismatchError,
    UnstableWarning,
    ValidationError,
)
from braidgamma.exact import rat_from_str
from braidgamma.generators import GammaGen
from braidgamma.geom2d import (
    Choreography,
    Move,
    Pt2,
    _lift,
    _orient3d_raw,
    _plane,
    _wall_coeffs,
    base_config,
    braid_choreography,
    choreography_from_json,
    choreography_to_json,
    circumcenter,
    concat,
    events_to_word,
    generator_choreography,
    incircle_sign,
    orient2d,
    pt2,
    reverse,
    subdivide,
    trace,
)
from braidgamma.geom3d import loop_word, orient3d_sign, pt3, trace3
from braidgamma.homs import inside_count
from braidgamma.words import (
    GammaWord,
    MultiWord,
    free_reduce,
    invariant,
    invariant_equal,
    invert,
    pentagon_faces,
    word_to_text,
)


def incircle_det(a, b, c, p):
    """The 3x3 incircle determinant, rows (dx, dy, dx^2 + dy^2) of a, b, c
    relative to p, written out here as an oracle independent of the tracer."""
    px, py = p
    rows = [(x - px, y - py) for x, y in (a, b, c)]
    (ax, ay, a2), (bx, by, b2), (cx, cy, c2) = ((x, y, x * x + y * y) for x, y in rows)
    return ax * (by * c2 - b2 * cy) - ay * (bx * c2 - b2 * cx) + a2 * (bx * cy - by * cx)


def rnd_pt(rng, span=12, den=8):
    return pt2(
        Fraction(rng.randrange(-span * den, span * den), den),
        Fraction(rng.randrange(-span * den, span * den), den),
    )


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def test_incircle_examples():
    square = [pt2(0, 0), pt2(1, 0), pt2(1, 1), pt2(0, 1)]
    assert incircle_sign(*square) == 0
    assert incircle_sign(pt2(0, 0), pt2(4, 0), pt2(0, 4), pt2(1, 1)) > 0
    assert incircle_sign(pt2(0, 0), pt2(4, 0), pt2(0, 4), pt2(5, 5)) < 0
    collinear = [pt2(0, 0), pt2(1, 0), pt2(2, 0), pt2(3, 0)]
    assert incircle_sign(*collinear) == 0


def test_incircle_orientation_normalized():
    a, b, c, p = pt2(0, 0), pt2(4, 0), pt2(0, 4), pt2(1, 1)
    expected = incircle_sign(a, b, c, p)
    for perm in itertools.permutations((a, b, c)):
        assert incircle_sign(*perm, p) == expected


def test_incircle_against_circumcenter_oracle():
    rng = random.Random(71)
    checked = 0
    while checked < 500:
        a, b, c, p = (rnd_pt(rng) for _ in range(4))
        if orient2d(a, b, c) == 0:
            continue
        center = circumcenter(a, b, c)
        r2 = (a.x - center.x) ** 2 + (a.y - center.y) ** 2
        d2 = (p.x - center.x) ** 2 + (p.y - center.y) ** 2
        expected = (r2 > d2) - (r2 < d2)
        assert incircle_sign(a, b, c, p) == expected
        checked += 1


SEEDED = settings(max_examples=100, deadline=None, derandomize=True, database=None)
QUADS = st.one_of(
    *(
        st.lists(st.tuples(coord, coord), min_size=4, max_size=4)
        for coord in (st.integers(-50, 50), st.fractions(-9, 9, max_denominator=12))
    )
)


@SEEDED
@given(QUADS)
def test_orient3d_of_lifts_is_the_incircle_determinant(quad):
    # the lifting map: equal as values, not only in sign, on int and Fraction
    # quadruples, and on Pt2 points
    assert _orient3d_raw(*map(_lift, quad)) == incircle_det(*quad)
    pts = [pt2(x, y) for x, y in quad]
    assert _orient3d_raw(*map(_lift, pts)) == incircle_det(*pts)


@SEEDED
@given(st.lists(st.tuples(*[st.integers(-40, 40)] * 3), min_size=5, max_size=5))
def test_wall_coeffs_are_linear_on_a_spatial_segment(pts):
    # a spatial mover runs along a line, so orient3d is linear in t: c2 == 0
    a, b, c, m0, m1 = ((2 * x, 2 * y, 2 * z) for x, y, z in pts)
    mh = tuple((u + w) // 2 for u, w in zip(m0, m1))
    c0, c1, c2 = _wall_coeffs(_plane(a, b, c), m0, mh, m1)
    assert c2 == 0
    assert (c0, c0 + c1) == (_orient3d_raw(a, b, c, m0), _orient3d_raw(a, b, c, m1))


def test_base_config_properties():
    for n in (4, 5, 6, 7):
        pts = base_config(n)
        for quad in itertools.combinations(range(n), 4):
            assert incircle_sign(*(pts[k] for k in quad)) != 0
        for j, p, q in itertools.combinations(range(1, n + 1), 3):
            inside = [
                k
                for k in range(1, n + 1)
                if k not in (j, p, q)
                and incircle_sign(pts[j - 1], pts[p - 1], pts[q - 1], pts[k - 1]) > 0
            ]
            expected = [k for k in range(1, j)] + [k for k in range(p + 1, q)]
            assert inside == expected
            assert len(inside) == inside_count(j, p, q)


# ---------------------------------------------------------------------------
# choreography plumbing
# ---------------------------------------------------------------------------


# the plane itself, and an injective affine lift of it into space: every
# planar collision test below must come out the same in both
LIFTS = {2: pt2, 3: lambda x, y: pt3(x, y, x - 2 * y)}


def spatial_loop():
    """A loop whose mover crosses the plane of points 1, 2, 3 and comes back."""
    lo, hi = pt3(11, 9, -4), pt3(11, 9, 6)
    start = (pt3(0, 0, 0), pt3(10, 1, 0), pt3(3, 9, 0), pt3(2, 3, 7), pt3(6, 2, 5), lo)
    return Choreography(6, start, (Move(6, hi), Move(6, lo)), loop=True)


# one loop per dimension, with the word its tracer reads off it
LOOPS = {
    2: (lambda: generator_choreography(4, 1, 3), lambda ch: events_to_word(trace(ch), "gamma")),
    3: (spatial_loop, loop_word),
}


@pytest.mark.parametrize("dim", [2, 3])
def test_validation_catches_collisions(dim):
    p = LIFTS[dim]
    ch = Choreography(2, (p(0, 0), p(2, 0)), (Move(1, p(4, 0)),))
    with pytest.raises(ValidationError):
        ch.validate()  # point 1 passes through point 2
    ok = Choreography(2, (p(0, 0), p(2, 0)), (Move(1, p(1, 0)),))
    ok.validate()
    with pytest.raises(ValidationError):
        Choreography(2, (p(0, 0), p(0, 0))).validate()
    with pytest.raises(ValidationError):
        Choreography(2, (p(0, 0), p(2, 0)), (Move(1, p(1, 1)),), loop=True).validate()


def test_dimension_is_read_from_the_points():
    planar, spatial = LOOPS[2][0](), LOOPS[3][0]()
    assert (planar.dim, spatial.dim) == (2, 3)
    mixed = Choreography(2, (pt2(0, 0), pt2(2, 0)), (Move(1, pt3(1, 1, 1)),))
    with pytest.raises(ValidationError):
        mixed.validate()
    with pytest.raises(ValidationError):
        trace(spatial)
    with pytest.raises(ValidationError):
        trace3(planar)


@pytest.mark.parametrize("dim", [2, 3])
def test_reverse_subdivide_and_position(dim):
    make, word_of = LOOPS[dim]
    ch = make()
    assert reverse(reverse(ch)) == ch
    word = word_of(ch)
    for seg in range(len(ch.moves)):
        assert word_of(subdivide(ch, seg, Fraction(1, 3))) == word
    configs = ch.configs()
    assert [ch.position(k) for k in range(len(configs))] == configs
    assert ch.position(Fraction(4, 3)) == subdivide(ch, 1, Fraction(1, 3)).configs()[2]


def test_concat_endpoint_check():
    ch = generator_choreography(4, 1, 2)
    with pytest.raises(EndpointMismatchError):
        concat(ch, Choreography(4, ch.configs()[3], ()))
    both = concat(ch, ch)
    assert both.loop


@pytest.mark.parametrize("dim", [2, 3])
def test_json_roundtrip(dim):
    ch = LOOPS[dim][0]()
    data = choreography_to_json(ch)
    assert data["dim"] == dim and data["loop"] is True
    assert choreography_from_json(data) == ch
    with pytest.raises(ValidationError):
        choreography_from_json({"n": 2, "dim": 5})


def test_rat_from_str_accepts_ascii_rationals_only():
    for text, value in (("3", 3), ("-3", -3), ("6/8", Fraction(3, 4)), ("-0/5", 0)):
        assert rat_from_str(text) == value
    for text in ("1_0", " 7 ", "\u0663", "+3", "3/-4", "3/0", "", "-", "3/", "1.5", "1/2/3", 7):
        with pytest.raises(ValidationError):
            rat_from_str(text)


# ---------------------------------------------------------------------------
# tracing: walls, tangencies, degeneracies
# ---------------------------------------------------------------------------


SQUARE = (pt2(0, 0), pt2(4, 0), pt2(0, 4))  # circumcircle center (2,2), r^2=8


def crossing_choreography(extra=()):
    pts = SQUARE + tuple(extra) + (pt2(6, 6),)
    n = len(pts)
    return Choreography(n, pts, (Move(n, pt2(3, 3)), Move(n, pt2(6, 6))), loop=True), n


def test_static_configuration_traces_empty():
    ch = Choreography(4, SQUARE + (pt2(9, 1),), (), loop=True)
    assert trace(ch) == []


def test_in_and_out_crossing_cancels():
    ch, n = crossing_choreography()
    events = trace(ch)
    assert len(events) == 2
    assert events[0].quad == events[1].quad == GammaGen((1, 2, 4, 3))
    assert events[0].subset.members == (1, 2, 3, 4)
    assert [e.inside for e in events] == [0, 0]
    word = events_to_word(events, "gamma")
    assert free_reduce(word) == GammaWord()
    # with one bystander inside the circle, the two slotted letters still cancel
    ch5, _ = crossing_choreography(extra=(pt2(2, 2),))
    events5 = trace(ch5)
    assert [e.inside for e in events5] == [1, 1]
    word2 = events_to_word(events5, "gammar", 2)
    assert free_reduce(word2) == MultiWord(2)


def test_tangency_warns_and_emits_nothing():
    # path along the tangent line at (4,4), there and back
    pts = SQUARE + (pt2(2, 6),)
    ch = Choreography(4, pts, (Move(4, pt2(6, 2)), Move(4, pt2(2, 6))), loop=True)
    with pytest.warns(UnstableWarning):
        events = trace(ch)
    assert events == []


def test_static_concyclic_quadruple_is_degenerate():
    pts = (pt2(0, 0), pt2(4, 0), pt2(4, 4), pt2(0, 4), pt2(9, 1))
    ch = Choreography(5, pts, (Move(5, pt2(10, 1)),))
    with pytest.raises(DegenerateError, match="four static points are concyclic or collinear"):
        trace(ch)


CIRCLE5 = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3),
           (-5, 0), (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3)]


@pytest.mark.parametrize("dim", [2, 3])
def test_static_scan_at_later_segments_matches_a_full_scan(dim):
    # Four points planted on a circle (lifted onto a plane in space) are a
    # static degeneracy.  Null moves of its points carry it past segment 0
    # unscanned, so the error fires at a later segment; it must name the
    # segment, quadruple and message that a full scan of every segment finds.
    rng = random.Random(1100 + dim)
    lift = LIFTS[dim]
    if dim == 2:
        noun, degenerate = "concyclic or collinear", lambda q: incircle_sign(*q) == 0
    else:
        noun, degenerate = "coplanar", lambda q: orient3d_sign(*q) == 0

    def point():
        return pt2(*(rng.randrange(-7, 8) for _ in range(2))) if dim == 2 else pt3(
            *(rng.randrange(-7, 8) for _ in range(3)))

    late = 0
    for _ in range(60):
        n = rng.randrange(5, 8)
        quad = sorted(rng.sample(range(1, n + 1), 4))
        cx, cy = rng.randrange(-3, 4), rng.randrange(-3, 4)
        planted = [lift(cx + x, cy + y) for x, y in rng.sample(CIRCLE5, 4)]
        start = [planted.pop() if k in quad else point() for k in range(1, n + 1)]
        nulls = [rng.choice(quad) if rng.random() < 0.8 else rng.randrange(1, n + 1)
                 for _ in range(rng.randrange(1, 5))]
        moves = [Move(k, start[k - 1]) for k in nulls]
        mover = rng.randrange(1, n + 1)
        moves.append(Move(mover, point()))
        ch = Choreography(n, tuple(start), tuple(moves))
        try:
            ch.validate()
        except BraidGammaError:  # coincident points, or collinear in space
            continue
        # full scans up to the first real move, the last segment scanned
        # before any crossing is sought
        expected = None
        for seg, config in enumerate(ch.configs()[: len(moves)]):
            others = [k for k in range(1, n + 1) if k != moves[seg].point]
            for q in itertools.combinations(others, 4):
                if degenerate([config[k - 1] for k in q]):
                    expected = DegenerateError(
                        f"four static points are {noun}", segment=seg, subsets=[q])
                    break
            if expected:
                break
        if expected is None:
            continue
        with pytest.raises(DegenerateError) as info:
            (trace if dim == 2 else trace3)(ch)
        got = info.value
        assert (got.segment, got.subsets, str(got)) == (
            expected.segment, expected.subsets, str(expected))
        late += expected.segment > 0
    assert late >= 10


def test_wall_contact_at_waypoint_is_degenerate():
    pts = SQUARE + (pt2(4, 4),)  # mover starts exactly on the circumcircle
    ch = Choreography(4, pts, (Move(4, pt2(6, 6)),))
    with pytest.raises(DegenerateError, match=r"wall contact exactly at a waypoint .*\[t in t=0\]"):
        trace(ch)


def test_riding_a_wall_is_degenerate():
    pts = (pt2(0, 0), pt2(1, 0), pt2(2, 0), pt2(5, 0))
    ch = Choreography(4, pts, (Move(4, pt2(3, 0)),))
    with pytest.raises(DegenerateError, match="tuple rides a common circle for a whole segment"):
        trace(ch)


def test_collinear_wall_events():
    # three collinear statics, mover crossing their line: order closes up
    # projectively; the inside count needs balanced bystanders
    pts = (pt2(0, 0), pt2(1, 0), pt2(3, 0), pt2(2, -1))
    ch = Choreography(4, pts, (Move(4, pt2(2, 1)),))
    events = trace(ch)
    assert len(events) == 1
    assert events[0].collinear_wall
    assert events[0].quad == GammaGen((1, 2, 4, 3))
    assert events[0].inside == 0

    unbalanced = Choreography(5, pts + (pt2(10, 5),), (Move(4, pt2(2, 1)),))
    with pytest.raises(DegenerateError, match="inside count disagrees on the two sides"):
        trace(unbalanced)

    balanced = Choreography(
        6, pts + (pt2(10, 5), pt2(-7, -4)), (Move(4, pt2(2, 1)),)
    )
    line_events = [e for e in trace(balanced) if e.collinear_wall]
    assert len(line_events) == 1 and line_events[0].inside == 1


def test_collinear_wall_error_names_its_crossing_time():
    # the mover crosses the line y = 0 of points 1, 2, 3 at t = 1/3, where
    # incircle is linear in the mover, so the crossing time is rational
    pts = (pt2(0, 0), pt2(1, 0), pt2(3, 0), pt2(2, -1), pt2(10, 5))
    ch = Choreography(5, pts, (Move(4, pt2(2, 2)),))
    with pytest.raises(DegenerateError, match=r"\[t in \{1/3\}\]") as info:
        trace(ch)
    assert info.value.window == "{1/3}"
    assert info.value.segment == 0 and info.value.subsets == ((1, 2, 3, 4),)


def test_event_quad_absorbs_orientation():
    # reading the circle clockwise instead of counterclockwise reverses the
    # cycle, which the dihedral canonicalization absorbs
    ch, _ = crossing_choreography()
    for e in trace(ch):
        assert GammaGen(tuple(reversed(e.quad.cycle))) == e.quad


def test_pentagon_wall_reduces_to_zero_class():
    q4y = Fraction(3) - Fraction(1, 100)
    start = (pt2(5, 0), pt2(3, 4), pt2(0, 5), pt2(-4, q4y), pt2(Fraction(-9, 4), -3))
    ch = Choreography(
        5,
        start,
        (
            Move(5, pt2(Fraction(-15, 4), -5)),
            Move(4, pt2(-4, Fraction(3) + Fraction(1, 100))),
        ),
    )
    events = trace(ch)
    assert len(events) == 5
    word = events_to_word(events, "gamma")
    assert sorted(word.letters) == sorted(pentagon_faces((1, 2, 3, 4, 5)))
    assert invariant(word, 5).is_zero()
    # a proper sub-word misses one face and is not a relation
    assert not invariant(GammaWord(word.letters[:4]), 5).is_zero()


def test_event_count_matches_dense_sampling():
    # per 4-tuple, the number of events equals the number of exact sign
    # changes of its polynomial over a fine rational grid
    rng = random.Random(73)
    built = 0
    while built < 12:
        pts = tuple(rnd_pt(rng) for _ in range(4)) + (rnd_pt(rng),)
        target = rnd_pt(rng)
        ch = Choreography(5, pts, (Move(5, target),))
        try:
            ch.validate()
            events = trace(ch)
        except (ValidationError, DegenerateError):
            continue
        built += 1
        N = 256
        for triple in itertools.combinations(range(1, 5), 3):
            a, b, c = (pts[k - 1] for k in triple)
            vals = []
            for s in range(N + 1):
                t = Fraction(s, N)
                m = Pt2(
                    pts[4].x + t * (target.x - pts[4].x),
                    pts[4].y + t * (target.y - pts[4].y),
                )
                vals.append(incircle_det(a, b, c, m))
            changes = sum(
                1
                for u, v in zip(vals, vals[1:])
                if u != 0 and v != 0 and (u > 0) != (v > 0)
            ) + sum(1 for v in vals[1:-1] if v == 0)
            got = sum(
                1 for e in events if set(e.subset.members) == set(triple) | {5}
            )
            assert got == changes


def test_event_order_matches_root_floors():
    # exact ordering across tuples agrees with floor(2^64 t), which
    # refine computes apart from the comparisons, for every pair of events
    rng = random.Random(83)
    built = 0
    while built < 15:
        pts = tuple(rnd_pt(rng) for _ in range(5))
        target = rnd_pt(rng)
        ch = Choreography(5, pts, (Move(5, target),))
        try:
            ch.validate()
            events = trace(ch)
        except (ValidationError, DegenerateError):
            continue
        if len(events) < 2:
            continue
        built += 1
        floors = [e.time.refine(64) for e in events]
        assert floors == sorted(floors)


# ---------------------------------------------------------------------------
# the standard generator choreography
# ---------------------------------------------------------------------------


def test_generator_choreography_shape():
    ch = generator_choreography(5, 2, 4)
    assert ch.loop and len(ch.moves) == 12
    assert sorted({m.point for m in ch.moves}) == [2, 4]
    with pytest.raises(ValidationError):
        generator_choreography(4, 3, 3)


def test_generator_choreography_trace_regression():
    # Frozen from the first audited run: the two-strand twist on adjacent
    # strands at n=4 crosses exactly two walls.
    word = events_to_word(trace(generator_choreography(4, 1, 2)), "gamma")
    assert word_to_text(word) == "d(1,2,4,3) d(1,2,3,4)"
    counts = {}
    for n, i, j in ((4, 1, 3), (5, 1, 2), (5, 2, 4)):
        counts[(n, i, j)] = len(trace(generator_choreography(n, i, j)))
    assert counts == {(4, 1, 3): 2, (5, 1, 2): 6, (5, 2, 4): 10}


def test_trace_respects_concat_and_reverse():
    ch = generator_choreography(4, 1, 3)
    word = events_to_word(trace(ch), "gamma")
    # reverse traces to the inverted word
    assert events_to_word(trace(reverse(ch)), "gamma") == invert(word)
    # concat traces to the concatenation
    head = Choreography(4, ch.start, ch.moves[:6])
    tail = Choreography(4, head.end, ch.moves[6:])
    assert events_to_word(trace(concat(head, tail)), "gamma") == word
    both = concat(ch, reverse(ch))
    assert free_reduce(events_to_word(trace(both), "gamma")) == GammaWord()


def test_loop_word_invariant_stable_under_perturbation():
    # fixed corpus: subdivision and small waypoint nudges keep the class
    ch = generator_choreography(4, 1, 2)
    cls = invariant(events_to_word(trace(ch), "gamma"), 4)
    assert invariant(
        events_to_word(trace(subdivide(ch, 4, Fraction(1, 3))), "gamma"), 4
    ) == cls
    nudges = [
        (1, Fraction(3, 7), Fraction(-5, 9)),
        (4, Fraction(-2, 5), Fraction(4, 11)),
        (7, Fraction(1, 13), Fraction(1, 17)),
    ]
    for seg, dx, dy in nudges:
        moves = list(ch.moves)
        old = moves[seg]
        moves[seg] = Move(old.point, Pt2(old.to.x + dx, old.to.y + dy))
        # the nudged waypoint is interior, so the loop flag must be dropped
        # only if it broke closure; these nudges keep endpoints fixed
        perturbed = Choreography(ch.n, ch.start, tuple(moves), loop=ch.loop)
        perturbed.validate()
        assert invariant(events_to_word(trace(perturbed), "gamma"), 4) == cls


def test_traced_relation_spot_checks():
    from braidgamma.braids import relation_instances

    insts = relation_instances(4)
    for inst in [insts[0], insts[2], insts[-1]]:
        lw = events_to_word(trace(braid_choreography(inst.lhs)), "gamma")
        rw = events_to_word(trace(braid_choreography(inst.rhs)), "gamma")
        assert invariant_equal(lw, rw, 4), (inst.family, inst.indices)


def test_braid_choreography_inverse_pairs():
    w = parse_braid("b(1,3) b(1,3)^-1", 4)
    word = events_to_word(trace(braid_choreography(w)), "gamma")
    assert free_reduce(word) == GammaWord()
