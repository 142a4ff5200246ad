"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; any assertion failure marks the criterion failed.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from braidgamma.braids import BraidWord, parse_braid, print_braid, relation_instances
from braidgamma.errors import (
    CollinearTripleError,
    DegenerateError,
    UnstableWarning,
    ValidationError,
)
from braidgamma.generators import BraidGen
from braidgamma.geom2d import (
    Choreography,
    Move,
    base_config,
    braid_choreography,
    circumcenter,
    events_to_word,
    incircle_sign,
    orient2d,
    pt2,
    reverse,
    trace,
)
from braidgamma.geom3d import loop_word, orient3d_sign, pt3, trace3
from braidgamma.homs import HomConfig, inside_count, letter_slot, map_braid
from braidgamma.words import (
    GammaWord,
    free_reduce,
    invariant,
    invariant_equal,
    invert,
    parse_word,
    word_to_text,
)


def report(num, name):
    print(f"criterion {num} ({name}): PASS")


# ---------------------------------------------------------------------------
# 1. relation preservation, literal mode, n in {4,5,6}, four maps, < 60 s at n=6
# ---------------------------------------------------------------------------


def test_criterion_01_relation_preservation_literal():
    elapsed_n6 = 0.0
    for n in (4, 5, 6):
        configs = [
            HomConfig(n, target="g"),
            HomConfig(n),
            HomConfig(n, target="gammar", r=2),
            HomConfig(n, target="gammar", r=3),
        ]
        start = time.perf_counter()
        insts = relation_instances(n)
        for cfg in configs:
            for inst in insts:
                assert invariant_equal(
                    map_braid(cfg, inst.lhs), map_braid(cfg, inst.rhs), n
                ), (n, cfg.target, cfg.r, inst.family, inst.indices)
        if n == 6:
            elapsed_n6 = time.perf_counter() - start
    assert elapsed_n6 < 60.0, f"n=6 sweep took {elapsed_n6:.1f}s"
    report(1, f"literal relation preservation, n=6 in {elapsed_n6:.1f}s")


# ---------------------------------------------------------------------------
# 2. relation preservation, traced mode, n = 5, < 10 min
# ---------------------------------------------------------------------------


def test_criterion_02_relation_preservation_traced():
    n = 5
    start = time.perf_counter()
    for inst in relation_instances(n):
        lhs = events_to_word(trace(braid_choreography(inst.lhs)), "gamma")
        rhs = events_to_word(trace(braid_choreography(inst.rhs)), "gamma")
        assert invariant_equal(lhs, rhs, n), (inst.family, inst.indices)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"traced sweep took {elapsed:.1f}s"
    report(2, f"traced relation preservation, n=5 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. slot arithmetic agrees with the two-case parity table, n <= 10, < 1 s
# ---------------------------------------------------------------------------


def test_criterion_03_slot_parity_table():
    def table(p, q, i, j):
        lo, mid, hi = sorted((p, q, j))
        parity = (j + p + q) % 2
        outside = (lo < i < mid) or i > hi
        return (0 if parity == 0 else 1) if outside else (1 if parity == 0 else 0)

    start = time.perf_counter()
    checked = 0
    for p, q, i, j in itertools.permutations(range(1, 11), 4):
        assert letter_slot(p, q, i, j, 2) == table(p, q, i, j), (p, q, i, j)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 10 * 9 * 8 * 7
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    report(3, f"{checked} slot values vs parity table in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. inside counts match exact counting on the base configuration, n <= 9, < 5 s
# ---------------------------------------------------------------------------


def test_criterion_04_inside_counts_on_base_config():
    start = time.perf_counter()
    for n in range(4, 10):
        pts = base_config(n)
        for j, p, q in itertools.combinations(range(1, n + 1), 3):
            inside = []
            for k in range(1, n + 1):
                if k in (j, p, q):
                    continue
                s = incircle_sign(pts[j - 1], pts[p - 1], pts[q - 1], pts[k - 1])
                assert s != 0
                if s > 0:
                    inside.append(k)
            expected = [k for k in range(1, j)] + [k for k in range(p + 1, q)]
            assert inside == expected
            assert len(inside) == inside_count(j, p, q)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    report(4, f"inside counts for n<=9 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5. pentagon wall: five events, zero invariant class
# ---------------------------------------------------------------------------


def test_criterion_05_pentagon_wall():
    start = (
        pt2(5, 0),
        pt2(3, 4),
        pt2(0, 5),
        pt2(-4, Fraction(3) - Fraction(1, 100)),
        pt2(Fraction(-9, 4), -3),
    )
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
    assert invariant(word, 5).is_zero()
    report(5, "5-event near-cocircular choreography has zero class")


# ---------------------------------------------------------------------------
# 6. square-of-a-letter wall and the tangency variant
# ---------------------------------------------------------------------------


def test_criterion_06_involution_wall_and_tangency():
    statics = (pt2(0, 0), pt2(4, 0), pt2(0, 4))
    crossing = Choreography(
        4, statics + (pt2(6, 6),), (Move(4, pt2(3, 3)), Move(4, pt2(6, 6))), loop=True
    )
    events = trace(crossing)
    assert len(events) == 2 and events[0].quad == events[1].quad
    assert free_reduce(events_to_word(events, "gamma")) == GammaWord()

    tangent = Choreography(
        4, statics + (pt2(2, 6),), (Move(4, pt2(6, 2)), Move(4, pt2(2, 6))), loop=True
    )
    with pytest.warns(UnstableWarning):
        assert trace(tangent) == []
    report(6, "in-and-out crossing cancels; tangency warns and emits nothing")


# ---------------------------------------------------------------------------
# 7. predicate oracles, 10^4 random rational inputs each, < 10 s
# ---------------------------------------------------------------------------


def _orient3d_cofactor(a, b, c, d):
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


def test_criterion_07_predicate_oracles():
    rng = random.Random(20250810)
    start = time.perf_counter()

    def rnd2():
        return pt2(Fraction(rng.randrange(-96, 97), 8), Fraction(rng.randrange(-96, 97), 8))

    checked = 0
    while checked < 10_000:
        a, b, c, p = rnd2(), rnd2(), rnd2(), rnd2()
        if orient2d(a, b, c) == 0:
            continue
        center = circumcenter(a, b, c)
        r2 = (a.x - center.x) ** 2 + (a.y - center.y) ** 2
        d2 = (p.x - center.x) ** 2 + (p.y - center.y) ** 2
        assert incircle_sign(a, b, c, p) == (r2 > d2) - (r2 < d2)
        checked += 1

    def rnd3():
        return pt3(
            Fraction(rng.randrange(-96, 97), 8),
            Fraction(rng.randrange(-96, 97), 8),
            Fraction(rng.randrange(-96, 97), 8),
        )

    for _ in range(10_000):
        a, b, c, d = rnd3(), rnd3(), rnd3(), rnd3()
        assert orient3d_sign(a, b, c, d) == _orient3d_cofactor(a, b, c, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    report(7, f"2x10^4 predicate comparisons in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 8. spatial special-moment filter vs a dense-sampling oracle, 50 choreographies
# ---------------------------------------------------------------------------


def _segments_cross(a, b, c, d):
    def o(p, q, r):
        return ((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]) > 0) - (
            (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]) < 0
        )

    return o(a, b, c) * o(a, b, d) < 0 and o(c, d, a) * o(c, d, b) < 0


def _oracle_events(ch: Choreography):
    """Brute-force event finder: dense sign sampling per tuple (the
    determinant is linear in t, so any grid brackets every root), exact root
    by linear interpolation, convexity by the crossing-diagonals rule."""
    out = []
    configs = ch.configs()
    N = 16
    for seg, move in enumerate(ch.moves):
        cfg = configs[seg]
        mover = move.point
        m0, m1 = cfg[mover - 1], move.to
        for triple in itertools.combinations(
            [k for k in range(1, ch.n + 1) if k != mover], 3
        ):
            a, b, c = (cfg[k - 1] for k in triple)
            vals = []
            for s in range(N + 1):
                t = Fraction(s, N)
                m = pt3(
                    m0.x + t * (m1.x - m0.x),
                    m0.y + t * (m1.y - m0.y),
                    m0.z + t * (m1.z - m0.z),
                )
                vals.append(
                    (
                        t,
                        (a.x - m.x)
                        * ((b.y - m.y) * (c.z - m.z) - (b.z - m.z) * (c.y - m.y))
                        - (a.y - m.y)
                        * ((b.x - m.x) * (c.z - m.z) - (b.z - m.z) * (c.x - m.x))
                        + (a.z - m.z)
                        * ((b.x - m.x) * (c.y - m.y) - (b.y - m.y) * (c.x - m.x)),
                    )
                )
            for (t0, v0), (t1, v1) in zip(vals, vals[1:]):
                if v0 == 0 or v1 == 0 or (v0 > 0) == (v1 > 0):
                    continue
                tau = t0 - v0 * (t1 - t0) / (v1 - v0)  # exact for a linear form
                at = list(cfg)
                at[mover - 1] = pt3(
                    m0.x + tau * (m1.x - m0.x),
                    m0.y + tau * (m1.y - m0.y),
                    m0.z + tau * (m1.z - m0.z),
                )
                quad_ids = tuple(sorted(triple + (mover,)))
                # project out the dominant normal coordinate
                u = tuple(b_i - a_i for b_i, a_i in zip(tuple(b), tuple(a)))
                v = tuple(c_i - a_i for c_i, a_i in zip(tuple(c), tuple(a)))
                normal = (
                    u[1] * v[2] - u[2] * v[1],
                    u[2] * v[0] - u[0] * v[2],
                    u[0] * v[1] - u[1] * v[0],
                )
                axis = max(range(3), key=lambda k: abs(normal[k]))
                keep = [k for k in range(3) if k != axis]
                flat = {
                    k: (tuple(at[k - 1])[keep[0]], tuple(at[k - 1])[keep[1]])
                    for k in quad_ids
                }
                i1, i2, i3, i4 = quad_ids
                pairings = [
                    ((i1, i2), (i3, i4)),
                    ((i1, i3), (i2, i4)),
                    ((i1, i4), (i2, i3)),
                ]
                crossings = sum(
                    1
                    for (x1, x2), (y1, y2) in pairings
                    if _segments_cross(flat[x1], flat[x2], flat[y1], flat[y2])
                )
                convex = crossings == 1
                sides = set()
                for k in range(1, ch.n + 1):
                    if k in quad_ids:
                        continue
                    sides.add(orient3d_sign(at[triple[0] - 1], at[triple[1] - 1],
                                            at[triple[2] - 1], at[k - 1]))
                special = convex and len(sides) == 1 and 0 not in sides
                out.append((seg, tau, quad_ids, special))
    out.sort(key=lambda e: (e[0], e[1], e[2]))
    return out


def _corpus_choreography(k: int) -> Choreography:
    """50 varied crossings: convex/non-convex quadrilateral, one/two-sided
    bystanders, jiggled by k to stay generic."""
    d1 = Fraction(k % 7, 13)
    d2 = Fraction(k % 5, 11)
    A = pt3(0, d2, 0)
    B = pt3(10, 1 + d1, 0)
    C = pt3(3, 9, d2 / 7)
    variant = k % 4
    cross_xy = {
        0: (11 + d1, 9 - d2),  # outside the triangle: convex
        1: (4 + d1, 3 + d2),  # inside: not convex
        2: (12 - d2, 8 + d1),  # convex again
        3: (5 - d2, 4 - d1),  # inside again
    }[variant]
    two_sided = k % 3 == 0
    e2z = -5 - d1 if two_sided else 5 + d1
    E1 = pt3(2 + d2, 3, 7 + d1)
    E2 = pt3(6, 2 + d1, e2z)
    lo = pt3(cross_xy[0], cross_xy[1], -4 - d2)
    hi = pt3(cross_xy[0], cross_xy[1], 6 + d1)
    return Choreography(
        6, (A, B, C, E1, E2, lo), (Move(6, hi), Move(6, lo)), loop=True
    )


def test_criterion_08_spatial_special_filter():
    built = checked_special = 0
    k = 0
    while built < 50:
        k += 1
        ch = _corpus_choreography(k)
        try:
            events = trace3(ch)
        except (DegenerateError, CollinearTripleError, ValidationError):
            continue  # a jiggle landed on a degenerate configuration: skip it
        built += 1
        oracle = _oracle_events(ch)
        got = [(e.segment, e.time, e.subset.members, e.special) for e in events]
        assert got == oracle, f"corpus item {k}"
        checked_special += sum(1 for e in events if e.special)
        word = loop_word(ch)
        assert loop_word(reverse(ch)) == invert(word)
    assert checked_special > 0
    report(8, f"50 spatial choreographies match the sampling oracle "
              f"({checked_special} special events)")


# ---------------------------------------------------------------------------
# 9. slot erasure identity on 100 random braid words
# ---------------------------------------------------------------------------


def test_criterion_09_slot_erasure():
    rng = random.Random(909)
    done = 0
    while done < 100:
        n = rng.randrange(4, 7)
        letters = []
        for _ in range(rng.randrange(5)):
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            letters.append(BraidGen(i, j, rng.choice([-2, -1, 1, 2])))
        w = BraidWord(n, tuple(letters))
        for r in (1, 2, 3):
            mw = map_braid(HomConfig(n, target="gammar", r=r), w, reduced=False)
            gw = map_braid(HomConfig(n), w, reduced=False)
            assert GammaWord(tuple(g for _, g in mw.letters)) == gw
        done += 1
    report(9, "slot erasure recovers the unslotted image on 100 words")


# ---------------------------------------------------------------------------
# 10. parser round-trips on a 200-word corpus covering every production
# ---------------------------------------------------------------------------


def test_criterion_10_parser_roundtrip():
    rng = random.Random(1010)

    def sprinkle(text):
        # random but legal whitespace turbulence between letters
        out = " " * rng.randrange(3)
        for ch in text:
            out += ch
            if ch == " ":
                out += " " * rng.randrange(3)
        return out + " " * rng.randrange(3)

    corpus = 0
    for _ in range(60):  # braid words, with and without exponents
        n = rng.randrange(2, 9)
        letters = []
        for _ in range(rng.randrange(5)):
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            letters.append(BraidGen(i, j, rng.choice([-3, -1, 1, 2])))
        w = BraidWord(n, tuple(letters))
        text = print_braid(w)
        assert parse_braid(sprinkle(text), n) == w
        assert print_braid(parse_braid(text, n)) == text
        corpus += 1
    for _ in range(50):  # 4-subset words
        letters = " ".join(
            "a{%d,%d,%d,%d}" % tuple(rng.sample(range(1, 10), 4))
            for _ in range(rng.randrange(4))
        )
        w = parse_word(sprinkle(letters), target="g")
        assert parse_word(word_to_text(w), target="g") == w
        corpus += 1
    for _ in range(50):  # cyclic-quadruple words, canonicalized on read
        letters = " ".join(
            "d(%d,%d,%d,%d)" % tuple(rng.sample(range(1, 10), 4))
            for _ in range(rng.randrange(4))
        )
        w = parse_word(sprinkle(letters), target="gamma")
        assert parse_word(word_to_text(w), target="gamma") == w
        corpus += 1
    for _ in range(40):  # slot-tagged words
        r = rng.randrange(1, 4)
        letters = " ".join(
            "[%d]d(%d,%d,%d,%d)" % (rng.randrange(r), *rng.sample(range(1, 10), 4))
            for _ in range(rng.randrange(4))
        )
        w = parse_word(sprinkle(letters), r, "gammar")
        assert parse_word(word_to_text(w), r, "gammar") == w
        corpus += 1
    assert corpus == 200
    report(10, "200-word parser corpus round-trips")
