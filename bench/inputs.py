"""Seeded inputs for the three workloads, made without braidgamma's own
constructors (such as `generator_choreography` or `relation_instances`).

Every generator takes a `random.Random` and returns plain data (argv lists,
JSON-ready dicts, braid-word text).  A round is the fixed list of operation
kinds a workload repeats; the seed chooses the concrete inputs of each kind,
so the cost of a round barely depends on the seed.
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction

from geometry import (
    collinear3,
    incircle_poly,
    lerp,
    orient2,
    orient3d,
    resultant,
    segment_hits_point,
    sign,
    unit_root_count,
)


def rounds(seconds: float):
    """Yield round numbers while time is left: a round starts only if half a
    round (as long as the first one took) still fits, so every run does whole
    rounds and ends within half a round of `seconds`."""
    t0 = time.monotonic()
    yield 0
    first = time.monotonic() - t0
    k = 1
    while time.monotonic() - t0 + first / 2 < seconds:
        yield k
        k += 1


# ---------------------------------------------------------------------------
# check-literal
# ---------------------------------------------------------------------------

# (n, target, assembly) of one round; the seed picks r in {2, 3} for gammar
# and the order.  Targets and assemblies are fixed per slot because gammar
# costs about 25% more than gamma: a seeded choice would move the round's
# cost with the seed.  The n = 8 and n = 9 slots dominate the round (over 2 s
# each); the median is the mean of the n = 7 g and gamma slots.
CHECK_ROUND = (
    (6, "g", "doubled"), (6, "gamma", "flip"), (6, "gammar", "doubled"),
    (7, "g", "doubled"), (7, "gamma", "doubled"), (7, "gammar", "flip"),
    (8, "gammar", "flip"), (9, "g", "doubled"),
)


def check_round(rng) -> list[dict]:
    ops = []
    for n, target, assembly in CHECK_ROUND:
        r = rng.choice((2, 3)) if target == "gammar" else 1
        argv = ["check", "-n", str(n), "--target", target]
        if target == "gammar":
            argv += ["--r", str(r)]
        argv += ["--assembly", assembly, "--format", "json"]
        ops.append({"argv": argv, "n": n, "target": target, "r": r, "assembly": assembly})
    rng.shuffle(ops)
    return ops


def relation_count(n: int) -> int:
    """Instances of the printed presentation: 3 C(n,4) + 2 C(n,3)."""
    return 3 * math.comb(n, 4) + 2 * math.comb(n, 3)


# ---------------------------------------------------------------------------
# trace-mixed: planar loops over a parabola, spatial loops of random points
# ---------------------------------------------------------------------------

# (dimension, n, excursions) of one round.  An excursion moves one point out
# along two random waypoints and back home, so every choreography is a loop.
# Excursion counts are set so that every call costs about the same.
TRACE_ROUND = (
    (2, 5, 40), (2, 6, 14), (2, 7, 6),
    (3, 6, 15), (3, 7, 6), (3, 8, 3),
)


def _frac(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parabola_base(rng, n: int) -> list[tuple[int, int]]:
    """n points (x, x^2) with x growing about threefold per point.

    Four points of y = x^2 are concyclic only if their abscissae sum to 0, and
    three are never collinear, so positive abscissae give general position.
    """
    xs = [rng.randrange(2, 5)]
    for _ in range(n - 1):
        xs.append(3 * xs[-1] + rng.randrange(1, 4))
    return [(x, x * x) for x in xs]


def _planar_move_ok(cfg, mover: int, dest) -> bool:
    """General position of one planar segment, decided exactly.

    Rejects: a collision with a static point; a new collinear triple or a
    concyclic quadruple at the destination; tangential or waypoint wall
    contact; two wall crossings that could happen at one instant.
    """
    m0 = cfg[mover]
    if dest == m0 or dest in cfg:
        return False
    others = [p for k, p in enumerate(cfg) if k != mover]
    if any(segment_hits_point(m0, dest, s) for s in others):
        return False
    if any(orient2(a, b, dest) == 0 for a, b in itertools.combinations(others, 2)):
        return False
    crossing = []
    for a, b, c in itertools.combinations(others, 3):
        poly = incircle_poly(a, b, c, m0, dest)
        c0, c1, c2 = poly
        if c0 == 0 or c0 + c1 + c2 == 0:
            return False
        if c2 != 0 and c1 * c1 - 4 * c0 * c2 == 0:
            return False
        if unit_root_count(poly) and any(resultant(poly, q) == 0 for q in crossing):
            return False
        if unit_root_count(poly):
            crossing.append(poly)
    return True


def _stratified(rng, size: int, count: int) -> list[int]:
    """`count` values of range(size), each as often as possible, in seeded
    order: spreads the movers and the waypoint gaps evenly over a loop."""
    out = []
    while len(out) < count:
        block = list(range(size))
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def _loop_moves(rng, base, excursions: int, waypoints, move_ok) -> list:
    """(point, destination) moves of a loop: each excursion takes one point
    (spread evenly) to waypoints(step, point) and back home.  An excursion
    with a segment out of general position is drawn again."""
    cfg = list(base)
    moves = []
    movers = _stratified(rng, len(base), excursions)
    while len(moves) < 3 * excursions:
        step = len(moves) // 3
        k = movers[step]
        plan = waypoints(step, k) + [base[k]]
        trial = list(cfg)
        for dest in plan:
            if not move_ok(trial, k, dest):
                break
            trial[k] = dest
        else:
            cfg = trial
            moves.extend((k, dest) for dest in plan)
    return moves


def _choreo_json(dim: int, base, moves) -> dict:
    return {
        "n": len(base),
        "dim": dim,
        "points": [[_frac(v) for v in p] for p in base],
        "moves": [{"point": k + 1, "to": [_frac(v) for v in p]} for k, p in moves],
        "loop": True,
    }


def planar_loop(rng, n: int, excursions: int) -> dict:
    """Waypoints lie between two neighbouring base abscissae, within one
    vertical gap of the parabola."""
    base = parabola_base(rng, n)
    gaps = _stratified(rng, n - 1, 2 * excursions)

    def waypoints(step, k):
        out = []
        for lo in gaps[2 * step: 2 * step + 2]:
            x = base[lo][0] + rng.randrange(0, base[lo + 1][0] - base[lo][0] + 1)
            gap = base[lo + 1][1] - base[lo][1]
            out.append((x, x * x + rng.randrange(-gap, gap + 1)))
        return out

    return _choreo_json(2, base, _loop_moves(rng, base, excursions, waypoints, _planar_move_ok))


def _rational(rng, half_width: int) -> Fraction:
    """Roughly uniform on [-half_width, half_width], denominator 1..7."""
    q = rng.randrange(1, 8)
    return Fraction(rng.randrange(-half_width * q, half_width * q + 1), q)


def _step3(rng, p):
    """A waypoint within 60 of p in each coordinate, so that a move can cross
    the whole cloud (about 60 wide)."""
    return tuple(v + _rational(rng, 60) for v in p)


def _spatial_static_ok(pts) -> bool:
    return not any(
        collinear3(*t) for t in itertools.combinations(pts, 3)
    ) and all(orient3d(*q) != 0 for q in itertools.combinations(pts, 4))


def _spatial_move_ok(cfg, mover: int, dest) -> bool:
    """General position of one spatial segment: no collision, no coplanar
    quadruple or collinear triple at the destination, crossings at distinct
    instants, and no collinear triple at any crossing."""
    m0 = cfg[mover]
    if dest == m0 or dest in cfg:
        return False
    others = [p for k, p in enumerate(cfg) if k != mover]
    if any(segment_hits_point(m0, dest, s) for s in others):
        return False
    if any(collinear3(a, b, dest) for a, b in itertools.combinations(others, 2)):
        return False
    times = set()
    for a, b, c in itertools.combinations(others, 3):
        d0, d1 = orient3d(a, b, c, m0), orient3d(a, b, c, dest)
        if d0 == 0 or d1 == 0:
            return False
        if sign(d0) != sign(d1):
            tau = Fraction(d0, 1) / (d0 - d1)
            if tau in times:
                return False
            times.add(tau)
    for tau in times:
        at = lerp(m0, dest, tau)
        if any(collinear3(a, b, at) for a, b in itertools.combinations(others, 2)):
            return False
    return True


def _curve_point3(rng, t: int):
    """A point near (4t, t^2 - 20, t^3 / 12) on a twisted cubic, jittered by
    up to 2 per coordinate.  Points of a twisted cubic are in general
    position, and a cloud of fixed shape makes the number of planes a move
    crosses vary less with the seed than a uniformly random cloud does."""
    return (4 * t + _rational(rng, 2), t * t - 20 + _rational(rng, 2),
            Fraction(t ** 3, 12) + _rational(rng, 2))


def spatial_loop(rng, n: int, excursions: int) -> dict:
    while True:
        base = [_curve_point3(rng, 2 * k - (n - 1)) for k in range(n)]
        if _spatial_static_ok(base):
            break

    def waypoints(step, k):
        return [_step3(rng, base[k]), _step3(rng, base[k])]

    return _choreo_json(3, base, _loop_moves(rng, base, excursions, waypoints, _spatial_move_ok))


def trace_round(rng) -> list[dict]:
    ops = []
    for dim, n, excursions in TRACE_ROUND:
        make = planar_loop if dim == 2 else spatial_loop
        ops.append({"dim": dim, "n": n, "choreo": make(rng, n, excursions)})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# map-long
# ---------------------------------------------------------------------------

# (n, target, assembly, exponent magnitudes per strand pair) of the long
# words of one round, then of u in the u u^-1 input.  Each word is a seeded
# permutation of that fixed multiset of terms with seeded signs, so image
# lengths are the same for every seed.  The multisets are sized so that every
# operation costs about the same (concatenation is quadratic in the image
# length): the median is then taken over all operations, not one kind.
MAP_WORDS = (
    (8, "gamma", "flip", (1, 2, 3, 4)),
    (9, "g", "doubled", (2, 4, 6)),
    (10, "gammar", "flip", (1, 1)),
)
MAP_CANCEL = (9, "gamma", "doubled", (1, 2))


def _terms_text(terms) -> str:
    return " ".join(f"b({i},{j})" if e == 1 else f"b({i},{j})^{e}" for i, j, e in terms)


def inverse_terms(terms):
    return [(i, j, -e) for i, j, e in reversed(terms)]


def map_configs(rng) -> list[dict]:
    """Map configurations of one run: one per long word, then the u u^-1 one.

    Chosen once per run (only r is seeded), so that the warm-up covers all."""
    return [
        {"n": n, "target": target, "assembly": assembly,
         "r": rng.choice((2, 3)) if target == "gammar" else 1}
        for n, target, assembly, _ in MAP_WORDS + (MAP_CANCEL,)
    ]


def _seeded_terms(rng, n, mags):
    """All strand pairs with every magnitude in `mags`, seeded signs, in a
    seeded order that keeps every prefix's mix of pair spans and magnitudes
    the same.  Concatenating images costs the sum of the prefix lengths, so
    a plain shuffle would let that cost swing by several percent with the
    seed; interleaving classes evenly keeps it fixed."""
    classes: dict[tuple[int, int], list] = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        for m in mags:
            classes.setdefault((j - i, m), []).append((i, j, m * rng.choice((1, -1))))
    keyed = []
    for members in classes.values():
        rng.shuffle(members)
        offset = rng.random()
        keyed += [((k + offset) / len(members), t) for k, t in enumerate(members)]
    keyed.sort(key=lambda kt: kt[0])
    return [t for _, t in keyed]


def map_round(rng, configs) -> list[dict]:
    """Ops of one round: each long word w, then w^-1 (checked against w),
    then one u u^-1.  Order is fixed so that w^-1 follows its w."""
    ops = []
    for (n, _, _, mags), cfg in zip(MAP_WORDS, configs):
        terms = _seeded_terms(rng, n, mags)
        ops.append({**cfg, "text": _terms_text(terms), "role": "word"})
        ops.append({**cfg, "text": _terms_text(inverse_terms(terms)), "role": "inverse"})
    u = _seeded_terms(rng, MAP_CANCEL[0], MAP_CANCEL[3])
    ops.append({**configs[-1], "text": _terms_text(u + inverse_terms(u)), "role": "cancel"})
    return ops


def warmup_words(configs) -> list[dict]:
    """Set-up inputs for map-long: every generator once per config in use,
    so that the warm-up touches every cache a call could fill."""
    out = []
    for cfg in configs:
        n = cfg["n"]
        terms = [(i, j, 1) for i, j in itertools.combinations(range(1, n + 1), 2)]
        out.append({**cfg, "text": _terms_text(terms), "role": "warmup"})
    return out
