import decimal
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidgamma import geom2d
from braidgamma.errors import ValidationError
from braidgamma.geom2d import _group_by_time
from braidgamma.roots import (
    AlgebraicRoot,
    ConstantZero,
    EndpointZero,
    dyadic_level,
    time_key,
    isolate_unit_roots,
)


def poly_of_roots(r1, r2, scale=1):
    """Integer coefficients of scale * (t - r1)(t - r2) cleared of denominators."""
    c0 = r1 * r2 * scale
    c1 = -(r1 + r2) * scale
    c2 = scale
    den = math.lcm(
        Fraction(c0).denominator, Fraction(c1).denominator, Fraction(c2).denominator
    )
    return (int(c0 * den), int(c1 * den), int(c2 * den))


def test_linear_roots():
    roots, tang = isolate_unit_roots((-1, 3, 0))
    assert tang == []
    assert len(roots) == 1 and roots[0].exact == Fraction(1, 3)
    assert isolate_unit_roots((5, 3, 0)) == ([], [])
    assert isolate_unit_roots((7, 0, 0)) == ([], [])


def test_degenerate_cases():
    with pytest.raises(ConstantZero):
        isolate_unit_roots((0, 0, 0))
    with pytest.raises(EndpointZero):
        isolate_unit_roots((0, 1, 1))
    with pytest.raises(EndpointZero):
        isolate_unit_roots((2, -1, -1))


def test_tangency_detection():
    # (2t-1)^2 = 4t^2 - 4t + 1
    roots, tang = isolate_unit_roots((1, -4, 4))
    assert roots == [] and tang == [Fraction(1, 2)]
    # double root outside the interval
    roots, tang = isolate_unit_roots((9, -12, 4))
    assert roots == [] and tang == []


def test_rational_quadratic_roots():
    roots, _ = isolate_unit_roots(poly_of_roots(Fraction(1, 4), Fraction(3, 4)))
    assert [r.exact for r in roots] == [Fraction(1, 4), Fraction(3, 4)]
    roots, _ = isolate_unit_roots(poly_of_roots(Fraction(1, 2), 3))
    assert [r.exact for r in roots] == [Fraction(1, 2)]


def test_irrational_roots_and_order():
    # t^2 - 2t + 1/2 has roots 1 +- 1/sqrt(2); only 1 - 0.7071 is in (0,1)
    roots, _ = isolate_unit_roots((1, -4, 2))
    assert len(roots) == 1
    r = roots[0]
    assert not r.is_rational()
    # floor(2^64 (1 - 1/sqrt 2)) = 2^64 - ceil(sqrt(2^127)), sqrt(2^127) irrational
    assert r.refine(64) == (1 << 64) - math.isqrt(1 << 127) - 1
    # both roots of 8t^2 - 8t + 1 are irrational and inside (0,1)
    roots, _ = isolate_unit_roots((1, -8, 8))
    assert len(roots) == 2
    assert roots[0].compare(roots[1]) == -1
    assert roots[1].compare(roots[0]) == 1
    assert roots[0].compare(roots[0]) == 0


def test_cross_polynomial_comparison():
    rng = random.Random(61)
    for _ in range(200):
        vals = []
        all_roots = []
        for _ in range(3):
            a = Fraction(rng.randrange(1, 16), 16)
            b = Fraction(rng.randrange(1, 16), 16)
            scale = rng.choice([1, -2, 3])
            try:
                roots, _ = isolate_unit_roots(poly_of_roots(a, b, scale))
            except EndpointZero:
                continue
            all_roots.extend(roots)
        # pairwise comparisons agree with floor(2^64 root) wherever those differ
        for x in all_roots:
            for y in all_roots:
                c = x.compare(y)
                fx, fy = x.refine(64), y.refine(64)
                if fx != fy:
                    assert c == (1 if fx > fy else -1)


def test_equal_roots_across_scaled_polynomials():
    r1, _ = isolate_unit_roots((1, -8, 8))
    r2, _ = isolate_unit_roots((3, -24, 24))
    assert r1[0].compare(r2[0]) == 0
    assert r1[1].compare(r2[1]) == 0
    assert r1[0].compare(r2[1]) == -1


def test_linear_sign():
    (r,), _ = isolate_unit_roots((-1, 2, 0))  # root 1/2
    assert r.linear_sign(Fraction(-1), Fraction(3)) == 1  # 3/2 - 1 > 0
    assert r.linear_sign(Fraction(-1), Fraction(2)) == 0
    assert r.linear_sign(Fraction(1), Fraction(-4)) == -1
    (q,), _ = isolate_unit_roots((1, -4, 2))  # 1 - 1/sqrt(2) ~ 0.2929
    assert q.linear_sign(Fraction(-1, 4), Fraction(1)) == 1
    assert q.linear_sign(Fraction(-1, 2), Fraction(1)) == -1
    assert q.linear_sign(Fraction(0), Fraction(-2)) == -1


def _decimal_floor(value, k: int) -> int:
    return int((value * (1 << k)).to_integral_value(rounding=decimal.ROUND_FLOOR))


def test_refine_is_the_floor_of_the_scaled_root():
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        two, three, five = (decimal.Decimal(v).sqrt() for v in (2, 3, 5))
        surds = (
            ((1, -4, 2), 1 - 1 / two),  # 1 - 1/sqrt(2)
            ((-1, 1, 1), (five - 1) / 2),  # the golden section
            ((1, -4, 1), 2 - three),
            ((-2, -6, 9), (1 + three) / 3),
        )
        for poly, value in surds:
            (root,), _ = isolate_unit_roots(poly)
            for k in (0, 1, 2, 3, 10, 52, 53, 64, 100, 200):
                assert root.refine(k) == _decimal_floor(value, k), (poly, k)
    (half,), _ = isolate_unit_roots((-1, 2, 0))
    assert [half.refine(k) for k in (0, 1, 5)] == [0, 1, 16]


def _above(root, q: Fraction) -> bool:
    """Whether root > q, from the sign of the polynomial at q and the side of
    the vertex alone (c2 > 0: negative exactly between the two roots)."""
    if root.is_rational():
        return root.exact > q
    c0, c1, c2 = root.poly
    assert c2 > 0
    value = c0 + c1 * q + c2 * q * q
    left_of_vertex = q < Fraction(-c1, 2 * c2)
    if root.sigma > 0:
        return left_of_vertex or value < 0
    return left_of_vertex and value > 0


def _oracle_linear_sign(root, alpha, beta) -> int:
    if beta == 0:
        return (alpha > 0) - (alpha < 0)
    q = Fraction(-alpha) / beta
    if root.is_rational() and root.exact == q:
        return 0
    return (1 if _above(root, q) else -1) * (1 if beta > 0 else -1)


def _oracle_compare(x, y) -> int:
    if not x.is_rational() and not y.is_rational() and (x.poly, x.sigma) == (y.poly, y.sigma):
        return 0
    if y.is_rational():
        return _oracle_linear_sign(x, -y.exact, 1)
    if x.is_rational():
        return -_oracle_linear_sign(y, -x.exact, 1)
    # distinct irrationals: bisect [0, 1] until one side holds one and not the other
    lo, hi = Fraction(0), Fraction(1)
    while True:
        mid = (lo + hi) / 2
        ax, ay = _above(x, mid), _above(y, mid)
        if ax != ay:
            return 1 if ax else -1
        lo, hi = (mid, hi) if ax else (lo, mid)


def _seeded_roots(rng, count):
    roots = []
    while len(roots) < count:
        coeffs = tuple(rng.randrange(-40, 41) for _ in range(3))
        try:
            found, _ = isolate_unit_roots(coeffs)
        except (ConstantZero, EndpointZero):
            continue
        roots.extend(found)
    return roots


def test_exact_operations_match_an_independent_oracle():
    rng = random.Random(2027)
    roots = _seeded_roots(rng, 120)
    assert sum(not r.is_rational() for r in roots) > 80
    for x in roots:
        for y in rng.sample(roots, 20) + [x]:
            assert x.compare(y) == _oracle_compare(x, y), (x, y)
        for _ in range(20):
            q = Fraction(rng.randrange(-5, 70), rng.randrange(1, 60))
            assert x.linear_sign(-q.numerator, q.denominator) == _oracle_linear_sign(x, -q, 1), (x, q)
            alpha, beta = rng.randrange(-300, 301), rng.randrange(-300, 301)
            assert x.linear_sign(alpha, beta) == _oracle_linear_sign(x, alpha, beta)


def test_comparisons_leave_the_printout_unchanged():
    # a root's printout, and a sorted list's cells, must not depend on which
    # comparisons a sort happened to make
    rng = random.Random(2028)
    roots = _seeded_roots(rng, 40)

    def printout(r):
        k = dyadic_level([r])
        return repr(r), k, r.refine(k)

    before = [printout(r) for r in roots]
    cells = set()
    for _ in range(5):
        shuffled = rng.sample(roots, len(roots))
        shuffled.sort(key=functools.cmp_to_key(lambda u, v: u.compare(v)))
        k = dyadic_level(shuffled)
        cells.add((k, tuple(r.refine(k) for r in shuffled)))
    assert [printout(r) for r in roots] == before
    assert len(cells) == 1


def _level_by_full_scan(times):
    """dyadic_level as first written: from k = 1 up, all cells at once, with
    the polynomial evaluated on Fractions at the ends of each cell."""

    def poly_sign(poly, t):
        v = sum(c * t**i for i, c in enumerate(poly))
        return (v > 0) - (v < 0)

    distinct = [t for i, t in enumerate(times) if i == 0 or times[i - 1].compare(t)]
    k = 0
    while True:
        k += 1
        cells = []
        for t in distinct:
            if t.is_rational():
                cells.append((t.exact * 2**k,) * 2)
                continue
            m = t.refine(k)
            if poly_sign(t.poly, Fraction(m, 2**k)) == poly_sign(t.poly, Fraction(m + 1, 2**k)):
                break
            cells.append((m, m + 1))
        else:
            if all(u[1] <= v[0] for u, v in zip(cells, cells[1:])):
                return k


def test_dyadic_level_matches_a_full_scan():
    rng = random.Random(2029)
    pool = _seeded_roots(rng, 150)
    # close pairs of roots need large k
    while len(pool) < 200:
        c1 = rng.randrange(-(10**6), 10**6)
        found, _ = isolate_unit_roots((rng.randrange(1, 10**6), c1, rng.randrange(1, 10**6)))
        pool.extend(found)
    # rationals, dyadic ones on cell ends
    values = [Fraction(rng.randrange(1, q), q) for q in (64, 97) * 10]
    pool += [AlgebraicRoot((-v.numerator, v.denominator), exact=v) for v in values]
    for _ in range(300):
        times = rng.sample(pool, rng.randrange(1, 8))
        times += rng.choices(times, k=rng.randrange(0, 3))  # repeated times
        # and the same times from a scaled polynomial
        times += [AlgebraicRoot(tuple(3 * c for c in t.poly), sigma=t.sigma)
                  for t in times[:1] if not t.is_rational()]
        times.sort(key=functools.cmp_to_key(lambda u, v: u.compare(v)))
        assert dyadic_level(times) == _level_by_full_scan(times), times


def test_events_match_dense_sampling():
    # Sign-change count over a fine rational grid equals the root count.
    rng = random.Random(67)
    for _ in range(80):
        coeffs = (rng.randrange(-9, 10), rng.randrange(-9, 10), rng.randrange(-9, 10))
        try:
            roots, tang = isolate_unit_roots(coeffs)
        except (ConstantZero, EndpointZero):
            continue
        c0, c1, c2 = coeffs
        N = 1024
        vals = [c0 + c1 * Fraction(k, N) + c2 * Fraction(k, N) ** 2 for k in range(N + 1)]
        changes = sum(
            1 for a, b in zip(vals, vals[1:]) if a != 0 and b != 0 and (a > 0) != (b > 0)
        )
        grid_hits = sum(1 for v in vals if v == 0)
        assert changes + grid_hits == len(roots), coeffs


def test_irrational_roots_built_only_when_kept():
    """The irrational roots returned are exactly those of both branches that
    lie in (0, 1), as a reference that builds both and filters them finds."""
    rng = random.Random(41)
    seen = set()
    tried = 0
    while tried < 3000:
        c0, c1, c2 = (rng.randint(-40, 40) for _ in range(3))
        disc = c1 * c1 - 4 * c0 * c2
        if c2 == 0 or c0 == 0 or c0 + c1 + c2 == 0 or disc <= 0:
            continue
        if math.isqrt(disc) ** 2 == disc:
            continue
        tried += 1
        both = (AlgebraicRoot((c0, c1, c2), sigma=s) for s in (-1, 1))
        want = [(r.poly, r.sigma) for r in both
                if r.linear_sign(0, 1) > 0 > r.linear_sign(-1, 1)]
        roots, tangencies = isolate_unit_roots((c0, c1, c2))
        assert tangencies == []
        assert [(r.poly, r.sigma) for r in roots] == want, (c0, c1, c2)
        seen.add(len(want))
    assert seen == {0, 1, 2}


def test_rational_compare_and_linear_sign_match_fractions():
    # two rational times compare by cross-multiplying on ints; equal values
    # from different polynomials, signs and zero included
    rng = random.Random(2029)
    values = [Fraction(rng.randrange(-50, 51), rng.randrange(1, 40)) for _ in range(150)]
    values += [Fraction(0), Fraction(1, 2), Fraction(2, 4)]
    for x in values:
        rx = AlgebraicRoot((-x.numerator, x.denominator), exact=x)
        for y in rng.sample(values, 30) + [x]:
            ry = AlgebraicRoot((-3 * y.numerator, 3 * y.denominator), exact=y)
            assert rx.compare(ry) == (x > y) - (x < y), (x, y)
        for _ in range(10):
            alpha = rng.choice([rng.randrange(-99, 100), Fraction(rng.randrange(-99, 100), 7)])
            beta = rng.randrange(-99, 100)
            v = alpha + beta * x
            assert rx.linear_sign(alpha, beta) == (v > 0) - (v < 0), (x, alpha, beta)


def _group_by_compare(found):
    """_group_by_time as first written: a time joins the group before it when
    compare calls the two equal."""
    found.sort(key=functools.cmp_to_key(lambda u, v: u[0].compare(v[0])))
    groups = []
    for item in found:
        if groups and groups[-1][0][0].compare(item[0]) == 0:
            groups[-1].append(item)
        else:
            groups.append([item])
    for group in groups:
        group.sort(key=lambda item: item[1])
    return groups


# (6t - 2)(2t - 1) has the rational root 1/3 of 3t - 1 and 1/2 of 2t - 1;
# 2t^2 - 4t + 1 has one irrational root in (0, 1), also a root of its multiples
_SHARED_TIMES = [(-1, 3, 0), (2, -10, 12), (1, -2, 0), (1, -4, 2), (-3, 12, -6), (2, -8, 4)]
_POLY = st.one_of(
    st.sampled_from(_SHARED_TIMES),
    st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8)),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_POLY, st.integers(-3, 3).filter(bool), st.integers(1, 4)), max_size=8))
@example([((-1, 3, 0), 1, 2), ((2, -10, 12), 1, 1), ((2, -10, 12), -2, 3)])
@example([((1, -4, 2), 1, 3), ((-3, 12, -6), 1, 1), ((2, -8, 4), 3, 2), ((1, -2, 0), 1, 1)])
@example([((1, -5, 5), 1, 1), ((2, -10, 10), -1, 2)])  # both branches, no time between
def test_group_by_time_matches_grouping_by_compare(draws):
    # times from scaled polynomials, a rational time from a linear and a
    # quadratic polynomial, and an irrational time from proportional ones
    found = []
    for poly, scale, first in draws:
        try:
            roots, _ = isolate_unit_roots(tuple(scale * c for c in poly))
        except (ConstantZero, EndpointZero):
            continue
        # a triple per root: static points first..first+2, repeats included
        found += [(root, (first, first + 1, first + 2)) for root in roots]
    assert _group_by_time(list(found)) == _group_by_compare(list(found))


def test_equal_times_from_different_polynomials_share_a_group():
    (third,), _ = isolate_unit_roots((-1, 3, 0))
    (sixth_third, half), _ = isolate_unit_roots((2, -10, 12))
    (irr,), _ = isolate_unit_roots((1, -4, 2))
    (irr3,), _ = isolate_unit_roots((-3, 12, -6))
    found = [(half, (1, 2, 3)), (irr3, (2, 3, 4)), (sixth_third, (2, 3, 4)), (third, (1, 2, 3)),
             (irr, (1, 2, 3))]
    groups = _group_by_time(found)
    assert [[triple for _, triple in group] for group in groups] == [
        [(1, 2, 3), (2, 3, 4)], [(1, 2, 3), (2, 3, 4)], [(1, 2, 3)]
    ]
    assert [group[0][0] for group in groups] == [irr, third, half]  # 1 - 1/sqrt(2) < 1/3


def _group_by_one_compare_sort(found):
    """_group_by_time as it sorted a segment with an irrational time: one
    stable sort by `compare`, then runs of equal `time_key`."""
    found.sort(key=functools.cmp_to_key(lambda u, v: u[0].compare(v[0])))
    return [
        sorted(group, key=lambda item: item[1])
        for _, group in itertools.groupby(found, key=lambda item: time_key(item[0]))
    ]


def test_group_by_time_sorts_by_key_as_one_compare_sort_does():
    # Irrational roots of distinct quadratics near 1/sqrt(2), about 0.35/k^2
    # apart, so many share refine(32); rationals in and near their cells;
    # and equal times from scaled and from different polynomials.
    rng = random.Random(2612)
    pool = []
    for k in range(10**5, 10**5 + 40):
        for c0 in (-(k * k + 1), -(k * k - 1)):
            for scale in (1, 3):
                pool += isolate_unit_roots((scale * c0, 0, scale * 2 * k * k))[0]
    pool += isolate_unit_roots((-1, 0, 2))[0]
    cell = pool[0].refine(32)
    for v in (Fraction(cell, 1 << 32), Fraction(2 * cell + 1, 1 << 33), Fraction(cell + 1, 1 << 32),
              Fraction(70711, 100000), Fraction(1, 3)):
        p, q = v.numerator, v.denominator
        pool += isolate_unit_roots((-p, q, 0))[0]  # q t - p
        pool += isolate_unit_roots((-p, q - p, q))[0]  # (q t - p)(t + 1)
    irrational = [t for t in pool if not t.is_rational()]
    assert len(irrational) > 100
    keys = {}
    for t in irrational:
        keys.setdefault(t.refine(32), set()).add(time_key(t))
    assert max(len(v) for v in keys.values()) > 10  # distinct times under one key
    assert sum(t.is_rational() and t.refine(32) in keys for t in pool) >= 2
    for _ in range(400):
        times = rng.sample(pool, rng.randrange(2, 14))
        times += rng.choices(times, k=rng.randrange(0, 3))  # a time crossed twice
        found = [(t, tuple(sorted(rng.sample(range(1, 8), 3)))) for t in times]
        rng.shuffle(found)
        assert _group_by_time(list(found)) == _group_by_one_compare_sort(list(found))


def _rational_time(v: Fraction, scale: int = 1) -> AlgebraicRoot:
    """The time v as the root of scale * (q t - p)."""
    return AlgebraicRoot((-scale * v.numerator, scale * v.denominator), exact=v)


def test_group_by_time_takes_one_item_runs_as_groups_and_others_as_one_compare_sort(
    monkeypatch,
):
    # singleton runs (times at least 2^-20 apart), one time on distinct
    # triples from scaled polynomials, and distinct times 2^-40 apart that
    # share floor(2^32 t); items carry a third member, as the tracers' do
    rng = random.Random(3131)
    for _ in range(300):
        found = []
        for _ in range(rng.randrange(1, 10)):
            kind = rng.randrange(3)
            base = Fraction(rng.randrange(1, 1 << 20), 1 << 20) + Fraction(1, 3 << 30)
            if kind == 0:
                times = [_rational_time(base)]
            elif kind == 1:
                times = [_rational_time(base, scale) for scale in rng.sample((1, 2, 3, 5), 3)]
            else:
                steps = rng.sample(range(8), 3)
                times = [_rational_time(base + Fraction(j, 1 << 40)) for j in steps]
                assert len({t.refine(32) for t in times}) == 1
            found += [(t, tuple(sorted(rng.sample(range(1, 8), 3))), rng.random()) for t in times]
        rng.shuffle(found)
        assert _group_by_time(list(found)) == _group_by_one_compare_sort(list(found))
    # with no two floors equal, no time is compared or keyed
    calls = []
    compare = AlgebraicRoot.compare
    monkeypatch.setattr(AlgebraicRoot, "compare", lambda u, v: calls.append(1) or compare(u, v))
    monkeypatch.setattr(geom2d, "time_key", lambda t: calls.append(2) or time_key(t))
    found = [(_rational_time(Fraction(k, 97)), (1, 2, 3)) for k in range(96, 0, -1)]
    assert _group_by_time(found) == [[item] for item in reversed(found)]
    assert calls == []
    found.append((_rational_time(Fraction(1, 97), 2), (1, 2, 4)))
    assert len(_group_by_time(found)) == 96 and calls


def _isqrt_floor(root, k: int) -> int:
    """floor(2^k * root) of an irrational root straight from its polynomial."""
    c0, c1, c2 = root.poly
    s = math.isqrt((c1 * c1 - 4 * c0 * c2) << (2 * k))
    return ((-c1 << k) + (s if root.sigma > 0 else -s - 1)) // (2 * c2)


def test_refine_matches_the_isqrt_formula_in_any_call_order():
    # refine(k <= 32) shifts a memo of floor(2^32 t): the first call of any
    # level fills it, and each level must give the formula's value before
    # and after that, and past 32 where no memo is read
    rng = random.Random(3030)
    polys = 0
    while polys < 60:
        bits = rng.choice((8, 64, 200))
        c2 = rng.randrange(1, 1 << bits)
        c1, c0 = (rng.randrange(-(1 << bits), 1 << bits) for _ in range(2))
        disc = c1 * c1 - 4 * c0 * c2
        if disc <= 0 or math.isqrt(disc) ** 2 == disc:
            continue
        polys += 1
        for sigma in (-1, 1):
            levels = list(range(1, 65))
            rng.shuffle(levels)
            root = AlgebraicRoot((c0, c1, c2), sigma=sigma)
            assert [root.refine(k) for k in levels] == [_isqrt_floor(root, k) for k in levels]
            assert [root.refine(k) for k in range(1, 65)] == [
                _isqrt_floor(root, k) for k in range(1, 65)
            ]
    for v in (Fraction(1, 3), Fraction(-7, 5), Fraction(2**40 + 1, 2**41)):
        root = AlgebraicRoot((-v.numerator, v.denominator), exact=v)
        for k in (40, 7, 32, 1, 64, 31):
            assert root.refine(k) == math.floor(v * 2**k)


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda: isolate_unit_roots((0.5, -1.5, 0)), "0.5"),  # root 1/3: int() made it 0
        (lambda: isolate_unit_roots((Fraction(7, 2), -9, 0)), "Fraction(7, 2)"),  # root 7/18
        (lambda: isolate_unit_roots((1, True, 2)), "True"),
        (lambda: AlgebraicRoot((Fraction(1, 2), 3, 2), sigma=1), "Fraction(1, 2)"),
    ],
)
def test_coefficients_that_are_not_ints_are_refused(call, bad):
    with pytest.raises(ValidationError) as caught:
        call()
    assert str(caught.value) == f"polynomial coefficients must be ints, got {bad}"
