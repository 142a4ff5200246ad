"""The benchmark's own exact geometry, written independently of braidgamma.

Used twice: to confirm that generated choreographies are in general position,
and to check the tracer's output.  Planar inputs use integer coordinates,
spatial ones `Fraction`s; every function here is exact for both.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def sign(x) -> int:
    return (x > 0) - (x < 0)


def det3(m) -> object:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# ---------------------------------------------------------------------------
# planar: incircle of a static triple and a point moving on a segment
# ---------------------------------------------------------------------------


def incircle_poly(a, b, c, m0, m1) -> tuple[int, int, int]:
    """Coefficients (c0, c1, c2) of D(t) = det[[x, y, x^2 + y^2, 1]] over the
    rows a, b, c, M(t) with M(t) = m0 + t (m1 - m0).

    The determinant is affine in the lifted row of M, so expanding along that
    row gives D = -x K1 + y K2 - (x^2 + y^2) K3 + K4 with 3x3 minors K of the
    static rows.
    """
    rows = [(p[0], p[1], p[0] * p[0] + p[1] * p[1]) for p in (a, b, c)]
    k1 = det3([(r[1], r[2], 1) for r in rows])
    k2 = det3([(r[0], r[2], 1) for r in rows])
    k3 = det3([(r[0], r[1], 1) for r in rows])
    k4 = det3([(r[0], r[1], r[2]) for r in rows])
    x0, y0 = m0
    dx, dy = m1[0] - x0, m1[1] - y0
    c0 = -x0 * k1 + y0 * k2 - (x0 * x0 + y0 * y0) * k3 + k4
    c1 = -dx * k1 + dy * k2 - 2 * (x0 * dx + y0 * dy) * k3
    c2 = -(dx * dx + dy * dy) * k3
    return c0, c1, c2


def orient2(a, b, c) -> int:
    return sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def poly_eval(coeffs, t):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def unit_root_count(coeffs) -> int:
    """Number of distinct real roots of c0 + c1 t + c2 t^2 in (0, 1), for a
    polynomial nonzero at both ends."""
    c0, c1, c2 = coeffs
    s0, s1 = sign(c0), sign(c0 + c1 + c2)
    if s0 != s1:
        return 1
    if c2 == 0:
        return 0
    vertex = Fraction(-c1, 2 * c2)
    if not 0 < vertex < 1:
        return 0
    return 2 if sign(poly_eval(coeffs, vertex)) == -s0 else 0


def resultant(p, q) -> int:
    """Resultant of two polynomials of degree 1 or 2 (zero iff they share a
    complex root), taken at their true degrees."""
    p = _trim(p)
    q = _trim(q)
    if len(p) < len(q):
        p, q = q, p
    if len(q) == 1:
        return q[0] ** (len(p) - 1)
    if len(p) == 2:
        return p[1] * q[0] - p[0] * q[1]
    a0, a1, a2 = p
    if len(q) == 2:
        b0, b1 = q
        return a2 * b0 * b0 - a1 * b0 * b1 + a0 * b1 * b1
    b0, b1, b2 = q
    return (a2 * b0 - a0 * b2) ** 2 - (a2 * b1 - a1 * b2) * (a1 * b0 - a0 * b1)


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def segment_hits_point(m0, m1, s) -> bool:
    """Does the open segment m0 -> m1 pass through the point s?"""
    d = [b - a for a, b in zip(m0, m1)]
    v = [b - a for a, b in zip(m0, s)]
    if any(v[i] * d[j] != v[j] * d[i] for i, j in itertools.combinations(range(len(d)), 2)):
        return False
    dot = sum(x * y for x, y in zip(v, d))
    return 0 < dot < sum(x * x for x in d)


# ---------------------------------------------------------------------------
# spatial: orient3d of a static triple and a moving point
# ---------------------------------------------------------------------------


def orient3d(a, b, c, d):
    """det[[x, y, z, 1]] over the rows a, b, c, d, up to a fixed sign."""
    u = [a[k] - d[k] for k in range(3)]
    v = [b[k] - d[k] for k in range(3)]
    w = [c[k] - d[k] for k in range(3)]
    return det3([u, v, w])


def collinear3(a, b, c) -> bool:
    u = [b[k] - a[k] for k in range(3)]
    v = [c[k] - a[k] for k in range(3)]
    return (
        u[1] * v[2] == u[2] * v[1]
        and u[2] * v[0] == u[0] * v[2]
        and u[0] * v[1] == u[1] * v[0]
    )


def lerp(m0, m1, t):
    return tuple(a + t * (b - a) for a, b in zip(m0, m1))


# ---------------------------------------------------------------------------
# exact comparison of event times
# ---------------------------------------------------------------------------


class Root:
    """A real number in [0, 1]: an exact rational, or the single root of an
    integer polynomial inside (lo, hi) where it changes sign."""

    __slots__ = ("poly", "lo", "hi", "exact")

    def __init__(self, poly=None, lo=None, hi=None, exact=None):
        self.poly = poly
        self.exact = exact
        self.lo = exact if exact is not None else lo
        self.hi = exact if exact is not None else hi

    def bisect(self) -> None:
        mid = (self.lo + self.hi) / 2
        s = sign(poly_eval(self.poly, mid))
        if s == 0:
            self.exact = self.lo = self.hi = mid
        elif s == sign(poly_eval(self.poly, self.lo)):
            self.lo = mid
        else:
            self.hi = mid


def compare_roots(u: Root, v: Root, steps: int = 400) -> int:
    """-1, 0 or +1 as u <, =, > v.  Two irrational roots still overlapping
    after `steps` bisections are taken as equal."""
    for _ in range(steps):
        if u.hi < v.lo or (u.hi == v.lo and (u.exact is None or v.exact is None)):
            return -1
        if v.hi < u.lo or (v.hi == u.lo and (u.exact is None or v.exact is None)):
            return 1
        if u.exact is not None and v.exact is not None:
            return sign(u.exact - v.exact)
        if u.exact is None:
            u.bisect()
        if v.exact is None:
            v.bisect()
    return 0
