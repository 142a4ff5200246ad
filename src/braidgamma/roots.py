"""Exact roots of integer polynomials of degree <= 2 on the open unit interval.

Every root is either an explicit rational or a quadratic irrational

    (-c1 + sigma sqrt(D)) / (2 c2),    D = c1^2 - 4 c0 c2 not a square,

carried as its content-free polynomial (c0, c1, c2), with c2 > 0, and its
branch sigma in {-1, +1}: the root left or right of the vertex.  A root is
immutable but for one memo, and every operation on it is exact:

  * the sign of alpha + beta * root is that of a + b sqrt(D) for integers
    a, b, read off the signs of a and b, or else by comparing a^2 with
    b^2 D; comparing with a rational is such a sign;
  * refine(k) = floor(2^k * root), by math.isqrt; for k <= 32 it shifts
    the memo floor(2^32 * root), computed on first use and no field;
  * two quadratic irrationals are equal iff their content-free polynomials
    coincide and they are the same branch (a shared irrational root forces
    proportionality); otherwise refine(k) at growing k tells them apart.

`dyadic_level` fixes the printed interval of a segment's event times: the
dyadic cells of the least width 2^-k that isolate each irrational root and
keep consecutive distinct times apart.  It depends on the roots alone, never
on the comparisons a sort happened to make.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError
from .exact import sign


def _normalize(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """coeffs, each of type exactly int (so that no conversion truncates one),
    divided by their content, signed to make the leading one positive."""
    for c in coeffs:
        if type(c) is not int:
            raise ValidationError(f"polynomial coefficients must be ints, got {c!r}")
    g = math.gcd(*coeffs)
    if g == 0:
        return coeffs
    if next(c for c in reversed(coeffs) if c) < 0:
        g = -g
    return tuple(c // g for c in coeffs)


class AlgebraicRoot:
    """One real root of an integer polynomial of degree <= 2."""

    __slots__ = ("poly", "exact", "sigma", "_floor32")

    def __init__(self, poly, *, exact=None, sigma=0):
        self.poly = poly if exact is not None else _normalize(tuple(poly))
        self.exact = exact
        self.sigma = sigma
        self._floor32 = None  # refine(32), once read

    def is_rational(self) -> bool:
        return self.exact is not None

    def refine(self, k: int) -> int:
        """floor(2^k * root); for k <= 32 a shift of the memo floor(2^32 * root)."""
        if k > 32:
            return self._floor(k)
        if self._floor32 is None:
            self._floor32 = self._floor(32)
        return self._floor32 >> (32 - k)

    def _floor(self, k: int) -> int:
        if self.exact is not None:
            return (self.exact.numerator << k) // self.exact.denominator
        c0, c1, c2 = self.poly
        # 2^k root = (-c1 2^k + sigma sqrt(D 4^k)) / (2 c2) with sqrt(D 4^k)
        # irrational, so the floor of the numerator decides
        s = math.isqrt((c1 * c1 - 4 * c0 * c2) << (2 * k))
        return ((-c1 << k) + (s if self.sigma > 0 else -s - 1)) // (2 * c2)

    def linear_sign(self, alpha, beta) -> int:
        """Exact sign of alpha + beta * root."""
        if self.exact is not None:
            # alpha + beta p/q has the sign of q alpha + p beta, as q > 0
            return sign(alpha * self.exact.denominator + beta * self.exact.numerator)
        c0, c1, c2 = self.poly
        # 2 c2 (alpha + beta root) = a + b sqrt(D)
        a, b = 2 * c2 * alpha - c1 * beta, self.sigma * beta
        sa, sb = sign(a), sign(b)
        if sa * sb >= 0:
            return sa or sb
        return sa if a * a > b * b * (c1 * c1 - 4 * c0 * c2) else sb

    def compare(self, other: "AlgebraicRoot") -> int:
        # root - p/q has the sign of -p + q root, on ints for two rationals
        if other.exact is not None:
            return self.linear_sign(-other.exact.numerator, other.exact.denominator)
        if self.exact is not None:
            return -other.linear_sign(-self.exact.numerator, self.exact.denominator)
        if self.poly == other.poly:
            return sign(self.sigma - other.sigma)
        # distinct irreducible quadratics share no root
        k = 16
        while (a := self.refine(k)) == (b := other.refine(k)):
            k *= 2
        return sign(a - b)

    def __repr__(self):
        if self.exact is not None:
            return f"AlgebraicRoot({self.exact})"
        return f"AlgebraicRoot({self.poly}, sigma={self.sigma:+d})"


def time_key(t: AlgebraicRoot):
    """Equal exactly for equal times: the same rational, or the same
    content-free polynomial and branch (distinct irreducible quadratics share
    no root, and a rational never equals an irrational)."""
    return t.exact if t.exact is not None else (t.poly, t.sigma)


def _isolated(t: AlgebraicRoot, k: int) -> bool:
    """Whether the level-k cell of the irrational root t holds no other root
    of its polynomial: the polynomial changes sign across the cell."""
    c0, c1, c2 = t.poly
    m, s = t.refine(k), 1 << k
    # 4^k poly(x / 2^k), never 0 at a dyadic x as both roots are irrational
    lo, hi = ((c2 * x + c1 * s) * x + c0 * s * s for x in (m, m + 1))
    return (lo > 0) != (hi > 0)


def _cell_end(t: AlgebraicRoot, k: int, upper: int) -> tuple[int, int]:
    """2^k times the lower (upper = 0) or upper (1) end of t's level-k cell,
    as (numerator, denominator); a rational is a point."""
    if t.exact is not None:
        return t.exact.numerator << k, t.exact.denominator
    return t.refine(k) + upper, 1


def _apart(u: AlgebraicRoot, v: AlgebraicRoot, k: int) -> bool:
    """Whether the level-k cells of u < v overlap in no interior point."""
    a, b = _cell_end(u, k, 1)
    c, d = _cell_end(v, k, 0)
    return a * d <= c * b


def dyadic_level(times) -> int:
    """The least k >= 1 at which the dyadic cells [m/2^k, (m+1)/2^k], with
    m = refine(k), isolate each irrational root of `times` (roots in (0, 1),
    sorted) and keep consecutive distinct times apart: their open cells, a
    rational taken as a point, are disjoint."""
    distinct = [t for i, t in enumerate(times) if i == 0 or time_key(times[i - 1]) != time_key(t)]
    # Cells shrink into each other as k grows, so each condition, once met,
    # holds at every larger k: the answer is the largest of their least k,
    # found by raising one k until each condition holds in turn.
    k = 1
    for t in distinct:
        while t.exact is None and not _isolated(t, k):
            k += 1
    for u, v in zip(distinct, distinct[1:]):
        while not _apart(u, v, k):
            k += 1
    return k


class ConstantZero(Exception):
    """The polynomial vanishes identically."""


class EndpointZero(Exception):
    """The polynomial vanishes at t=0 or t=1."""

    def __init__(self, where: int):
        super().__init__(f"zero at segment endpoint t={where}")
        self.where = where


def isolate_unit_roots(coeffs) -> tuple[list[AlgebraicRoot], list[Fraction]]:
    """Sign-change roots of c0 + c1 t + c2 t^2 in the open interval (0, 1).

    Returns (roots ordered increasingly, tangency points).  Tangencies (double
    roots) produce no AlgebraicRoot.  Raises ConstantZero / EndpointZero for
    the degenerate cases the tracer must reject.
    """
    c0, c1, c2 = coeffs
    if type(c0) is not int or type(c1) is not int or type(c2) is not int:
        _normalize(coeffs)  # raises, naming the first coefficient that is no int
    if c0 == 0 and c1 == 0 and c2 == 0:
        raise ConstantZero()
    if c0 == 0:
        raise EndpointZero(0)
    if c0 + c1 + c2 == 0:
        raise EndpointZero(1)

    if c2 == 0:
        # c0 and c0 + c1 are nonzero, so a root in (0, 1) is a sign change
        if (c0 > 0) == (c0 + c1 > 0):
            return [], []
        return [AlgebraicRoot((c0, c1), exact=Fraction(-c0, c1))], []

    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        return [], []
    if disc == 0:
        vertex = Fraction(-c1, 2 * c2)
        return [], ([vertex] if 0 < vertex < 1 else [])

    sqrt = math.isqrt(disc)
    if sqrt * sqrt == disc:
        roots = sorted(
            Fraction(-c1 + s * sqrt, 2 * c2) for s in (1, -1)
        )
        return [
            AlgebraicRoot((c0, c1, c2), exact=r) for r in roots if 0 < r < 1
        ], []

    # irrational pair: sigma -1 left of the vertex v = -c1/(2 c2), +1 right
    # of it.  Times sign(c2) the polynomial is negative just between its
    # roots, so its signs at 0 and 1 and the place of v pick those in (0, 1).
    s = sign(c2)
    up0, up1 = s * c0 > 0, s * (c0 + c1 + c2) > 0
    after0, before1 = s * c1 < 0, s * (c1 + 2 * c2) > 0  # 0 < v, v < 1
    left = up0 and after0 and (before1 or not up1)
    right = up1 and (not up0 or (after0 and before1))
    pair = ((-1, left), (1, right))
    return [AlgebraicRoot((c0, c1, c2), sigma=sg) for sg, kept in pair if kept], []
