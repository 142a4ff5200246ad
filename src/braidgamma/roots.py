"""Exact roots of integer polynomials of degree <= 2 on the open unit interval.

Every root is either an explicit rational or a quadratic irrational carried as
(integer polynomial, isolating interval, branch).  This is enough for a total
order with decidable equality:

  * rational vs rational         — compare values;
  * rational vs irrational       — bisect the interval away from the rational
                                   (they can never be equal);
  * irrational vs irrational     — two quadratic irrationals are equal iff
                                   their content-free polynomials coincide and
                                   they are the same branch (a shared
                                   irrational root forces proportionality);
                                   otherwise bisect until the intervals are
                                   disjoint.

Branches are tagged by sigma in {-1, +1}: the root left or right of the
vertex.  Isolating intervals always contain exactly one root and carry
opposite nonzero polynomial signs at their endpoints.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import sign


def _normalize(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    g = math.gcd(*[abs(c) for c in coeffs]) or 1
    coeffs = tuple(c // g for c in coeffs)
    lead = next((c for c in reversed(coeffs) if c), 0)
    if lead < 0:
        coeffs = tuple(-c for c in coeffs)
    return coeffs


class AlgebraicRoot:
    """One real root of an integer polynomial of degree <= 2."""

    __slots__ = ("poly", "exact", "lo", "hi", "sigma")

    def __init__(self, poly, *, exact=None, lo=None, hi=None, sigma=0):
        self.poly = _normalize(tuple(int(c) for c in poly))
        self.exact = Fraction(exact) if exact is not None else None
        self.lo = Fraction(lo) if lo is not None else None
        self.hi = Fraction(hi) if hi is not None else None
        self.sigma = sigma
        if self.exact is None:
            assert self.lo is not None and self.hi is not None and sigma in (-1, 1)
            assert sign(self._eval(self.lo)) * sign(self._eval(self.hi)) < 0

    @classmethod
    def rational(cls, value, poly=(0, 1)) -> "AlgebraicRoot":
        value = Fraction(value)
        return cls(poly, exact=value, lo=value, hi=value)

    def _eval(self, t: Fraction) -> int:
        """q^d * poly(t) for t = p/q and d = len(poly) - 1: an integer with
        the sign of poly(t)."""
        p, q = t.numerator, t.denominator
        acc, qk = 0, 1
        for c in reversed(self.poly):
            acc = acc * p + c * qk
            qk *= q
        return acc

    def is_rational(self) -> bool:
        return self.exact is not None

    def refine(self) -> None:
        """One bisection step; irrational roots never hit the midpoint."""
        if self.exact is not None:
            return
        mid = (self.lo + self.hi) / 2
        if sign(self._eval(mid)) == sign(self._eval(self.lo)):
            self.lo = mid
        else:
            self.hi = mid

    def refine_below(self, bound: Fraction) -> None:
        """Shrink the interval until it lies strictly above `bound` (root > bound)."""
        while self.lo <= bound:
            if self.exact is not None:
                assert self.exact > bound
                return
            self.refine()

    def refine_above(self, bound: Fraction) -> None:
        while self.hi >= bound:
            if self.exact is not None:
                assert self.exact < bound
                return
            self.refine()

    def compare_rational(self, q: Fraction) -> int:
        """Sign of (root - q); never 0 for irrational roots."""
        if self.exact is not None:
            return sign(self.exact - q)
        while self.lo < q < self.hi:
            self.refine()
        return 1 if q <= self.lo else -1

    def compare(self, other: "AlgebraicRoot") -> int:
        if self.exact is not None and other.exact is not None:
            return sign(self.exact - other.exact)
        if other.exact is not None:
            return self.compare_rational(other.exact)
        if self.exact is not None:
            return -other.compare_rational(self.exact)
        if self.poly == other.poly:
            return sign(self.sigma - other.sigma)
        # distinct irreducible quadratics share no root: separate by bisection
        while True:
            if self.hi <= other.lo:
                return -1
            if other.hi <= self.lo:
                return 1
            self.refine()
            other.refine()

    def linear_sign(self, alpha: Fraction, beta: Fraction) -> int:
        """Exact sign of alpha + beta * root."""
        if beta == 0:
            return sign(alpha)
        return sign(beta) * self.compare_rational(Fraction(-alpha, beta))

    def approx(self) -> float:
        if self.exact is not None:
            return float(self.exact)
        while self.hi - self.lo > Fraction(1, 1 << 48):
            self.refine()
        return float((self.lo + self.hi) / 2)

    def __repr__(self):
        if self.exact is not None:
            return f"AlgebraicRoot({self.exact})"
        return f"AlgebraicRoot({self.poly}, ({self.lo}, {self.hi}), sigma={self.sigma:+d})"


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
    c0, c1, c2 = (int(c) for c in coeffs)
    if c0 == 0 and c1 == 0 and c2 == 0:
        raise ConstantZero()
    p0 = c0
    p1 = c0 + c1 + c2
    if p0 == 0:
        raise EndpointZero(0)
    if p1 == 0:
        raise EndpointZero(1)

    if c2 == 0:
        if c1 == 0:
            return [], []
        root = Fraction(-c0, c1)
        if 0 < root < 1:
            return [AlgebraicRoot.rational(root, (c0, c1))], []
        return [], []

    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        return [], []
    vertex = Fraction(-c1, 2 * c2)
    if disc == 0:
        return [], ([vertex] if 0 < vertex < 1 else [])

    sqrt = math.isqrt(disc)
    if sqrt * sqrt == disc:
        roots = sorted(
            Fraction(-c1 + s * sqrt, 2 * c2) for s in (1, -1)
        )
        return [
            AlgebraicRoot.rational(r, (c0, c1, c2)) for r in roots if 0 < r < 1
        ], []

    # irrational pair: sigma -1 left of the vertex, +1 right of it
    poly = (c0, c1, c2)
    s0, s1 = sign(p0), sign(p1)
    out: list[AlgebraicRoot] = []
    if s0 != s1:
        # exactly one root inside (0,1)
        if vertex >= 1:
            out.append(AlgebraicRoot(poly, lo=0, hi=1, sigma=-1))
        elif vertex <= 0:
            out.append(AlgebraicRoot(poly, lo=0, hi=1, sigma=1))
        else:
            sv = sign(c0 + c1 * vertex + c2 * vertex * vertex)
            if s0 != sv:
                out.append(AlgebraicRoot(poly, lo=0, hi=vertex, sigma=-1))
            else:
                out.append(AlgebraicRoot(poly, lo=vertex, hi=1, sigma=1))
    else:
        if 0 < vertex < 1:
            sv = sign(c0 + c1 * vertex + c2 * vertex * vertex)
            if sv != s0:
                out.append(AlgebraicRoot(poly, lo=0, hi=vertex, sigma=-1))
                out.append(AlgebraicRoot(poly, lo=vertex, hi=1, sigma=1))
    return out, []
