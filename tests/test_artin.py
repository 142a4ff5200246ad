"""The source relations decided in the pure braid group P_n.

B_n acts faithfully on the free group F_n (Artin 1925; Birman 1974, Cor.
1.8.3), so a braid word is trivial exactly when it fixes every generator
x_k.  Free-group words are reduced lists of nonzero ints, -k for x_k^-1.
sigma_k sends x_k to x_k x_{k+1} x_k^-1 and x_{k+1} to x_k; its inverse
sends x_k to x_{k+1} and x_{k+1} to x_{k+1}^-1 x_k x_{k+1}.  b(i,j) is read
as Artin's A_ij = sigma_{j-1}..sigma_{i+1} sigma_i^2 sigma_{i+1}^-1..sigma_{j-1}^-1.

A planar loop's braid is read exactly off the order of its points along the
direction (1, delta): each time the mover passes a static point, the two
swap places k and k + 1, and the one above along (-delta, 1) decides the
sign.  The sign convention is the one that reads the generator loop of
b(i, i+1) as sigma_i^2.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from braidgamma.braids import BraidWord, braid, braid_inverse, relation_instances
from braidgamma.geom2d import braid_choreography, generator_choreography, reverse

# the images of x_k and x_{k+1} under sigma_k and under its inverse
_SIGMA = {1: lambda k: ([k, k + 1, -k], [k]), -1: lambda k: ([k + 1], [-k - 1, k, k + 1])}


def sigma_word(w) -> list[int]:
    """The sigma word of a pure braid word, k or -k for sigma_k^(+-1)."""
    out = []
    for g in w.letters:
        a = [*range(g.j - 1, g.i, -1), g.i, g.i, *range(-g.i - 1, -g.j, -1)]
        out += (a if g.exponent > 0 else [-s for s in reversed(a)]) * abs(g.exponent)
    return out


def artin_images(n: int, sigmas) -> list[list[int]]:
    """The images of x_1..x_n under the automorphism of the sigma word."""
    images = [[k] for k in range(1, n + 1)]

    def image(word):  # the current automorphism applied to a word, reduced
        out = []
        for a in word:
            for b in images[a - 1] if a > 0 else [-b for b in reversed(images[-a - 1])]:
                if out and out[-1] == -b:
                    out.pop()
                else:
                    out.append(b)
        return out

    for s in sigmas:  # compose with sigma_k^(+-1) on the right
        k = abs(s)
        xk, xk1 = _SIGMA[1 if s > 0 else -1](k)
        images[k - 1], images[k] = image(xk), image(xk1)
    return images


def loop_sigmas(ch, delta=Fraction(1, 10**9 + 7)) -> list[int]:
    """The sigma word of a planar plan, read along (1, delta): sigma_k when
    the left one of the two points swapping places k, k + 1 passes above."""

    def f(p):  # the coordinate along (1, delta)
        return p.x + delta * p.y

    def g(p):  # the coordinate along (-delta, 1)
        return p.y - delta * p.x

    out = []
    for at, m in zip(ch.configs(), ch.moves):
        a, b = at[m.point - 1], m.to
        fa, fb = f(a), f(b)
        statics = [p for q, p in enumerate(at, 1) if q != m.point]
        for s in sorted(statics, key=f, reverse=fb < fa):
            if not min(fa, fb) <= f(s) <= max(fa, fb):
                continue
            assert fa != f(s) != fb  # no waypoint is level with a static point
            t = (f(s) - fa) / (fb - fa)
            k = 1 + sum(f(p) < f(s) for p in statics)
            out.append(k if (g(a) + t * (g(b) - g(a)) > g(s)) == (fb > fa) else -k)
    return out


def is_trivial(w) -> bool:
    return artin_images(w.n, sigma_word(w)) == [[k] for k in range(1, w.n + 1)]


def test_negative_controls():
    a12 = braid(3, (1, 2))
    assert not is_trivial(a12)
    assert is_trivial(a12 * braid_inverse(a12))
    # the braid relation and far commutation hold; a swap of sigma_1, sigma_2 does not
    assert artin_images(3, [1, 2, 1]) == artin_images(3, [2, 1, 2])
    assert artin_images(4, [1, 3]) == artin_images(4, [3, 1])
    assert artin_images(3, [1, 2]) != artin_images(3, [2, 1])


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_relations_hold_in_the_pure_braid_group_except_printed_family_3(n):
    families = set()
    for inst in relation_instances(n, family3_inverted=True):
        assert is_trivial(inst.lhs * braid_inverse(inst.rhs)), inst
        families.add(inst.family)
    assert families == {"1", "2a", "2b", "3inv"}
    # A finding: family 3 as printed is a relation of P_n on no instance.
    printed = [inst for inst in relation_instances(n) if inst.family == "3"]
    refuted = [i for i in printed if not is_trivial(i.lhs * braid_inverse(i.rhs))]
    assert len(refuted) == len(printed) == comb(n, 4) == {4: 1, 5: 5, 6: 15, 7: 35}[n]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_generator_loops_are_sigma_i_squared_conjugated_the_other_way(n):
    identity = [[k] for k in range(1, n + 1)]
    for i, j in itertools.combinations(range(1, n + 1), 2):
        ch = generator_choreography(n, i, j)
        sigmas = loop_sigmas(ch)
        assert j > i + 1 or sigmas == [i, i]  # the sign convention
        # reader self-checks: nearby directions agree, reverse inverts the braid
        for delta in (Fraction(1, 10**9 + 9), Fraction(2, 10**9 + 7)):
            assert loop_sigmas(ch, delta) == sigmas
        assert artin_images(n, sigmas + loop_sigmas(reverse(ch))) == identity
        # sigma_{j-1}^-1..sigma_{i+1}^-1 sigma_i^2 sigma_{i+1}..sigma_{j-1}
        read = artin_images(n, sigmas)
        assert read == artin_images(n, [*range(1 - j, -i), i, i, *range(i + 1, j)])
        # only the adjacent pairs are Artin's A_ij too
        assert (read == artin_images(n, sigma_word(braid(n, (i, j))))) == (j == i + 1)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_braid_loops_are_loop_true_on_family_1_and_on_reversed_2a_2b_3inv(n):
    def loop_true(lhs, rhs):
        lhs, rhs = (loop_sigmas(braid_choreography(w)) for w in (lhs, rhs))
        return artin_images(n, lhs) == artin_images(n, rhs)

    def reversed_letters(w):
        return BraidWord(n, w.letters[::-1])

    inverted = [i for i in relation_instances(n, family3_inverted=True) if i.family == "3inv"]
    counts = Counter()
    for inst in relation_instances(n) + inverted:
        counts[inst.family, "all"] += 1
        counts[inst.family, "printed"] += loop_true(inst.lhs, inst.rhs)
        counts[inst.family, "reversed"] += loop_true(*map(reversed_letters, (inst.lhs, inst.rhs)))
    family_1 = counts["1", "all"], counts["1", "printed"], counts["1", "reversed"]
    assert family_1 == ({4: 2, 5: 10, 6: 30}[n],) * 3
    for family in ("2a", "2b", "3inv"):
        assert counts[family, "printed"] == 0 < counts[family, "reversed"] == counts[family, "all"]
    assert counts["3", "printed"] == counts["3", "reversed"] == 0 < counts["3", "all"]
