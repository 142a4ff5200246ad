"""The source relations decided in the pure braid group P_n.

B_n acts faithfully on the free group F_n (Artin 1925; Birman 1974, Cor.
1.8.3), so a braid word is trivial exactly when it fixes every generator
x_k.  Free-group words are reduced lists of nonzero ints, -k for x_k^-1.
sigma_k sends x_k to x_k x_{k+1} x_k^-1 and x_{k+1} to x_k; its inverse
sends x_k to x_{k+1} and x_{k+1} to x_{k+1}^-1 x_k x_{k+1}.  b(i,j) is read
as Artin's A_ij = sigma_{j-1}..sigma_{i+1} sigma_i^2 sigma_{i+1}^-1..sigma_{j-1}^-1.
"""

from math import comb

import pytest

from braidgamma.braids import braid, braid_inverse, relation_instances

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
