"""GF(2) linear algebra on int bitsets (bit k = column k)."""

from __future__ import annotations


def echelon(rows) -> tuple[tuple[int, int], ...]:
    """Reduced row-echelon basis of the span of `rows`.

    Returns (pivot_bit, row) pairs sorted by pivot; each pivot bit occurs in
    exactly one basis row, so reduction against the basis is order-independent.
    """
    basis: list[tuple[int, int]] = []  # kept sorted by pivot bit
    for row in rows:
        for pivot, b in basis:
            if row >> pivot & 1:
                row ^= b
        if row == 0:
            continue
        pivot = (row & -row).bit_length() - 1
        basis = [(p, b ^ row if b >> pivot & 1 else b) for p, b in basis]
        basis.append((pivot, row))
        basis.sort()
    return tuple(basis)


def reduce(vec: int, basis) -> int:
    """Unique coset representative of vec modulo the row space of `basis`."""
    for pivot, row in basis:
        if vec >> pivot & 1:
            vec ^= row
    return vec

