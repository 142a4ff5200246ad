"""GF(2) linear algebra on int bitsets (bit k = column k).

A basis is kept in reduced row-echelon form with lowest-bit pivots: each
row's pivot is its lowest set bit, and no other row has that bit set.  That
form of a row space is unique, so it does not depend on the order of the
input rows, and it makes reduction a table lookup per set bit: adding a row
clears its own pivot and touches no other pivot.
"""

from __future__ import annotations


def _reduce(vec: int, table: dict) -> int:
    out, rest = vec, vec
    while rest:  # one lookup per set bit of vec, lowest first
        low = rest & -rest
        row = table.get(low.bit_length() - 1)
        if row is not None:
            out ^= row
        rest ^= low
    return out


def echelon(rows) -> tuple[tuple[int, int], ...]:
    """Reduced row-echelon basis of the span of `rows`.

    Returns (pivot_bit, row) pairs sorted by pivot; each pivot bit is the
    lowest bit of its row and occurs in no other basis row, so reduction
    against the basis is order-independent.
    """
    table: dict[int, int] = {}  # pivot -> row
    # Forward elimination on lowest bits.  The largest rows go first: on the
    # pentagon rows that needs far fewer XOR steps than ascending order.
    for row in sorted(rows, reverse=True):
        while row:
            pivot = (row & -row).bit_length() - 1
            other = table.get(pivot)
            if other is None:
                table[pivot] = row
                break
            row ^= other
    # Back-substitution from the highest pivot down: the rows above a pivot
    # are already reduced, so one lookup per set bit clears them.
    for pivot in sorted(table, reverse=True):
        head = 1 << pivot
        table[pivot] = head | _reduce(table[pivot] ^ head, table)
    return tuple(sorted(table.items()))


def reduce(vec: int, basis) -> int:
    """Unique coset representative of vec modulo the row space of `basis`:
    the (pivot, row) pairs of `echelon`, or a dict of them."""
    return _reduce(vec, basis if isinstance(basis, dict) else dict(basis))
