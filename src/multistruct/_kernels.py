"""Integer kernels: sparse integer polynomial products and integer rank.

These are the innermost loops of the engine.  Polynomials arrive here with
denominators already cleared, as dicts mapping packed exponent keys to
nonzero Python ints.  A key (see ``arith``) holds one 16-bit field per
variable and the total degree in a field above them, so the key of a
product of two monomials is the sum of their keys, one int addition.
The sum is exact because ``MultiPoly`` keeps every field below 2^15 and
refuses, before calling in here, a product whose total degree would reach
2^15.  Matrices are lists of lists of Python ints.  Everything is
exact; the Bareiss elimination divides only where the division is exact.
"""

from __future__ import annotations

# Reported by the benchmark probe; the kernels have one implementation.
BACKEND = "pure"


def mul_int_dicts(a: dict, b: dict) -> dict:
    """Product of two sparse integer-coefficient polynomials.

    Keys are packed exponent keys, values are nonzero ints.  The result is
    in the same form (no zero coefficients stored).
    """
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = ea + eb
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def _eliminate(rows: list) -> tuple[int, int]:
    """Fraction-free Bareiss elimination on a copy of a nonempty integer matrix.

    Returns the rank and the last pivot, negated for an odd number of row
    swaps; for a square matrix of full rank that is the determinant.
    Columns without a pivot are skipped, and the pass stops once every row
    holds a pivot.
    """
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    prev = sign = 1
    row = 0
    for col in range(ncols):
        pivot = -1
        for i in range(row, nrows):
            if m[i][col]:
                pivot = i
                break
        if pivot < 0:
            continue
        if pivot != row:
            m[row], m[pivot] = m[pivot], m[row]
            sign = -sign
        piv = m[row][col]
        for i in range(row + 1, nrows):
            mic = m[i][col]
            for j in range(col + 1, ncols):
                m[i][j] = (piv * m[i][j] - mic * m[row][j]) // prev
            m[i][col] = 0
        prev = piv
        row += 1
        if row == nrows:
            break
    return row, sign * prev


def bareiss_rank(rows: list) -> int:
    """Rank of an integer matrix by fraction-free Bareiss elimination."""
    if not rows or not rows[0]:
        return 0
    return _eliminate(rows)[0]


def bareiss_det(rows: list) -> int:
    """Determinant of a square integer matrix, exactly (Bareiss).

    Row swaps flip the sign; a rank below the size makes the determinant 0.
    """
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    rank, last_pivot = _eliminate(rows)
    return last_pivot if rank == n else 0
