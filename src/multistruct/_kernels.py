"""Integer kernels: sparse integer polynomial products and Bareiss rank.

These are the innermost loops of the engine.  Polynomials arrive here with
denominators already cleared, as dicts mapping packed exponent keys to
nonzero Python ints.  A key (see ``arith``) holds one 16-bit field per
variable and the total degree in a field above them, so the key of a
product of two monomials is the sum of their keys, one int addition.
The sum is exact because ``MultiPoly`` keeps every field below 2^15 and
refuses, before calling in here, a product whose total degree would reach
2^15.  A matrix is a list of rows of Python ints; its rank is found by
Bareiss elimination, which divides only where the division is exact, so
every step stays an integer and nothing is rounded.
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


def bareiss_rank(rows: list) -> int:
    """Rank of an integer matrix by fraction-free Bareiss elimination.

    Works on a copy.  Columns without a pivot are skipped, and the pass
    stops once every row holds a pivot.
    """
    if not rows or not rows[0]:
        return 0
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    prev = 1
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
    return row
