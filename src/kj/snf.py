"""Invariant factors of integer matrices: the diagonal of the Smith form.

Row and column operations bring the matrix to a diagonal, pivoting on an
entry of least absolute value and replacing every other entry of its row
and column by its division remainder; a nonzero remainder is smaller than
the pivot and becomes the next one. The diagonal pairs (a, b) are then
turned into (gcd, lcm) until they form a divisibility chain. Invariant
factors are unique, so any pivot order gives the same list. No transforms
are kept.
"""

from __future__ import annotations

from math import gcd

from .rings import ZZ
from .sparse import SparseMatrix

__all__ = ["snf_diagonal"]


def snf_diagonal(m: SparseMatrix) -> list[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix (rank and
    torsion in one list)."""
    if m.ring is not ZZ:
        raise ValueError("snf_diagonal requires integer coefficients")
    rows: dict[int, dict[int, int]] = {}
    for (r, c), v in m.data.items():
        rows.setdefault(r, {})[c] = int(v)
    diag = []
    while rows:
        _, r, c = min((abs(v), r, c) for r, row in rows.items() for c, v in row.items())
        pivot_row = rows[r]
        p = pivot_row[c]
        column_clear = True
        for s in list(rows):
            row = rows[s]
            if s == r or c not in row:
                continue
            q = row[c] // p
            for j, v in pivot_row.items():
                x = row.get(j, 0) - q * v
                if x:
                    row[j] = x
                else:
                    del row[j]
            if c in row:
                column_clear = False
            if not row:
                del rows[s]
        if not column_clear:
            continue
        # column c is zero off the pivot, so column operations touch only this row
        for j in list(pivot_row):
            if j != c:
                x = pivot_row[j] % p
                if x:
                    pivot_row[j] = x
                else:
                    del pivot_row[j]
        if len(pivot_row) == 1:
            diag.append(abs(p))
            del rows[r]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            g = gcd(a, b)
            diag[i], diag[j] = g, a // g * b
    return diag
