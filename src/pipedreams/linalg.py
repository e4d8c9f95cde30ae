"""Small exact linear algebra over the rationals.

Vectors are tuples of Fractions; matrices are tuples of row tuples.  Sizes
here are tiny (at most ~10), so plain Gaussian elimination is fine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def matvec(A: Mat, x: Sequence[Fraction]) -> Vec:
    return tuple(sum(a * b for a, b in zip(row, x)) for row in A)


def solve_unique(A: Mat, b: Sequence[Fraction]) -> Optional[Vec]:
    """Solve A x = b for square A; None when A is singular."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("solve_unique expects a square matrix")
    M = [list(row) + [Fraction(bv)] for row, bv in zip(A, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col]), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        pv = M[col][col]
        M[col] = [v / pv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[col])]
    return tuple(M[r][n] for r in range(n))


def solve_in_span(columns: Sequence[Vec], target: Sequence[Fraction]) -> Optional[Vec]:
    """Coefficients c with sum c_i * columns[i] = target, for linearly
    independent columns; None when target is outside their span."""
    m = len(target)
    k = len(columns)
    M = [[columns[c][r] for c in range(k)] + [Fraction(target[r])] for r in range(m)]
    row = 0
    pivots = []
    for col in range(k):
        pivot = next((r for r in range(row, m) if M[r][col]), None)
        if pivot is None:
            raise ValueError("columns are linearly dependent")
        M[row], M[pivot] = M[pivot], M[row]
        pv = M[row][col]
        M[row] = [v / pv for v in M[row]]
        for r in range(m):
            if r != row and M[r][col]:
                f = M[r][col]
                M[r] = [v - f * w for v, w in zip(M[r], M[row])]
        pivots.append(row)
        row += 1
    for r in range(row, m):
        if M[r][k]:
            return None
    return tuple(M[pivots[c]][k] for c in range(k))


def inverse(A: Mat) -> Optional[Mat]:
    n = len(A)
    cols = []
    for j in range(n):
        e = [Fraction(1 if i == j else 0) for i in range(n)]
        x = solve_unique(A, e)
        if x is None:
            return None
        cols.append(x)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def det_int(A: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (Bareiss elimination)."""
    n = len(A)
    if n == 0:
        return 1
    M = [list(map(int, row)) for row in A]
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if M[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                M[r][c] = (M[r][c] * M[col][col] - M[r][col] * M[col][c]) // prev
            M[r][col] = 0
        prev = M[col][col]
    return sign * M[n - 1][n - 1]
