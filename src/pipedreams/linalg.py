"""Small exact linear algebra over the rationals.

Vectors are tuples of Fractions; matrices are tuples of row tuples.  Every
solve and determinant runs one fraction-free Gauss-Jordan elimination on
integer rows, and builds Fractions only for the answer.  No matrix is
inverted: `polytopes` reads a tree simplex's coefficients off the tree.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


def matvec(A: Mat | IntMat, x: Sequence) -> tuple:
    return tuple(sum(a * b for a, b in zip(row, x)) for row in A)


def clear_denominators(x: Sequence[Fraction]) -> tuple[IntVec, int]:
    """Integer numerators p and the least q > 0 with x = p / q."""
    q = lcm(*(v.denominator for v in x))
    return tuple(v.numerator * (q // v.denominator) for v in x), q


def _eliminate(rows: Sequence[Sequence], k: int) -> Optional[tuple[list[list[int]], int, int]]:
    """Bareiss's recurrence carried to reduced form on the first k columns.

    Each row is first scaled to integers by the lcm of its denominators.
    Every entry then stays an integer minor of the scaled matrix, so each
    `// prev` is exact.  Returns (M, d, det): the first k rows of M read
    d * [I | X], d is the last pivot, and det is the determinant of the
    scaled first k columns when there are k rows.  None when a column has
    no pivot.
    """
    M = []
    for row in rows:
        s = lcm(*(v.denominator for v in row))
        M.append([v.numerator * (s // v.denominator) for v in row])
    sign = prev = 1
    for c in range(k):
        p = next((r for r in range(c, len(M)) if M[r][c]), None)
        if p is None:
            return None
        if p != c:
            M[c], M[p] = M[p], M[c]
            sign = -sign
        top, pv = M[c], M[c][c]
        for r, row in enumerate(M):
            if r != c:
                f = row[c]
                M[r] = [(pv * v - f * w) // prev for v, w in zip(row, top)]
        prev = pv
    return M, prev, sign * prev


def _square(A: Sequence[Sequence]) -> int:
    if any(len(row) != len(A) for row in A):
        raise ValueError("expected a square matrix")
    return len(A)


def solve_unique(A: Mat, b: Sequence[Fraction]) -> Optional[Vec]:
    """Solve A x = b for square A; None when A is singular."""
    n = _square(A)
    done = _eliminate([(*row, bv) for row, bv in zip(A, b)], n)
    if done is None:
        return None
    M, d, _ = done
    return tuple(Fraction(row[n], d) for row in M)


def solve_in_span(columns: Sequence[Vec], target: Sequence[Fraction]) -> Optional[Vec]:
    """Coefficients c with sum c_i * columns[i] = target, for linearly
    independent columns; None when target is outside their span."""
    k = len(columns)
    done = _eliminate([(*(col[r] for col in columns), t) for r, t in enumerate(target)], k)
    if done is None:
        raise ValueError("columns are linearly dependent")
    M, d, _ = done
    if any(row[k] for row in M[k:]):
        return None
    return tuple(Fraction(row[k], d) for row in M[:k])


def det_int(A: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    done = _eliminate(A, _square(A))
    return 0 if done is None else done[2]
