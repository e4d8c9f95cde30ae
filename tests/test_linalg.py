"""Property tests for the exact solves in `linalg`, against oracles kept
here: the Leibniz expansion of the determinant, and rank read off from
nonzero maximal minors."""

from fractions import Fraction
from itertools import combinations, permutations
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from pipedreams.linalg import det_int, inverse, matvec, solve_in_span, solve_unique

PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)

# Small entries make singular and dependent cases common.
ints = st.integers(-3, 3)
rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def leibniz(A) -> Fraction:
    """Sum over permutations of the signed products of entries."""
    n = len(A)
    total = Fraction(0)
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i, j in combinations(range(n), 2))
        total += (-1) ** inversions * prod((A[i][p[i]] for i in range(n)), start=Fraction(1))
    return total


def independent(columns, m: int) -> bool:
    """Columns are independent iff some maximal minor is nonzero."""
    k = len(columns)
    if k > m:
        return False
    return any(
        leibniz([[columns[c][r] for c in range(k)] for r in rows])
        for rows in combinations(range(m), k))


def combine(columns, coeffs, m: int):
    return tuple(sum((c * col[r] for c, col in zip(coeffs, columns)), Fraction(0)) for r in range(m))


@st.composite
def square(draw, entries, max_n=4):
    n = draw(st.integers(1, max_n))
    return tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))


@st.composite
def system(draw):
    A = draw(square(rationals))
    b = tuple(draw(rationals) for _ in A)
    return A, b


@st.composite
def frame(draw):
    """m-dimensional columns, k of them, with k at most m + 1 so that
    dependence by count shows up too."""
    m = draw(st.integers(1, 4))
    k = draw(st.integers(0, m + 1))
    columns = tuple(tuple(draw(rationals) for _ in range(m)) for _ in range(k))
    return m, columns


@PROPERTY
@given(square(ints, max_n=5))
def test_det_int_is_leibniz(A):
    assert det_int(A) == leibniz(A)


def test_det_int_of_empty_matrix():
    assert det_int(()) == 1


@PROPERTY
@given(system())
def test_solve_unique(Ab):
    A, b = Ab
    x = solve_unique(A, b)
    if leibniz(A) == 0:
        assert x is None
    else:
        assert x is not None and matvec(A, x) == b


@PROPERTY
@given(square(rationals))
def test_inverse(A):
    Ainv = inverse(A)
    if leibniz(A) == 0:
        assert Ainv is None
        return
    n = len(A)
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    product = tuple(tuple(sum(A[i][t] * Ainv[t][j] for t in range(n)) for j in range(n))
                    for i in range(n))
    assert product == identity


def test_int_entries_give_exact_fractions():
    A = ((2, 1), (1, 3))
    assert solve_unique(A, (1, 1)) == (Fraction(2, 5), Fraction(1, 5))
    Ainv = inverse(A)
    assert Ainv == ((Fraction(3, 5), Fraction(-1, 5)), (Fraction(-1, 5), Fraction(2, 5)))
    assert all(type(v) is Fraction for row in Ainv for v in row)


def test_non_square_raises():
    A = ((Fraction(1), Fraction(2)),)
    with pytest.raises(ValueError):
        solve_unique(A, (Fraction(1),))
    with pytest.raises(ValueError):
        inverse(A)
    with pytest.raises(ValueError):
        det_int(((1, 2),))


@PROPERTY
@given(frame(), st.data())
def test_solve_in_span(mc, data):
    m, columns = mc
    coeffs = tuple(data.draw(rationals) for _ in columns)
    built = combine(columns, coeffs, m)
    other = tuple(data.draw(rationals) for _ in range(m))
    if not independent(columns, m):
        with pytest.raises(ValueError):
            solve_in_span(columns, built)
        return
    assert solve_in_span(columns, built) == coeffs
    c = solve_in_span(columns, other)
    if independent(columns + (other,), m):
        assert c is None
    else:
        assert c is not None and combine(columns, c, m) == other
