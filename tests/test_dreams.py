"""Pipe dreams: staircase, enumeration, weights."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    enumerate_pipe_dreams_bruteforce,
    enumerate_pipe_dreams_dfs,
    pipe_dream_crosses_box_by_box,
    pipe_dream_weight,
    xy_beta_vars,
)
from pipedreams.dreams import (
    LIMIT_N,
    EnumerationLimitError,
    PipeDream,
    enumerate_pipe_dreams,
    reduced_pipe_dreams,
    staircase_boxes,
    staircase_transfer,
    triangular_word,
)
from pipedreams.perms import Permutation, all_windows, catalan_permutation, identity_window
from pipedreams.poly import MultiPolynomial

W1432 = Permutation((1, 4, 3, 2))

# hand-derived census for 1432: reduced words are (2,3,2) and (3,2,3) and the
# staircase reading word is (3,2,1,3,2,3), so the reduced cross sets are
# exactly these five
REDUCED_1432 = {
    ((1, 2), (1, 3), (2, 2)),
    ((1, 2), (1, 3), (3, 1)),
    ((1, 3), (2, 1), (3, 1)),
    ((2, 1), (2, 2), (3, 1)),
    ((1, 2), (2, 1), (2, 2)),
}


def test_staircase_reading_order():
    assert staircase_boxes(4) == ((1, 3), (1, 2), (1, 1), (2, 2), (2, 1), (3, 1))


def test_triangular_word_examples():
    assert triangular_word(2) == (1,)
    assert triangular_word(4) == (3, 2, 1, 3, 2, 3)
    w5 = triangular_word(5)
    assert len(w5) == 10 and w5[-3:] == (4, 3, 4)


def test_permutation_of_examples():
    assert PipeDream(4, ()).permutation().window == identity_window(4)
    assert PipeDream(4, ((1, 3), (1, 2), (2, 2))).permutation() == W1432
    full = PipeDream(4, staircase_boxes(4))
    assert full.permutation() == Permutation((4, 3, 2, 1))


def test_pipe_dream_predicates():
    P = PipeDream(4, ((1, 3), (1, 2), (2, 2)))
    assert P.permutation() == W1432 and P.size == W1432.length()
    four = PipeDream(4, ((1, 3), (1, 2), (2, 2), (2, 1)))
    assert four.permutation() == W1432 and four.size > W1432.length()
    empty = PipeDream(4, ())
    assert empty.permutation() != W1432


def test_boxes_validated():
    with pytest.raises(ValueError):
        PipeDream(4, ((1, 4),))
    with pytest.raises(ValueError):
        PipeDream(4, ((0, 1),))


@st.composite
def ranks_and_box_lists(draw):
    """A rank 0..6 and a list of boxes in any order: staircase boxes of that
    rank, some listed twice, and at most one pair or triple of coordinates
    from -1 to n + 1, inside the staircase or not."""
    n = draw(st.integers(0, 6))
    coord = st.integers(-1, n + 1)
    inside = draw(st.lists(st.sampled_from(staircase_boxes(n)), max_size=8,
                           unique=draw(st.booleans()))) if n > 1 else []
    odd = draw(st.lists(st.tuples(coord, coord) | st.tuples(coord, coord, coord), max_size=1))
    return n, draw(st.permutations(inside + odd))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(ranks_and_box_lists())
def test_constructor_keeps_the_box_by_box_rule(case):
    """The constructor accepts exactly the box lists the box-by-box rule
    accepts, holding the same sorted crosses, and refuses the rest."""
    n, crosses = case
    try:
        held = pipe_dream_crosses_box_by_box(n, crosses)
    except ValueError:
        with pytest.raises(ValueError):
            PipeDream(n, tuple(crosses))
    else:
        assert PipeDream(n, tuple(crosses)).crosses == held


def test_census_1432():
    dreams = enumerate_pipe_dreams(W1432)
    by_size = {}
    for P in dreams:
        by_size.setdefault(P.size, []).append(P)
    assert {s: len(v) for s, v in by_size.items()} == {3: 5, 4: 5, 5: 1}
    assert {P.crosses for P in by_size[3]} == REDUCED_1432
    assert by_size[5][0].crosses == ((1, 2), (1, 3), (2, 1), (2, 2), (3, 1))


def test_enumeration_matches_bruteforce_exhaustively():
    for n in (2, 3, 4):
        for window in all_windows(n):
            w = Permutation(window)
            assert enumerate_pipe_dreams(w) == enumerate_pipe_dreams_bruteforce(w)


@pytest.mark.parametrize("n", range(1, 7))
def test_listing_matches_the_depth_first_search_on_all_of_rank(n):
    """The transfer's listing equals the depth-first search, the oracle
    that walks the staircase one cross set at a time."""
    for window in all_windows(n):
        w = Permutation(window)
        assert enumerate_pipe_dreams(w) == enumerate_pipe_dreams_dfs(w), w


@pytest.mark.parametrize("n", [7, 8])
def test_listing_matches_the_depth_first_search_on_catalan(n):
    w = catalan_permutation(n)
    assert enumerate_pipe_dreams(w) == enumerate_pipe_dreams_dfs(w)


@pytest.mark.parametrize("n", range(1, 9))
def test_listed_dreams_pass_the_constructor(n):
    """The listing builds its dreams unchecked; each equals its checked
    construction, with crosses strictly increasing, on all of S_n for
    n <= 5 and on 1 n n-1 ... 2 beyond."""
    perms = [Permutation(window) for window in all_windows(n)] if n <= 5 else [catalan_permutation(n)]
    for w in perms:
        for P in enumerate_pipe_dreams(w):
            assert PipeDream(P.n, P.crosses) == P, w
            assert all(a < b for a, b in zip(P.crosses, P.crosses[1:])), P


@pytest.mark.parametrize("n", range(1, 5))
def test_offsets_that_meet_add_their_counts(n):
    """With the step (1, 1) at every box, a cross set of k crosses goes on
    2^k times, every time under the key k: the offsets of a step meet, and
    their counts add rather than overwrite."""
    N = len(staircase_boxes(n))
    for window in all_windows(n):
        w = Permutation(window)
        once = staircase_transfer(w, [(1,)] * N)
        assert staircase_transfer(w, [(1, 1)] * N) == {k: 2**k * c for k, c in once.items()}, w


@pytest.mark.parametrize("steps, message", [
    ([(1,)] * 3, "3 steps for the 6 boxes of the rank-4 staircase"),
    ([(1,)] * 9, "9 steps for the 6 boxes of the rank-4 staircase"),
    ([(1,)] * 2 + [()] + [(1,)] * 3, "step 2 has no offset"),
])
def test_steps_that_do_not_fit_the_staircase_are_refused(steps, message):
    """Zipped with the letters, too few steps used to end the walk early
    and return {}, too many were dropped, and an empty step failed to
    unpack."""
    with pytest.raises(ValueError, match=message):
        staircase_transfer(W1432, steps)


def test_identity_has_single_empty_dream():
    dreams = enumerate_pipe_dreams(Permutation(identity_window(3)))
    assert len(dreams) == 1 and dreams[0].crosses == ()


def test_catalan_counts():
    expected = {2: 1, 3: 2, 4: 5, 5: 14, 6: 42}
    for n, count in expected.items():
        assert len(reduced_pipe_dreams(catalan_permutation(n))) == count


def test_enumeration_limit_guard():
    w = Permutation(tuple([1] + list(range(10, 1, -1))))
    with pytest.raises(EnumerationLimitError):
        enumerate_pipe_dreams(w)
    # override allows it (rank 10 path would be slow; use a cheap target)
    big_identity = Permutation(identity_window(10))
    token = LIMIT_N.set(10)
    try:
        assert len(enumerate_pipe_dreams(big_identity)) == 1
    finally:
        LIMIT_N.reset(token)


def test_weight_examples():
    vars = xy_beta_vars(4)
    assert pipe_dream_weight(PipeDream(4, ())) == MultiPolynomial.one(vars)
    x1 = MultiPolynomial.variable("x1", vars)
    y1 = MultiPolynomial.variable("y1", vars)
    assert pipe_dream_weight(PipeDream(4, ((1, 1),))) == x1 - y1
    x2 = MultiPolynomial.variable("x2", vars)
    y2 = MultiPolynomial.variable("y2", vars)
    y3 = MultiPolynomial.variable("y3", vars)
    P = PipeDream(4, ((1, 3), (1, 2), (2, 2)))
    assert pipe_dream_weight(P) == (x1 - y3) * (x1 - y2) * (x2 - y2)


def test_minimal_dreams_are_the_reduced_ones():
    rng = random.Random(3)
    windows = list(all_windows(4))
    for window in rng.sample(windows, 8):
        w = Permutation(window)
        dreams = enumerate_pipe_dreams(w)
        min_size = min(P.size for P in dreams)
        assert min_size == w.length()
        assert all(P.permutation() == w for P in dreams)


def test_sizes_are_length_plus_codim():
    for window in all_windows(4):
        w = Permutation(window)
        l = w.length()
        for P in enumerate_pipe_dreams(w):
            assert P.size >= l


def test_canonical_output_order():
    dreams = enumerate_pipe_dreams(W1432)
    assert dreams == sorted(dreams, key=lambda P: (P.size, P.crosses))


def test_json_round_trip():
    P = PipeDream(4, ((1, 3), (2, 1)))
    assert PipeDream.from_jsonable(P.to_jsonable()) == P


@pytest.mark.parametrize("data,named", [
    ({"n": 4.5, "crosses": [[1, 3]]}, "PipeDream: $['n'] reads 4.5 but writes 4"),
    ({"n": 4, "crosses": [[1.0, 3]]}, "PipeDream: $['crosses'][0][0] reads 1.0 but writes 1"),
    ({"n": -3, "crosses": []}, "PipeDream: ValueError: rank -3 is negative"),
    ({"n": 4, "crosses": [[1, 1, 1]]}, "PipeDream: ValueError: box (1, 1, 1) outside the staircase for n=4"),
], ids=["fractional-rank", "float-coordinate", "negative-rank", "three-coordinates"])
def test_json_refuses_what_no_pipe_dream_writes(data, named):
    """A pipe dream read from JSON is refused, with the type and the path
    or the constructor's fault named, when it is not what the pipe dream
    it builds writes back (a rank or coordinate of 4.5 or 1.0), or when
    the constructor refuses it (a negative rank, a box of three ends)."""
    with pytest.raises(ValueError, match=re.escape(named)):
        PipeDream.from_jsonable(data)


def test_negative_rank_is_refused():
    """PipeDream(-1, ()) would print as a pipe dream of the empty permutation."""
    with pytest.raises(ValueError, match="rank -1 is negative"):
        PipeDream(-1, ())
    with pytest.raises(ValueError, match="PipeDream: ValueError: rank -1 is negative"):
        PipeDream.from_jsonable({"n": -1, "crosses": []})
