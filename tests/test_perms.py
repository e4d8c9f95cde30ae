"""Permutations, words, and the Demazure product."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    apply_s,
    bruhat_leq_prefix,
    demazure_bruteforce,
    ordinary_product,
    word_contains_bruteforce,
)
from pipedreams.perms import (
    Permutation,
    all_windows,
    bruhat_code,
    bruhat_guard,
    bruhat_leq,
    catalan_permutation,
    demazure_product,
    demazure_window,
    identity_window,
    inversions,
    is_reduced_word,
    parse_permutation,
)


def test_length_examples():
    assert Permutation(identity_window(4)).length() == 0
    assert Permutation((1, 4, 3, 2)).length() == 3
    for n in range(2, 9):
        assert catalan_permutation(n).length() == (n - 1) * (n - 2) // 2


def test_length_matches_bruteforce():
    for window in all_windows(4):
        by_pairs = sum(
            1
            for i in range(4)
            for j in range(i + 1, 4)
            if window[i] > window[j]
        )
        assert inversions(window) == by_pairs


def test_demazure_examples():
    assert demazure_product((1, 1), 2).window == (2, 1)
    assert demazure_product((2, 3, 2), 4).window == (1, 4, 3, 2)
    assert demazure_product((3, 2, 3, 3), 4).window == (1, 4, 3, 2)
    assert demazure_product((), 3).window == identity_window(3)


def test_demazure_rejects_bad_letters():
    with pytest.raises(ValueError):
        demazure_product((3,), 3)


def test_is_reduced_word():
    w = Permutation((1, 4, 3, 2))
    assert is_reduced_word((2, 3, 2), w)
    assert not is_reduced_word((3, 2, 3, 3), w)
    assert is_reduced_word((), Permutation(identity_window(3)))


def test_demazure_idempotent_under_adjacent_duplication():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 6)
        word = [rng.randint(1, n - 1) for _ in range(rng.randint(0, 10))]
        base = demazure_window(word, n)
        if word:
            k = rng.randrange(len(word))
            doubled = word[: k + 1] + [word[k]] + word[k + 1 :]
            assert demazure_window(doubled, n) == base


def test_reduced_case_agrees_with_group_product():
    # every word over S_4 letters of length <= 5
    def words(alphabet, length):
        if length == 0:
            yield ()
            return
        for w in words(alphabet, length - 1):
            for a in alphabet:
                yield w + (a,)

    for length in range(6):
        for word in words((1, 2, 3), length):
            dem = demazure_window(word, 4)
            if inversions(dem) == len(word):
                assert ordinary_product(word, 4) == dem


def test_right_multiplication_changes_length_by_one():
    for n in (2, 3, 4, 5):
        for window in all_windows(n):
            l = inversions(window)
            for a in range(1, n):
                assert abs(inversions(apply_s(window, a)) - l) == 1


def reduced_word(window):
    """A reduced word for the permutation, built greedily by first descents."""
    word = []
    cur = list(window)
    while inversions(tuple(cur)) > 0:
        a = next(i for i in range(1, len(cur)) if cur[i - 1] > cur[i])
        cur[a - 1], cur[a] = cur[a], cur[a - 1]
        word.append(a)
    word.reverse()
    return tuple(word)


def test_bruhat_matches_subword_definition():
    # u <= w iff some subsequence of a reduced word for w is reduced for u
    for wwin in all_windows(3):
        word = reduced_word(wwin)
        for uwin in all_windows(3):
            u = Permutation(uwin)
            assert word_contains_bruteforce(word, u) == bruhat_leq(uwin, wwin)


def test_word_contains_agrees_with_bruteforce():
    rng = random.Random(5)
    letters_pool = (3, 2, 1, 3, 2, 3)
    for _ in range(150):
        k = rng.randint(0, 6)
        word = tuple(rng.choice(letters_pool) for _ in range(k))
        for window in all_windows(4):
            w = Permutation(window)
            contains = bruhat_leq(window, demazure_window(word, 4))
            assert contains == word_contains_bruteforce(word, w)


@st.composite
def words(draw):
    """A rank n in 2..6 and a word of at most 9 letters in s_1..s_{n-1}."""
    n = draw(st.integers(2, 6))
    return n, tuple(draw(st.lists(st.integers(1, n - 1), max_size=9)))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(words())
def test_demazure_is_longest_reduced_subword_product(case):
    n, word = case
    assert demazure_window(word, n) == demazure_bruteforce(word, n)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(2, 5).flatmap(
    lambda n: st.tuples(st.permutations(range(1, n + 1)), st.permutations(range(1, n + 1)))))
def test_bruhat_leq_is_subword_containment(case):
    """u <= w iff a reduced word of w contains a reduced word of u."""
    uwin, wwin = (tuple(p) for p in case)
    word = reduced_word(wwin)
    assert demazure_bruteforce(word, len(wwin)) == wwin and len(word) == inversions(wwin)
    assert bruhat_leq(uwin, wwin) == word_contains_bruteforce(word, Permutation(uwin))


@pytest.mark.parametrize("n", range(1, 7))
def test_packed_bruhat_equals_sorted_prefix_on_all_pairs(n):
    windows = list(all_windows(n))
    for u in windows:
        for w in windows:
            assert bruhat_leq(u, w) == bruhat_leq_prefix(u, w), (u, w)


@st.composite
def bruhat_pairs(draw):
    """A window w of rank n <= 16, a window u below it, the Demazure
    product of a subword of a reduced word of w, and a window v drawn
    freely: at least half the pairs compared are comparable."""
    n = draw(st.integers(1, 16))
    w = tuple(draw(st.permutations(range(1, n + 1))))
    word = reduced_word(w)
    keep = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    u = demazure_window([a for a, k in zip(word, keep) if k], n)
    v = tuple(draw(st.permutations(range(1, n + 1))))
    return u, v, w


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(bruhat_pairs())
def test_packed_bruhat_equals_sorted_prefix_up_to_rank_16(case):
    u, v, w = case
    assert bruhat_leq_prefix(u, w)
    for x, y in ((u, w), (w, u), (v, w), (w, v)):
        assert bruhat_leq(x, y) == bruhat_leq_prefix(x, y), (x, y)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_a_count_of_n_minus_one_fills_its_field(n):
    """In a window ending in 1 the count r(n-1, 2) = #{i <= n-1 : p(i) >= 2}
    is n - 1, every bit below its guard bit at these ranks, in the lowest
    field of the code.  The comparison stays exact on pairs of windows
    that end in 1 or in 2, where that field is n - 1 or n - 2."""
    ends_in_1 = [tuple(range(2, n + 1)) + (1,), tuple(range(n, 0, -1))]
    ends_in_2 = [(1, *range(3, n + 1), 2), (*range(n, 2, -1), 1, 2)] if n > 2 else [(1, 2)]
    low = bruhat_guard(n) & -bruhat_guard(n)
    for p in ends_in_1:
        assert bruhat_code(p) & 2 * low - 1 == low - 1 == n - 1
    for u in ends_in_1 + ends_in_2:
        for w in ends_in_1 + ends_in_2:
            assert bruhat_leq(u, w) == bruhat_leq_prefix(u, w), (u, w)


def test_bruhat_rank_mismatch_names_both_ranks():
    with pytest.raises(ValueError, match="rank mismatch: 3 and 4"):
        bruhat_leq((1, 2, 3), (1, 2, 3, 4))


@pytest.mark.parametrize("entry", [2.0, True, "2"])
def test_entries_that_are_not_ints_are_refused(entry):
    """(2.0, 1.0) used to be accepted and print as 2.01.0."""
    with pytest.raises(ValueError, match=f"entry {entry!r} of"):
        Permutation((entry, 1))


def test_parse_and_serialize():
    w = parse_permutation("1432")
    assert w.window == (1, 4, 3, 2)
    assert str(w) == "1432"
    big = parse_permutation("1,10,9,8,7,6,5,4,3,2")
    assert big.n == 10 and str(big).startswith("1,10")
    with pytest.raises(ValueError):
        parse_permutation("14x2")
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
