"""Permutations of [n] in one-line notation, words in the simple
reflections s_a, and the Demazure (0-Hecke) product.

Windows are tuples of the values 1..n; position a is window[a-1].  Right
multiplication by s_a swaps the entries in positions a, a+1.  The Demazure
product folds a word left-to-right, keeping a letter only when it lengthens
the permutation - the semantics of ignoring repeated pipe crossings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _itperms
from typing import Iterable, Iterator

Window = tuple[int, ...]
Word = tuple[int, ...]


# -- tuple-level kernel ------------------------------------------------------

def identity_window(n: int) -> Window:
    return tuple(range(1, n + 1))


def inversions(window: Window) -> int:
    """Number of pairs i<j with window[i] > window[j].

    >>> inversions((1, 4, 3, 2))
    3
    """
    n = len(window)
    return sum(1 for i in range(n) for j in range(i + 1, n) if window[i] > window[j])


def demazure_fold(u: Window, letters: Iterable[int]) -> Window:
    """u times the letters in order, each s_a applied only when it
    lengthens: the one Demazure (0-Hecke) fold.  Letters are not
    range-checked here; `demazure_window` checks words from outside.

    >>> demazure_fold((1, 2, 3, 4), (3, 2, 3, 3))
    (1, 4, 3, 2)
    """
    w = list(u)
    for a in letters:
        if w[a - 1] < w[a]:
            w[a - 1], w[a] = w[a], w[a - 1]
    return tuple(w)


def demazure_window(letters: Iterable[int], n: int) -> Window:
    letters = tuple(letters)
    for a in letters:
        if not 1 <= a <= n - 1:
            raise ValueError(f"letter {a} out of range for rank {n}")
    return demazure_fold(identity_window(n), letters)


# rank n -> (the row step of each value, bits per row, guard mask G), worked
# out once per rank; see `bruhat_code`
_PACKING: dict[int, tuple[tuple[int, ...], int, int]] = {}


def _packing(n: int) -> tuple[tuple[int, ...], int, int]:
    got = _PACKING.get(n)
    if got is None:
        width = (n - 1).bit_length() + 1
        # field f of a row holds the count for v = f + 2, so a value x adds
        # one to the fields f < x - 1, v = 2..x
        step = tuple(sum(1 << f * width for f in range(x - 1)) for x in range(n + 1))
        guard = sum(1 << f * width for f in range((n - 1) ** 2)) << width - 1
        got = _PACKING[n] = (step, (n - 1) * width, guard)
    return got


def bruhat_code(window: Window) -> int:
    """The rank counts r(k, v) = #{i <= k : window(i) >= v}, for
    1 <= k <= n-1 and 2 <= v <= n, packed into one int, one field per
    (k, v).  A field is wide enough for n-1 plus a guard bit above it.
    The other counts are the same for every window of rank n:
    r(k, 1) = k and r(n, v) = n - v + 1.  Row k of fields is row k-1 plus
    a constant with a one in each field v = 2..window(k).

    >>> format(bruhat_code((2, 1, 3)), "012b")  # rows k = 1, 2 of fields v = 3, 2
    '000001000001'
    """
    step, row_bits, _ = _packing(len(window))
    code = row = 0
    for x in window[:-1]:
        row += step[x]
        code = code << row_bits | row
    return code


def bruhat_guard(n: int) -> int:
    """The guard bit of every field of a rank-n `bruhat_code`."""
    return _packing(n)[2]


def bruhat_leq(u: Window, w: Window) -> bool:
    """Strong Bruhat order: u <= w exactly when r_u(k, v) <= r_w(k, v)
    for every k and v, with r(k, v) = #{i <= k : p(i) >= v} (Bjorner-Brenti,
    Combinatorics of Coxeter Groups, Thm 2.1.5).  With the codes of
    `bruhat_code` and G their guard mask, that is one subtraction:
    ((code(w) | G) - code(u)) & G == G.

    Proof: let g be a field's guard bit and u_f, w_f its counts in u and
    w, so 0 <= u_f, w_f < g.  The field of code(w) | G holds g + w_f, and
    the subtraction leaves it g + w_f - u_f, which lies in [1, 2g): the
    field neither borrows from the one above nor overflows into it, so
    the fields are subtracted independently.  The field's guard bit
    survives iff g + w_f - u_f >= g, that is iff w_f >= u_f.

    >>> bruhat_leq((2, 1, 3), (3, 1, 2))
    True
    >>> bruhat_leq((2, 3, 1), (3, 1, 2))
    False
    """
    n = len(u)
    if len(w) != n:
        raise ValueError(f"rank mismatch: {n} and {len(w)}")
    guard = _packing(n)[2]
    return ((bruhat_code(w) | guard) - bruhat_code(u)) & guard == guard


def all_windows(n: int) -> Iterator[Window]:
    return _itperms(range(1, n + 1))


# -- public wrapper ----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Permutation:
    """A permutation of [n] in one-line notation, 1-indexed throughout."""

    window: Window

    def __post_init__(self):
        w = tuple(self.window)
        object.__setattr__(self, "window", w)
        for v in w:
            if type(v) is not int:
                raise ValueError(f"entry {v!r} of {w} is not an int")
        if sorted(w) != list(range(1, len(w) + 1)):
            raise ValueError(f"{w} is not a permutation of 1..{len(w)}")

    @property
    def n(self) -> int:
        return len(self.window)

    def __call__(self, i: int) -> int:
        return self.window[i - 1]

    def length(self) -> int:
        """Inversion count l(w)."""
        return inversions(self.window)

    def __str__(self):
        return permutation_to_string(self)


def permutation_to_string(w: Permutation) -> str:
    """"1432" for n <= 9, comma-separated beyond."""
    if w.n <= 9:
        return "".join(str(v) for v in w.window)
    return ",".join(str(v) for v in w.window)


def parse_permutation(text: str) -> Permutation:
    text = text.strip()
    try:
        if "," in text:
            window = tuple(int(p) for p in text.split(","))
        elif text.isdigit():
            window = tuple(int(ch) for ch in text)
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"cannot parse permutation {text!r}") from None
    return Permutation(window)


def catalan_permutation(n: int) -> Permutation:
    """The permutation 1 n n-1 ... 2, whose reduced pipe dreams are counted
    by the Catalan numbers.

    >>> catalan_permutation(4).window
    (1, 4, 3, 2)
    """
    return Permutation(tuple([1] + list(range(n, 1, -1))))


def demazure_product(word: Iterable[int], n: int) -> Permutation:
    """Demazure (0-Hecke) product of a word, folded from the identity.

    >>> demazure_product((2, 3, 2), 4).window
    (1, 4, 3, 2)
    >>> demazure_product((3, 2, 3, 3), 4).window
    (1, 4, 3, 2)
    """
    return Permutation(demazure_window(word, n))


def is_reduced_word(word: Word, w: Permutation) -> bool:
    """True iff the word is a reduced decomposition of w."""
    return len(word) == w.length() and demazure_window(word, w.n) == w.window

