"""The staircase shape and pipe dreams.

Boxes of the staircase for rank n are the pairs (row, col) with
row + col <= n.  Reading order is row 1 to row n-1, each row scanned right
to left; the box (r, c) carries the letter s_{r+c-1}.  Concatenating the
letters in reading order gives the triangular word
(s_{n-1}, ..., s_1, s_{n-1}, ..., s_2, ..., s_{n-1}).

A pipe dream is a set of crossed boxes; its permutation is the Demazure
product of the letters at the crosses, taken in reading order.
`staircase_transfer` is the one walk over the staircase towards a
permutation w: it counts the cross sets that fold to w under a key the
caller chooses.  A step is a tuple of key offsets, and a cross picks one
of them, so one kernel lists Pipes(w), counts its crosses by row, and
expands the product of (x_r - y_c) over each cross set.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache
from itertools import compress
from typing import Iterable, Sequence

from .perms import Permutation, Window, bruhat_code, bruhat_guard, demazure_fold, identity_window
from .report import read_canonical

Box = tuple[int, int]

# The digits of a binary numeral as the bytes 0 and 1 that `compress` reads
_BITS = bytes.maketrans(b"01", b"\x00\x01")

# An expansion over the cross sets of Pipes(w) is fast at desk scale but
# still exponential in principle; refuse ranks past the limit.  `cli.main`
# sets it from `--limit-n`; a library caller sets it with `LIMIT_N.set(n)`.
DEFAULT_LIMIT_N = 9
LIMIT_N: ContextVar[int] = ContextVar("LIMIT_N", default=DEFAULT_LIMIT_N)


class EnumerationLimitError(ValueError):
    """Rank exceeds the configured pipe dream search limit."""


def refuse_past_limit(n: int) -> None:
    """Raise EnumerationLimitError if rank n is past `LIMIT_N`."""
    if n > (limit := LIMIT_N.get()):
        raise EnumerationLimitError(f"rank {n} exceeds search limit {limit}; raise --limit-n to override")


@cache
def staircase_boxes(n: int) -> tuple[Box, ...]:
    """All staircase boxes for rank n, in reading order.

    >>> staircase_boxes(3)
    ((1, 2), (1, 1), (2, 1))
    """
    return tuple((r, c) for r in range(1, n) for c in range(n - r, 0, -1))


@cache
def _staircase_set(n: int) -> frozenset[Box]:
    return frozenset(staircase_boxes(n))


def box_letter(box: Box) -> int:
    r, c = box
    return r + c - 1


@cache
def triangular_word(n: int) -> tuple[int, ...]:
    """Letters of the staircase in reading order.

    >>> triangular_word(4)
    (3, 2, 1, 3, 2, 3)
    """
    return tuple(box_letter(b) for b in staircase_boxes(n))


def staircase_product(n: int, elbows: Iterable[Box]) -> Window:
    """The Demazure product of the letters on the staircase boxes not in
    `elbows`, in reading order: the permutation of the pipe dream whose
    crosses are those boxes.

    >>> staircase_product(4, [(1, 1), (2, 1), (3, 1)])
    (1, 4, 3, 2)
    """
    skip = set(elbows)
    letters = [a for b, a in zip(staircase_boxes(n), triangular_word(n)) if b not in skip]
    return demazure_fold(identity_window(n), letters)


@dataclass(frozen=True, slots=True)
class PipeDream:
    """A set of crossed staircase boxes for rank n, held sorted.  Refuses
    a negative rank, a box listed twice and a box off the rank-n staircase."""

    n: int
    crosses: tuple[Box, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"rank {self.n} is negative")
        crosses = tuple(sorted(self.crosses))
        boxes = set(crosses)
        if len(boxes) != len(crosses):
            raise ValueError("duplicate cross positions")
        staircase = _staircase_set(self.n)
        if not boxes <= staircase:
            box = next(b for b in crosses if b not in staircase)
            raise ValueError(f"box {box} outside the staircase for n={self.n}")
        object.__setattr__(self, "crosses", crosses)

    @property
    def size(self) -> int:
        return len(self.crosses)

    def elbows(self) -> tuple[Box, ...]:
        cross = set(self.crosses)
        return tuple(b for b in staircase_boxes(self.n) if b not in cross)

    def permutation(self) -> Permutation:
        return Permutation(staircase_product(self.n, self.elbows()))

    def to_jsonable(self) -> dict:
        return {"n": self.n, "crosses": [list(b) for b in self.crosses]}

    @classmethod
    def from_jsonable(cls, data) -> "PipeDream":
        return read_canonical(cls, data, lambda d: cls(
            int(d["n"]), tuple(tuple(map(int, box)) for box in d["crosses"])))


def _trusted(n: int, crosses: tuple[Box, ...]) -> PipeDream:
    """A PipeDream that skips validation: the caller vouches that n is
    nonnegative and `crosses` a strictly increasing tuple of boxes on the
    rank-n staircase."""
    out = object.__new__(PipeDream)
    object.__setattr__(out, "n", n)
    object.__setattr__(out, "crosses", crosses)
    return out


def staircase_transfer(w: Permutation, steps: Sequence[tuple[int, ...]]) -> dict[int, int]:
    """The one walk over the staircase towards w: a transfer in reading
    order over running Demazure products (the Fomin-Kirillov product in
    the 0-Hecke algebra).  Each state u maps the key of every term read so
    far whose cross set folds to u to the number of such terms: an elbow
    keeps u and the key, a cross at reading position i folds in its letter
    and picks one offset of the tuple steps[i] to add to the key, so each
    term goes on once per offset.  Keys that meet have their counts added.
    Returns the keys that end at w.

    A state is cut unless it can still end at w: the final product
    dominates u, so u <= w, and it is dominated by the fold of u with every
    letter still to come, so w <= that fold.  Both are Bruhat comparisons
    by the rank-count criterion of `perms.bruhat_leq`: u <= v iff no count
    r_u(k, c) = #{i <= k : u(i) >= c} exceeds r_v(k, c), each count a field
    of `perms.bruhat_code`.  With G the guard bit of every field, that is
    ((code(v) | G) - code(u)) & G == G, since each field of the difference
    is g + r_v - r_u in [1, 2g) for its guard bit g, so no borrow crosses
    a field and g survives iff r_v >= r_u.  The code of w is computed once
    per walk; the first test is memoized per u, the second computes the
    fold's code once per state.

    With every step (1,), a key is a number of crosses:

    >>> sorted(staircase_transfer(Permutation((1, 4, 3, 2)), [(1,)] * 6).items())
    [(3, 5), (4, 5), (5, 1)]
    """
    target = w.window
    letters = triangular_word(w.n)
    if len(steps) != len(letters):
        raise ValueError(f"{len(steps)} steps for the {len(letters)} boxes of the rank-{w.n} staircase")
    for i, step in enumerate(steps):
        if not step:
            raise ValueError(f"step {i} has no offset")
    guard = bruhat_guard(w.n)
    code_w = bruhat_code(target)
    top = code_w | guard
    below: dict[Window, bool] = {}
    states = {identity_window(w.n): {0: 1}}
    for i, (a, (first, *more)) in enumerate(zip(letters, steps)):
        nxt: dict[Window, dict[int, int]] = {}
        for u, keys in states.items():
            ok = below.get(u)
            if ok is None:
                ok = below[u] = (top - bruhat_code(u)) & guard == guard
            if not ok or ((bruhat_code(demazure_fold(u, letters[i:])) | guard) - code_w) & guard != guard:
                continue
            crossed = {k + first: c for k, c in keys.items()}
            for d in more:
                for k, c in keys.items():
                    crossed[k + d] = crossed.get(k + d, 0) + c
            # the elbow passes u's dict on uncopied: nothing merges into it
            # before u's own step is done
            for v, t in ((u, keys), (demazure_fold(u, (a,)), crossed)):
                got = nxt.setdefault(v, t)
                if got is not t:
                    for k, c in t.items():
                        got[k] = got.get(k, 0) + c
        states = nxt
    return states.get(target, {})


def enumerate_pipe_dreams(w: Permutation) -> list[PipeDream]:
    """Every cross set whose Demazure product is w, reduced and nonreduced,
    sorted by (size, cross list): the keys of `staircase_transfer` with
    step (2^(N-1-j),) at the box of sorted index j of N.  A key's N-digit
    binary numeral marks its crosses in sorted order, and at one size a
    larger key is a smaller cross list, so the keys sort as plain ints.

    Every key has at most N bits, since along one path through the
    staircase each box adds its own bit at most once.  So `compress` reads
    each key's crosses off `order`: sorted, distinct and on the staircase,
    and each dream is built without the constructor's checks.  The crosses
    go into an exact-size tuple: `tuple` of an iterator over-allocates, and
    pymalloc keeps the slack of a block shrunk by less than a quarter.

    >>> [p.size for p in enumerate_pipe_dreams(Permutation((1, 4, 3, 2)))]
    [3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5]
    """
    n = w.n
    refuse_past_limit(n)
    order = sorted(staircase_boxes(n))
    step = {b: (1 << j,) for j, b in enumerate(reversed(order))}
    keys = staircase_transfer(w, [step[b] for b in staircase_boxes(n)])
    numeral = f"0{len(order)}b"
    return [_trusted(n, tuple([*compress(order, format(k, numeral).encode().translate(_BITS))]))
            for k in sorted(keys, key=lambda k: (k.bit_count(), -k))]


def reduced_pipe_dreams(w: Permutation) -> list[PipeDream]:
    l = w.length()
    return [P for P in enumerate_pipe_dreams(w) if P.size == l]
