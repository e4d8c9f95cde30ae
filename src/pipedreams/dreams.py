"""The staircase shape and pipe dreams.

Boxes of the staircase for rank n are the pairs (row, col) with
row + col <= n.  Reading order is row 1 to row n-1, each row scanned right
to left; the box (r, c) carries the letter s_{r+c-1}.  Concatenating the
letters in reading order gives the triangular word
(s_{n-1}, ..., s_1, s_{n-1}, ..., s_2, ..., s_{n-1}).

A pipe dream is a set of crossed boxes; its permutation is the Demazure
product of the letters at the crosses, taken in reading order.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable

from .perms import Permutation, Window, bruhat_leq, demazure_fold, identity_window

Box = tuple[int, int]

# Pruned DFS over the staircase is fast at desk scale but still exponential
# in principle; refuse ranks past the limit.  `cli.main` sets it from
# `--limit-n`; a library caller sets it with `LIMIT_N.set(n)`.
DEFAULT_LIMIT_N = 9
LIMIT_N: ContextVar[int] = ContextVar("LIMIT_N", default=DEFAULT_LIMIT_N)


class EnumerationLimitError(ValueError):
    """Rank exceeds the configured pipe dream search limit."""


@cache
def staircase_boxes(n: int) -> tuple[Box, ...]:
    """All staircase boxes for rank n, in reading order.

    >>> staircase_boxes(3)
    ((1, 2), (1, 1), (2, 1))
    """
    return tuple((r, c) for r in range(1, n) for c in range(n - r, 0, -1))


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
    """A set of crossed staircase boxes for rank n."""

    n: int
    crosses: tuple[Box, ...]

    def __post_init__(self):
        crosses = tuple(sorted(set(self.crosses)))
        if len(crosses) != len(tuple(self.crosses)):
            raise ValueError("duplicate cross positions")
        for r, c in crosses:
            if r < 1 or c < 1 or r + c > self.n:
                raise ValueError(f"box {(r, c)} outside the staircase for n={self.n}")
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
        return cls(data["n"], tuple((r, c) for r, c in data["crosses"]))


def search_prune(w: Permutation) -> Callable[[Window, int], bool]:
    """The memoized prune of every staircase walk towards w: whether a
    running Demazure product u, with the letters from reading position i
    still to come, can end at w.  The final product always dominates u, so
    u must stay below w; and it is dominated by the product of u with all
    remaining letters, which must stay above w."""
    target = w.window
    letters = triangular_word(w.n)
    below: dict[Window, bool] = {}
    reach: dict[tuple[Window, int], bool] = {}

    def viable(u: Window, i: int) -> bool:
        v = below.get(u)
        if v is None:
            v = below[u] = bruhat_leq(u, target)
        if not v:
            return False
        key = (u, i)
        v = reach.get(key)
        if v is None:
            v = reach[key] = bruhat_leq(target, demazure_fold(u, letters[i:]))
        return v

    return viable


def enumerate_pipe_dreams(w: Permutation) -> list[PipeDream]:
    """Every cross set whose Demazure product is w, reduced and nonreduced,
    sorted by (size, cross list).

    Depth-first search in reading order over the staircase, carrying the
    running Demazure product u and cut by `search_prune`.

    >>> [p.size for p in enumerate_pipe_dreams(Permutation((1, 4, 3, 2)))]
    [3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5]
    """
    n = w.n
    limit = LIMIT_N.get()
    if n > limit:
        raise EnumerationLimitError(
            f"rank {n} exceeds search limit {limit}; raise --limit-n to override"
        )
    boxes = staircase_boxes(n)
    letters = triangular_word(n)
    m = len(boxes)
    target = w.window
    # one-letter words for the cross step, built once rather than per node
    steps = [(a,) for a in letters]
    viable = search_prune(w)

    found: list[tuple[Box, ...]] = []
    chosen: list[Box] = []

    def dfs(i: int, u: Window) -> None:
        if not viable(u, i):
            return
        if i == m:
            if u == target:
                found.append(tuple(chosen))
            return
        dfs(i + 1, u)
        chosen.append(boxes[i])
        dfs(i + 1, demazure_fold(u, steps[i]))
        chosen.pop()

    dfs(0, identity_window(n))
    dreams = [PipeDream(n, crosses) for crosses in found]
    dreams.sort(key=lambda p: (p.size, p.crosses))
    return dreams


def reduced_pipe_dreams(w: Permutation) -> list[PipeDream]:
    l = w.length()
    return [P for P in enumerate_pipe_dreams(w) if P.size == l]
