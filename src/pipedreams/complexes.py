"""Abstract simplicial complexes, face/h-vectors, and the pipe dream
complex of a permutation.

The pipe dream complex of w has the staircase boxes as potential vertices;
a set of boxes is a face when the letters on the complementary boxes still
contain w, and the facets are the elbow sets of the reduced pipe dreams.
The h-polynomial counts each facet's decreasing flips: one Demazure fold
per cross and one comparison per elbow.  Interior faces are the elbow sets
of the pipe dreams of w, listed by the search; the face closure `faces()`
serves `realize` alone.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Hashable, Iterable

from .dreams import (
    Box,
    enumerate_pipe_dreams,
    reduced_pipe_dreams,
    staircase_boxes,
    staircase_product,
    triangular_word,
)
from .perms import Permutation, bruhat_leq, demazure_fold, identity_window
from .poly import MultiPolynomial
from .report import read_canonical

Face = frozenset


def _downward_closure(faces: Iterable[Face]) -> frozenset[Face]:
    """Every subset of every given face, the empty face included."""
    out: set[Face] = set()
    for face in faces:
        elems = sorted(face)
        for k in range(len(elems) + 1):
            for sub in combinations(elems, k):
                out.add(frozenset(sub))
    return frozenset(out)


class SimplicialComplex:
    """A pure complex given by its facets, which have one size and so are
    never nested, over a finite, sortable vertex set."""

    __slots__ = ("vertices", "facets", "_faces")

    def __init__(self, facets: Iterable[Iterable[Hashable]]):
        facet_sets = sorted({frozenset(f) for f in facets}, key=sorted)
        if not facet_sets:
            raise ValueError("a complex needs at least one facet (possibly empty)")
        sizes = {len(f) for f in facet_sets}
        if len(sizes) > 1:
            raise ValueError(f"facets of a pure complex have one size, got sizes {sorted(sizes)}")
        self.facets: tuple[Face, ...] = tuple(facet_sets)
        vertices: set = set()
        for f in self.facets:
            vertices |= f
        self.vertices = tuple(sorted(vertices))
        self._faces: frozenset[Face] | None = None

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and (self.vertices, self.facets) == (other.vertices, other.facets)
        )

    def __hash__(self):
        return hash((self.vertices, self.facets))

    @property
    def dim(self) -> int:
        return len(self.facets[0]) - 1

    def faces(self) -> frozenset[Face]:
        """Downward closure of the facets, including the empty face."""
        if self._faces is None:
            self._faces = _downward_closure(self.facets)
        return self._faces

    def to_jsonable(self) -> dict:
        index = {v: i for i, v in enumerate(self.vertices)}
        return {
            "vertices": [list(v) if isinstance(v, tuple) else v for v in self.vertices],
            "facets": sorted(sorted(index[v] for v in f) for f in self.facets),
        }

    @classmethod
    def from_jsonable(cls, data) -> "SimplicialComplex":
        def build(d):
            vertices = [tuple(v) if isinstance(v, list) else v for v in d["vertices"]]
            return cls([vertices[i] for i in facet] for facet in d["facets"])
        return read_canonical(cls, data, build)

    def __repr__(self):
        return f"SimplicialComplex({len(self.vertices)} vertices, {len(self.facets)} facets)"


def h_polynomial(C: SimplicialComplex, w: Permutation) -> MultiPolynomial:
    """h-polynomial sum h_k x^k of the pipe dream complex C of w, by
    decreasing flips: h_k counts the facets with k of them.  w gives n.

    C is the subword complex of the triangular word and w.  Let i be an
    elbow of a facet, with letter s_a, u the product of the crosses before
    i and v = u^-1 w that of those after; l(u) + l(v) = l(w).  i is a
    decreasing flip exactly when u s_a < u, that is u(a) > u(a+1):
    1. If u s_a < u, the Demazure product of the crosses with i added skips
       s_a and is still w, so the ridge without i is interior (Knutson-Miller
       2004, Thm 3.7); by the exchange property the cross that leaves in
       the flip comes before i.
    2. If u s_a > u and a cross j before i left in the flip, deleting j
       would give u = u' s_a with l(u') < l(u), against u s_a > u.
    3. Reversing the word and inverting w carries C onto the subword
       complex of the reversed word and w^-1 and decreasing flips onto
       increasing ones, whose count per facet gives h (Knutson-Miller 2004;
       Ceballos-Labbe-Stump 2014).

    >>> w = Permutation((1, 4, 3, 2))
    >>> print(h_polynomial(build_pdc(w), w))
    x^2 + 3*x + 1
    """
    n = w.n
    reading = tuple(zip(staircase_boxes(n), triangular_word(n)))
    h = [0] * (C.dim + 2)
    for facet in C.facets:
        u = identity_window(n)
        flips = 0
        for b, a in reading:
            if b not in facet:
                u = demazure_fold(u, (a,))
            elif u[a - 1] > u[a]:
                flips += 1
        h[flips] += 1
    return MultiPolynomial(("x",), {(k,): c for k, c in enumerate(h) if c})


def f_vector(h: MultiPolynomial, d: int) -> tuple[int, ...]:
    """Face counts (f_{-1}, f_0, ..., f_{d-1}), the empty face included, of
    a pure complex with facets of size d and h-polynomial h: the inverse of
    the f-to-h transform, f_{i-1} = sum_k h_k C(d-k, i-k).

    >>> f_vector(MultiPolynomial.one(("x",)), 2)
    (1, 2, 1)
    """
    return tuple(
        sum(c * comb(d - k, i - k) for (k,), c in h.terms.items() if k <= i)
        for i in range(d + 1)
    )


def build_pdc(w: Permutation) -> SimplicialComplex:
    """The pipe dream complex of w: the elbow sets of its reduced pipe
    dreams.

    >>> C = build_pdc(Permutation((1, 4, 3, 2)))
    >>> len(C.vertices), len(C.facets)
    (6, 5)
    """
    return SimplicialComplex(P.elbows() for P in reduced_pipe_dreams(w))


def is_face_of_pdc(boxes: Iterable[Box], w: Permutation) -> bool:
    """Whether a box set is a face of the pipe dream complex of w: the
    letters on the complementary boxes must contain a reduced word for w.
    A word contains one exactly when its Demazure product dominates w in
    Bruhat order, which is how it is tested here."""
    return bruhat_leq(w.window, staircase_product(w.n, boxes))


def interior_faces(w: Permutation) -> list[tuple[Face, int]]:
    """The interior faces of the pipe dream complex of w, sorted by
    (codim, face): the elbow sets of Pipes(w), with codim |P| - l(w)
    (Knutson-Miller 2004).  No face closure is built."""
    l = w.length()
    faces = ((frozenset(P.elbows()), P.size - l) for P in enumerate_pipe_dreams(w))
    return sorted(faces, key=lambda t: (t[1], sorted(t[0])))
