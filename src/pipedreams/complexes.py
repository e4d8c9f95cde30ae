"""Abstract simplicial complexes, face/h-vectors, and the pipe dream
complex of a permutation.

The pipe dream complex of w has the staircase boxes as potential vertices;
a set of boxes is a face when the letters on the complementary boxes still
contain w, and the facets are the elbow sets of the reduced pipe dreams.
Interior faces are the elbow sets whose complementary cross set has
Demazure product exactly w, i.e. the pipe dreams of w.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb
from typing import Hashable, Iterable

from .dreams import Box, reduced_pipe_dreams, staircase_product
from .perms import Permutation, bruhat_leq
from .poly import MultiPolynomial

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

    def boundary_faces(self) -> frozenset[Face]:
        """Topological boundary: the closure of the codimension-1 faces
        lying in exactly one facet."""
        ridges = Counter(
            frozenset(r) for facet in self.facets for r in combinations(sorted(facet), self.dim)
        )
        return _downward_closure(ridge for ridge, count in ridges.items() if count == 1)

    def to_jsonable(self) -> dict:
        index = {v: i for i, v in enumerate(self.vertices)}
        return {
            "vertices": [list(v) if isinstance(v, tuple) else v for v in self.vertices],
            "facets": sorted(sorted(index[v] for v in f) for f in self.facets),
        }

    @classmethod
    def from_jsonable(cls, data) -> "SimplicialComplex":
        vertices = [tuple(v) if isinstance(v, list) else v for v in data["vertices"]]
        return cls([(vertices[i] for i in facet) for facet in data["facets"]])

    def __repr__(self):
        return f"SimplicialComplex({len(self.vertices)} vertices, {len(self.facets)} facets)"


def f_vector(C: SimplicialComplex) -> tuple[int, ...]:
    """Count all faces by dimension, the empty face included:
    (f_{-1}, f_0, ..., f_{d-1}) with f_{-1} = 1.

    >>> f_vector(SimplicialComplex([("a", "b")]))
    (1, 2, 1)
    """
    counts = [0] * (C.dim + 2)
    for face in C.faces():
        counts[len(face)] += 1
    return tuple(counts)


def h_polynomial(C: SimplicialComplex) -> MultiPolynomial:
    """h-polynomial sum h_i x^i via the standard f-to-h transform.

    With d the common facet size:
    sum_i f_{i-1} (x-1)^{d-i} = sum_i h_i x^{d-i}.
    """
    fv = f_vector(C)
    d = len(fv) - 1
    # fv[i] is f_{i-1}; h_k collects the x^(d-k) terms of the sum above
    h = [sum((-1) ** (k - i) * comb(d - i, k - i) * fv[i] for i in range(k + 1))
         for k in range(d + 1)]
    return MultiPolynomial(("x",), {(i,): c for i, c in enumerate(h) if c})


def build_pdc(w: Permutation) -> SimplicialComplex:
    """The pipe dream complex of w: facets are the elbow sets of the
    reduced pipe dreams.

    >>> C = build_pdc(Permutation((1, 4, 3, 2)))
    >>> len(C.vertices), len(C.facets)
    (6, 5)
    """
    facets = [frozenset(P.elbows()) for P in reduced_pipe_dreams(w)]
    return SimplicialComplex(facets)


def is_face_of_pdc(boxes: Iterable[Box], w: Permutation) -> bool:
    """Whether a box set is a face of the pipe dream complex of w: the
    letters on the complementary boxes must contain a reduced word for w.
    A word contains one exactly when its Demazure product dominates w in
    Bruhat order, which is how it is tested here."""
    return bruhat_leq(w.window, staircase_product(w.n, boxes))


def interior_faces(
    C: SimplicialComplex, w: Permutation
) -> list[tuple[Face, int]]:
    """Faces whose complementary cross set is a pipe dream for w, with
    their codimensions.  These are exactly the faces labeled by Pipes(w)."""
    d = C.dim + 1
    out = []
    for face in C.faces():
        if staircase_product(w.n, face) == w.window:
            out.append((face, d - len(face)))
    out.sort(key=lambda t: (t[1], sorted(t[0])))
    return out


def h_from_interior(C: SimplicialComplex, w: Permutation) -> MultiPolynomial:
    """Interior-face form of the h-polynomial: sum of b^codim over interior
    faces, which equals h(C, b+1) for a ball."""
    return MultiPolynomial(("b",), (((codim,), 1) for _face, codim in interior_faces(C, w)))
